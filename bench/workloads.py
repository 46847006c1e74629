"""The benchmark's workloads: the command each one runs and the object it checks.

Every input is fixed and exact: a built-in preset or the permutation file under
``bench/inputs``.  Nothing is drawn at random, so ``--seed`` changes no input.
Paths are relative to the checkout root, where every worker process runs.
"""

from __future__ import annotations

import json

S4_INPUT = "bench/inputs/s4_pair.json"

# the eg-tensor preset is the universal cover of the group of order 2
EG_GROUP_ORDER = 2
KAN_DIAGONAL_EG_DIM = 4
POINTWISE_EG_DIM = 3
NOT_KAN_S4_DIM = 3

COMMANDS: dict[str, list[str]] = {
    "kan-diagonal-eg": [
        "kan", "--preset", "eg-tensor", "--construction", "eg-tensor-diagonal",
        "--max-dim", str(KAN_DIAGONAL_EG_DIM),
    ],
    "pointwise-eg": [
        "pointwise", "--preset", "eg-tensor", "--max-total-dim", str(POINTWISE_EG_DIM),
    ],
    "not-kan-s4": [
        "kan", "--input", S4_INPUT, "--construction", "double-nerve-diagonal",
        "--max-dim", str(NOT_KAN_S4_DIM),
    ],
}


def load_s4_input() -> dict:
    with open(S4_INPUT, "r", encoding="utf-8") as handle:
        return json.load(handle)


def build_checked_object(name: str):
    """Build what the workload's command checks, through the public
    constructors the command calls; returns the diagonal simplicial set."""
    from kancheck import (
        diagonal,
        double_nerve,
        group_from_permutations,
        group_pair_double_groupoid,
    )
    from kancheck.presets import preset_bisimplicial

    if name == "kan-diagonal-eg":
        d = KAN_DIAGONAL_EG_DIM
        return diagonal(preset_bisimplicial("eg-tensor", d, d))
    if name == "pointwise-eg":
        d = POINTWISE_EG_DIM
        return diagonal(preset_bisimplicial("eg-tensor", d, d))
    if name == "not-kan-s4":
        data = load_s4_input()
        G = group_from_permutations(data["group"]["degree"], data["group"]["generators"])
        A = tuple(G.index(s) for s in data["subgroup_a"])
        B = tuple(G.index(s) for s in data["subgroup_b"])
        d = NOT_KAN_S4_DIM
        return diagonal(double_nerve(group_pair_double_groupoid(G, A, B), d, d))
    raise ValueError(f"unknown workload {name!r}")
