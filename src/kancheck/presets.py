"""Built-in input presets used by the command-line driver and the tests."""

from __future__ import annotations

from dataclasses import dataclass

from .bisimplicial import TruncatedBisimplicialSet, tensor
from .doublegroupoid import DoubleGroupoid, double_nerve, group_pair_double_groupoid
from .errors import RejectedInput
from .groups import FiniteGroup, cyclic_group, symmetric_group_preset
from .groupoids import eg_construction


@dataclass(frozen=True)
class GroupPairPreset:
    name: str
    group: FiniteGroup
    A: tuple[int, ...]
    B: tuple[int, ...]


def s3_counterexample() -> GroupPairPreset:
    """G the symmetric group on three letters, A = {id, (1,2)}, B = {id, (1,3)}."""
    G = symmetric_group_preset(3)
    return GroupPairPreset(
        "s3-counterexample",
        G,
        (G.identity, G.index("(1,2)")),
        (G.identity, G.index("(1,3)")),
    )


def z2_commuting() -> GroupPairPreset:
    """G of order two with A = B = G; the product sets coincide."""
    G = cyclic_group(2)
    all_of_g = tuple(range(G.order))
    return GroupPairPreset("z2-commuting", G, all_of_g, all_of_g)


GROUP_PAIR_PRESETS = {
    "s3-counterexample": s3_counterexample,
    "z2-commuting": z2_commuting,
}

PRESET_NAMES = ("s3-counterexample", "z2-commuting", "eg-tensor")


def preset_group_pair(name: str) -> GroupPairPreset:
    try:
        return GROUP_PAIR_PRESETS[name]()
    except KeyError:
        raise RejectedInput(f"no group-pair preset named {name!r}") from None


def preset_double_groupoid(name: str) -> DoubleGroupoid:
    data = preset_group_pair(name)
    return group_pair_double_groupoid(data.group, data.A, data.B)


def eg_tensor_group() -> FiniteGroup:
    return cyclic_group(2)


def preset_bisimplicial(name: str, P: int, Q: int) -> TruncatedBisimplicialSet:
    if name == "eg-tensor":
        if P != Q:
            raise RejectedInput("the tensor preset uses symmetric bounds")
        # the external square of the universal cover of the order-two group
        eg = eg_construction(eg_tensor_group(), P)
        return tensor(eg, eg)
    return double_nerve(preset_double_groupoid(name), P, Q)
