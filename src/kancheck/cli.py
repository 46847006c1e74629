"""Command-line driver: presets, input parsing, and certificate emission.

Subcommands:

* ``identities``      -- fuzz the operator power laws and basic identities.
* ``kan``             -- build a set from a preset or input file and run the
                          Kan check to a point (nerve, diagonals, rows, columns).
* ``pointwise``       -- certify that a diagonal Kan fibration fills every
                          pointwise horn, including the transposed sweep.
* ``counterexample``  -- one-shot certificates for the built-in presets.

Exit code 0 means every check came out as expected, where counterexample
presets expect their documented failures; anything else is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from .bisimplicial import (
    TruncatedBisimplicialSet,
    column,
    diagonal,
    row,
    tensor,
    to_point_bimap,
)
from .errors import RejectedInput
from .groups import (
    COMPOSITION_CONVENTION,
    FiniteGroup,
    group_from_permutations,
    group_from_table,
    subgroup_products_distinct,
    product_set,
)
from .groupoids import eg_construction, nerve, one_object_groupoid
from .kan import (
    CompatibleFamily,
    brute_force_fill,
    check_kan_fibration,
    check_trivial_fibration_to_point,
    is_compatible,
)
from .ordinal import BASIC_IDENTITIES, check_basic_identity, check_power_identity
from .pointwise import verify_pointwise_fillers
from .presets import (
    PRESET_NAMES,
    eg_tensor_group,
    preset_bisimplicial,
    preset_double_groupoid,
    preset_group_pair,
)
from .doublegroupoid import Square, double_nerve_indexed
from .serialize import (
    certificate_to_dict,
    family_from_dict,
    fibration_report_to_dict,
    simplicial_from_dict,
    sweep_report_to_dict,
)
from .simplicial import Simplex, TruncatedSimplicialSet, pi0, to_point_map

CONVENTIONS = {
    "permutation_composition": COMPOSITION_CONVENTION,
    "indices": "0-based everywhere (dimensions, face indices, rows, columns)",
    "search_order": "ascending simplex id; reports are schedule-independent",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected_to_pass: bool
    summary: str
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def as_expected(self) -> bool:
        return self.passed == self.expected_to_pass


@dataclass
class RunReport:
    command: str
    config: dict[str, Any]
    conventions: dict[str, str]
    checks: list[CheckResult]
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def overall_ok(self) -> bool:
        return all(c.as_expected for c in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "config": self.config,
            "conventions": self.conventions,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "expected_to_pass": c.expected_to_pass,
                    "as_expected": c.as_expected,
                    "summary": c.summary,
                    "details": c.details,
                }
                for c in self.checks
            ],
            "overall_ok": self.overall_ok,
            "timings": self.timings,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunReport":
        return RunReport(
            data["command"],
            dict(data["config"]),
            dict(data["conventions"]),
            [
                CheckResult(
                    c["name"], c["passed"], c["expected_to_pass"], c["summary"],
                    dict(c["details"]),
                )
                for c in data["checks"]
            ],
            dict(data.get("timings", {})),
        )

    def verdict_dict(self) -> dict[str, Any]:
        """The reproducible part of the report: everything except timings."""
        data = self.to_dict()
        data.pop("timings")
        return data

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in sorted(self.config.items()):
            lines.append(f"  {key}: {value}")
        for key, value in sorted(self.conventions.items()):
            lines.append(f"  convention/{key}: {value}")
        for c in self.checks:
            if c.as_expected:
                tag = "PASS" if c.passed else "FAIL(expected)"
            else:
                tag = "UNEXPECTED-PASS" if c.passed else "FAIL"
            lines.append(f"[{tag:>15}] {c.name}: {c.summary}")
        good = sum(c.as_expected for c in self.checks)
        state = "OK" if self.overall_ok else "NOT OK"
        lines.append(f"overall: {state} ({good}/{len(self.checks)} checks as expected)")
        return "\n".join(lines)


def load_input(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def group_from_input(data: dict[str, Any]) -> FiniteGroup:
    entry = data.get("group")
    if entry is None:
        raise RejectedInput("input file has no 'group' entry")
    if "table" in entry:
        return group_from_table(entry["labels"], entry["table"])
    if "generators" in entry:
        return group_from_permutations(entry["degree"], entry["generators"])
    raise RejectedInput("group entry needs either labels+table or degree+generators")


def subgroups_from_input(data: dict[str, Any], G: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    def resolve(key: str) -> tuple[int, ...]:
        labels = data.get(key)
        if labels is None:
            raise RejectedInput(f"input file has no {key!r} entry")
        return tuple(G.index(s) for s in labels)

    return resolve("subgroup_a"), resolve("subgroup_b")


def _bisimplicial_from_source(
    preset: str | None, data: dict[str, Any] | None, P: int, Q: int
) -> TruncatedBisimplicialSet:
    if preset is not None:
        return preset_bisimplicial(preset, P, Q)
    assert data is not None
    if "group" in data and ("subgroup_a" in data or "subgroup_b" in data):
        from .doublegroupoid import double_nerve, group_pair_double_groupoid

        G = group_from_input(data)
        A, B = subgroups_from_input(data, G)
        return double_nerve(group_pair_double_groupoid(G, A, B), P, Q)
    if "group" in data:
        eg = eg_construction(group_from_input(data), max(P, Q))
        return tensor(eg, eg)
    raise RejectedInput("cannot build a bisimplicial set from this input")


def cmd_identities(args: argparse.Namespace) -> RunReport:
    max_n = args.max_n
    if max_n > 10:
        raise RejectedInput("max-n is capped at 10")
    start = time.perf_counter()
    checked = 0
    violations: list[tuple] = []
    for n in range(max_n + 1):
        for family in (1, 2, 3, 4):
            for i in range(n + 1):
                for j in range(n + 1):
                    for m in range(1, n + 2):
                        try:
                            ok = check_power_identity(family, i, j, m, n)
                        except RejectedInput:
                            continue
                        checked += 1
                        if not ok:
                            violations.append(("power", family, i, j, m, n))
        for name in BASIC_IDENTITIES:
            for i in range(n + 2):
                for j in range(n + 1):
                    try:
                        ok = check_basic_identity(name, i, j, n)
                    except RejectedInput:
                        continue
                    checked += 1
                    if not ok:
                        violations.append(("basic", name, i, j, n))
    elapsed = time.perf_counter() - start
    check = CheckResult(
        "operator-identities",
        passed=not violations,
        expected_to_pass=True,
        summary=(
            f"{checked} identity instances hold for n <= {max_n}"
            if not violations
            else f"violated at {violations[0]}"
        ),
        details={"checked": checked, "violations": [list(v) for v in violations]},
    )
    return RunReport(
        "identities",
        {"max_n": max_n, "format": args.format},
        CONVENTIONS,
        [check],
        {"identities": elapsed},
    )


def _kan_check_to_point(
    X: TruncatedSimplicialSet, max_dim: int, name: str, meta: dict[str, Any]
) -> CheckResult:
    report = check_kan_fibration(to_point_map(X), max_dim)
    details: dict[str, Any] = dict(meta)
    details["report"] = fibration_report_to_dict(report)
    summary = (
        f"all {report.families_checked} horns filled up to dim {max_dim}"
        if report.passed
        else (
            f"unfillable horn at n={report.failure.family.n}, "
            f"I={list(report.failure.family.index_set)} after exhausting "
            f"{report.failure.candidates_examined} candidates"
        )
    )
    return CheckResult(name, report.passed, True, summary, details)


def _build_kan_objects(
    preset: str | None,
    data: dict[str, Any] | None,
    construction: str,
    indices: tuple[int, ...],
    max_dim: int,
) -> list[tuple[str, TruncatedSimplicialSet, dict[str, Any]]]:
    """The simplicial sets a kan run will check, with reverification metadata."""
    out: list[tuple[str, TruncatedSimplicialSet, dict[str, Any]]] = []
    meta_base = {"construction": construction, "max_dim": max_dim}
    if construction == "simplicial-set":
        if data is None or "simplicial_set" not in data:
            raise RejectedInput("construction simplicial-set needs an input file")
        out.append(("kan-simplicial-set", simplicial_from_dict(data["simplicial_set"]), meta_base))
    elif construction == "nerve":
        if preset is not None:
            G = eg_tensor_group() if preset == "eg-tensor" else preset_group_pair(preset).group
        else:
            G = group_from_input(data or {})
        out.append(("kan-nerve", nerve(one_object_groupoid(G), max_dim), meta_base))
    elif construction == "eg-tensor-diagonal":
        if preset is not None and preset != "eg-tensor":
            raise RejectedInput("eg-tensor-diagonal runs on the eg-tensor preset or an input group")
        if preset is not None:
            X = preset_bisimplicial("eg-tensor", max_dim, max_dim)
        else:
            eg = eg_construction(group_from_input(data or {}), max_dim)
            X = tensor(eg, eg)
        out.append(("kan-diagonal", diagonal(X), meta_base))
    elif construction == "double-nerve-diagonal":
        X = _bisimplicial_from_source(preset, data, max_dim, max_dim)
        out.append(("kan-diagonal", diagonal(X), meta_base))
    elif construction in ("row", "column"):
        span = max(max_dim, max(indices))
        X = _bisimplicial_from_source(preset, data, span, span)
        for idx in indices:
            piece = row(X, idx) if construction == "row" else column(X, idx)
            meta = dict(meta_base)
            meta["index"] = idx
            out.append((f"kan-{construction}-{idx}", piece, meta))
    else:
        raise RejectedInput(f"unknown construction {construction!r}")
    return out


def cmd_kan(args: argparse.Namespace) -> RunReport:
    data = load_input(args.input) if args.input else None
    indices = tuple(args.index) if args.index else (0, 1, 2)
    start = time.perf_counter()
    objects = _build_kan_objects(args.preset, data, args.construction, indices, args.max_dim)
    checks = [_kan_check_to_point(X, args.max_dim, name, meta) for name, X, meta in objects]
    elapsed = time.perf_counter() - start
    return RunReport(
        "kan",
        {
            "preset": args.preset,
            "input": args.input,
            "construction": args.construction,
            "indices": list(indices) if args.construction in ("row", "column") else None,
            "max_dim": args.max_dim,
            "format": args.format,
        },
        CONVENTIONS,
        checks,
        {"kan": elapsed},
    )


def cmd_pointwise(args: argparse.Namespace) -> RunReport:
    data = load_input(args.input) if args.input else None
    dim = args.max_total_dim
    start = time.perf_counter()
    X = _bisimplicial_from_source(args.preset, data, dim, dim)
    f = to_point_bimap(X)
    try:
        report = verify_pointwise_fillers(f, dim)
        check = CheckResult(
            "pointwise-fillers-from-diagonal",
            report.passed,
            True,
            (
                f"{report.problems_checked} pointwise horn problems solved through the "
                f"diagonal (direct and transposed) up to total dim {dim}"
                if report.passed
                else "a pointwise horn problem could not be filled"
            ),
            {"report": sweep_report_to_dict(report)},
        )
    except RejectedInput as exc:
        check = CheckResult(
            "diagonal-kan-precondition",
            False,
            True,
            str(exc),
            {},
        )
    elapsed = time.perf_counter() - start
    return RunReport(
        "pointwise",
        {
            "preset": args.preset,
            "input": args.input,
            "max_total_dim": dim,
            "format": args.format,
        },
        CONVENTIONS,
        [check],
        {"pointwise": elapsed},
    )


def _s3_counterexample_checks() -> list[CheckResult]:
    preset = preset_group_pair("s3-counterexample")
    G, A, B = preset.group, preset.A, preset.B
    D = preset_double_groupoid("s3-counterexample")
    NN = _bisimplicial_from_source("s3-counterexample", None, 3, 3)

    def products() -> CheckResult:
        distinct = subgroup_products_distinct(G, A, B)
        ab = sorted(G.labels[g] for g in product_set(G, A, B))
        ba = sorted(G.labels[g] for g in product_set(G, B, A))
        return CheckResult(
            "subgroup-products-differ",
            distinct,
            True,
            f"AB={ab} vs BA={ba}",
            {"AB": ab, "BA": ba},
        )

    def line_check(construction: str, index: int) -> CheckResult:
        line = column(NN, index) if construction == "column" else row(NN, index)
        return _kan_check_to_point(
            line, 3, f"{construction}-{index}-kan-to-point",
            {"construction": construction, "index": index, "max_dim": 3,
             "preset": "s3-counterexample"},
        )

    def horn() -> CheckResult:
        cert = s3_diagonal_horn_certificate()
        exhaustive = cert.candidates_examined == diagonal(
            preset_bisimplicial("s3-counterexample", 2, 2)
        ).size(2)
        return CheckResult(
            "diagonal-horn-unfillable",
            (not cert.filled) and is_compatible(cert.family) and exhaustive,
            True,
            (
                f"compatible horn on the diagonal with {D.n_squares} squares enumerated, "
                f"0 fillers found among all {cert.candidates_examined} candidates"
            ),
            {
                "certificate": certificate_to_dict(cert),
                "squares": D.n_squares,
                "preset": "s3-counterexample",
            },
        )

    return (
        [products()]
        + [line_check(construction, k) for construction in ("column", "row") for k in range(3)]
        + [horn()]
    )


def s3_diagonal_horn_certificate():
    """The compatible-but-unfillable diagonal horn of the subgroup-pair preset.

    The two faces are the identity squares of the generators of A and B, read
    as 1-simplices of the diagonal; the search exhausts the (2,2)-simplices.
    """
    preset = preset_group_pair("s3-counterexample")
    D = preset_double_groupoid("s3-counterexample")
    NN, keys = double_nerve_indexed(D, 2, 2)
    dg = diagonal(NN)
    a_arrow = D.horizontal.arrow_labels.index("(1,2)")
    b_arrow = D.vertical.arrow_labels.index("(1,3)")
    iota_a = D.square_id(
        Square(a_arrow, D.vertical.identity(0), a_arrow, D.vertical.identity(0))
    )
    iota_b = D.square_id(
        Square(D.horizontal.identity(0), b_arrow, D.horizontal.identity(0), b_arrow)
    )
    x0 = Simplex(1, keys[1][1].index(((iota_b,),)))
    x2 = Simplex(1, keys[1][1].index(((iota_a,),)))
    family = CompatibleFamily.from_mapping(
        to_point_map(dg), 2, {0: x0, 2: x2}, Simplex(2, 0)
    )
    return brute_force_fill(family)


def _eg_tensor_checks() -> list[CheckResult]:
    X = preset_bisimplicial("eg-tensor", 2, 2)
    report = check_trivial_fibration_to_point(diagonal(X), 2)
    trivial = CheckResult(
        "diagonal-trivial-fibration",
        report.passed,
        True,
        f"all {report.families_checked} compatible boundaries filled up to dim 2",
        {"report": fibration_report_to_dict(report)},
    )
    counts = [len(pi0(row(X, q))) for q in range(3)]
    order = eg_tensor_group().order
    rows_check = CheckResult(
        "rows-not-contractible",
        counts[0] == order and all(c > 1 for c in counts),
        True,
        (
            f"component counts by row: {counts}; the first row already has "
            f"{counts[0]} components, so no row is contractible while the "
            "diagonal is trivially fibrant"
        ),
        {"pi0_by_row": counts, "group_order": order},
    )
    return [trivial, rows_check]


def cmd_counterexample(args: argparse.Namespace) -> RunReport:
    start = time.perf_counter()
    if args.preset == "s3-counterexample":
        checks = _s3_counterexample_checks()
    elif args.preset == "z2-commuting":
        preset = preset_group_pair("z2-commuting")
        distinct = subgroup_products_distinct(preset.group, preset.A, preset.B)
        checks = [
            CheckResult(
                "subgroup-products-differ",
                distinct,
                False,
                "AB equals BA, so the counterexample is inapplicable to this preset",
                {"applicable": distinct},
            )
        ]
    elif args.preset == "eg-tensor":
        checks = _eg_tensor_checks()
    else:
        raise RejectedInput(f"no counterexample preset named {args.preset!r}")
    elapsed = time.perf_counter() - start
    return RunReport(
        "counterexample",
        {
            "preset": args.preset,
            "format": args.format,
        },
        CONVENTIONS,
        checks,
        {"counterexample": elapsed},
    )


def _rebuild_for_reverify(config: dict[str, Any], meta: dict[str, Any]) -> TruncatedSimplicialSet:
    construction = meta.get("construction")
    preset = meta.get("preset", config.get("preset"))
    if construction == "diagonal-horn":
        return diagonal(preset_bisimplicial(preset, 2, 2))
    max_dim = meta.get("max_dim", config.get("max_dim"))
    data = load_input(config["input"]) if config.get("input") else None
    indices = (meta.get("index", 0),)
    return _build_kan_objects(preset, data, construction, indices, max_dim)[0][1]


def _report_consistent(check_passed: bool, report: dict[str, Any]) -> bool:
    """Whether an embedded report's derived fields agree with its cells.

    Every cell is fully filled except the last cell before a failure, which
    stops one short; the totals are the sums of the cells, and the verdicts
    follow from the failure (and, for a boundary sweep, the base point).
    """
    failure = report["failure"]
    if report.get("kind") == "pointwise-sweep":
        size = "problems"
        transposed = failure is not None and failure["transposed"]
        sides = [
            (report["direct_cells"], failure is not None and not transposed),
            (report["transposed_cells"], transposed),
        ]
        total = sum(c[size] for cells, _ in sides for c in cells)
        derived = (
            report["problems_checked"] == total
            and report["families_verified_compatible"] == total
            and report["passed"] == (failure is None)
        )
    else:
        size = "families"
        sides = [(report["cells"], failure is not None)]
        derived = (
            report["families_checked"] == sum(c[size] for c in report["cells"])
            and report["passed"] == (failure is None and not report["base_point_missing"])
        )
    for cells, failed in sides:
        for k, c in enumerate(cells):
            stops_short = failed and k == len(cells) - 1
            if c["filled"] != c[size] - int(stops_short):
                return False
    return derived and check_passed == report["passed"]


def reverify_report(report: RunReport) -> bool:
    """Check every embedded report and re-run every embedded certificate.

    Returns True when each embedded report's totals and verdicts agree with
    its cells, and each embedded family is still compatible on the rebuilt
    object with the brute-force search reproducing the recorded outcome,
    witness and count.
    """
    for check in report.checks:
        if "report" in check.details and not _report_consistent(
            check.passed, check.details["report"]
        ):
            return False
        payload = None
        meta = dict(check.details)
        if "certificate" in check.details:
            payload = check.details["certificate"]
            meta.setdefault("construction", "diagonal-horn")
        elif "report" in check.details and check.details["report"].get("failure"):
            if check.details["report"]["kind"] == "pointwise-sweep":
                # the sweep runs only once the diagonal passed the Kan check,
                # and then every pointwise horn fills, so no sweep can fail
                return False
            payload = check.details["report"]["failure"]
        if payload is None:
            continue
        X = _rebuild_for_reverify(report.config, meta)
        f = to_point_map(X)
        family = family_from_dict(f, payload["family"])
        if not is_compatible(family):
            return False
        cert = brute_force_fill(family)
        recorded_outcome = payload["outcome"]
        if ("filled" if cert.filled else "unfillable") != recorded_outcome:
            return False
        if cert.candidates_examined != payload["candidates_examined"]:
            return False
        witness = payload.get("witness")
        if (witness is None) != (cert.witness is None):
            return False
        if witness is not None and cert.witness.idx != witness["id"]:
            return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kancheck",
        description="exhaustive Kan-condition certification for finite (bi)simplicial sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p_id = sub.add_parser("identities", help="fuzz the operator identity families")
    p_id.add_argument("--max-n", type=int, default=6)
    common(p_id)
    p_id.set_defaults(func=cmd_identities)

    p_kan = sub.add_parser("kan", help="Kan check to a point")
    p_kan.add_argument("--preset", choices=PRESET_NAMES)
    p_kan.add_argument("--input", help="JSON input file (group tables or explicit sets)")
    p_kan.add_argument(
        "--construction",
        choices=("nerve", "double-nerve-diagonal", "eg-tensor-diagonal", "row",
                 "column", "simplicial-set"),
        required=True,
    )
    p_kan.add_argument("--index", type=int, action="append",
                       help="row/column index; repeatable (default 0 1 2)")
    p_kan.add_argument("--max-dim", type=int, default=3)
    common(p_kan)
    p_kan.set_defaults(func=cmd_kan)

    p_pw = sub.add_parser("pointwise", help="pointwise fillers from a diagonal fibration")
    p_pw.add_argument("--preset", choices=PRESET_NAMES)
    p_pw.add_argument("--input")
    p_pw.add_argument("--max-total-dim", type=int, default=3)
    common(p_pw)
    p_pw.set_defaults(func=cmd_pointwise)

    p_cx = sub.add_parser("counterexample", help="one-shot preset certificates")
    p_cx.add_argument("--preset", choices=PRESET_NAMES, required=True)
    common(p_cx)
    p_cx.set_defaults(func=cmd_counterexample)
    return parser


def run(argv: Sequence[str] | None = None) -> tuple[int, RunReport | None]:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "preset", None) is None and getattr(args, "input", None) is None:
        if args.command in ("kan", "pointwise"):
            parser.error(f"{args.command} needs either --preset or --input")
    try:
        report: RunReport = args.func(args)
    except RejectedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    if args.format == "structured":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return (0 if report.overall_ok else 1), report


def main(argv: Sequence[str] | None = None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
