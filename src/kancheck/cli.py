"""Command-line driver: presets, input parsing, and certificate emission.

Subcommands:

* ``identities``      -- fuzz the operator power laws and basic identities.
* ``kan``             -- build a set from a preset or input file and run the
                          Kan check to a point (nerve, diagonals, rows, columns).
* ``pointwise``       -- certify that a diagonal Kan fibration fills every
                          pointwise horn, including the transposed sweep.
* ``counterexample``  -- one-shot certificates for the built-in presets.

Exit code 0 means every check came out as expected, where counterexample
presets expect their documented failures; 1 means a check came out otherwise
(a correct "not Kan" verdict of a command that expects a pass), 2 rejected
input, and 3 an uncaught exception, a crash (:func:`main`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Sequence

from .bisimplicial import (
    TruncatedBisimplicialSet,
    column,
    diagonal,
    product_stages,
    row,
    tensor,
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
    FillCertificate,
    brute_force_fill,
    check_kan_to_point,
    check_trivial_fibration_to_point,
)
from .ordinal import BASIC_IDENTITIES, check_basic_identity, check_power_identity
from .pointwise import verify_pointwise_to_point
from .presets import (
    PRESET_NAMES,
    eg_tensor_group,
    preset_bisimplicial,
    preset_double_groupoid,
    preset_group_pair,
)
from .doublegroupoid import (
    DoubleGroupoid,
    Square,
    diagonal_stages,
    double_nerve_indexed,
    group_pair_double_groupoid,
)
from .serialize import (
    certificate_to_dict,
    fibration_report_to_dict,
    json_int_array,
    json_shape,
    required_entry,
    simplicial_from_dict,
    sweep_report_to_dict,
)
from .simplicial import (
    Stages,
    TruncatedSimplicialSet,
    pi0,
    to_point_map,
    validate_simplicial_identities,
)

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
        """Read a report back, refusing one with a missing or ill-typed entry;
        the recorded ``as_expected`` and ``overall_ok`` must be what ``passed``
        and ``expected_to_pass`` imply."""

        def entry(record: dict[str, Any], key: str, kind: type, what: str) -> Any:
            return json_shape(required_entry(record, key, what), kind, f"{what} {key!r}")

        json_shape(data, dict, "report")
        checks = []
        for c in entry(data, "checks", list, "report"):
            json_shape(c, dict, "check")
            check = CheckResult(
                entry(c, "name", str, "check"),
                entry(c, "passed", bool, "check"),
                entry(c, "expected_to_pass", bool, "check"),
                entry(c, "summary", str, "check"),
                dict(entry(c, "details", dict, "check")),
            )
            if entry(c, "as_expected", bool, "check") != check.as_expected:
                raise RejectedInput(f"check {check.name!r} records a wrong as_expected")
            checks.append(check)
        report = RunReport(
            entry(data, "command", str, "report"),
            dict(entry(data, "config", dict, "report")),
            dict(entry(data, "conventions", dict, "report")),
            checks,
            dict(json_shape(data.get("timings", {}), dict, "report 'timings'")),
        )
        if entry(data, "overall_ok", bool, "report") != report.overall_ok:
            raise RejectedInput("the report records a wrong overall_ok")
        return report

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
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise RejectedInput(f"cannot read input file {path!r}: {exc}") from None
    return json_shape(data, dict, "input file")


def group_from_input(data: dict[str, Any]) -> FiniteGroup:
    entry = data.get("group")
    if entry is None:
        raise RejectedInput("input file has no 'group' entry")
    json_shape(entry, dict, "group entry")
    if "table" in entry:
        return group_from_table(
            json_shape(required_entry(entry, "labels", "group entry"), list, "group labels"),
            json_int_array(entry["table"], 2, "group table"),
        )
    if "generators" in entry:
        return group_from_permutations(
            json_shape(required_entry(entry, "degree", "group entry"), int, "group degree"),
            json_int_array(entry["generators"], 2, "group generators"),
        )
    raise RejectedInput("group entry needs either labels+table or degree+generators")


def subgroups_from_input(data: dict[str, Any], G: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    def resolve(key: str) -> tuple[int, ...]:
        labels = json_shape(required_entry(data, key, "input file"), list, key)
        return tuple(G.index(s) for s in labels)

    return resolve("subgroup_a"), resolve("subgroup_b")


def _double_groupoid_from_source(
    preset: str | None, data: dict[str, Any] | None
) -> DoubleGroupoid | None:
    """The preset or input's subgroup-pair double groupoid, or None when the
    source is a single group."""
    if preset is not None:
        return None if preset == "eg-tensor" else preset_double_groupoid(preset)
    assert data is not None
    if "group" in data and ("subgroup_a" in data or "subgroup_b" in data):
        G = group_from_input(data)
        return group_pair_double_groupoid(G, *subgroups_from_input(data, G))
    return None


def _bisimplicial_from_source(
    preset: str | None, data: dict[str, Any] | None, P: int, Q: int
) -> TruncatedBisimplicialSet:
    """The preset or input's bisimplicial set at bounds ``(P, Q)``: a group
    pair gives its double nerve, a single group the external square of EG."""
    D = _double_groupoid_from_source(preset, data)
    if D is not None:
        # looked up at call time, so that a wrapper of the module's function
        # (such as a tracer's) sees the call
        from .doublegroupoid import double_nerve

        return double_nerve(D, P, Q)
    if preset is None and "group" not in data:
        raise RejectedInput("cannot build a bisimplicial set from this input")
    G = _group(preset, data)
    eg = eg_construction(G, P)
    return tensor(eg, eg if Q == P else eg_construction(G, Q))


def _group(preset: str | None, data: dict[str, Any] | None) -> FiniteGroup:
    """The group of a source: the eg-tensor preset's, a group-pair preset's
    ambient group, or the input's."""
    if preset is None:
        return group_from_input(data or {})
    return eg_tensor_group() if preset == "eg-tensor" else preset_group_pair(preset).group


def cmd_identities(args: argparse.Namespace) -> RunReport:
    max_n = args.max_n
    if max_n < 0:
        raise RejectedInput("max-n must be at least 0")
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


# what a kan run checks: a built set, or one grown under its check (a double
# nerve's diagonal, a product)
KanObject = TruncatedSimplicialSet | Stages


def _kan_check_to_point(
    X: KanObject, max_dim: int, name: str, meta: dict[str, Any]
) -> CheckResult:
    report = check_kan_to_point(X, max_dim)
    details: dict[str, Any] = dict(meta)
    details["report"] = fibration_report_to_dict(report)
    summary = (
        f"all {report.families_checked} horns filled up to dim {max_dim}"
        if report.passed
        else (
            f"unfillable horn at n={report.failure.n}, "
            f"I={list(report.failure.index_set)} after exhausting "
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
) -> list[tuple[str, KanObject, dict[str, Any]]]:
    """The simplicial sets a kan run will check, with the metadata each reports."""
    out: list[tuple[str, KanObject, dict[str, Any]]] = []
    meta_base = {"construction": construction, "max_dim": max_dim}
    if construction == "simplicial-set":
        if data is None:
            raise RejectedInput("construction simplicial-set needs an input file")
        if "simplicial_set" not in data:
            raise RejectedInput(
                "construction simplicial-set needs a simplicial_set record in the input file"
            )
        X = simplicial_from_dict(data["simplicial_set"])
        # a verdict is about a simplicial set: a record that breaks a law is
        # refused, naming its first violation
        violations = validate_simplicial_identities(X).violations
        if violations:
            raise RejectedInput(
                "simplicial-set record breaks the simplicial identities: "
                + violations[0].describe(X)
            )
        out.append(("kan-simplicial-set", X, meta_base))
    elif construction == "nerve":
        G = _group(preset, data)
        out.append(("kan-nerve", nerve(one_object_groupoid(G), max_dim), meta_base))
    elif construction in ("eg-tensor-diagonal", "double-nerve-diagonal"):
        if construction == "eg-tensor-diagonal" and preset not in (None, "eg-tensor"):
            raise RejectedInput("eg-tensor-diagonal runs on the eg-tensor preset or an input group")
        # the diagonal is grown a level at a time under its check, so a
        # failing verdict builds nothing above its failing level.  On a
        # single group the diagonal of EG (x) EG is EG x EG, decided from its
        # factors: it is built only as far as a search of it reads
        D = None
        if construction == "double-nerve-diagonal":
            D = _double_groupoid_from_source(preset, data)
        if D is None:
            eg = eg_construction(_group(preset, data), max_dim)
            diag = product_stages(eg, eg)
        else:
            diag = diagonal_stages(D, max_dim)
        out.append(("kan-diagonal", diag, meta_base))
    elif construction in ("row", "column"):
        # only the lines asked for are read, each to max_dim: rows need the
        # vertical bound to reach the top index, columns the horizontal one
        top = max(0, *indices)
        P, Q = (max_dim, top) if construction == "row" else (top, max_dim)
        X = _bisimplicial_from_source(preset, data, P, Q)
        for idx in indices:
            piece = row(X, idx) if construction == "row" else column(X, idx)
            meta = dict(meta_base)
            meta["index"] = idx
            out.append((f"kan-{construction}-{idx}", piece, meta))
    else:
        raise RejectedInput(f"unknown construction {construction!r}")
    return out


def cmd_kan(args: argparse.Namespace) -> RunReport:
    if args.index and args.construction not in ("row", "column"):
        raise RejectedInput("--index applies only to the row and column constructions")
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
    dim = args.max_total_dim
    if dim < 1:
        raise RejectedInput("max-total-dim must be at least 1")
    data = load_input(args.input) if args.input else None
    start = time.perf_counter()
    X = _bisimplicial_from_source(args.preset, data, dim, dim)
    try:
        report = verify_pointwise_to_point(X, dim)
        check = CheckResult(
            "pointwise-fillers-from-diagonal",
            report.passed,
            True,
            f"{report.problems_checked} pointwise horn problems solved through the "
            f"diagonal (direct and transposed) up to total dim {dim}",
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
    # one double groupoid and one double nerve serve every check
    D = group_pair_double_groupoid(G, A, B)
    NN, keys = double_nerve_indexed(D, 3, 3)

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
        cert = _s3_horn_certificate(D, NN, keys)
        # brute_force_fill refuses an incompatible family, so cert's is compatible
        exhaustive = cert.candidates_examined == cert.f.domain.size(2)
        return CheckResult(
            "diagonal-horn-unfillable",
            (not cert.filled) and exhaustive,
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
    D = preset_double_groupoid("s3-counterexample")
    return _s3_horn_certificate(D, *double_nerve_indexed(D, 2, 2))


def _s3_horn_certificate(
    D: DoubleGroupoid, NN: TruncatedBisimplicialSet, keys: tuple
) -> FillCertificate:
    """The horn of :func:`s3_diagonal_horn_certificate` on the diagonal of
    NN, a double nerve of D to bounds (2, 2) or more, whose keys are
    ``keys``."""
    a_arrow = D.horizontal.arrow_labels.index("(1,2)")
    b_arrow = D.vertical.arrow_labels.index("(1,3)")
    iota_a = D.square_id(
        Square(a_arrow, D.vertical.identity(0), a_arrow, D.vertical.identity(0))
    )
    iota_b = D.square_id(
        Square(D.horizontal.identity(0), b_arrow, D.horizontal.identity(0), b_arrow)
    )
    x0 = keys[1][1].index(((iota_b,),))
    x2 = keys[1][1].index(((iota_a,),))
    return brute_force_fill(to_point_map(diagonal(NN)), 2, (0, 2), (x0, x2), 0)


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


def reverify_report(report: RunReport) -> bool:
    """Re-run the report's command from its config and compare the verdicts.

    Each config key becomes its own flag (``indices`` a repeated ``--index``).
    Returns True only when the fresh ``verdict_dict()`` equals the report's
    byte for byte; input that is rejected, or that the parser refuses, gives
    False.  Nothing is printed to stdout.
    """
    argv = [report.command]
    for key, value in report.config.items():
        flag = "--index" if key == "indices" else "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is not None:
                argv += [flag, str(item)]
    try:
        args = _parser().parse_args(argv)
        fresh = args.func(args)
    except (RejectedInput, SystemExit):
        return False
    return _verdict_bytes(fresh) == _verdict_bytes(report)


def _verdict_bytes(report: RunReport) -> str:
    return json.dumps(report.verdict_dict(), sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kancheck",
        description="exhaustive Kan-condition certification for finite (bi)simplicial sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "structured"), default="text")

    def source(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", choices=PRESET_NAMES)
        group.add_argument("--input", help="JSON input file (group tables or explicit sets)")

    p_id = sub.add_parser("identities", help="fuzz the operator identity families")
    p_id.add_argument("--max-n", type=int, default=6)
    common(p_id)
    p_id.set_defaults(func=cmd_identities)

    p_kan = sub.add_parser("kan", help="Kan check to a point")
    source(p_kan)
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
    source(p_pw)
    p_pw.add_argument("--max-total-dim", type=int, default=3)
    common(p_pw)
    p_pw.set_defaults(func=cmd_pointwise)

    p_cx = sub.add_parser("counterexample", help="one-shot preset certificates")
    p_cx.add_argument("--preset", choices=PRESET_NAMES, required=True)
    common(p_cx)
    p_cx.set_defaults(func=cmd_counterexample)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was, so
    ``run`` and ``reverify_report`` share it."""
    return build_parser()


def run(argv: Sequence[str] | None = None) -> tuple[int, RunReport | None]:
    args = _parser().parse_args(argv)
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


# the exit status of an uncaught exception: a crash, never a verdict
CRASHED = 3


def main(argv: Sequence[str] | None = None) -> int:
    """:func:`run`'s exit status, or ``CRASHED`` with a one-line message on
    stderr when it raises (an ``InternalInvariantError``, a ``MemoryError``
    or anything else), so that a crash never reads as a verdict."""
    try:
        code, _ = run(argv)
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return CRASHED
    return code


if __name__ == "__main__":
    raise SystemExit(main())
