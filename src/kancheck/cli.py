"""Command-line driver: presets, input parsing, and certificate emission.

Subcommands:

* ``identities``      -- fuzz the operator power laws and basic identities.
* ``kan``             -- build a set from a preset or input file and run the
                          Kan check to a point (nerve, diagonals, rows, columns).
* ``pointwise``       -- certify that a diagonal Kan fibration fills every
                          pointwise horn, including the transposed sweep.
* ``counterexample``  -- one-shot certificates for the built-in presets.

A ``--preset`` or ``--input`` resolves to a group with its subgroup pair or
None (:func:`_resolve`); ``simplicial-set`` reads an input's record instead.

Each command's arguments are data, defined once in ``COMMANDS``.  A valid
run is read from that table and builds no parser; only any other argv builds
the argparse parser, which prints help and every error (:func:`_parse`).

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
    SubgroupPair,
    eg_tensor_group,
    preset_bisimplicial,
    preset_double_groupoid,
    preset_source,
    source_bisimplicial,
)
from .doublegroupoid import (
    DoubleGroupoid,
    Square,
    diagonal_stages,
    double_nerve,
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
    entry = json_shape(data.get("group"), dict, "group entry")
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


def subgroups_from_input(data: dict[str, Any], G: FiniteGroup) -> SubgroupPair:
    def resolve(key: str) -> tuple[int, ...]:
        labels = json_shape(required_entry(data, key, "input file"), list, key)
        return tuple(G.index(s) for s in labels)

    return resolve("subgroup_a"), resolve("subgroup_b")


def _resolve(
    preset: str | None, data: dict[str, Any] | None, what: str, with_pair: bool = True
) -> tuple[FiniteGroup, SubgroupPair | None]:
    """The source's group and its subgroup pair, or None for a lone group or
    when not ``with_pair`` (an input's pair is then not read)."""
    if preset is not None:
        G, pair = preset_source(preset)
        return G, pair if with_pair else None
    assert data is not None
    if data.get("group") is None:
        raise RejectedInput(f"{what} needs a group, and the input file has none")
    G = group_from_input(data)
    if with_pair and ("subgroup_a" in data or "subgroup_b" in data):
        return G, subgroups_from_input(data, G)
    return G, None


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
    meta = {"construction": construction, "max_dim": max_dim}
    what = f"construction {construction}"
    if construction == "simplicial-set":
        if data is None or "simplicial_set" not in data:
            source = "the input file" if preset is None else f"preset {preset}"
            raise RejectedInput(f"{what} needs a simplicial_set record, and {source} has none")
        X = simplicial_from_dict(data["simplicial_set"])
        # a verdict is about a simplicial set: a record that breaks a law is
        # refused, naming its first violation
        violations = validate_simplicial_identities(X).violations
        if violations:
            raise RejectedInput(
                "simplicial-set record breaks the simplicial identities: "
                + violations[0].describe(X)
            )
        return [("kan-simplicial-set", X, meta)]
    # every other construction is built from the source's group, and all
    # but the nerve and the eg-tensor diagonal from its subgroup pair if any
    G, pair = _resolve(preset, data, what, construction not in ("nerve", "eg-tensor-diagonal"))
    if construction == "nerve":
        return [("kan-nerve", nerve(one_object_groupoid(G), max_dim), meta)]
    if construction in ("row", "column"):
        # only the lines asked for are read, each to max_dim: rows need the
        # vertical bound to reach the top index, columns the horizontal one
        top = max(0, *indices)
        P, Q = (max_dim, top) if construction == "row" else (top, max_dim)
        X = source_bisimplicial(G, pair, P, Q)
        line = row if construction == "row" else column
        return [(f"kan-{construction}-{idx}", line(X, idx), dict(meta, index=idx))
                for idx in indices]
    # the two diagonals, each grown a level at a time under its check, so a
    # failing verdict builds nothing above its failing level.  On a lone group
    # the diagonal of EG (x) EG is EG x EG, decided from its factors: it is
    # built only as far as a search of it reads
    if pair is None:
        eg = eg_construction(G, max_dim)
        diag = product_stages(eg, eg)
    else:
        diag = diagonal_stages(group_pair_double_groupoid(G, *pair), max_dim)
    return [("kan-diagonal", diag, meta)]


def cmd_kan(args: argparse.Namespace) -> RunReport:
    if args.max_dim < 1:
        raise RejectedInput("max_dim must be at least 1")
    if args.index and args.construction not in ("row", "column"):
        raise RejectedInput("--index applies only to the row and column constructions")
    indices = tuple(args.index or (0, 1, 2))
    if len(set(indices)) < len(indices):
        raise RejectedInput("--index values must be distinct")
    data = None if args.input is None else load_input(args.input)
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
    data = None if args.input is None else load_input(args.input)
    start = time.perf_counter()
    X = source_bisimplicial(*_resolve(args.preset, data, "command pointwise"), dim, dim)
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
    G, (A, B) = preset_source("s3-counterexample")
    # one double groupoid and one double nerve serve every check
    D = group_pair_double_groupoid(G, A, B)
    NN = double_nerve(D, 3, 3)

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
        cert = _s3_horn_certificate(D, NN)
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
    return _s3_horn_certificate(D, double_nerve(D, 2, 2))


def _s3_horn_certificate(D: DoubleGroupoid, NN: TruncatedBisimplicialSet) -> FillCertificate:
    """The horn of :func:`s3_diagonal_horn_certificate` on the diagonal of
    NN, a double nerve of D to bounds (2, 2) or more, where a (1, 1)
    bisimplex, an arrow of column 1's groupoid, has its square's id."""
    a_arrow = D.horizontal.arrow_labels.index("(1,2)")
    b_arrow = D.vertical.arrow_labels.index("(1,3)")
    h_id, v_id = D.horizontal.identity(0), D.vertical.identity(0)
    iota_a = D.square_id(Square(a_arrow, v_id, a_arrow, v_id))
    iota_b = D.square_id(Square(h_id, b_arrow, h_id, b_arrow))
    return brute_force_fill(to_point_map(diagonal(NN)), 2, (0, 2), (iota_b, iota_a), 0)


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


def _z2_commuting_checks() -> list[CheckResult]:
    G, (A, B) = preset_source("z2-commuting")
    distinct = subgroup_products_distinct(G, A, B)
    return [
        CheckResult(
            "subgroup-products-differ",
            distinct,
            False,
            "AB equals BA, so the counterexample is inapplicable to this preset",
            {"applicable": distinct},
        )
    ]


# preset -> the checks of its certificate
COUNTEREXAMPLE_CHECKS = {
    "s3-counterexample": _s3_counterexample_checks,
    "z2-commuting": _z2_commuting_checks,
    "eg-tensor": _eg_tensor_checks,
}


def cmd_counterexample(args: argparse.Namespace) -> RunReport:
    start = time.perf_counter()
    checks = COUNTEREXAMPLE_CHECKS[args.preset]()
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
        args = _parse(argv)
        fresh = args.func(args)
    except (RejectedInput, SystemExit):
        return False
    return _verdict_bytes(fresh) == _verdict_bytes(report)


def _verdict_bytes(report: RunReport) -> str:
    return json.dumps(report.verdict_dict(), sort_keys=True)


# the source of a kan or pointwise run: exactly one of the two is required
SOURCE = (("--preset", {"choices": PRESET_NAMES}),
          ("--input", {"help": "JSON input file (group tables or explicit sets)"}))
FORMAT = ("--format", {"choices": ("text", "structured"), "default": "text"})

# name -> (help line, command function, its source or (), its other arguments),
# each argument a flag and its argparse keywords
COMMANDS = {
    "identities": ("fuzz the operator identity families", cmd_identities, (),
                   (("--max-n", {"type": int, "default": 6}),)),
    "kan": ("Kan check to a point", cmd_kan, SOURCE, (
        ("--construction", {"choices": ("nerve", "double-nerve-diagonal", "eg-tensor-diagonal",
                                        "row", "column", "simplicial-set"), "required": True}),
        ("--index", {"type": int, "action": "append",
                     "help": "row/column index; repeatable (default 0 1 2)"}),
        ("--max-dim", {"type": int, "default": 3}),
    )),
    "pointwise": ("pointwise fillers from a diagonal fibration", cmd_pointwise, SOURCE,
                  (("--max-total-dim", {"type": int, "default": 3}),)),
    "counterexample": ("one-shot preset certificates", cmd_counterexample, (),
                       (("--preset", {"choices": PRESET_NAMES, "required": True}),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kancheck",
        description="exhaustive Kan-condition certification for finite (bi)simplicial sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, command, source, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if source:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, keywords in source:
                group.add_argument(flag, **keywords)
        for flag, keywords in (*arguments, FORMAT):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=command)
    return parser


# the full parser (five parsers), built once per process for an argv _read refuses
_parser = cache(build_parser)


def _read(argv: Sequence[str]) -> argparse.Namespace | None:
    """A valid run's Namespace, read from ``COMMANDS`` with no parser, or None."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, command, source, arguments = COMMANDS[argv[0]]
    table = dict((*source, *arguments, FORMAT))
    given: dict[str, Any] = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = table.get(flag)
        # a value led by "-" is left to argparse, which may read it as a flag
        if keywords is None or text.startswith("-"):
            return None
        append = keywords.get("action") == "append"
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)) or (flag in given and not append):
            return None
        given[flag] = given.get(flag, []) + [value] if append else value
    missing = any(kw.get("required") and flag not in given for flag, kw in table.items())
    if missing or (source and sum(flag in given for flag, _ in source) != 1):
        return None
    return argparse.Namespace(command=argv[0], func=command, **{
        flag[2:].replace("-", "_"): given.get(flag, keywords.get("default"))
        for flag, keywords in table.items()
    })


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read by :func:`_read` with no
    parser for a valid run; any other argv (help, an error, ``--flag=value``,
    an abbreviated flag, a value led by ``-``) goes to the full parser."""
    argv = sys.argv[1:] if argv is None else argv
    return _read(argv) or _parser().parse_args(argv)


def run(argv: Sequence[str] | None = None) -> tuple[int, RunReport | None]:
    args = _parse(argv)
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
