"""Output checks, made apart from the program and run on every workload run.

Each check takes the structured report a command printed (parsed from JSON)
and returns a list of error strings; an empty list means the report is
correct.  The expected counts come from closed formulas, from plain
permutation arithmetic, or from the benchmark's own scan of the diagonal
tables, never from a stored copy of an earlier report.
"""

from __future__ import annotations

import copy
from typing import Any

from workloads import (
    EG_GROUP_ORDER,
    KAN_DIAGONAL_EG_DIM,
    NOT_KAN_S4_DIM,
    POINTWISE_EG_DIM,
)


class _Errors(list):
    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.append(message)
        return condition


def _single_check(report: dict[str, Any], command: str, name: str, errors: _Errors):
    errors.expect(report.get("command") == command, f"command is {report.get('command')!r}")
    checks = report.get("checks", [])
    if not errors.expect(len(checks) == 1, f"expected one check, got {len(checks)}"):
        return None
    errors.expect(checks[0]["name"] == name, f"check is named {checks[0]['name']!r}")
    return checks[0]


def eg_horn_families(n: int, group_order: int) -> int:
    """Horn families at dimension n on the diagonal of EG x EG.

    The diagonal is E(G x G), the nerve of the codiscrete groupoid on
    |G|^2 objects: a 1-horn is one vertex, and for n >= 2 a horn already
    holds every vertex, which fixes it.
    """
    vertices = group_order ** 2
    return vertices if n == 1 else vertices ** (n + 1)


def check_kan_diagonal_eg(
    report: dict[str, Any],
    max_dim: int = KAN_DIAGONAL_EG_DIM,
    group_order: int = EG_GROUP_ORDER,
) -> list[str]:
    errors = _Errors()
    check = _single_check(report, "kan", "kan-diagonal", errors)
    if check is None:
        return errors
    errors.expect(check["passed"] is True, "the diagonal is not reported Kan")
    errors.expect(report.get("overall_ok") is True, "overall_ok is not true")
    r = check["details"]["report"]
    errors.expect(r["passed"] is True and r["failure"] is None, "the report carries a failure")
    errors.expect(r["max_dim"] == max_dim, f"max_dim is {r['max_dim']}")
    expected_cells = [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]
    got_cells = [(c["n"], c["k"]) for c in r["cells"]]
    errors.expect(got_cells == expected_cells, f"cells {got_cells} != {expected_cells}")
    total = 0
    for c in r["cells"]:
        want = eg_horn_families(c["n"], group_order)
        total += want
        errors.expect(
            c["families"] == want and c["filled"] == want,
            f"cell (n={c['n']}, k={c['k']}): families={c['families']} "
            f"filled={c['filled']}, expected {want}",
        )
    errors.expect(r["families_checked"] == total, f"families_checked {r['families_checked']} != {total}")
    return errors


def eg_pointwise_problems(p: int, q: int, group_order: int) -> int:
    """Pointwise horn problems at column p, vertical dimension q.

    Column p of EG x EG is the discrete set EG_p (|G|^(p+1) points) times EG,
    and a q-horn in EG is one vertex for q = 1 and all q+1 vertices above.
    """
    return group_order ** (p + 1) * group_order ** (1 if q == 1 else q + 1)


def check_pointwise_eg(
    report: dict[str, Any],
    max_total_dim: int = POINTWISE_EG_DIM,
    group_order: int = EG_GROUP_ORDER,
) -> list[str]:
    errors = _Errors()
    check = _single_check(report, "pointwise", "pointwise-fillers-from-diagonal", errors)
    if check is None:
        return errors
    errors.expect(check["passed"] is True, "the pointwise check did not pass")
    errors.expect(report.get("overall_ok") is True, "overall_ok is not true")
    r = check["details"]["report"]
    errors.expect(r["passed"] is True and r["failure"] is None, "the sweep carries a failure")
    errors.expect(r["max_total_dim"] == max_total_dim, f"max_total_dim is {r['max_total_dim']}")
    expected_cells = [
        (p, q, m)
        for p in range(max_total_dim)
        for q in range(1, max_total_dim - p + 1)
        for m in range(q + 1)
    ]
    total = 0
    for side in ("direct_cells", "transposed_cells"):
        got_cells = [(c["p"], c["q"], c["missing"]) for c in r[side]]
        errors.expect(got_cells == expected_cells, f"{side} {got_cells} != {expected_cells}")
        for c in r[side]:
            want = eg_pointwise_problems(c["p"], c["q"], group_order)
            total += want
            errors.expect(
                c["problems"] == want and c["filled"] == want,
                f"{side} (p={c['p']}, q={c['q']}, missing={c['missing']}): "
                f"problems={c['problems']} filled={c['filled']}, expected {want}",
            )
    errors.expect(r["problems_checked"] == total, f"problems_checked {r['problems_checked']} != {total}")
    errors.expect(
        r["families_verified_compatible"] == total,
        f"families_verified_compatible {r['families_verified_compatible']} != {total}",
    )
    return errors


def parse_cycles(label: str, degree: int) -> tuple[int, ...]:
    """A permutation in cycle notation, e.g. '(1,3)(2,4)', as 1-based images."""
    images = list(range(1, degree + 1))
    if label != "id":
        for cycle in label.strip("()").split(")("):
            points = [int(v) for v in cycle.split(",")]
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b
    return tuple(images)


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f after g, on 1-based images."""
    return tuple(f[g[x] - 1] for x in range(len(f)))


def check_s4_products_differ(data: dict[str, Any]) -> list[str]:
    """The input's group is S4 and its subgroups A, B have AB != BA."""
    errors = _Errors()
    degree = data["group"]["degree"]
    gens = [tuple(g) for g in data["group"]["generators"]]
    identity = tuple(range(1, degree + 1))
    group = {identity}
    frontier = [identity]
    while frontier:
        frontier = [compose(g, x) for x in frontier for g in gens]
        frontier = [x for x in set(frontier) if x not in group]
        group.update(frontier)
    errors.expect(len(group) == 24, f"the generators give a group of order {len(group)}")
    A = {parse_cycles(s, degree) for s in data["subgroup_a"]}
    B = {parse_cycles(s, degree) for s in data["subgroup_b"]}
    for name, H in (("A", A), ("B", B)):
        closed = all(compose(x, y) in H for x in H for y in H)
        errors.expect(closed and identity in H, f"{name} is not a subgroup")
    AB = {compose(a, b) for a in A for b in B}
    BA = {compose(b, a) for a in A for b in B}
    errors.expect(AB != BA, "AB equals BA, so the diagonal need not fail")
    return errors


def check_not_kan_s4(report: dict[str, Any], diag, max_dim: int = NOT_KAN_S4_DIM) -> list[str]:
    """The diagonal is reported not Kan, with a failure the benchmark confirms
    on the diagonal tables ``diag`` by its own exhaustive scan.

    The verdict is judged against this known answer, not against the exit
    code, which the program sets to 1 for any failing Kan check.
    """
    from kancheck.simplicial import Simplex

    errors = _Errors()
    check = _single_check(report, "kan", "kan-diagonal", errors)
    if check is None:
        return errors
    r = check["details"]["report"]
    errors.expect(check["passed"] is False and r["passed"] is False, "the diagonal is reported Kan")
    errors.expect(r["max_dim"] == max_dim, f"max_dim is {r['max_dim']}")
    cells = r["cells"]
    if not errors.expect(bool(cells), "the report has no cells"):
        return errors
    canonical = [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]
    got_cells = [(c["n"], c["k"]) for c in cells]
    errors.expect(got_cells == canonical[: len(cells)], f"cells {got_cells} out of order")
    for c in cells[:-1]:
        errors.expect(
            c["families"] == c["filled"],
            f"cell (n={c['n']}, k={c['k']}) before the failure is not fully filled",
        )
        if c["n"] == 1:
            errors.expect(
                c["families"] == diag.size(0),
                f"cell (n=1, k={c['k']}) has {c['families']} families, not one per vertex",
            )
    last = cells[-1]
    errors.expect(last["filled"] == last["families"] - 1, "the failing cell does not end at its failure")
    errors.expect(
        r["families_checked"] == sum(c["families"] for c in cells),
        f"families_checked {r['families_checked']} is not the sum of the cells",
    )

    fail = r["failure"]
    if not errors.expect(fail is not None, "the report has no failure certificate"):
        return errors
    errors.expect(fail["outcome"] == "unfillable", f"outcome is {fail['outcome']!r}")
    errors.expect(fail["witness"] is None, "an unfillable horn carries a witness")
    family = fail["family"]
    n, index_set = family["n"], family["index_set"]
    errors.expect(
        n == last["n"] and index_set == [i for i in range(n + 1) if i != last["k"]],
        f"failure horn n={n}, I={index_set} is not the horn of the last cell",
    )
    faces = {}
    for i, ref in family["faces"].items():
        x = Simplex(ref["dim"], ref["id"])
        ok = ref["dim"] == n - 1 and 0 <= ref["id"] < diag.size(n - 1)
        if errors.expect(ok, f"face {i} = {ref} is not an (n-1)-simplex"):
            errors.expect(ref["label"] == diag.label(x), f"face {i} has label {ref['label']!r}")
            faces[int(i)] = x
    if errors.expect(sorted(faces) == index_set, "the faces do not match the index set"):
        compatible = all(
            diag.face(i, faces[j]) == diag.face(j - 1, faces[i])
            for i in index_set for j in index_set if i < j
        )
        errors.expect(compatible, "the failure family is not compatible")
        fillers = [
            idx for idx in range(diag.size(n))
            if all(diag.face(i, Simplex(n, idx)) == faces[i] for i in index_set)
        ]
        errors.expect(not fillers, f"the benchmark's scan finds fillers {fillers}")
    errors.expect(
        fail["candidates_examined"] == diag.size(n),
        f"candidates_examined {fail['candidates_examined']} != |X_{n}| = {diag.size(n)}",
    )
    return errors


def check_tampering_rejected(report: dict[str, Any], cli) -> list[str]:
    """reverify_report accepts the failure report as printed and rejects a copy
    with its candidate count or its witness altered."""
    errors = _Errors()
    errors.expect(cli.reverify_report(cli.RunReport.from_dict(report)), "the printed report is rejected")
    failure_path = ("checks", 0, "details", "report", "failure")

    def altered(field: str, value) -> dict[str, Any]:
        tampered = copy.deepcopy(report)
        node = tampered
        for key in failure_path:
            node = node[key]
        node[field] = value(node)
        return tampered

    n = report["checks"][0]["details"]["report"]["failure"]["family"]["n"]
    for field, value in (
        ("candidates_examined", lambda f: f["candidates_examined"] + 1),
        ("witness", lambda f: {"dim": n, "id": 0, "label": "tampered"}),
    ):
        accepted = cli.reverify_report(cli.RunReport.from_dict(altered(field, value)))
        errors.expect(not accepted, f"a report with its {field} altered is accepted")
    return errors


def check_report(name: str, report: dict[str, Any], diag) -> list[str]:
    """The output check of one workload's report."""
    if name == "kan-diagonal-eg":
        return check_kan_diagonal_eg(report)
    if name == "pointwise-eg":
        return check_pointwise_eg(report)
    if name == "not-kan-s4":
        return check_not_kan_s4(report, diag)
    raise ValueError(f"unknown workload {name!r}")
