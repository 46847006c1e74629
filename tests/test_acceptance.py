"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact combinatorics; there are no numeric tolerances.
Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import itertools
import time

import pytest

from kancheck import (
    brute_force_fill,
    check_kan_fibration,
    check_power_identity,
    check_trivial_fibration_to_point,
    column,
    cyclic_group,
    diagonal,
    diagonal_map,
    discrete_groupoid,
    eg_construction,
    nerve,
    one_object_groupoid,
    pi0,
    point,
    row,
    subgroup_products_distinct,
    symmetric_group_preset,
    tensor,
    to_point_bimap,
    to_point_map,
    transpose,
    validate_bisimplicial_identities,
    validate_simplicial_identities,
    verify_pointwise_fillers,
)
from kancheck.cli import s3_diagonal_horn_certificate
from kancheck.errors import RejectedInput
from kancheck.kan import _blocks, _partial_fillers
from kancheck.presets import eg_tensor_group, preset_bisimplicial, s3_counterexample
from kancheck.simplicial import Simplex, TruncatedSimplicialSet


def announce(num: int, ok: bool, elapsed: float, text: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict} ({elapsed:.2f}s): {text}")


@pytest.fixture(scope="module")
def tensor_sweep():
    X = preset_bisimplicial("eg-tensor", 3, 3)
    start = time.perf_counter()
    report = verify_pointwise_fillers(to_point_bimap(X), 3)
    return report, time.perf_counter() - start


def test_criterion_1_operator_identity_fuzz():
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in range(9):
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
                            failures.append((family, i, j, m, n))
    elapsed = time.perf_counter() - start
    ok = checked > 0 and not failures
    announce(1, ok, elapsed,
             f"all four power-law families hold exactly: {checked} instances at n <= 8")
    assert ok, failures[:5]


def test_criterion_2_partial_horn_oracle_equivalence():
    start = time.perf_counter()
    total = 0
    for G in (symmetric_group_preset(3), cyclic_group(2)):
        f = to_point_map(nerve(one_object_groupoid(G), 3))
        X = f.domain
        for n in range(1, 4):
            for size in range(1, n + 1):
                for indices in itertools.combinations(range(n + 1), size):
                    for ys, xs in _blocks(f, n, indices):
                        ws, [_] = _partial_fillers(f, n, indices, ys, xs)
                        for y, w, *faces in zip(ys, ws, *xs):
                            assert w is not None, (G.order, n, indices)
                            for i, xi in zip(indices, faces):
                                assert X.face(i, Simplex(n, w)) == Simplex(n - 1, xi)
                            assert brute_force_fill(f, n, indices, faces, y).filled
                            total += 1
    elapsed = time.perf_counter() - start
    announce(2, True, elapsed,
             f"recursive filler solved and brute force confirmed {total} partial "
             "horns with 1 <= |I| <= n <= 3 on both preset nerves")
    assert total > 2000


def test_criterion_3_subgroup_pair_counterexample_certificate():
    start = time.perf_counter()
    data = s3_counterexample()
    products_differ = subgroup_products_distinct(data.group, data.A, data.B)

    NN = preset_bisimplicial("s3-counterexample", 3, 3)
    lines_ok = all(
        check_kan_fibration(to_point_map(column(NN, p)), 3).passed for p in range(3)
    ) and all(
        check_kan_fibration(to_point_map(row(NN, q)), 3).passed for q in range(3)
    )

    cert = s3_diagonal_horn_certificate()
    # brute_force_fill refuses an incompatible family
    horn_ok = (
        cert.index_set == (0, 2)
        and not cert.filled
        and cert.candidates_examined
        == diagonal(preset_bisimplicial("s3-counterexample", 2, 2)).size(2)
    )
    elapsed = time.perf_counter() - start
    ok = products_differ and lines_ok and horn_ok
    announce(3, ok, elapsed,
             "AB != BA; rows and columns (p,q <= 2) Kan to a point up to dim 3; "
             f"the identity-square horn at I=(0,2) is compatible yet unfillable after "
             f"exhausting all {cert.candidates_examined} candidates")
    assert products_differ
    assert lines_ok
    assert horn_ok


def test_criterion_4_pointwise_fillers_from_diagonal(tensor_sweep):
    report, elapsed = tensor_sweep
    X = preset_bisimplicial("eg-tensor", 3, 3)
    diag_ok = check_kan_fibration(diagonal_map(to_point_bimap(X)), 3).passed
    ok = diag_ok and report.passed and len(report.transposed_cells) > 0
    announce(4, ok, elapsed,
             f"diagonal Kan check passed by brute force up to total dim 3; all "
             f"{report.problems_checked} pointwise horn problems (direct and "
             "transposed) solved with the requested faces and target holding exactly")
    assert diag_ok
    assert report.passed
    assert report.transposed_cells


def test_criterion_5_construction_assertions(tensor_sweep):
    report, elapsed = tensor_sweep
    ok = (
        report.problems_checked > 0
        and report.families_verified_compatible == report.problems_checked
        and report.passed
    )
    announce(5, ok, 0.0,
             f"every one of the {report.problems_checked} built diagonal families "
             "passed the compatibility check and all dimension bookkeeping held "
             "(violations would have raised, failing criterion 4)")
    assert ok


def test_criterion_6_trivial_fibration_counterexample():
    start = time.perf_counter()
    X = preset_bisimplicial("eg-tensor", 2, 2)
    trivial_ok = check_trivial_fibration_to_point(diagonal(X), 2).passed
    counts = [len(pi0(row(X, q))) for q in range(3)]
    # row q is EG x (the discrete set EG_q) and EG is connected, so row q has
    # |EG_q| = |G|^(q+1) components
    order = eg_tensor_group().order
    row_law = [order ** (q + 1) for q in range(3)]
    rows_fail = [
        not check_trivial_fibration_to_point(row(X, q), 2).passed for q in range(3)
    ]
    elapsed = time.perf_counter() - start
    ok = trivial_ok and counts == row_law and counts[0] == 2 and all(rows_fail)
    announce(6, ok, elapsed,
             f"diagonal passes the trivial-fibration check up to dim 2: {trivial_ok}; "
             f"pi0 components by row (q=0,1,2): {counts}, the law |G|^(q+1) gives "
             f"{row_law}, exactly 2 at row 0; rows failing the trivial-fibration "
             f"check: {rows_fail}")
    assert trivial_ok
    assert counts == row_law, (
        f"rows of the tensor square have {counts} connected components. The rows "
        "carry the second factor as a constant direction, so row q should have "
        f"|G|^(q+1) components: {row_law} at q = (0, 1, 2)."
    )
    assert counts[0] == 2, f"row 0 has {counts[0]} connected components, not 2"
    assert all(rows_fail), (
        f"rows passing the trivial-fibration check: "
        f"{[q for q, failed in enumerate(rows_fail) if not failed]}; no row of the "
        "tensor square should be contractible while its diagonal is"
    )


def test_criterion_7_lawfulness_and_mutation_detection():
    start = time.perf_counter()
    z2 = cyclic_group(2)
    s3 = symmetric_group_preset(3)
    eg = eg_construction(z2, 3)

    simplicial_fixtures = [
        point(3),
        nerve(one_object_groupoid(z2), 3),
        nerve(one_object_groupoid(s3), 3),
        nerve(discrete_groupoid(["a", "b", "c"]), 2),
        eg,
    ]
    bisimplicial_fixtures = [
        preset_bisimplicial("s3-counterexample", 3, 3),
        preset_bisimplicial("z2-commuting", 2, 2),
        tensor(eg, eg),
    ]
    for X in bisimplicial_fixtures:
        simplicial_fixtures.append(diagonal(X))
        simplicial_fixtures.append(row(X, 1))
        simplicial_fixtures.append(column(X, 1))

    clean = all(validate_simplicial_identities(X).ok for X in simplicial_fixtures)
    clean = clean and all(
        validate_bisimplicial_identities(X).ok
        for X in bisimplicial_fixtures + [transpose(bisimplicial_fixtures[0])]
    )

    # a single corrupted face-table entry must be detected
    target = nerve(one_object_groupoid(z2), 3)
    faces = [[list(t) for t in target._faces[m]] for m in range(4)]
    degens = [[list(t) for t in target._degens[m]] for m in range(4)]
    faces[2][1][0] = (faces[2][1][0] + 1) % target.counts[1]
    broken = TruncatedSimplicialSet(target.counts, faces, degens)
    mutation_caught = not validate_simplicial_identities(broken).ok

    elapsed = time.perf_counter() - start
    ok = clean and mutation_caught
    announce(7, ok, elapsed,
             f"{len(simplicial_fixtures)} simplicial and {len(bisimplicial_fixtures) + 1} "
             "bisimplicial constructor outputs validate with zero violations; a "
             "single corrupted face entry is detected")
    assert clean
    assert mutation_caught
