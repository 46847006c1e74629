import itertools
import json

import pytest
from oracles import BiSimplex, h_degeneracy, h_face, tensor_reference, v_degeneracy, v_face
from test_kan import standard_simplex

import kancheck.bisimplicial
import kancheck.simplicial

from kancheck import (
    Simplex,
    column,
    column_map,
    diagonal,
    diagonal_map,
    cyclic_group,
    eg_construction,
    pi0,
    point,
    point_bisimplicial,
    product,
    row,
    row_map,
    tensor,
    to_point_bimap,
    transpose,
    transpose_map,
    validate_bisimplicial_identities,
    symmetric_group_preset,
    validate_simplicial_identities,
)
from kancheck.bisimplicial import TruncatedBisimplicialSet
from kancheck.errors import RejectedInput, TruncationError
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import simplicial_from_dict, simplicial_to_dict
from kancheck.simplicial import TruncatedSimplicialSet


def line_records(X):
    """The ``simplicial_to_dict`` records of X's rows and of its columns."""
    return [simplicial_to_dict(r) for r in X.rows], [simplicial_to_dict(c) for c in X.columns]


def from_line_records(rows, columns):
    """The bisimplicial set built from row and column records."""
    return TruncatedBisimplicialSet(
        [simplicial_from_dict(r) for r in rows], [simplicial_from_dict(c) for c in columns]
    )


class TestPointAndTensor:
    def test_point_times_point(self):
        X = tensor(point(2), point(2))
        assert X == point_bisimplicial(2, 2)

    def test_tensor_counts(self, eg_tensor_3):
        assert eg_tensor_3.size(1, 1) == 16
        assert eg_tensor_3.size(3, 3) == 256

    def test_tensor_lawful(self, eg_tensor_3):
        assert validate_bisimplicial_identities(eg_tensor_3).ok

    def test_column_structure_comes_from_second_factor(self, eg_z2, eg_tensor_3):
        # each column is |A_p| disjoint copies of the second factor
        for p in range(3):
            col = column(eg_tensor_3, p)
            assert col.counts == tuple(
                eg_z2.counts[p] * eg_z2.counts[q] for q in range(4)
            )
            for q in range(1, 4):
                for idx in range(col.size(q)):
                    a, b = divmod(idx, eg_z2.counts[q])
                    for i in range(q + 1):
                        got = col.face(i, Simplex(q, idx))
                        expect = a * eg_z2.counts[q - 1] + eg_z2.face(i, Simplex(q, b)).idx
                        assert got.idx == expect

    def test_row_counts(self, eg_z2, eg_tensor_3):
        for q in range(4):
            assert row(eg_tensor_3, q).counts == tuple(
                eg_z2.counts[p] * eg_z2.counts[q] for p in range(4)
            )


class TestRowsColumnsDiagonal:
    def test_row_column_of_point(self):
        X = point_bisimplicial(2, 3)
        assert column(X, 0).counts == (1, 1, 1, 1)
        assert row(X, 0).counts == (1, 1, 1)

    def test_index_bounds(self, eg_tensor_3):
        with pytest.raises(RejectedInput):
            row(eg_tensor_3, 4)
        with pytest.raises(RejectedInput):
            column(eg_tensor_3, -1)

    def test_rows_and_columns_lawful(self, eg_tensor_3, s3_double_nerve):
        for X in (eg_tensor_3, s3_double_nerve):
            for q in range(X.bounds[1] + 1):
                assert validate_simplicial_identities(row(X, q)).ok
            for p in range(X.bounds[0] + 1):
                assert validate_simplicial_identities(column(X, p)).ok

    def test_diagonal_counts_and_laws(self, eg_tensor_3):
        dg = diagonal(eg_tensor_3)
        assert dg.counts == (4, 16, 64, 256)
        assert validate_simplicial_identities(dg).ok

    def test_diagonal_of_point(self):
        assert diagonal(point_bisimplicial(2, 3)) == point(2)

    def test_diagonal_faces_are_double_composites(self, eg_tensor_3):
        dg = diagonal(eg_tensor_3)
        for n in range(1, 4):
            for idx in range(dg.size(n)):
                x = BiSimplex(n, n, idx)
                for i in range(n + 1):
                    via_h_first = v_face(eg_tensor_3, i, h_face(eg_tensor_3, i, x))
                    assert dg.face(i, Simplex(n, idx)).idx == via_h_first.idx

    @pytest.mark.parametrize("fixture", ["eg_tensor_3", "s3_double_nerve"])
    def test_diagonal_is_the_double_composite(self, fixture, request):
        X = request.getfixturevalue(fixture)
        dg = diagonal(X)
        for n in range(dg.bound + 1):
            for idx in range(dg.size(n)):
                x = BiSimplex(n, n, idx)
                for i in range(n + 1):
                    if n >= 1:
                        assert dg.face(i, Simplex(n, idx)).idx == h_face(X, i, v_face(X, i, x)).idx
                    if n < dg.bound:
                        assert dg.degeneracy(i, Simplex(n, idx)).idx == (
                            h_degeneracy(X, i, v_degeneracy(X, i, x)).idx
                        )

    def test_rows_and_columns_are_stored_not_copied(self, s3_double_nerve):
        X = s3_double_nerve
        assert all(row(X, q) is X.rows[q] for q in range(X.bounds[1] + 1))
        assert all(column(X, p) is X.columns[p] for p in range(X.bounds[0] + 1))
        assert transpose(X).rows is X.columns

    def test_pi0_of_rows_counts_second_factor(self, eg_tensor_3):
        # rows are (first factor) x (constant on the second factor's level),
        # so the component count is the size of that level: |G|^(q+1)
        assert [len(pi0(row(eg_tensor_3, q))) for q in range(3)] == [2, 4, 8]

    def test_pi0_of_diagonal_is_one(self, eg_tensor_3):
        assert len(pi0(diagonal(eg_tensor_3))) == 1


def simplex_boundary(m, bound):
    """The boundary of Delta[m] up to ``bound``: the simplices of
    ``standard_simplex(m, bound)`` that miss a vertex, renumbered in order."""
    full = standard_simplex(m, bound)
    levels = [
        list(itertools.combinations_with_replacement(range(m + 1), n + 1))
        for n in range(bound + 1)
    ]
    keep = [[i for i, s in enumerate(level) if len(set(s)) <= m] for level in levels]
    new_id = [{old: new for new, old in enumerate(k)} for k in keep]
    faces = [[]] + [
        [[new_id[n - 1][t[x]] for x in keep[n]] for t in full._faces[n]]
        for n in range(1, bound + 1)
    ]
    degens = [
        [[new_id[n + 1][t[x]] for x in keep[n]] for t in full._degens[n]]
        for n in range(bound)
    ] + [[]]
    return TruncatedSimplicialSet([len(k) for k in keep], faces, degens)


TENSOR_CASES = {
    "eg-z2-squared": lambda: (eg_construction(cyclic_group(2), 3),) * 2,
    "eg-s3-squared-2-2": lambda: (eg_construction(symmetric_group_preset(3), 2),) * 2,
    "unequal-bounds": lambda: (
        eg_construction(cyclic_group(2), 4), eg_construction(cyclic_group(3), 2)
    ),
    "simplex-times-boundary": lambda: (standard_simplex(2, 3), simplex_boundary(2, 3)),
}


def built(lines):
    """The indices of the lines of a tensor built so far."""
    return [k for k, line in enumerate(lines._built) if line is not None]


def records_json(X):
    """The line records of X, rows then columns, as one JSON text."""
    return json.dumps(line_records(X))


class TestLazyTensor:
    """A tensor builds each row and column on its first read; every line is
    the eager reference's, byte for byte."""

    @pytest.mark.parametrize("first", ["rows", "columns"])
    @pytest.mark.parametrize("case", list(TENSOR_CASES))
    def test_lines_are_the_reference(self, case, first):
        A, B = TENSOR_CASES[case]()
        X, ref = tensor(A, B), tensor_reference(A, B)
        assert X.bounds == ref.bounds and X.counts == ref.counts
        assert (len(X.rows), len(X.columns)) == (len(ref.rows), len(ref.columns))
        # build the lines in one direction, then compare every line, labels
        # included, in both
        assert list(getattr(X, first)) == list(getattr(ref, first))
        assert records_json(X) == records_json(ref)
        assert X == ref and transpose(X) == transpose(ref)
        assert validate_bisimplicial_identities(X) == validate_bisimplicial_identities(ref)

    @pytest.mark.parametrize("case", list(TENSOR_CASES))
    def test_reads_build_only_what_they_read(self, case):
        A, B = TENSOR_CASES[case]()
        X = tensor(A, B)
        assert diagonal(X) == product(A, B)
        T = transpose(X)
        assert T.rows is X.columns and T.columns is X.rows
        assert T.counts == tuple(zip(*X.counts))
        assert built(X.rows) == built(X.columns) == []
        P, Q = X.bounds
        assert row(X, Q) is X.rows[-1] is X.rows[Q:][0]
        assert (built(X.rows), built(X.columns)) == ([Q], [])
        assert column(T, Q) is row(X, Q)
        assert column(X, 0) is X.columns[0]
        assert (built(X.rows), built(X.columns)) == ([Q], [0])

    def test_each_line_is_checked_when_built(self, eg_z2, monkeypatch):
        build = kancheck.bisimplicial.TruncatedSimplicialSet
        renamed = []

        def relabelled(counts, faces, degens, labels):
            # the same strings, rendered by other functions, unless renamed
            tables = [list(map(f, range(c))) for f, c in zip(labels, counts)]
            for level in renamed:
                tables[level][0] = "renamed"
            return build(counts, faces, degens, tables)

        monkeypatch.setattr(kancheck.bisimplicial, "TruncatedSimplicialSet", relabelled)
        X = tensor(eg_z2, eg_z2)
        ref = tensor_reference(eg_z2, eg_z2)
        assert simplicial_to_dict(row(X, 2)) == simplicial_to_dict(row(ref, 2))
        renamed.append(1)
        refusal = r"^{} disagrees with the tensor on its level 1$"
        with pytest.raises(RejectedInput, match=refusal.format("row 1")):
            row(X, 1)
        with pytest.raises(RejectedInput, match=refusal.format("column 3")):
            column(X, 3)
        assert built(X.rows) == [2] and built(X.columns) == []

    def test_each_line_is_held_to_the_budget_when_built(self, eg_z2, monkeypatch):
        # level (p, q) of EG(Z2) x EG(Z2) holds 2^(p+q+2) bisimplices: row q
        # charges it p + 1 face tables, column p charges it q + 1
        monkeypatch.setattr(kancheck.simplicial, "MAX_LEVEL_ENTRIES", 4 * 32)
        X = tensor(eg_z2, eg_z2)
        assert X.counts[3][3] == 256
        assert row(X, 0).counts == column(X, 0).counts == (4, 8, 16, 32)
        with pytest.raises(RejectedInput, match=r"^row 1 level 3 would hold 64 simplices in 256 "):
            row(X, 1)
        with pytest.raises(RejectedInput, match=r"^column 1 level 3 would hold 64 simplices in 256 "):
            column(X, 1)
        assert built(X.rows) == built(X.columns) == [0]

    def test_to_point_refuses_an_over_budget_tensor_first(self, eg_z2, monkeypatch, table_builds):
        # level (p, q) is held as the larger of row q's level p and column
        # p's level q, before any component, line or point is built
        X = tensor(eg_z2, eg_z2)
        monkeypatch.setattr(kancheck.simplicial, "MAX_LEVEL_ENTRIES", 4 * 256 - 1)
        with pytest.raises(RejectedInput, match=r"^level \(3, 3\) would hold 256 simplices in 1024 "):
            to_point_bimap(X)
        assert table_builds == [] and built(X.rows) == built(X.columns) == []
        with pytest.raises(RejectedInput, match=r"^row 3 level 3 would hold 256 "):
            row(X, 3)
        monkeypatch.setattr(kancheck.simplicial, "MAX_LEVEL_ENTRIES", 4 * 256)
        assert to_point_bimap(X).components[3][3] == (0,) * 256


def unlabelled(X):
    """X read back from a record that carries no labels."""
    return simplicial_from_dict(dict(simplicial_to_dict(X), labels=None))


class TestProduct:
    @pytest.mark.parametrize("case", [
        "eg-z2-squared", "eg-z3-times-eg-s3", "unequal-bounds", "unlabelled-factor",
    ])
    def test_is_the_diagonal_of_the_tensor(self, case):
        z2, z3 = cyclic_group(2), cyclic_group(3)
        A, B = {
            "eg-z2-squared": lambda: (eg_construction(z2, 4),) * 2,
            "eg-z3-times-eg-s3": lambda: (
                eg_construction(z3, 2), eg_construction(symmetric_group_preset(3), 2)
            ),
            "unequal-bounds": lambda: (eg_construction(z2, 4), eg_construction(z3, 2)),
            "unlabelled-factor": lambda: (unlabelled(eg_construction(z2, 3)), eg_construction(z3, 3)),
        }[case]()
        P, dg = product(A, B), diagonal(tensor(A, B))
        assert P.bound == min(A.bound, B.bound)
        assert P == dg
        for n in range(P.bound + 1):
            assert P.labels_at(n) == dg.labels_at(n)
        if case == "unlabelled-factor":
            # id 9 of level 1 is the pair (1, 0), |B_1| = 9: A renders by id
            assert P.labels_at(1)[9].startswith("(1#1,(")

    def test_lawful_and_connected(self, eg_z2):
        P = product(eg_z2, eg_z2)
        assert P.counts == (4, 16, 64, 256)
        assert validate_simplicial_identities(P).ok
        assert len(pi0(P)) == 1

    def test_point_times_point(self):
        assert product(point(3), point(2)) == point(2)


class TestTranspose:
    def test_involution(self, eg_tensor_3, s3_double_nerve):
        for X in (eg_tensor_3, s3_double_nerve):
            assert transpose(transpose(X)) == X

    def test_preserves_diagonal(self, s3_double_nerve):
        assert diagonal(transpose(s3_double_nerve)) == diagonal(s3_double_nerve)

    @pytest.mark.parametrize("name, dim", [
        ("eg-tensor", 3), ("z2-commuting", 2), ("s3-counterexample", 3), ("point", 3),
    ])
    def test_preserves_diagonal_map(self, name, dim):
        # so a pointwise sweep of the transpose fills in the direct diagonal map
        X = point_bisimplicial(dim, dim) if name == "point" else preset_bisimplicial(
            name, dim, dim
        )
        f = to_point_bimap(X)
        direct, swapped = diagonal_map(f), diagonal_map(transpose_map(f))
        assert swapped.domain == direct.domain
        assert swapped.codomain == direct.codomain
        assert swapped.components == direct.components

    def test_swaps_rows_and_columns(self, s3_double_nerve):
        for k in range(3):
            assert column(transpose(s3_double_nerve), k) == row(s3_double_nerve, k)
            assert row(transpose(s3_double_nerve), k) == column(s3_double_nerve, k)

    def test_point_transpose(self):
        assert transpose(point_bisimplicial(2, 2)) == point_bisimplicial(2, 2)


class TestCommutationAudit:
    def test_violation_detected(self, eg_tensor_3):
        rows, columns = line_records(eg_tensor_3)
        # swap two entries of one horizontal face table: d_0 of row 1 at p = 1
        table = rows[1]["faces"][1][0]
        table[0], table[1] = table[1], table[0]
        broken = from_line_records(rows, columns)
        assert not validate_bisimplicial_identities(broken).ok


class TestConstruction:
    @pytest.mark.parametrize("grid, level", [
        ("h_faces", (0, 1)),
        ("v_faces", (1, 0)),
        ("h_degeneracies", (2, 1)),
        ("v_degeneracies", (1, 2)),
    ])
    def test_tables_outside_the_structure_rejected(self, grid, level):
        rows, columns = line_records(point_bisimplicial(2, 2))
        from_line_records(rows, columns)
        p, q = level
        # a horizontal table lives in row q at level p, a vertical one in column p at level q
        line, n = (rows[q], p) if grid.startswith("h_") else (columns[p], q)
        line["faces" if grid.endswith("_faces") else "degeneracies"][n] = [[0]]
        with pytest.raises(RejectedInput):
            from_line_records(rows, columns)

    def test_ragged_grid_rejected(self):
        rows, columns = line_records(point_bisimplicial(1, 1))
        columns.pop()
        with pytest.raises(RejectedInput):
            from_line_records(rows, columns)

    def test_lines_must_agree_on_levels(self, eg_z2):
        X = tensor(eg_z2, eg_z2)
        with pytest.raises(RejectedInput):
            TruncatedBisimplicialSet(X.rows, X.columns[:-1])
        with pytest.raises(RejectedInput):
            TruncatedBisimplicialSet(X.rows, (point(3),) * 4)

    def test_lines_must_agree_on_labels(self, eg_z2):
        X = tensor(eg_z2, eg_z2)
        col = X.columns[1]
        relabelled = [col.labels_at(q) for q in range(col.bound + 1)]
        relabelled[2][3] = "renamed"
        other = TruncatedSimplicialSet(
            col.counts, col._faces, [list(t) for t in col._degens], relabelled
        )
        assert other == col  # same counts and tables; only one label differs
        # the same strings rendered by different functions are accepted
        same = TruncatedSimplicialSet(
            col.counts, col._faces, col._degens,
            [col.labels_at(q) for q in range(col.bound + 1)],
        )
        TruncatedBisimplicialSet(X.rows, X.columns[:1] + (same,) + X.columns[2:])
        with pytest.raises(RejectedInput, match=r"row 2 and column 1 disagree on level \(1,2\)"):
            TruncatedBisimplicialSet(X.rows, X.columns[:1] + (other,) + X.columns[2:])


class TestMaps:
    def test_to_point_and_diagonal_map(self, eg_tensor_map):
        dmap = diagonal_map(eg_tensor_map)
        assert dmap.domain.counts == (4, 16, 64, 256)
        assert dmap.codomain == point(3)

    def test_diagonal_of_identityish_map_is_identity(self, eg_tensor_3):
        from kancheck.bisimplicial import BisimplicialMap

        P, Q = eg_tensor_3.bounds
        comps = [
            [list(range(eg_tensor_3.counts[p][q])) for q in range(Q + 1)]
            for p in range(P + 1)
        ]
        ident = BisimplicialMap(eg_tensor_3, eg_tensor_3, comps)
        dmap = diagonal_map(ident)
        for n in range(4):
            assert dmap.components[n] == tuple(range(eg_tensor_3.counts[n][n]))

    def test_column_and_row_maps(self, eg_tensor_map):
        for p in range(3):
            cm = column_map(eg_tensor_map, p)
            assert cm.domain == column(eg_tensor_map.domain, p)
        for q in range(3):
            rm = row_map(eg_tensor_map, q)
            assert rm.domain == row(eg_tensor_map.domain, q)

    def test_transpose_map(self, eg_tensor_map):
        t = transpose_map(eg_tensor_map)
        assert t.domain == transpose(eg_tensor_map.domain)

    def test_naturality_enforced(self, eg_tensor_3):
        from kancheck.bisimplicial import BisimplicialMap

        P, Q = eg_tensor_3.bounds
        comps = [
            [list(range(eg_tensor_3.counts[p][q])) for q in range(Q + 1)]
            for p in range(P + 1)
        ]
        comps[1][1][0], comps[1][1][1] = comps[1][1][1], comps[1][1][0]
        with pytest.raises(RejectedInput):
            BisimplicialMap(eg_tensor_3, eg_tensor_3, comps)


    def test_vertical_naturality_enforced_alone(self, eg_z2, eg_tensor_3):
        # act on the second factor by a levelwise bijection g of EG that is
        # not simplicial: the row maps stay natural, the column maps do not
        from kancheck.bisimplicial import BisimplicialMap
        from kancheck.simplicial import SimplicialMap

        P, Q = eg_tensor_3.bounds
        g = [list(range(eg_z2.counts[q])) for q in range(Q + 1)]
        g[1][0], g[1][1] = g[1][1], g[1][0]
        comps = [
            [
                [a * eg_z2.counts[q] + g[q][b]
                 for a in range(eg_z2.counts[p]) for b in range(eg_z2.counts[q])]
                for q in range(Q + 1)
            ]
            for p in range(P + 1)
        ]
        for q in range(Q + 1):
            row_q = row(eg_tensor_3, q)
            SimplicialMap(row_q, row_q, [comps[p][q] for p in range(P + 1)])
        with pytest.raises(RejectedInput, match="column"):
            BisimplicialMap(eg_tensor_3, eg_tensor_3, comps)


class TestAccessErrors:
    def test_face_and_degeneracy_bounds(self, eg_tensor_3):
        with pytest.raises(RejectedInput):
            h_face(eg_tensor_3, 0, BiSimplex(0, 1, 0))
        with pytest.raises(TruncationError):
            h_degeneracy(eg_tensor_3, 0, BiSimplex(3, 1, 0))
        with pytest.raises(TruncationError):
            eg_tensor_3.size(4, 0)
