import pytest

import kancheck.kan
import kancheck.pointwise
from kancheck import (
    BiSimplex,
    CompatibleFamily,
    Simplex,
    build_diagonal_family,
    column_map,
    diagonal_lift,
    diagonal_map,
    is_compatible,
    iter_compatible_families,
    missing_index,
    point_bisimplicial,
    to_point_bimap,
    verify_pointwise_fillers,
)
from kancheck.errors import RejectedInput, TruncationError
from kancheck.kan import FillCertificate
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import sweep_report_to_dict


def restriction_horn(f, w, missing):
    """The horn of column w.p cut out of an existing bisimplex w at vertical
    index missing."""
    col_f = column_map(f, w.p)
    x = Simplex(w.q, w.idx)
    faces = {i: col_f.domain.face(i, x) for i in range(w.q + 1) if i != missing}
    return CompatibleFamily.from_mapping(col_f, w.q, faces, col_f.apply(x))


def refuse(family):
    return FillCertificate(family, None, 0)


class TestProblemValidation:
    def test_restriction_is_compatible(self, eg_tensor_map):
        for missing in range(3):
            horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 17), missing)
            assert is_compatible(horn)
            assert missing_index(horn) == missing

    def test_dimension_mismatch_rejected(self, eg_tensor_map):
        f = eg_tensor_map
        col_f = column_map(f, 1)
        with pytest.raises(RejectedInput):
            CompatibleFamily(col_f, 2, (1, 2), (Simplex(1, 0), Simplex(0, 0)), Simplex(2, 0))
        with pytest.raises(RejectedInput):
            CompatibleFamily(col_f, 2, (0, 3), (Simplex(1, 0), Simplex(1, 1)), Simplex(2, 0))
        # a horn of column 1 is not a horn of column 2
        with pytest.raises(RejectedInput):
            build_diagonal_family(f, 2, restriction_horn(f, BiSimplex(1, 1, 3), 0))
        # a full boundary (|I| = q + 1) misses no index
        w = Simplex(2, 12)
        boundary = CompatibleFamily.from_mapping(
            col_f, 2, {i: col_f.domain.face(i, w) for i in range(3)}, col_f.apply(w)
        )
        with pytest.raises(RejectedInput):
            build_diagonal_family(f, 1, boundary)

    def test_q_zero_rejected(self, eg_tensor_map):
        with pytest.raises(RejectedInput):
            CompatibleFamily(column_map(eg_tensor_map, 1), 0, (), (), Simplex(0, 0))


class TestBuildDiagonalFamily:
    def test_exponent_degeneration_q1_missing1(self, eg_tensor_map):
        # q=1, missing=1: single face at index 0, lifted by vertical
        # degeneracies alone
        X = eg_tensor_map.domain
        p = 2
        horn = restriction_horn(eg_tensor_map, BiSimplex(p, 1, 5), 1)
        fam = build_diagonal_family(eg_tensor_map, p, horn)
        assert fam.index_set == (0,)
        lifted = BiSimplex(p, 0, horn.face(0).idx)
        for _ in range(p):
            lifted = X.v_degeneracy(0, lifted)
        assert fam.faces[0] == Simplex(p, lifted.idx)

    def test_exponent_degeneration_missing0(self, eg_tensor_map):
        # missing=0 leaves only the upper branch of the index set
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 30), 0)
        fam = build_diagonal_family(eg_tensor_map, 1, horn)
        assert fam.index_set == (2, 3)  # {p+i : 0 < i <= q} with p=1, q=2

    def test_index_set_shape(self, eg_tensor_map):
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 12), 1)
        fam = build_diagonal_family(eg_tensor_map, 1, horn)
        assert fam.index_set == (0, 3)
        assert fam.n == 3

    def test_family_is_diag_compatible_concrete(self, eg_tensor_map):
        # p=1, q=2, every missing index, every enumerated horn
        diag_f = diagonal_map(eg_tensor_map)
        col_f = column_map(eg_tensor_map, 1)
        seen = 0
        for missing in range(3):
            indices = tuple(i for i in range(3) if i != missing)
            for horn in iter_compatible_families(col_f, 2, indices):
                fam = build_diagonal_family(eg_tensor_map, 1, horn, diag_f)
                assert is_compatible(fam)
                seen += 1
        assert seen > 0

    def test_bounds_too_small(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        f = to_point_bimap(X)
        horn = restriction_horn(f, BiSimplex(1, 2, 0), 1)
        with pytest.raises(TruncationError):
            build_diagonal_family(f, 1, horn)

    def test_incompatible_problem_rejected(self, eg_tensor_map):
        col_f = column_map(eg_tensor_map, 1)
        # two faces whose shared vertex data disagrees
        found = None
        for a in range(col_f.domain.size(1)):
            for b in range(col_f.domain.size(1)):
                horn = CompatibleFamily(
                    col_f, 2, (0, 1), (Simplex(1, a), Simplex(1, b)), Simplex(2, 0)
                )
                if not is_compatible(horn):
                    found = horn
                    break
            if found:
                break
        with pytest.raises(RejectedInput):
            build_diagonal_family(eg_tensor_map, 1, found)


class TestPointwiseFiller:
    def test_restriction_problems_solved(self, eg_tensor_map):
        X = eg_tensor_map.domain
        diag_f = diagonal_map(eg_tensor_map)
        for (p, q) in ((0, 1), (1, 1), (0, 2), (1, 2), (2, 1)):
            w = BiSimplex(p, q, X.size(p, q) // 2)
            for missing in range(q + 1):
                horn = restriction_horn(eg_tensor_map, w, missing)
                x = diagonal_lift(eg_tensor_map, p, horn, diag_f).answer
                assert x is not None
                for i, xi in horn.items():
                    assert X.v_face(i, x) == BiSimplex(p, q - 1, xi.idx)

    def test_lift_records_trace(self, eg_tensor_map):
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 1, 3), 0)
        lift = diagonal_lift(eg_tensor_map, 1, horn)
        assert lift.filled
        assert (lift.p, lift.horn) == (1, horn)
        assert lift.certificate.filled
        assert lift.diagonal_family.n == 2

    def test_failure_propagates_as_unfilled(self, eg_tensor_map, monkeypatch):
        monkeypatch.setattr(kancheck.kan, "brute_force_fill", refuse)
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 1, 3), 0)
        lift = diagonal_lift(eg_tensor_map, 1, horn)
        assert not lift.filled
        assert lift.answer is None


class TestSweep:
    def test_tensor_sweep_dim2(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        report = verify_pointwise_fillers(to_point_bimap(X), 2)
        assert report.passed
        assert report.problems_checked > 0
        assert report.families_verified_compatible == report.problems_checked

    def test_point_sweep(self):
        report = verify_pointwise_fillers(to_point_bimap(point_bisimplicial(2, 2)), 2)
        assert report.passed

    def test_commuting_pair_double_nerve_sweep_dim2(self):
        X = preset_bisimplicial("z2-commuting", 2, 2)
        report = verify_pointwise_fillers(to_point_bimap(X), 2)
        assert report.passed
        assert report.problems_checked > 0

    def test_transpose_cells_match_on_symmetric_input(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        report = verify_pointwise_fillers(to_point_bimap(X), 2)
        direct = [(c.p, c.q, c.missing, c.problems, c.filled) for c in report.direct_cells]
        transposed = [
            (c.p, c.q, c.missing, c.problems, c.filled) for c in report.transposed_cells
        ]
        assert direct == transposed

    def test_precondition_failure_names_horn(self):
        X = preset_bisimplicial("s3-counterexample", 2, 2)
        with pytest.raises(RejectedInput) as err:
            verify_pointwise_fillers(to_point_bimap(X), 2)
        assert "unfillable horn" in str(err.value)

    def test_bounds_guard(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        with pytest.raises(TruncationError):
            verify_pointwise_fillers(to_point_bimap(X), 3)

    @pytest.mark.parametrize("transposed", [False, True], ids=["direct", "transposed"])
    def test_refused_cell_is_reported(self, monkeypatch, transposed):
        f = to_point_bimap(preset_bisimplicial("eg-tensor", 2, 2))
        clean = verify_pointwise_fillers(f, 2)
        p, q, missing = 1, 1, 1
        # n = p + q and I = {i < l} u {p + i : l < i <= q} pin the cell down
        diagonal_horn = (
            p + q, tuple(range(missing)) + tuple(p + i for i in range(missing + 1, q + 1))
        )

        def position(cells):
            return next(
                k for k, c in enumerate(cells) if (c.p, c.q, c.missing) == (p, q, missing)
            )

        # in the transposed run, let every horn of the direct sweep's cell fill
        skip = clean.direct_cells[position(clean.direct_cells)].problems if transposed else 0
        seen = 0
        fill = kancheck.pointwise.fill_partial_horn

        def refusing(family):
            nonlocal seen
            if (family.n, family.index_set) == diagonal_horn:
                seen += 1
                if seen > skip:
                    return refuse(family)
            return fill(family)

        monkeypatch.setattr(kancheck.pointwise, "fill_partial_horn", refusing)
        report = verify_pointwise_fillers(f, 2)
        data = sweep_report_to_dict(report)
        assert not data["passed"]
        failure = data["failure"]
        assert (failure["p"], failure["q"], failure["missing"]) == (p, q, missing)
        assert failure["transposed"] is transposed
        assert failure["diagonal_certificate"]["outcome"] == "unfillable"

        if transposed:
            assert report.direct_cells == clean.direct_cells
            cells, clean_cells = report.transposed_cells, clean.transposed_cells
        else:
            assert report.transposed_cells == ()
            cells, clean_cells = report.direct_cells, clean.direct_cells
        assert cells[:-1] == clean_cells[:position(clean_cells)]
        last = cells[-1]
        assert (last.p, last.q, last.missing) == (p, q, missing)
        assert (last.problems, last.filled) == (1, 0)
