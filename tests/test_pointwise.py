import pytest
from test_kan import fiber_families, full_scan_fill

import kancheck.kan
import kancheck.pointwise
from kancheck import (
    BiSimplex,
    CompatibleFamily,
    Simplex,
    build_diagonal_family,
    check_kan_fibration,
    column_map,
    diagonal_lift,
    diagonal_map,
    is_compatible,
    iter_compatible_families,
    missing_index,
    point_bisimplicial,
    to_point_bimap,
    transpose_map,
    verify_pointwise_fillers,
)
from kancheck.errors import RejectedInput, TruncationError
from kancheck.kan import FillCertificate
from kancheck.pointwise import SweepCell
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import sweep_report_to_dict


def restriction_horn(f, w, missing):
    """The horn of column w.p cut out of an existing bisimplex w at vertical
    index missing."""
    col_f = column_map(f, w.p)
    x = Simplex(w.q, w.idx)
    faces = {i: col_f.domain.face(i, x) for i in range(w.q + 1) if i != missing}
    return CompatibleFamily.from_mapping(col_f, w.q, faces, col_f.apply(x))


def repeat(op, index, times, x):
    for _ in range(times):
        x = op(index, x)
    return x


def oracle_partial_fill(family):
    """The object recursion: a full horn is scanned by full_scan_fill; otherwise
    fill the family one dimension down at the largest missing index k, enlarge
    by the answer, and fill again.  Returns (witness or None, examined)."""
    X, Y = family.f.domain, family.f.codomain
    n = family.n
    if len(family.index_set) == n:
        return full_scan_fill(family)
    k = max(i for i in range(n + 1) if i not in family.index_set)
    sub_faces = {
        i if i < k else i - 1: X.face(k - 1 if i < k else k, x) for i, x in family.items()
    }
    sub = CompatibleFamily.from_mapping(family.f, n - 1, sub_faces, Y.face(k, family.target))
    assert is_compatible(sub)
    x_k, examined = oracle_partial_fill(sub)
    if x_k is None:
        return None, examined
    enlarged = CompatibleFamily.from_mapping(
        family.f, n, {**dict(family.items()), k: x_k}, family.target
    )
    assert is_compatible(enlarged)
    w, more = oracle_partial_fill(enlarged)
    return w, examined + more


def oracle_lift(f, p, horn, diag_f):
    """One pointwise fill over objects: BiSimplex degeneracies up to the
    diagonal, the object recursion there, BiSimplex faces back down.  Returns
    (answer or None, examined)."""
    X, Y = f.domain, f.codomain
    q, l = horn.n, missing_index(horn)
    n = p + q
    faces = {}
    for i, face in horn.items():
        x = BiSimplex(p, q - 1, face.idx)
        if i < l:
            x = repeat(X.v_degeneracy, l - 1, p, x)
            x = repeat(X.h_degeneracy, 0, l - 1, repeat(X.h_degeneracy, p, q - l, x))
            faces[i] = Simplex(n - 1, x.idx)
        else:
            x = repeat(X.v_degeneracy, l, p, x)
            x = repeat(X.h_degeneracy, 0, l, repeat(X.h_degeneracy, p, q - l - 1, x))
            faces[p + i] = Simplex(n - 1, x.idx)
        assert (x.p, x.q) == (n - 1, n - 1)
    y = repeat(Y.v_degeneracy, l, p, BiSimplex(p, q, horn.target.idx))
    y = repeat(Y.h_degeneracy, 0, l, repeat(Y.h_degeneracy, p, q - l, y))
    family = CompatibleFamily.from_mapping(diag_f, n, faces, Simplex(n, y.idx))
    assert is_compatible(family)
    w, examined = oracle_partial_fill(family)
    if w is None:
        return None, examined
    x = repeat(X.v_face, l, p, BiSimplex(n, n, w.idx))
    x = repeat(X.h_face, p + 1, q - l, repeat(X.h_face, 0, l, x))
    assert (x.p, x.q) == (p, q)
    for i, xi in horn.items():
        assert X.v_face(i, x) == BiSimplex(p, q - 1, xi.idx)
    assert f.apply(x) == BiSimplex(p, q, horn.target.idx)
    return x, examined


def oracle_cells(f, max_total_dim):
    """The sweep's cells over objects: horns from fiber_families, each lifted
    by oracle_lift."""
    diag_f = diagonal_map(f)
    cells = []
    for p in range(max_total_dim):
        col_f = column_map(f, p)
        for q in range(1, max_total_dim - p + 1):
            for missing in range(q + 1):
                indices = tuple(i for i in range(q + 1) if i != missing)
                problems = filled = max_search = 0
                for faces, y in fiber_families(col_f, q, indices):
                    horn = CompatibleFamily(col_f, q, indices, faces, y)
                    x, examined = oracle_lift(f, p, horn, diag_f)
                    problems += 1
                    filled += x is not None
                    max_search = max(max_search, examined)
                cells.append(SweepCell(p, q, missing, problems, filled, max_search))
    return tuple(cells)


def refuse(f, n, indices, faces, y):
    return None, 0, None


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
        monkeypatch.setattr(kancheck.kan, "_filler", lambda *family: None)
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

    def test_each_family_checked_once(self, eg_tensor_map, monkeypatch):
        # every family's face equations are evaluated once: each family of the
        # diagonal Kan check, each horn and the diagonal family built from it,
        # and the subfamily and enlarged family of each partial-horn step
        # (3368 here; the tree before counted 5928 is_compatible calls)
        kan_families = check_kan_fibration(diagonal_map(eg_tensor_map), 3).families_checked
        evaluated = steps = 0
        compatible = kancheck.kan._compatible
        fill = kancheck.kan._fill_partial

        def counting(*args):
            nonlocal evaluated
            evaluated += 1
            return compatible(*args)

        def counting_steps(f, n, indices, faces, y):
            nonlocal steps
            steps += len(indices) < n
            return fill(f, n, indices, faces, y)

        for module in (kancheck.kan, kancheck.pointwise):
            monkeypatch.setattr(module, "_compatible", counting)
            monkeypatch.setattr(module, "_fill_partial", counting_steps)
        report = verify_pointwise_fillers(eg_tensor_map, 3)
        assert report.passed
        assert (kan_families, report.problems_checked, steps) == (1224, 656, 416)
        assert evaluated == kan_families + 2 * report.problems_checked + 2 * steps == 3368

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
        fill = kancheck.kan._fill_partial

        def refusing(f, n, indices, faces, y):
            nonlocal seen
            if (n, indices) == diagonal_horn:
                seen += 1
                if seen > skip:
                    return refuse(f, n, indices, faces, y)
            return fill(f, n, indices, faces, y)

        # the sweep and the failure's diagonal_lift both fill through the engine
        monkeypatch.setattr(kancheck.kan, "_fill_partial", refusing)
        monkeypatch.setattr(kancheck.pointwise, "_fill_partial", refusing)
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


class TestIdSweep:
    """The sweep runs on raw ids; its cells must be the object oracle's."""

    @pytest.mark.parametrize("name, dim", [
        ("eg-tensor", 2), ("eg-tensor", 3), ("z2-commuting", 2), ("point", 2),
    ])
    def test_cells_match_object_oracle(self, name, dim):
        X = point_bisimplicial(dim, dim) if name == "point" else preset_bisimplicial(
            name, dim, dim
        )
        f = to_point_bimap(X)
        report = verify_pointwise_fillers(f, dim)
        assert report.passed
        assert report.direct_cells == oracle_cells(f, dim)
        assert report.transposed_cells == oracle_cells(transpose_map(f), dim)

    def test_eg_tensor_dim4_closed_form(self):
        # column p of EG x EG is the discrete EG_p times EG; a q-horn of EG is
        # one vertex for q = 1 and all q + 1 vertices above
        f = to_point_bimap(preset_bisimplicial("eg-tensor", 4, 4))
        report = verify_pointwise_fillers(f, 4)
        assert report.passed
        for c in report.direct_cells + report.transposed_cells:
            want = 2 ** (c.p + 1) * 2 ** (1 if c.q == 1 else c.q + 1)
            assert c.problems == c.filled == want
        assert report.problems_checked == 2320

    def test_passing_sweep_builds_no_objects(self, eg_tensor_map, monkeypatch):
        built = []
        for cls in (CompatibleFamily, FillCertificate):
            def counting(obj, post_init=cls.__post_init__):
                built.append(obj)
                post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", counting)
        lift = kancheck.pointwise.DiagonalLift

        def recording(*args):
            built.append(args)
            return lift(*args)

        monkeypatch.setattr(kancheck.pointwise, "DiagonalLift", recording)
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        assert built == []
        # the counters do see the objects a lift builds
        diagonal_lift(eg_tensor_map, 1, restriction_horn(eg_tensor_map, BiSimplex(1, 1, 3), 0))
        kinds = {type(x) for x in built}
        assert {CompatibleFamily, FillCertificate, tuple} <= kinds
