import pytest
from oracles import (
    BiSimplex,
    bimap_apply,
    compatible,
    h_degeneracy,
    h_face,
    v_degeneracy,
    v_face,
)
from test_kan import (
    engine_compatible,
    engine_families,
    fiber_families,
    full_scan_fill,
    partial_fill,
    rotated_index,
    s4_pair_diagonal,
    standard_simplex,
)

import kancheck.kan
import kancheck.pointwise
from kancheck import (
    Simplex,
    SimplicialMap,
    brute_force_fill,
    check_kan_fibration,
    column_map,
    cyclic_group,
    diagonal_map,
    eg_construction,
    nerve,
    one_object_groupoid,
    point_bisimplicial,
    symmetric_group_preset,
    tensor,
    to_point_bimap,
    transpose_map,
    verify_pointwise_fillers,
    verify_pointwise_to_point,
)
from kancheck.errors import InternalInvariantError, RejectedInput, TruncationError
from kancheck.kan import FillCertificate
from kancheck.pointwise import SweepCell, _answer, _diagonal_family
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import fibration_report_to_dict
from kancheck.simplicial import TruncatedSimplicialSet


# A horn is a family ``(q, indices, faces, y)`` of a column map on raw ids,
# as in test_kan: ``faces[t]`` at ``indices[t]``, all but one index of [q].


def restriction_horn(f, w, missing):
    """The horn of column w.p cut out of an existing bisimplex w at vertical
    index missing."""
    X = column_map(f, w.p).domain
    x = Simplex(w.q, w.idx)
    indices = tuple(i for i in range(w.q + 1) if i != missing)
    faces = tuple(X.face(i, x).idx for i in indices)
    return w.q, indices, faces, bimap_apply(f, w).idx


def repeat(op, X, index, times, x):
    for _ in range(times):
        x = op(X, index, x)
    return x


def oracle_partial_fill(f, n, indices, faces, y):
    """The recursion over simplices: a full horn is scanned by
    full_scan_fill; otherwise fill the family one dimension down at the
    largest missing index k, enlarge by the answer, and fill again.  Returns
    (witness id or None, examined)."""
    X, Y = f.domain, f.codomain
    if len(indices) == n:
        return full_scan_fill(f, n, indices, faces, y)
    k = max(i for i in range(n + 1) if i not in indices)
    # re-indexing keeps the order, so each dict below is in index order
    sub = {
        i if i < k else i - 1: X.face(k - 1 if i < k else k, Simplex(n - 1, x)).idx
        for i, x in zip(indices, faces)
    }
    sub_family = (n - 1, tuple(sub), tuple(sub.values()), Y.face(k, Simplex(n, y)).idx)
    assert compatible(f, *sub_family)
    x_k, examined = oracle_partial_fill(f, *sub_family)
    if x_k is None:
        return None, examined
    enlarged = dict(sorted([*zip(indices, faces), (k, x_k)]))
    enlarged_family = (n, tuple(enlarged), tuple(enlarged.values()), y)
    assert compatible(f, *enlarged_family)
    w, more = oracle_partial_fill(f, *enlarged_family)
    return w, examined + more


def oracle_lift(f, p, horn, diag_f):
    """One pointwise fill over simplices: BiSimplex degeneracies up to the
    diagonal, the recursion there, BiSimplex faces back down.  Returns
    (answer or None, examined)."""
    X, Y = f.domain, f.codomain
    q, horn_indices, horn_faces, horn_y = horn
    l = next(i for i in range(q + 1) if i not in horn_indices)
    n = p + q
    faces = {}
    for i, face in zip(horn_indices, horn_faces):
        x = BiSimplex(p, q - 1, face)
        if i < l:
            x = repeat(v_degeneracy, X, l - 1, p, x)
            x = repeat(h_degeneracy, X, 0, l - 1, repeat(h_degeneracy, X, p, q - l, x))
            faces[i] = x.idx
        else:
            x = repeat(v_degeneracy, X, l, p, x)
            x = repeat(h_degeneracy, X, 0, l, repeat(h_degeneracy, X, p, q - l - 1, x))
            faces[p + i] = x.idx
        assert (x.p, x.q) == (n - 1, n - 1)
    y = repeat(v_degeneracy, Y, l, p, BiSimplex(p, q, horn_y))
    y = repeat(h_degeneracy, Y, 0, l, repeat(h_degeneracy, Y, p, q - l, y))
    indices = tuple(sorted(faces))
    family = (n, indices, tuple(faces[i] for i in indices), y.idx)
    assert compatible(diag_f, *family)
    w, examined = oracle_partial_fill(diag_f, *family)
    if w is None:
        return None, examined
    x = repeat(v_face, X, l, p, BiSimplex(n, n, w))
    x = repeat(h_face, X, p + 1, q - l, repeat(h_face, X, 0, l, x))
    assert (x.p, x.q) == (p, q)
    for i, xi in zip(horn_indices, horn_faces):
        assert v_face(X, i, x) == BiSimplex(p, q - 1, xi)
    assert bimap_apply(f, x) == BiSimplex(p, q, horn_y)
    return x, examined


def oracle_cells(f, max_total_dim):
    """The sweep's cells over simplices: horns from fiber_families, each
    lifted by oracle_lift."""
    diag_f = diagonal_map(f)
    cells = []
    for p in range(max_total_dim):
        col_f = column_map(f, p)
        for q in range(1, max_total_dim - p + 1):
            for missing in range(q + 1):
                indices = tuple(i for i in range(q + 1) if i != missing)
                problems = filled = max_search = 0
                for faces, y in fiber_families(col_f, q, indices):
                    x, examined = oracle_lift(f, p, (q, indices, faces, y), diag_f)
                    problems += 1
                    filled += x is not None
                    max_search = max(max_search, examined)
                cells.append(SweepCell(p, q, missing, problems, filled, max_search))
    return tuple(cells)


def diagonal_family(f, p, horn, diag_f=None):
    """``_diagonal_family`` of a horn of column p, as a block of one,
    returned as ``(n, indices, faces, y)``."""
    q, horn_indices, faces, y = horn
    l = next(i for i in range(q + 1) if i not in horn_indices)
    diag_f = diag_f or diagonal_map(f)
    n, indices, [y], xs = _diagonal_family(f, diag_f, p, q, l, [y], [[x] for x in faces])
    return n, indices, tuple(x for [x] in xs), y


def answer(f, p, missing, horn, w):
    """``_answer`` of one diagonal filler w of a horn of column p."""
    q, indices, faces, y = horn
    [x] = _answer(f, p, q, missing, indices, [y], [[x] for x in faces], [w])
    return x


def on_bimap(X, max_total_dim):
    """The sweep of X's map to the point on its lines and its diagonal."""
    return verify_pointwise_fillers(to_point_bimap(X), max_total_dim)


class TestProblemValidation:
    def test_restriction_is_compatible(self, eg_tensor_map):
        col_f = column_map(eg_tensor_map, 1)
        for missing in range(3):
            horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 17), missing)
            assert engine_compatible(col_f, *horn) and compatible(col_f, *horn)
            assert horn[1] == tuple(i for i in range(3) if i != missing)

    def test_dimension_mismatch_rejected(self, eg_tensor_map):
        # a face id past X_{1,1}, and an index outside [0, 2], are refused
        col_f = column_map(eg_tensor_map, 1)
        with pytest.raises(RejectedInput):
            brute_force_fill(col_f, 2, (1, 2), (0, col_f.domain.size(1)), 0)
        with pytest.raises(RejectedInput):
            brute_force_fill(col_f, 2, (0, 3), (0, 1), 0)

    def test_q_zero_rejected(self, eg_tensor_map):
        with pytest.raises(RejectedInput):
            brute_force_fill(column_map(eg_tensor_map, 1), 0, (), (), 0)


class TestBuildDiagonalFamily:
    def test_exponent_degeneration_q1_missing1(self, eg_tensor_map):
        # q=1, missing=1: single face at index 0, lifted by vertical
        # degeneracies alone
        X = eg_tensor_map.domain
        p = 2
        horn = restriction_horn(eg_tensor_map, BiSimplex(p, 1, 5), 1)
        n, indices, faces, _ = diagonal_family(eg_tensor_map, p, horn)
        assert indices == (0,)
        lifted = BiSimplex(p, 0, horn[2][0])
        for _ in range(p):
            lifted = v_degeneracy(X, 0, lifted)
        assert (n, faces[0]) == (p + 1, lifted.idx)

    def test_exponent_degeneration_missing0(self, eg_tensor_map):
        # missing=0 leaves only the upper branch of the index set
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 30), 0)
        _, indices, _, _ = diagonal_family(eg_tensor_map, 1, horn)
        assert indices == (2, 3)  # {p+i : 0 < i <= q} with p=1, q=2

    def test_index_set_shape(self, eg_tensor_map):
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 12), 1)
        n, indices, _, _ = diagonal_family(eg_tensor_map, 1, horn)
        assert indices == (0, 3)
        assert n == 3

    def test_family_is_diag_compatible_concrete(self, eg_tensor_map):
        # p=1, q=2, every missing index, every enumerated horn
        diag_f = diagonal_map(eg_tensor_map)
        col_f = column_map(eg_tensor_map, 1)
        seen = 0
        for missing in range(3):
            indices = tuple(i for i in range(3) if i != missing)
            for faces, y in engine_families(col_f, 2, indices):
                fam = diagonal_family(eg_tensor_map, 1, (2, indices, faces, y), diag_f)
                assert compatible(diag_f, *fam)
                seen += 1
        assert seen > 0

    def test_incompatible_problem_rejected(self, eg_tensor_map):
        col_f = column_map(eg_tensor_map, 1)
        # two faces whose shared vertex data disagrees
        found = next(
            (2, (0, 1), (a, b), 0)
            for a in range(col_f.domain.size(1))
            for b in range(col_f.domain.size(1))
            if not compatible(col_f, 2, (0, 1), (a, b), 0)
        )
        # the degenerated family is re-checked, and an incompatible horn fails it
        with pytest.raises(InternalInvariantError):
            diagonal_family(eg_tensor_map, 1, found)


class TestPointwiseFiller:
    def test_restriction_problems_solved(self, eg_tensor_map):
        X = eg_tensor_map.domain
        diag_f = diagonal_map(eg_tensor_map)
        for (p, q) in ((0, 1), (1, 1), (0, 2), (1, 2), (2, 1)):
            w = BiSimplex(p, q, X.size(p, q) // 2)
            for missing in range(q + 1):
                horn = restriction_horn(eg_tensor_map, w, missing)
                w_diag, _ = partial_fill(
                    diag_f, *diagonal_family(eg_tensor_map, p, horn, diag_f)
                )
                assert w_diag is not None
                x = answer(eg_tensor_map, p, missing, horn, w_diag)
                for i, xi in zip(horn[1], horn[2]):
                    assert v_face(X, i, BiSimplex(p, q, x)) == BiSimplex(p, q - 1, xi)

    def test_lift_records_trace(self, eg_tensor_map):
        # one lift step by step: the horn of column 1 that leaves out 0 becomes
        # a diagonal family at n = 2 over I = {p + 1}, which fills, and the
        # filler cuts down to a bisimplex of column 1
        horn = restriction_horn(eg_tensor_map, BiSimplex(1, 1, 3), 0)
        diag_f = diagonal_map(eg_tensor_map)
        family = diagonal_family(eg_tensor_map, 1, horn, diag_f)
        assert family[:2] == (2, (2,))
        w, examined = partial_fill(diag_f, *family)
        assert w is not None and examined > 0
        x = answer(eg_tensor_map, 1, 0, horn, w)
        assert 0 <= x < eg_tensor_map.domain.size(1, 1)

    def test_failure_propagates_as_unfilled(self, eg_tensor_map, monkeypatch):
        # once the diagonal has passed its Kan check, the full-horn filler under
        # the partial-horn engine refuses: the first horn of the first cell
        # cannot fill, and the sweep raises naming it
        check = kancheck.pointwise.check_kan_fibration

        def then_refuse(*args):
            report = check(*args)
            monkeypatch.setattr(
                kancheck.kan, "_fillers", lambda f, n, indices, ys, xs: [None] * len(ys)
            )
            return report

        monkeypatch.setattr(kancheck.pointwise, "check_kan_fibration", then_refuse)
        with pytest.raises(InternalInvariantError) as err:
            verify_pointwise_fillers(eg_tensor_map, 3)
        assert str(err.value).startswith("direct horn at (p, q, missing) = (0, 1, 0)")


class TestSweep:
    def test_tensor_sweep_dim2(self):
        X = preset_bisimplicial("eg-tensor", 2, 2)
        report = verify_pointwise_fillers(to_point_bimap(X), 2)
        assert report.passed
        assert report.problems_checked > 0
        assert report.families_verified_compatible == report.problems_checked

    def test_each_family_checked_once(self, eg_tensor_map, monkeypatch):
        # a row that fills is verified by its witness, once, and the level
        # laws it needs are checked once per level: the Kan check's families
        # and the horns have their face equations evaluated by no row, and
        # only the families the argument builds do, each once as one row of a
        # block: each horn's diagonal family, and the subfamily and enlarged
        # family of each partial-horn step (1488 rows here)
        kan_families = check_kan_fibration(diagonal_map(eg_tensor_map), 3).families_checked
        evaluated = steps = full = 0
        witnessed = {kancheck.kan: 0, kancheck.pointwise: 0}
        compatible = kancheck.kan._all_compatible
        fill = kancheck.kan._partial_fillers
        check = kancheck.kan._check_witnesses

        def counting(f, n, indices, ys, xs):
            nonlocal evaluated
            evaluated += len(ys)
            return compatible(f, n, indices, ys, xs)

        def counting_steps(f, n, indices, ys, xs, *scale):
            nonlocal steps, full
            if len(indices) < n:
                steps += len(ys)
            else:
                full += len(ys)
            return fill(f, n, indices, ys, xs, *scale)

        for module in (kancheck.kan, kancheck.pointwise):
            def counting_witnesses(f, n, indices, ys, xs, ws, module=module):
                witnessed[module] += len(ys)
                return check(f, n, indices, ys, xs, ws)

            monkeypatch.setattr(module, "_all_compatible", counting)
            monkeypatch.setattr(module, "_partial_fillers", counting_steps)
            monkeypatch.setattr(module, "_check_witnesses", counting_witnesses)
        report = verify_pointwise_fillers(eg_tensor_map, 3)
        assert report.passed
        assert (kan_families, report.problems_checked, steps) == (1224, 656, 416)
        assert evaluated == report.problems_checked + 2 * steps == 1488
        # the witness of each Kan family of the diagonal's factor EG(Z2),
        # searched once (92 families, whose squares' sum is the diagonal's
        # 1224), and of each partial fill's full horn (every one fills
        # here), and the answer of each horn, each seen once
        assert witnessed[kancheck.kan] == 92 + full
        assert witnessed[kancheck.pointwise] == report.problems_checked

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

    def test_both_sweeps_fill_in_the_kan_checked_diagonal(self, eg_tensor_map, monkeypatch):
        # the diagonal is built once; the Kan check and both sweeps use it,
        # since the diagonal of the transpose is the same map
        built, filled_in = [], set()
        build, fill = kancheck.pointwise.diagonal_map, kancheck.pointwise._partial_fillers

        def counting_build(f):
            built.append(build(f))
            return built[-1]

        def recording_fill(f, *family):
            filled_in.add(id(f))
            return fill(f, *family)

        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", counting_build)
        monkeypatch.setattr(kancheck.pointwise, "_partial_fillers", recording_fill)
        report = verify_pointwise_fillers(eg_tensor_map, 3)
        assert report.passed and report.transposed_cells
        assert len(built) == 1
        assert filled_in == {id(built[0])}

    def test_level_laws_checked_once_per_column_level(self, eg_tensor_map, monkeypatch):
        # each direction checks the laws of column map p at level q once per
        # (p, q) it sweeps, before the cell's horns, which are then verified
        # by their answers alone
        seen = []
        check = kancheck.pointwise.require_level_laws

        def recording(f, n):
            seen.append((f, n))
            return check(f, n)

        monkeypatch.setattr(kancheck.pointwise, "require_level_laws", recording)
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        cells = [(p, q) for p in range(3) for q in range(1, 4 - p)]
        assert [n for _, n in seen] == [q for _, q in cells] * 2
        for direction, g in enumerate((eg_tensor_map, transpose_map(eg_tensor_map))):
            for (f, n), (p, q) in zip(seen[direction * len(cells):], cells):
                assert f.components == column_map(g, p).components

    def test_wrong_bucket_id_in_a_column_raises(self, eg_tensor_map, monkeypatch):
        # the diagonal keeps its true index, so its Kan check passes, and
        # every column horn drawn past its first face is not compatible
        diagonals = []
        build = kancheck.pointwise.diagonal_map

        def recording_build(f):
            diagonals.append(build(f))
            return diagonals[-1]

        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", recording_build)
        monkeypatch.setattr(
            SimplicialMap, "index", rotated_index(SimplicialMap.index, diagonals)
        )
        with pytest.raises(InternalInvariantError):
            verify_pointwise_fillers(eg_tensor_map, 3)

    def test_each_index_built_once_and_shared_with_the_kan_check(
        self, eg_tensor_3, monkeypatch
    ):
        # every (map, m, J) index and least-id map is built at most once.
        # The diagonal's Kan check searches its factor, and builds no map
        # on the diagonal: the sweeps build the diagonal's least-id maps
        # they read, and indexes only on line maps, to enumerate.  The map
        # is fresh, as the transposed sweep enumerates on f's own row maps
        eg_tensor_map = to_point_bimap(eg_tensor_3)
        builds, phase, kan_checked, columns = [], ["kan check"], [], []
        check = kancheck.pointwise.check_kan_fibration
        column = kancheck.pointwise.column_map

        def counting(kind):
            build = getattr(SimplicialMap, kind)

            def counting_build(f, m, faces):
                builds.append((phase[0], kind, f, m, faces))
                return build(f, m, faces)

            monkeypatch.setattr(SimplicialMap, kind, counting_build)

        def check_then_sweep(diag_f, max_dim):
            kan_checked.append(diag_f)
            report = check(diag_f, max_dim)
            phase[0] = "sweeps"
            return report

        def recording_column(f, p):
            columns.append(column(f, p))
            return columns[-1]

        counting("_build_index")
        counting("_build_least")
        monkeypatch.setattr(kancheck.pointwise, "check_kan_fibration", check_then_sweep)
        monkeypatch.setattr(kancheck.pointwise, "column_map", recording_column)
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        # builds holds every map it names, so no two of them share an id()
        keys = [(kind, id(f), m, faces) for _, kind, f, m, faces in builds]
        assert len(keys) == len(set(keys))
        [diag_f] = kan_checked
        assert not any(f is diag_f for when, _, f, _, _ in builds if when == "kan check")
        in_sweeps = [(kind, f) for when, kind, f, _, _ in builds if when == "sweeps"]
        assert in_sweeps and all(
            any(f is line for line in columns + [diag_f]) for _, f in in_sweeps
        )
        assert all(kind == "_build_least" for kind, f in in_sweeps if f is diag_f)
        assert all(kind == "_build_index" for kind, f in in_sweeps if f is not diag_f)
        assert any(f is diag_f for _, f in in_sweeps)
        # the column maps of the transpose are f's row maps, each used by
        # one sweep; a second run on f finds every line index built, and
        # builds only the least-id maps of its own, fresh, diagonal map
        assert {id(col) for col in columns} == {
            id(m) for m in eg_tensor_map.column_maps[:3] + eg_tensor_map.row_maps[:3]
        }
        builds.clear()
        phase[0] = "kan check"
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        again = [(kind, f) for when, kind, f, _, _ in builds if when == "sweeps"]
        assert again and all(kind == "_build_least" and f is kan_checked[-1] for kind, f in again)

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
        fill = kancheck.pointwise._partial_fillers

        def refusing(f, n, indices, ys, xs):
            # count the rows of the cell's blocks up to the first refused one,
            # where the sweep stops
            nonlocal seen
            ws, examined = fill(f, n, indices, ys, xs)
            if (n, indices) == diagonal_horn:
                for r in range(len(ws)):
                    seen += 1
                    if seen > skip:
                        ws[r] = None
                        break
            return ws, examined

        swept = []
        sweep = kancheck.pointwise._sweep

        def recording(*args, **kwargs):
            swept.append(sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(kancheck.pointwise, "_partial_fillers", refusing)
        monkeypatch.setattr(kancheck.pointwise, "_sweep", recording)
        with pytest.raises(InternalInvariantError) as err:
            verify_pointwise_fillers(f, 2)
        direction = "transposed" if transposed else "direct"
        assert str(err.value).startswith(
            f"{direction} horn at (p, q, missing) = ({p}, {q}, {missing})"
        )
        assert seen == skip + 1
        # the transposed sweep runs only after the direct one has passed whole
        assert swept == ([clean.direct_cells] if transposed else [])


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

    @pytest.mark.parametrize("entry, group, dim, problems", [
        *[(on_bimap, cyclic_group(2), dim, problems)
          for dim, problems in ((1, 16), (2, 144), (3, 656), (4, 2320))],
        (on_bimap, symmetric_group_preset(3), 2, 8784),
        *[(verify_pointwise_to_point, cyclic_group(2), dim, problems)
          for dim, problems in ((1, 16), (2, 144), (3, 656), (4, 2320))],
        (verify_pointwise_to_point, symmetric_group_preset(3), 2, 8784),
        # on the factors alone: the bimap sweep takes about 10 s and 2 GB here
        (verify_pointwise_to_point, symmetric_group_preset(3), 3, 122832),
    ], ids=[
        "Z2-1-16", "Z2-2-144", "Z2-3-656", "Z2-4-2320", "S3-2-8784",
        "to-point-Z2-1-16", "to-point-Z2-2-144", "to-point-Z2-3-656", "to-point-Z2-4-2320",
        "to-point-S3-2-8784", "to-point-S3-3-122832",
    ])
    def test_eg_tensor_closed_form(self, entry, group, dim, problems):
        # column p of EG x EG is the discrete EG_p times EG; a q-horn of EG is
        # one vertex for q = 1 and all q + 1 vertices above, so the cell
        # (p, q, missing) has |G|^(p+1) * c_q problems, c_1 = |G| and
        # c_q = |G|^(q+1) for q >= 2, in each direction
        order = group.order
        eg = eg_construction(group, dim)
        report = entry(tensor(eg, eg), dim)
        assert report.passed
        for cells in (report.direct_cells, report.transposed_cells):
            assert [(c.p, c.q, c.missing) for c in cells] == [
                (p, q, missing)
                for p in range(dim) for q in range(1, dim - p + 1) for missing in range(q + 1)
            ]
            for c in cells:
                want = order ** (c.p + 1) * order ** (1 if c.q == 1 else c.q + 1)
                assert c.problems == c.filled == want
        assert report.problems_checked == problems == 2 * sum(
            (q + 1) * order ** (p + 1) * order ** (1 if q == 1 else q + 1)
            for p in range(dim) for q in range(1, dim - p + 1)
        )

    def test_passing_sweep_builds_no_objects(self, eg_tensor_map, monkeypatch):
        built = []
        post_init = FillCertificate.__post_init__

        def counting(cert):
            built.append(cert)
            post_init(cert)

        monkeypatch.setattr(FillCertificate, "__post_init__", counting)
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        assert built == []
        # the counter does see the certificate a single fill makes
        col_f = column_map(eg_tensor_map, 1)
        brute_force_fill(col_f, *restriction_horn(eg_tensor_map, BiSimplex(1, 1, 3), 0))
        assert [type(x) for x in built] == [FillCertificate]


def full_search_diagonal_map(f):
    """``diagonal_map(f)`` with no factors recorded on its domain, so that
    its Kan check searches every family."""
    d = diagonal_map(f)
    d.domain._factors = None
    return d


class TestOrbitPrecondition:
    """The diagonal of a tensor is the product of its factors, so the Kan
    check of a caller's diagonal map over a point is decided from the
    factors (the product rule); its reports, and the sweeps after it, are
    the full search's."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("group, dim", [
        (cyclic_group(2), 2), (cyclic_group(2), 3), (cyclic_group(2), 4),
        (cyclic_group(3), 2), (cyclic_group(3), 3), (symmetric_group_preset(3), 2),
    ], ids=["Z2-2", "Z2-3", "Z2-4", "Z3-2", "Z3-3", "S3-2"])
    def test_reports_match_the_full_search(self, group, dim, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        eg = eg_construction(group, dim)
        f = to_point_bimap(tensor(eg, eg))
        on_factors, full = diagonal_map(f), full_search_diagonal_map(f)
        assert on_factors.domain._factors == (eg, eg)
        kan = check_kan_fibration(on_factors, dim)
        assert kan.passed and kan == check_kan_fibration(full, dim)
        swept = verify_pointwise_fillers(f, dim)
        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", full_search_diagonal_map)
        assert swept == verify_pointwise_fillers(to_point_bimap(tensor(eg, eg)), dim)
        assert swept.passed and swept.problems_checked > 0

    def test_non_kan_precondition_is_the_full_search(self, z2, monkeypatch):
        # the S4-pair diagonal Y is not Kan at n = 2, so neither is
        # EG(Z2) x Y: after the factors' checks, the caller's diagonal map
        # is searched in full, from its first cell
        f = to_point_bimap(tensor(eg_construction(z2, 2), s4_pair_diagonal(2)))
        diag_f = diagonal_map(f)
        seen = []
        count_cell = kancheck.kan._count_cell

        def recording(g, n, indices):
            seen.append(g is diag_f)
            return count_cell(g, n, indices)

        monkeypatch.setattr(kancheck.kan, "_count_cell", recording)
        on_factors = fibration_report_to_dict(check_kan_fibration(diag_f, 2))
        first = seen.index(True)
        assert first > 0 and all(seen[first:])
        full = fibration_report_to_dict(check_kan_fibration(full_search_diagonal_map(f), 2))
        assert on_factors == full and not on_factors["passed"]
        assert on_factors["failure"]["family"]["n"] == 2
        with pytest.raises(RejectedInput) as by_factors:
            verify_pointwise_fillers(f, 2)
        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", full_search_diagonal_map)
        with pytest.raises(RejectedInput) as in_full:
            verify_pointwise_fillers(f, 2)
        assert str(by_factors.value) == str(in_full.value)
        assert "unfillable horn at n=2" in str(by_factors.value)


def empty_set(bound):
    """The simplicial set with no simplices, up to ``bound``."""
    return TruncatedSimplicialSet(
        [0] * (bound + 1),
        [[]] + [[[]] * (n + 1) for n in range(1, bound + 1)],
        [[[]] * (n + 1) for n in range(bound)] + [[]],
    )


def factor_corpus():
    """``(name, A, B, max_total_dim)``: tensors whose factors are all Kan."""
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group_preset(3)
    corpus = [(f"EG(Z2)^2-{dim}", eg_construction(z2, dim), None, dim) for dim in (1, 2, 3, 4)]
    corpus += [("EG(Z3)^2-3", eg_construction(z3, 3), None, 3)]
    corpus += [("EG(S3)^2-2", eg_construction(s3, 2), None, 2)]
    eg2, eg3 = eg_construction(z2, 3), eg_construction(z3, 3)
    return corpus + [
        ("EG(Z2)xEG(Z3)-3", eg2, eg3, 3),
        ("EG(Z3)xEG(Z2)-3", eg3, eg2, 3),
        ("BG(Z3)xEG(Z2)-3", nerve(one_object_groupoid(z3), 3), eg2, 3),
        ("D0xEG(Z2)-3", standard_simplex(0, 3), eg2, 3),
        ("emptyxEG(Z2)-3", empty_set(3), eg2, 3),
        ("EG(Z2)xempty-3", eg2, empty_set(3), 3),
    ]


CORPUS = factor_corpus()


class TestFactorSweep:
    """A tensor's sweep to the point runs on its factors; its reports must be
    the bimap sweep's, on the tensor's lines and its diagonal."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("name, A, B, dim", CORPUS, ids=[c[0] for c in CORPUS])
    def test_report_is_the_bimap_sweep(self, name, A, B, dim, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        B = A if B is None else B
        report = verify_pointwise_to_point(tensor(A, B), dim)
        assert report == on_bimap(tensor(A, B), dim)
        assert report.passed

    def test_failing_factor_keeps_the_diagonal_refusal(self, z2):
        # Delta[2] is not Kan: the diagonal Delta[2] x EG(Z2) is searched
        # itself, so the refusal names the product's ids
        X = tensor(standard_simplex(2, 3), eg_construction(z2, 3))
        with pytest.raises(RejectedInput) as on_factors:
            verify_pointwise_to_point(X, 3)
        with pytest.raises(RejectedInput) as on_lines:
            on_bimap(X, 3)
        assert str(on_factors.value) == str(on_lines.value) == (
            "the diagonal map is not a Kan fibration up to dimension 3: "
            "unfillable horn at n=2, I=(1, 2), faces=(0, 4)"
        )

    def test_lawless_factor_keeps_the_diagonal_refusal(self, z2):
        # a factor that breaks a law raises in its own check; the tensor then
        # takes the bimap path, whose refusal names the product's violation
        eg = eg_construction(z2, 2)
        faces = [list(level) for level in eg._faces]
        faces[2][0] = faces[2][1]
        lawless = TruncatedSimplicialSet(eg.counts, faces, eg._degens)
        X = tensor(eg, lawless)
        with pytest.raises(RejectedInput) as on_factors:
            verify_pointwise_to_point(X, 2)
        with pytest.raises(RejectedInput) as on_lines:
            on_bimap(tensor(eg, lawless), 2)
        assert str(on_factors.value) == str(on_lines.value)

    @pytest.mark.parametrize("same", [True, False], ids=["square", "mixed"])
    def test_sweep_reads_only_the_factors(self, same, monkeypatch):
        # no line of the tensor is built, no bimap or diagonal map is made,
        # and every fill is on a factor's map, each factor Kan-checked once
        A = eg_construction(cyclic_group(2), 3)
        B = A if same else eg_construction(cyclic_group(3), 3)
        X = tensor(A, B)
        checked, filled_in = [], set()
        check, fill = kancheck.pointwise.check_kan_fibration, kancheck.pointwise._partial_fillers

        def recording_check(f, max_dim):
            checked.append(f.domain)
            return check(f, max_dim)

        def recording_fill(f, *family):
            filled_in.add(id(f.domain))
            return fill(f, *family)

        monkeypatch.setattr(kancheck.pointwise, "check_kan_fibration", recording_check)
        monkeypatch.setattr(kancheck.pointwise, "_partial_fillers", recording_fill)
        monkeypatch.setattr(kancheck.pointwise, "to_point_bimap", None)
        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", None)
        assert verify_pointwise_to_point(X, 3).passed
        assert X.rows._built == [None] * 4 and X.columns._built == [None] * 4
        assert checked == ([A] if same else [A, B])
        assert filled_in == {id(A), id(B)}

    @pytest.mark.parametrize("part", ["degenerated", "horn"])
    def test_wrong_factor_filler_raises(self, part, monkeypatch):
        # the direct sweep of EG(Z2) x EG(Z3) fills the degenerated part in
        # EG(Z2) and the horn part in EG(Z3): a filler handed to the wrong
        # row, one part at a time, is caught when the answer is cut down
        A, B = eg_construction(cyclic_group(2), 2), eg_construction(cyclic_group(3), 2)
        wrong = A if part == "degenerated" else B
        fill = kancheck.pointwise._partial_fillers

        def rotating(f, n, indices, ys, xs, scale):
            ws, examined = fill(f, n, indices, ys, xs, scale)
            return (ws[1:] + ws[:1] if f.domain is wrong else ws), examined

        monkeypatch.setattr(kancheck.pointwise, "_partial_fillers", rotating)
        with pytest.raises(InternalInvariantError) as err:
            verify_pointwise_to_point(tensor(A, B), 2)
        assert str(err.value) == (
            "direct horn at (p, q, missing) = (0, 1, 0): "
            "a filler does not cut back down to its simplex"
            if part == "degenerated" else "witness face d_1 mismatch"
        )

    def test_unfilled_factor_part_names_its_cell(self, monkeypatch):
        # past the factors' Kan checks, a part that does not fill is a broken
        # invariant, named by its cell and direction
        A = eg_construction(cyclic_group(2), 2)
        fill = kancheck.pointwise._partial_fillers

        def refusing(f, n, indices, ys, xs, scale):
            ws, examined = fill(f, n, indices, ys, xs, scale)
            return [None] * len(ws), examined

        monkeypatch.setattr(kancheck.pointwise, "_partial_fillers", refusing)
        with pytest.raises(InternalInvariantError) as err:
            verify_pointwise_to_point(tensor(A, A), 2)
        assert str(err.value) == (
            "direct horn at (p, q, missing) = (0, 1, 0) did not fill through the Kan diagonal"
        )

    def test_bounds_are_checked_first(self):
        eg = eg_construction(cyclic_group(2), 2)
        with pytest.raises(TruncationError):
            verify_pointwise_to_point(tensor(eg, eg), 3)
        with pytest.raises(RejectedInput):
            verify_pointwise_to_point(tensor(eg, eg), 0)

    def test_double_nerve_takes_the_bimap_sweep(self):
        X = preset_bisimplicial("z2-commuting", 2, 2)
        assert X._factors is None
        assert verify_pointwise_to_point(X, 2) == on_bimap(X, 2)
