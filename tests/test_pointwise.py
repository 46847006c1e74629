import pytest
from oracles import (
    BiSimplex,
    bimap_apply,
    h_degeneracy,
    h_face,
    map_apply,
    v_degeneracy,
    v_face,
)
from test_kan import fiber_families, full_scan_fill, rotated_index, s4_pair_diagonal

import kancheck.kan
import kancheck.pointwise
from kancheck import (
    CompatibleFamily,
    Simplex,
    SimplicialMap,
    brute_force_fill,
    check_kan_fibration,
    column_map,
    cyclic_group,
    diagonal_map,
    eg_construction,
    is_compatible,
    iter_compatible_families,
    point_bisimplicial,
    symmetric_group_preset,
    tensor,
    to_point_bimap,
    transpose_map,
    verify_pointwise_fillers,
)
from kancheck.errors import InternalInvariantError, RejectedInput, TruncationError
from kancheck.kan import FillCertificate, _partial_fillers
from kancheck.pointwise import SweepCell, _answer, _diagonal_family
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import fibration_report_to_dict


def restriction_horn(f, w, missing):
    """The horn of column w.p cut out of an existing bisimplex w at vertical
    index missing."""
    col_f = column_map(f, w.p)
    x = Simplex(w.q, w.idx)
    faces = {i: col_f.domain.face(i, x) for i in range(w.q + 1) if i != missing}
    return CompatibleFamily.from_mapping(col_f, w.q, faces, map_apply(col_f, x))


def repeat(op, X, index, times, x):
    for _ in range(times):
        x = op(X, index, x)
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
    q = horn.n
    l = next(i for i in range(q + 1) if i not in horn.index_set)
    n = p + q
    faces = {}
    for i, face in horn.items():
        x = BiSimplex(p, q - 1, face.idx)
        if i < l:
            x = repeat(v_degeneracy, X, l - 1, p, x)
            x = repeat(h_degeneracy, X, 0, l - 1, repeat(h_degeneracy, X, p, q - l, x))
            faces[i] = Simplex(n - 1, x.idx)
        else:
            x = repeat(v_degeneracy, X, l, p, x)
            x = repeat(h_degeneracy, X, 0, l, repeat(h_degeneracy, X, p, q - l - 1, x))
            faces[p + i] = Simplex(n - 1, x.idx)
        assert (x.p, x.q) == (n - 1, n - 1)
    y = repeat(v_degeneracy, Y, l, p, BiSimplex(p, q, horn.target.idx))
    y = repeat(h_degeneracy, Y, 0, l, repeat(h_degeneracy, Y, p, q - l, y))
    family = CompatibleFamily.from_mapping(diag_f, n, faces, Simplex(n, y.idx))
    assert is_compatible(family)
    w, examined = oracle_partial_fill(family)
    if w is None:
        return None, examined
    x = repeat(v_face, X, l, p, BiSimplex(n, n, w.idx))
    x = repeat(h_face, X, p + 1, q - l, repeat(h_face, X, 0, l, x))
    assert (x.p, x.q) == (p, q)
    for i, xi in horn.items():
        assert v_face(X, i, x) == BiSimplex(p, q - 1, xi.idx)
    assert bimap_apply(f, x) == BiSimplex(p, q, horn.target.idx)
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


def diagonal_family(f, p, horn, diag_f=None):
    """``_diagonal_family`` of an object horn of column p, as a block of one,
    returned as ``(n, indices, faces, y)``."""
    l = next(i for i in range(horn.n + 1) if i not in horn.index_set)
    diag_f = diag_f or diagonal_map(f)
    n, indices, [y], xs = _diagonal_family(f, diag_f, p, horn.n, l, *horn.block())
    return n, indices, tuple(x for [x] in xs), y


def partial_fill(diag_f, n, indices, faces, y):
    """``_partial_fillers`` on a block of one: ``(w or None, examined)``."""
    [w], [examined] = _partial_fillers(diag_f, n, indices, [y], [[x] for x in faces])
    return w, examined


def answer(f, p, missing, horn, w):
    """``_answer`` of one diagonal filler w of a horn of column p."""
    [x] = _answer(f, p, horn.n, missing, horn.index_set, *horn.block(), [w])
    return x


class TestProblemValidation:
    def test_restriction_is_compatible(self, eg_tensor_map):
        for missing in range(3):
            horn = restriction_horn(eg_tensor_map, BiSimplex(1, 2, 17), missing)
            assert is_compatible(horn)
            assert horn.index_set == tuple(i for i in range(3) if i != missing)

    def test_dimension_mismatch_rejected(self, eg_tensor_map):
        col_f = column_map(eg_tensor_map, 1)
        with pytest.raises(RejectedInput):
            CompatibleFamily(col_f, 2, (1, 2), (Simplex(1, 0), Simplex(0, 0)), Simplex(2, 0))
        with pytest.raises(RejectedInput):
            CompatibleFamily(col_f, 2, (0, 3), (Simplex(1, 0), Simplex(1, 1)), Simplex(2, 0))

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
        n, indices, faces, _ = diagonal_family(eg_tensor_map, p, horn)
        assert indices == (0,)
        lifted = BiSimplex(p, 0, horn.face(0).idx)
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
            for horn in iter_compatible_families(col_f, 2, indices):
                fam = diagonal_family(eg_tensor_map, 1, horn, diag_f)
                assert is_compatible(CompatibleFamily.of_ids(diag_f, *fam))
                seen += 1
        assert seen > 0

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
                for i, xi in horn.items():
                    assert v_face(X, i, BiSimplex(p, q, x)) == BiSimplex(p, q - 1, xi.idx)

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

        def counting_steps(f, n, indices, ys, xs):
            nonlocal steps, full
            if len(indices) < n:
                steps += len(ys)
            else:
                full += len(ys)
            return fill(f, n, indices, ys, xs)

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
        # the witness of each Kan family the check searches, one per orbit
        # of Z2 x Z2 on the diagonal (1224 / 4 = 306), and of each partial
        # fill's full horn (every one fills here), and the answer of each
        # horn, each seen once
        assert witnessed[kancheck.kan] == kan_families // 4 + full == 306 + full
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
        # every (map, m, J) index and least-id map is built at most once, and
        # the sweeps' fills in the diagonal find every least-id map they need
        # already built by its Kan check: the sweeps build indexes only on
        # line maps, to enumerate, and no least-id map at all.  The map is
        # fresh, as the transposed sweep enumerates on f's own row maps
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
        by_kan_check = {
            (m, faces) for when, kind, f, m, faces in builds
            if f is diag_f and kind == "_build_least"
        }
        assert {
            (n, tuple(i for i in range(n + 1) if i != k)) for n in range(1, 4) for k in range(n + 1)
        } <= by_kan_check
        in_sweeps = [(kind, f) for when, kind, f, _, _ in builds if when == "sweeps"]
        assert in_sweeps and all(
            kind == "_build_index" and any(f is col for col in columns) for kind, f in in_sweeps
        )
        # the column maps of the transpose are f's row maps, each used by
        # one sweep; a second run on f finds every line index built
        assert {id(col) for col in columns} == {
            id(m) for m in eg_tensor_map.column_maps[:3] + eg_tensor_map.row_maps[:3]
        }
        builds.clear()
        phase[0] = "kan check"
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        assert [b for b in builds if b[0] == "sweeps"] == []

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
        assert verify_pointwise_fillers(eg_tensor_map, 3).passed
        assert built == []
        # the counters do see the objects an object-level fill builds
        brute_force_fill(restriction_horn(eg_tensor_map, BiSimplex(1, 1, 3), 0))
        assert {type(x) for x in built} == {CompatibleFamily, FillCertificate}


def actionless_diagonal_map(f):
    """``diagonal_map(f)`` with the action its domain carries dropped, so
    that its Kan check searches every family."""
    d = diagonal_map(f)
    d.domain._action = None
    return d


class TestOrbitPrecondition:
    """The diagonal of a tensor carries the product action, so the Kan check
    of a caller's diagonal map over a point searches one family per orbit;
    its reports, and the sweeps after it, are the full search's."""

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
        orbit, full = diagonal_map(f), actionless_diagonal_map(f)
        assert orbit.domain._action is not None
        kan = check_kan_fibration(orbit, dim)
        assert kan.passed and kan == check_kan_fibration(full, dim)
        swept = verify_pointwise_fillers(f, dim)
        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", actionless_diagonal_map)
        assert swept == verify_pointwise_fillers(to_point_bimap(tensor(eg, eg)), dim)
        assert swept.passed and swept.problems_checked > 0

    def test_non_kan_precondition_is_the_full_search(self, z2, monkeypatch):
        # Z2 acts on the first factor; the S4-pair diagonal has no action and
        # is not Kan at n = 2, so the failing cell is searched in full
        f = to_point_bimap(tensor(eg_construction(z2, 2), s4_pair_diagonal(2)))
        seen = []
        count_cell = kancheck.kan._count_cell

        def recording(g, n, indices, *restricted):
            seen.append(bool(restricted))
            return count_cell(g, n, indices, *restricted)

        monkeypatch.setattr(kancheck.kan, "_count_cell", recording)
        orbit = fibration_report_to_dict(check_kan_fibration(diagonal_map(f), 2))
        assert seen[-2:] == [True, False] and all(seen[:-1])
        full = fibration_report_to_dict(check_kan_fibration(actionless_diagonal_map(f), 2))
        assert orbit == full and not orbit["passed"]
        assert orbit["failure"]["family"]["n"] == 2
        with pytest.raises(RejectedInput) as by_orbits:
            verify_pointwise_fillers(f, 2)
        monkeypatch.setattr(kancheck.pointwise, "diagonal_map", actionless_diagonal_map)
        with pytest.raises(RejectedInput) as in_full:
            verify_pointwise_fillers(f, 2)
        assert str(by_orbits.value) == str(in_full.value)
        assert "unfillable horn at n=2" in str(by_orbits.value)
