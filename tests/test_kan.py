import gc
import itertools
import types
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from oracles import compatible, map_apply, simplices

import kancheck.groupoids
import kancheck.kan
from kancheck import (
    FiniteGroupoid,
    Simplex,
    SimplicialMap,
    brute_force_fill,
    check_kan_fibration,
    check_kan_to_point,
    check_trivial_fibration_to_point,
    cyclic_group,
    diagonal,
    double_nerve,
    eg_construction,
    eg_cover,
    group_pair_double_groupoid,
    nerve,
    one_object_groupoid,
    point,
    product,
    symmetric_group_preset,
    to_point_map,
    validate_simplicial_identities,
)
from kancheck.cli import group_from_input, load_input, subgroups_from_input
from kancheck.doublegroupoid import _DoubleNerveBuild, diagonal_stages
from kancheck.errors import InternalInvariantError, RejectedInput
from kancheck.kan import (
    FibrationReport,
    FillCertificate,
    HornCellStats,
    _all_compatible,
    _blocks,
    _partial_fillers,
)
from kancheck.presets import preset_bisimplicial, preset_double_groupoid
from kancheck.serialize import fibration_report_to_dict, simplicial_from_dict, simplicial_to_dict
from kancheck.bisimplicial import product_stages
from kancheck.simplicial import TruncatedSimplicialSet, gather


# A family is ``(n, indices, faces, y)`` on raw ids: ``faces[t]`` is the id
# in X_{n-1} at ``indices[t]``, y the target's id in Y_n.  So
# ``brute_force_fill(f, *family)`` fills it.


def restriction_family(f, x, indices):
    """The family cut out of an existing simplex: x_i = d_i x, y = f x."""
    X = f.domain
    faces = tuple(X.face(i, x).idx for i in indices)
    return x.dim, tuple(indices), faces, map_apply(f, x).idx


def engine_compatible(f, n, indices, faces, y):
    """The engine's equation check on a block of one."""
    return _all_compatible(f, n, indices, [y], [[x] for x in faces])


def engine_families(f, n, indices):
    """The rows of the engine's blocks (``kan._blocks``), as ``(faces, y)``."""
    for ys, xs in _blocks(f, n, indices):
        for y, *faces in zip(ys, *xs):
            yield tuple(faces), y


def partial_fill(f, n, indices, faces, y):
    """``_partial_fillers`` on a block of one: ``(w or None, examined)``."""
    [w], [[examined]] = _partial_fillers(f, n, indices, [y], [[x] for x in faces])
    return w, examined


def full_scan_fill(f, n, indices, faces, y):
    """The oracle: scan all of X_n in ascending id order for a filler.

    Returns the first filler's id (or None) and the number of simplices
    examined.
    """
    X = f.domain
    for w in simplices(X, n):
        if map_apply(f, w).idx == y and all(
            X.face(i, w).idx == x for i, x in zip(indices, faces)
        ):
            return w.idx, w.idx + 1
    return None, X.size(n)


def fiber_families(f, n, indices):
    """The oracle enumeration: every face drawn from its whole f-fiber, found
    by a scan of all of X_{n-1} (no index), backtracking in ascending index
    order, as ``(faces, y)`` id pairs."""
    X, Y = f.domain, f.codomain
    for y in simplices(Y, n):
        required = [Y.face(i, y) for i in indices]

        def extend(chosen):
            t = len(chosen)
            if t == len(indices):
                yield tuple(x.idx for x in chosen), y.idx
                return
            for x in simplices(X, n - 1):
                if map_apply(f, x) == required[t] and (n < 2 or all(
                    X.face(indices[s], x) == X.face(indices[t] - 1, chosen[s])
                    for s in range(t)
                )):
                    yield from extend(chosen + [x])

        yield from extend([])


def oracle_report(f, kind, max_dim, cells):
    """The oracle sweep: the (n, k) cells filled in order, with families
    from fiber_families and fills from full_scan_fill."""
    done = []
    for n, k in cells:
        indices = tuple(i for i in range(n + 1) if i != k)
        families = filled = 0
        for faces, y in fiber_families(f, n, indices):
            families += 1
            witness, examined = full_scan_fill(f, n, indices, faces, y)
            if witness is None:
                done.append(HornCellStats(n, k, families, filled))
                failure = FillCertificate(f, n, indices, faces, y, None, examined)
                return FibrationReport(kind, max_dim, tuple(done), failure)
            filled += 1
        done.append(HornCellStats(n, k, families, filled))
    return FibrationReport(kind, max_dim, tuple(done), None)


@pytest.fixture(scope="module")
def s3_diag_map():
    return to_point_map(diagonal(preset_bisimplicial("s3-counterexample", 2, 2)))


@pytest.fixture(scope="module")
def eg_diag_map(eg_tensor_3):
    return to_point_map(diagonal(eg_tensor_3))


@pytest.fixture(scope="module")
def s3_identity_map(s3_nerve):
    X = s3_nerve
    return SimplicialMap(X, X, [list(range(X.counts[n])) for n in range(X.bound + 1)])


@pytest.fixture(scope="module")
def eg_sign_map(s3):
    """EG(S3) -> BZ2, the universal cover followed by the sign: (g_0..g_n) goes
    to the string of sign(g_{j-1}) + sign(g_j).  An edge's sign needs both of
    its vertices, so the six edges with a given face d_i split three and three
    by sign.  Only the f digit of an index key tells them apart: a key on the
    faces alone would fill a one-face horn, or draw a face, over the wrong
    target."""
    squares = {s3.mul(a, a) for a in range(s3.order)}
    odd = [int(g not in squares) for g in range(s3.order)]
    bound = 2
    components = [
        [
            int("".join(str(odd[a] ^ odd[b]) for a, b in zip(c, c[1:])) or "0", 2)
            for c in itertools.product(range(s3.order), repeat=n + 1)
        ]
        for n in range(bound + 1)
    ]
    Y = nerve(one_object_groupoid(cyclic_group(2)), bound)
    return SimplicialMap(eg_construction(s3, bound), Y, components)


# the Z2 and S3 nerves, a diagonal with an unfillable horn, a Kan diagonal,
# and two maps that are not to the point: the identity, whose f-fibers are
# single simplices, and a sign map, whose index keys need their f digit
DIFFERENTIAL_MAPS = (
    "z2_nerve_map", "s3_nerve_map", "s3_diag_map", "eg_diag_map", "s3_identity_map",
    "eg_sign_map",
)


class TestCompatibility:
    """The engine's equation check, on blocks of one, against the
    per-simplex oracle."""

    def test_restriction_is_compatible(self, s3_nerve_map):
        for x in simplices(s3_nerve_map.domain, 3):
            fam = restriction_family(s3_nerve_map, x, (0, 2, 3))
            assert engine_compatible(s3_nerve_map, *fam)
            assert compatible(s3_nerve_map, *fam)

    def test_mismatched_target_face_incompatible(self, z2_nerve):
        # against the identity map, f x_i = x_i must equal d_i y on the nose
        from kancheck import SimplicialMap

        ident = SimplicialMap(
            z2_nerve, z2_nerve,
            [list(range(z2_nerve.counts[n])) for n in range(z2_nerve.bound + 1)],
        )
        y = 3
        right = z2_nerve.face(0, Simplex(2, y)).idx
        wrong = next(k for k in range(z2_nerve.size(1)) if k != right)
        assert engine_compatible(ident, 2, (0,), (right,), y)
        assert not engine_compatible(ident, 2, (0,), (wrong,), y)
        assert not compatible(ident, 2, (0,), (wrong,), y)
        with pytest.raises(RejectedInput, match="not compatible"):
            brute_force_fill(ident, 2, (0,), (wrong,), y)

    def test_dimension_mismatch_rejected(self, z2_nerve_map):
        # a family whose dimension, index set or ids do not fit the tables
        # is refused before any search
        X = z2_nerve_map.domain
        for n, indices, faces, y in [
            (0, (), (), 0),                    # ambient dimension below 1
            (4, (0,), (0,), 0),                # ambient dimension past the bound
            (2, (3,), (0,), 0),                # index outside [0, 2]
            (2, (1, 0), (0, 0), 0),            # index set not increasing
            (2, (0, 1), (0,), 0),              # one face too few
            (2, (0,), (X.size(1),), 0),        # face id past X_1
            (2, (0,), (-1,), 0),               # negative face id
            (2, (0,), (0,), 1),                # target id past the point
            (2, (0,), (0.0,), 0),              # a float is no id
        ]:
            with pytest.raises(RejectedInput):
                brute_force_fill(z2_nerve_map, n, indices, faces, y)

    def test_vertex_incompatibility_at_n2(self, eg_z2):
        # on the universal cover the pairwise vertex equations genuinely bite
        f = to_point_map(eg_z2)
        flags = set()
        for a in range(eg_z2.size(1)):
            for b in range(eg_z2.size(1)):
                flag = engine_compatible(f, 2, (0, 1), (a, b), 0)
                assert flag == compatible(f, 2, (0, 1), (a, b), 0)
                flags.add(flag)
        assert flags == {True, False}


class TestBruteForceFill:
    def test_restriction_fills(self, z2_nerve_map):
        for x in simplices(z2_nerve_map.domain, 2):
            fam = restriction_family(z2_nerve_map, x, (0, 1))
            cert = brute_force_fill(z2_nerve_map, *fam)
            assert cert.filled

    def test_first_witness_in_id_order(self, z2_nerve_map):
        n, indices, faces, y = restriction_family(z2_nerve_map, Simplex(2, 0), (1,))
        cert = brute_force_fill(z2_nerve_map, n, indices, faces, y)
        others = [
            x.idx
            for x in simplices(z2_nerve_map.domain, 2)
            if z2_nerve_map.domain.face(1, x).idx == faces[0]
        ]
        assert cert.witness == min(others)

    def test_incompatible_rejected(self, eg_z2):
        f = to_point_map(eg_z2)
        a, b = next(
            (a, b)
            for a in range(eg_z2.size(1))
            for b in range(eg_z2.size(1))
            if not compatible(f, 2, (0, 1), (a, b), 0)
        )
        with pytest.raises(RejectedInput):
            brute_force_fill(f, 2, (0, 1), (a, b), 0)

    def test_unfillable_horn_examines_everything(self, s3_diag_map):
        X = s3_diag_map.domain
        report = check_kan_fibration(s3_diag_map, 2)
        assert not report.passed
        assert report.failure.candidates_examined == X.size(2)


class TestIndexSearch:
    """The index lookup engine against the whole-fiber, whole-table oracles."""

    # at one row a block never branches past a level of one-id buckets, at
    # seven most cells span several blocks, and the default holds each cell
    @pytest.mark.parametrize(
        "name, rows",
        [
            pytest.param(name, rows, id=name if rows is None else f"{name}-rows{rows}")
            for rows in (None, 1, 7)
            for name in DIFFERENTIAL_MAPS
        ],
    )
    def test_engine_matches_oracles_on_every_cell(self, name, rows, request, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        f = request.getfixturevalue(name)
        unfilled = 0
        for n in range(1, f.domain.bound + 1):
            # every horn and boundary, and the empty index set (a bare target)
            for indices in [()] + [
                tuple(i for i in range(n + 1) if i != k) for k in range(-1, n + 1)
            ]:
                families = list(engine_families(f, n, indices))
                assert families == list(fiber_families(f, n, indices))
                for faces, y in families:
                    cert = brute_force_fill(f, n, indices, faces, y)
                    assert (cert.witness, cert.candidates_examined) == full_scan_fill(
                        f, n, indices, faces, y
                    )
                    unfilled += not cert.filled
        # some boundaries of the nerves and of the sign map, and a horn of the
        # S3 diagonal, do not fill; every family on the diagonal of EG x EG and
        # on the identity does
        assert (unfilled > 0) == (name not in ("eg_diag_map", "s3_identity_map"))


def pack_key(radix, head, digits):
    """The mixed-radix int ``(head, *digits)``, each digit below ``radix``:
    the key the index used before its keys were tuples."""
    for d in digits:
        head = head * radix + d
    return head


def simplex_key(f, m, faces, w):
    """The index key of the domain m-simplex w: ``(f w, d_j w for j in
    faces)``, the image left out iff codomain level m is a point, and a
    single entry standing for itself."""
    key = [f.components[m][w]] if f.codomain.counts[m] > 1 else []
    key += [f.domain._faces[m][j][w] for j in faces]
    return key[0] if len(key) == 1 else tuple(key)


class TestIndexKeys:
    """``SimplicialMap.index`` and ``least`` against a per-simplex tuple-key
    reference, on a map to the point (no image in the keys), on the identity
    and on the sign map (an image in the keys, and at level 0 none: BZ2 has
    one vertex).  The buckets are also those of the packed-int keys they
    replace."""

    @pytest.mark.parametrize("name", ["eg_diag_map", "s3_identity_map", "eg_sign_map"])
    def test_index_matches_pack_key_reference(self, name, request):
        given = request.getfixturevalue(name)
        X = given.domain
        f = SimplicialMap(X, given.codomain, given.components, validate=False)
        assert any(map(any, f.components)) == (name != "eg_diag_map")
        for m in range(X.bound + 1):
            assert f.headed(m) == (f.codomain.counts[m] > 1)
            for size in range(m + 2 if m else 1):
                for faces in itertools.combinations(range(m + 1), size):
                    radix = X.counts[m - 1] if faces else 0
                    expected, packed = {}, {}
                    for w in range(X.counts[m]):
                        key = simplex_key(f, m, faces, w)
                        expected.setdefault(key, []).append(w)
                        digits = [X._faces[m][j][w] for j in faces]
                        packed.setdefault(pack_key(radix, f.components[m][w], digits), []).append(w)
                    index, least = f.index(m, faces), f.least(m, faces)
                    assert index == {key: tuple(ids) for key, ids in expected.items()}
                    assert sorted(expected.values()) == sorted(packed.values())
                    assert least == {key: ids[0] for key, ids in expected.items()}
                    # the fill lookups key rows as the index keys simplices
                    rows = list(range(X.counts[m]))
                    ys = gather(f.components[m], rows)
                    xs = [gather(X._faces[m][j], rows) for j in faces]
                    if len(faces) == m and m:
                        assert kancheck.kan._fillers(f, m, faces, ys, xs) == [
                            least[simplex_key(f, m, faces, w)] for w in rows
                        ]


def group_times_pair_groupoid(G, objects, order):
    """G x the pair groupoid on ``objects`` objects: one arrow s -> t labelled
    g for each g in G and each pair (s, t), composed by multiplying labels.
    ``order`` permutes the arrow ids, and so the simplex ids of the nerve."""
    arrows = [(g, t, s) for g in range(G.order) for t in range(objects) for s in range(objects)]
    arrows = [arrows[a] for a in order]
    number = {arrow: a for a, arrow in enumerate(arrows)}
    compose = {
        (number[g, t, m], number[h, m, s]): number[G.mul(g, h), t, s]
        for g, t, m in arrows
        for h, m2, s in arrows
        if m2 == m
    }
    return FiniteGroupoid(
        [f"o{o}" for o in range(objects)],
        [s for _, _, s in arrows],
        [t for _, t, _ in arrows],
        compose,
        [number[G.identity, o, o] for o in range(objects)],
    )


GROUPS = {
    **{f"Z{m}": lambda m=m: cyclic_group(m) for m in range(1, 5)},
    "S3": lambda: symmetric_group_preset(3),
}


# the most simplices the top level of a drawn nerve may hold: the oracles
# scan a whole level for each family
MAX_DRAWN_LEVEL = 256


@st.composite
def groupoid_nerves(draw):
    """Nerves of connected groupoids G x pair(1..3) with at most 12 arrows,
    arrows in a drawn order, truncated at a drawn bound <= 5, lowered until
    the top level holds at most MAX_DRAWN_LEVEL simplices."""
    G = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]()
    objects = draw(st.sampled_from([k for k in (1, 2, 3) if G.order * k * k <= 12]))
    order = draw(st.permutations(range(G.order * objects * objects)))
    bound = draw(st.integers(1, 5))
    # level n holds a string of n arrows from each object: objects (|G| objects)^n
    while bound > 1 and objects * (G.order * objects) ** bound > MAX_DRAWN_LEVEL:
        bound -= 1
    return nerve(group_times_pair_groupoid(G, objects, order), bound)


class TestGroupoidNerves:
    """Known answers: the nerve of a groupoid is Kan, and above dimension 1
    every horn has exactly one filler.  A check over a point counts its
    cells from 4 faces up, and its reports are the full search's."""

    @settings(max_examples=12, deadline=None)
    @given(X=groupoid_nerves())
    def test_engine_matches_oracles_and_fillers_are_unique(self, X):
        f = to_point_map(X)
        for n in range(1, X.bound + 1):
            for k in range(n + 1):
                indices = tuple(i for i in range(n + 1) if i != k)
                families = list(engine_families(f, n, indices))
                assert families == list(fiber_families(f, n, indices))
                for faces, y in families:
                    cert = brute_force_fill(f, n, indices, faces, y)
                    assert cert.filled
                    assert (cert.witness, cert.candidates_examined) == full_scan_fill(
                        f, n, indices, faces, y
                    )
                if n >= 2:
                    # one whole-table pass counts the fillers of every horn
                    tables = X._faces[n]
                    fillers = Counter(
                        tuple(tables[i][w] for i in indices) for w in range(X.size(n))
                    )
                    assert [fillers[faces] for faces, _ in families] == [1] * len(families)
                    assert len(families) == X.size(n)
        for check in (check_kan_to_point, check_trivial_fibration_to_point):
            assert check(X, X.bound) == check(without_factors(X), X.bound)


class TestIdEngineReports:
    """The sweeps count on raw ids; their reports must be the oracle's."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_MAPS)
    def test_reports_match_oracle_sweep(self, name, request):
        f = request.getfixturevalue(name)
        d = f.domain.bound
        kan = check_kan_fibration(f, d)
        kan_cells = [(n, k) for n in range(1, d + 1) for k in range(n + 1)]
        assert kan == oracle_report(f, "kan", d, kan_cells)
        # only the S3 diagonal is not Kan; its failure is the oracle's too
        assert kan.passed == (name != "s3_diag_map")
        trivial = check_trivial_fibration_to_point(f.domain, d)
        trivial_cells = [(n, -1) for n in range(1, d + 1)]
        assert trivial == oracle_report(to_point_map(f.domain), "trivial", d, trivial_cells)

    def test_passing_sweep_builds_no_family(self, eg_diag_map, s3_diag_map, monkeypatch):
        # a family is built into a certificate only where it does not fill
        built = []
        post_init = FillCertificate.__post_init__

        def counting(cert):
            built.append(cert)
            post_init(cert)

        monkeypatch.setattr(FillCertificate, "__post_init__", counting)
        assert check_kan_fibration(eg_diag_map, 3).passed
        assert built == []
        report = check_kan_fibration(s3_diag_map, 2)
        assert len(built) == 1 and built[0] is report.failure


class TestKanCheck:
    def test_nerve_to_point_passes(self, z2_nerve_map):
        report = check_kan_fibration(z2_nerve_map, 3)
        assert report.passed
        assert report.families_checked > 0

    def test_point_identity_passes(self):
        pt = point(2)
        from kancheck import SimplicialMap

        f = SimplicialMap(pt, pt, [[0], [0], [0]])
        assert check_kan_fibration(f, 2).passed

    def test_diag_counterexample_fails_with_witness(self, s3_diag_map):
        report = check_kan_fibration(s3_diag_map, 2)
        assert not report.passed
        fail = report.failure
        assert fail.n == 2
        assert len(fail.index_set) == 2
        assert compatible(s3_diag_map, fail.n, fail.index_set, fail.faces, fail.target)

    def test_bound_too_small_rejected(self, z2_nerve_map):
        with pytest.raises(RejectedInput):
            check_kan_fibration(z2_nerve_map, 4)

    def test_determinism(self, z2_nerve_map):
        a = fibration_report_to_dict(check_kan_fibration(z2_nerve_map, 3))
        b = fibration_report_to_dict(check_kan_fibration(z2_nerve_map, 3))
        assert a == b


def rotated_index(original, spared=()):
    """``SimplicialMap.index`` with each bucket of a keyed index moved to the
    next key, so that every draw after a map's first face is a wrong id; the
    maps in ``spared`` keep their true index."""
    def index(self, m, faces):
        found = original(self, m, faces)
        if not faces or len(found) < 2 or any(self is g for g in spared):
            return found
        keys = list(found)
        return dict(zip(keys, map(found.__getitem__, keys[1:] + keys[:1])))
    return index


def break_one_face(X, n, i, idx, to):
    """X with ``d_i`` of the n-simplex idx sent to the (n-1)-simplex ``to``."""
    faces = [list(map(list, level)) for level in X._faces]
    faces[n][i][idx] = to
    return TruncatedSimplicialSet(X.counts, faces, X._degens)


class TestRowsVerifiedByWitness:
    """A row that fills is verified by its witness and the level laws of its
    dimension, checked once per level; only a block with a row that does not
    fill has its face equations evaluated."""

    def test_passing_cells_evaluate_no_equations(self, eg_diag_map, monkeypatch):
        def refuse(*args):
            raise AssertionError("a passing cell evaluated its face equations")

        monkeypatch.setattr(kancheck.kan, "_all_compatible", refuse)
        assert check_kan_fibration(eg_diag_map, 3).passed
        assert check_trivial_fibration_to_point(eg_diag_map.domain, 3).passed

    def test_level_laws_checked_once_per_level(self, eg_diag_map, monkeypatch):
        seen = []
        check = kancheck.kan.require_level_laws

        def recording(f, n):
            seen.append((f, n))
            return check(f, n)

        monkeypatch.setattr(kancheck.kan, "require_level_laws", recording)
        assert check_kan_fibration(eg_diag_map, 3).passed
        # the diagonal of a tensor is EG(Z2) x EG(Z2), but a caller's map is
        # searched itself, not on its domain's factors, so the laws are
        # checked on it, once per level
        assert eg_diag_map.domain._factors is not None
        assert seen == [(eg_diag_map, n) for n in (1, 2, 3)]
        seen.clear()
        full = to_point_map(eg_diag_map.domain)
        assert check_kan_fibration(full, 3).passed
        assert seen == [(full, n) for n in (1, 2, 3)]

    def test_failing_block_evaluates_its_equations(self, s3_diag_map, monkeypatch):
        rows = []
        compatible = kancheck.kan._all_compatible

        def counting(f, n, indices, ys, xs):
            rows.append(len(ys))
            return compatible(f, n, indices, ys, xs)

        monkeypatch.setattr(kancheck.kan, "_all_compatible", counting)
        report = check_kan_fibration(s3_diag_map, 2)
        assert not report.passed
        # the failing block, then the certificate's own family
        assert rows[-1] == 1 and len(rows) == 2

    @pytest.mark.parametrize("fixture", ["eg_diag_map", "z2_nerve_map"])
    def test_wrong_bucket_id_raises(self, fixture, request, monkeypatch):
        f = request.getfixturevalue(fixture)
        monkeypatch.setattr(SimplicialMap, "index", rotated_index(SimplicialMap.index))
        with pytest.raises(InternalInvariantError, match="enumerated family is not compatible"):
            check_kan_fibration(f, 3)

    def test_broken_face_identity_refused(self, z2):
        X = eg_construction(z2, 2)
        # d_0 of the 2-simplex (0, 0, 0) sent to the edge (1, 1): its d_0 d_0
        # leaves vertex 0
        bad = break_one_face(X, 2, 0, 0, 3)
        first = next(v for v in validate_simplicial_identities(bad).violations if v.n == 2)
        assert first.identity == "face-face"
        with pytest.raises(RejectedInput) as err:
            check_kan_fibration(to_point_map(bad), 2)
        assert str(err.value) == (
            "domain breaks the simplicial identities: " + first.describe(bad)
        )
        assert str(err.value).startswith(
            "domain breaks the simplicial identities: face-face at n=2, i=0, j=1, simplex 0:"
        )
        with pytest.raises(RejectedInput, match="face-face at n=2"):
            check_trivial_fibration_to_point(bad, 2)

    def test_broken_face_identity_refused_by_the_factor_rule(self, z2):
        # the broken face breaks the face identities of the product too.
        # The factor's check refuses it, so the product rule gives way to
        # the full search, which names the product's least simplex, as it
        # does without the factors recorded.  Over an empty factor the
        # product breaks no law, and both checks of it are the full search's
        eg = eg_construction(z2, 2)
        broken = break_one_face(eg, 2, 0, 0, 3)
        X = product(eg, broken)
        full = without_factors(X)
        first = next(v for v in validate_simplicial_identities(full).violations if v.n == 2)
        want = "domain breaks the simplicial identities: " + first.describe(full)
        for check, tables in (
            (check_kan_to_point, X), (check_kan_to_point, product_stages(eg, broken)),
            (lambda Y, n: check_kan_fibration(to_point_map(Y), n), X),
            (check_trivial_fibration_to_point, X), (check_trivial_fibration_to_point, full),
        ):
            with pytest.raises(RejectedInput) as err:
                check(tables, 2)
            assert str(err.value) == want
        empty = TruncatedSimplicialSet([0, 0, 0], [[], [[], []], [[], [], []]],
                                       [[[]], [[], []], []])
        for check in (check_kan_to_point, check_trivial_fibration_to_point):
            over_empty = product(broken, empty)
            assert check(over_empty, 2) == check(without_factors(over_empty), 2)

    def test_non_natural_map_refused(self, eg_sign_map):
        f = eg_sign_map
        assert f.headed(1) and not f.headed(0)
        components = [list(c) for c in f.components]
        components[2][0] ^= 1  # the sign of (e, e, e) at its last edge
        with pytest.raises(RejectedInput) as validated:
            SimplicialMap(f.domain, f.codomain, components)
        lawless = SimplicialMap(f.domain, f.codomain, components, validate=False)
        with pytest.raises(RejectedInput) as err:
            check_kan_fibration(lawless, 2)
        assert str(err.value) == str(validated.value)
        assert str(err.value).startswith("map does not commute with d_")


class TestPartialHorn:
    """``_partial_fillers`` on blocks of one."""

    def test_full_horn_delegates_to_oracle(self, z2_nerve_map):
        fam = restriction_family(z2_nerve_map, Simplex(2, 1), (0, 1))
        direct = brute_force_fill(z2_nerve_map, *fam)
        assert partial_fill(z2_nerve_map, *fam) == (direct.witness, direct.candidates_examined)

    def test_z2_nerve_partial(self, z2_nerve_map):
        count = 0
        X = z2_nerve_map.domain
        for faces, y in engine_families(z2_nerve_map, 3, (0, 2)):
            w, _ = partial_fill(z2_nerve_map, 3, (0, 2), faces, y)
            assert w is not None
            for i, x in zip((0, 2), faces):
                assert X.face(i, Simplex(3, w)).idx == x
            count += 1
        assert count == 8

    def test_singletons_on_kan_diagonal(self, eg_tensor_map):
        from kancheck import diagonal_map

        diag_f = diagonal_map(eg_tensor_map)
        for k in range(3):
            for faces, y in engine_families(diag_f, 2, (k,)):
                assert partial_fill(diag_f, 2, (k,), faces, y)[0] is not None

    def test_oracle_failure_propagates(self, z2_nerve_map, monkeypatch):
        import kancheck.kan

        monkeypatch.setattr(
            kancheck.kan, "_fillers", lambda f, n, indices, ys, xs: [None] * len(ys)
        )
        faces, y = next(engine_families(z2_nerve_map, 3, (0, 2)))
        w, examined = partial_fill(z2_nerve_map, 3, (0, 2), faces, y)
        assert w is None
        # the failure comes up from the full horn one dimension down, I = (0, 2)
        assert examined == z2_nerve_map.domain.size(2)

    def test_oracle_equivalence_on_kan_fixtures(self, request):
        # on a Kan-verified map, recursive filling succeeds exactly when the
        # whole-table scan does (witnesses may differ); the S3 diagonal is not
        # Kan, and there the two still agree on which partial horns fill
        s3_diag_map = request.getfixturevalue("s3_diag_map")
        for f in map(request.getfixturevalue, DIFFERENTIAL_MAPS):
            outcomes = set()
            for n in (1, 2):
                for size in range(1, n + 1):
                    for indices in itertools.combinations(range(n + 1), size):
                        for faces, y in engine_families(f, n, indices):
                            filled = full_scan_fill(f, n, indices, faces, y)[0] is not None
                            w, _ = partial_fill(f, n, indices, faces, y)
                            assert (w is not None) == filled
                            outcomes.add(filled)
            assert outcomes == ({True, False} if f is s3_diag_map else {True})


def standard_simplex(m, bound):
    """Delta[m] up to ``bound``: the n-simplices are the nondecreasing
    (n+1)-tuples over [m], with ids in lexicographic order; d_i deletes
    entry i and s_i repeats it."""
    levels = [
        list(itertools.combinations_with_replacement(range(m + 1), n + 1))
        for n in range(bound + 1)
    ]
    ids = [{s: i for i, s in enumerate(level)} for level in levels]
    faces = [[]] + [
        [[ids[n - 1][s[:i] + s[i + 1:]] for s in levels[n]] for i in range(n + 1)]
        for n in range(1, bound + 1)
    ]
    degens = [
        [[ids[n + 1][s[:i + 1] + s[i:]] for s in levels[n]] for i in range(n + 1)]
        for n in range(bound)
    ] + [[]]
    return TruncatedSimplicialSet([len(level) for level in levels], faces, degens)


# (witness id or None, candidates_examined) of a partial fill of every
# compatible partial horn (1 <= |I| <= n <= 3) of Delta[2] -> point, in the
# order the engine's blocks give them, recorded with the engine that filled
# one family at a time
PARTIAL_FILLS_OF_DELTA2 = {
    (1, (0,)): [(0, 1), (1, 2), (2, 3)],
    (1, (1,)): [(0, 1), (3, 4), (5, 6)],
    (2, (0,)): [(0, 2), (1, 3), (2, 4), (3, 6), (4, 7), (5, 9)],
    (2, (1,)): [(0, 2), (1, 3), (2, 4), (6, 11), (7, 12), (9, 16)],
    (2, (2,)): [(0, 2), (None, 11), (None, 11), (6, 11), (None, 14), (9, 16)],
    (2, (0, 1)): [
        (0, 1), (1, 2), (None, 10), (2, 3), (None, 10), (None, 10), (3, 4), (6, 7), (4, 5), (7, 8),
        (None, 10), (5, 6), (8, 9), (9, 10),
    ],
    (2, (0, 2)): [(0, 1), (1, 2), (2, 3), (3, 4), (6, 7), (4, 5), (7, 8), (5, 6), (8, 9), (9, 10)],
    (2, (1, 2)): [
        (0, 1), (None, 10), (None, 10), (1, 2), (3, 4), (None, 10), (2, 3), (4, 5), (5, 6), (6, 7),
        (None, 10), (7, 8), (8, 9), (9, 10),
    ],
    (3, (0,)): [
        (0, 4), (1, 6), (2, 8), (3, 9), (4, 11), (5, 13), (6, 17), (7, 19), (8, 21), (9, 25),
    ],
    (3, (1,)): [
        (0, 4), (1, 6), (2, 8), (3, 9), (4, 11), (5, 13), (10, 29), (11, 31), (12, 33), (14, 41),
    ],
    (3, (2,)): [
        (0, 4), (1, 6), (2, 8), (None, 11), (None, 11), (None, 11), (10, 29), (11, 31), (None, 14),
        (14, 41),
    ],
    (3, (3,)): [
        (0, 4), (None, 12), (None, 12), (None, 11), (None, 11), (None, 11), (10, 29), (None, 21),
        (None, 14), (14, 41),
    ],
    (3, (0, 1)): [
        (0, 2), (1, 3), (2, 4), (3, 6), (None, 10), (4, 7), (None, 10), (5, 9), (None, 10),
        (None, 10), (6, 11), (10, 18), (7, 12), (11, 19), (8, 14), (12, 21), (None, 10), (9, 16),
        (13, 23), (14, 25),
    ],
    (3, (0, 2)): [
        (0, 2), (1, 3), (2, 4), (3, 6), (4, 7), (5, 9), (6, 11), (10, 18), (7, 12), (11, 19),
        (8, 14), (12, 21), (9, 16), (13, 23), (14, 25),
    ],
    (3, (0, 3)): [
        (0, 2), (1, 4), (2, 6), (3, 6), (4, 8), (5, 9), (6, 11), (10, 18), (7, 13), (11, 20),
        (8, 14), (12, 21), (9, 16), (13, 23), (14, 25),
    ],
    (3, (1, 2)): [
        (0, 2), (1, 3), (None, 10), (2, 4), (None, 10), (None, 10), (3, 6), (6, 11), (4, 7),
        (7, 12), (None, 10), (5, 9), (8, 14), (9, 16), (10, 18), (11, 19), (None, 10), (12, 21),
        (13, 23), (14, 25),
    ],
    (3, (1, 3)): [
        (0, 2), (1, 4), (2, 6), (3, 6), (6, 11), (4, 8), (7, 13), (5, 9), (8, 14), (9, 16),
        (10, 18), (11, 20), (12, 21), (13, 23), (14, 25),
    ],
    (3, (2, 3)): [
        (0, 2), (None, 10), (None, 10), (1, 4), (3, 8), (None, 10), (2, 6), (4, 10), (5, 12),
        (6, 11), (None, 10), (7, 13), (8, 15), (9, 16), (10, 18), (None, 10), (11, 20), (12, 22),
        (13, 23), (14, 25),
    ],
    (3, (0, 1, 2)): [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (10, 11), (7, 8), (11, 12), (8, 9),
        (12, 13), (9, 10), (13, 14), (14, 15),
    ],
    (3, (0, 1, 3)): [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (10, 11), (7, 8), (11, 12), (8, 9),
        (12, 13), (9, 10), (13, 14), (14, 15),
    ],
    (3, (0, 2, 3)): [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (10, 11), (7, 8), (11, 12), (8, 9),
        (12, 13), (9, 10), (13, 14), (14, 15),
    ],
    (3, (1, 2, 3)): [
        (0, 1), (1, 2), (2, 3), (3, 4), (6, 7), (4, 5), (7, 8), (5, 6), (8, 9), (9, 10), (10, 11),
        (11, 12), (12, 13), (13, 14), (14, 15),
    ],
}


class TestPartialFillBlocks:
    """Delta[2] is not Kan, and in most of its partial-horn cells some rows
    fill while others stop, one dimension down or at the last full horn."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    def test_rows_of_mixed_blocks_keep_their_fills(self, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        f = to_point_map(standard_simplex(2, 3))
        assert not check_kan_fibration(f, 3).passed
        assert set(PARTIAL_FILLS_OF_DELTA2) == {
            (n, indices)
            for n in range(1, 4)
            for size in range(1, n + 1)
            for indices in itertools.combinations(range(n + 1), size)
        }
        mixed = 0
        for (n, indices), pinned in PARTIAL_FILLS_OF_DELTA2.items():
            rows_filled = []
            for ys, xs in kancheck.kan._blocks(f, n, indices):
                ws, [examined] = kancheck.kan._partial_fillers(f, n, indices, ys, xs)
                rows_filled += zip(ws, examined)
                mixed += None in ws and ws.count(None) < len(ws)
            assert rows_filled == pinned
            assert [
                partial_fill(f, n, indices, faces, y)
                for faces, y in engine_families(f, n, indices)
            ] == pinned
        # a block of one row is never mixed; the larger blocks are
        assert (mixed == 0) == (rows == 1)


class TestTrivialFibration:
    def test_diag_tensor_passes(self):
        X = diagonal(preset_bisimplicial("eg-tensor", 2, 2))
        assert check_trivial_fibration_to_point(X, 2).passed

    def test_nerve_fails(self, z2_nerve):
        report = check_trivial_fibration_to_point(z2_nerve, 2)
        assert not report.passed
        assert report.failure.n == 2
        assert len(report.failure.index_set) == 3

    def test_point_passes(self):
        assert check_trivial_fibration_to_point(point(2), 2).passed

    def test_empty_base_fails(self):
        from kancheck.simplicial import TruncatedSimplicialSet

        empty = TruncatedSimplicialSet([0, 0], [[], [[], []]], [[[]], []])
        report = check_trivial_fibration_to_point(empty, 1)
        assert not report.passed
        assert report.base_point_missing

    def test_bound_too_small_rejected(self, z2_nerve):
        with pytest.raises(RejectedInput):
            check_trivial_fibration_to_point(z2_nerve, 9)


@pytest.fixture(scope="module")
def eg_product(z2):
    """EG(Z2) x EG(Z2) to bound 4, which records its factors."""
    eg = eg_construction(z2, 4)
    return product(eg, eg)


@pytest.fixture(scope="module")
def searched_eg_product(z2):
    """EG(Z2) x EG(Z2) to bound 4, whose recorded factors are copies of
    EG(Z2) that record no coskeleton: a check over a point searches every
    cell of the factor, dim 4 included."""
    eg = without_factors(eg_construction(z2, 4))
    return product(eg, eg)


def horn_cells(max_dim):
    return [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]


def without_factors(X):
    """The same tables and labels as X, with no factors and no coskeleton
    recorded: the full search runs."""
    labels = None if X._labels is None else list(X._labels)
    return TruncatedSimplicialSet(X.counts, X._faces, X._degens, labels)


TRIVIAL_CELLS = [(n, -1) for n in range(1, 5)]


def recording_builds(monkeypatch):
    """Record every ``(kind, m, faces)`` build of an index or least-id map."""
    builds = []
    for kind in ("_build_index", "_build_least"):

        def counting(f, m, faces, build=getattr(SimplicialMap, kind), kind=kind):
            builds.append((kind, m, faces))
            return build(f, m, faces)

        monkeypatch.setattr(SimplicialMap, kind, counting)
    return builds


class TestMapLifetime:
    """A check that builds its own map drops each search map once no later
    cell reads it; a caller's map keeps its maps.  Neither builds a map
    twice, and both give the same report."""

    @pytest.mark.parametrize("check, cells", [
        (check_kan_to_point, horn_cells(4)),
        (check_trivial_fibration_to_point, TRIVIAL_CELLS),
    ], ids=["kan", "trivial"])
    def test_each_cell_starts_with_one_level_of_indexes(
        self, searched_eg_product, monkeypatch, check, cells
    ):
        held = []
        blocks = kancheck.kan._blocks

        def recording(f, n, indices):
            held.append((n, set(f._leasts), {m for m, _ in f._indexes}))
            return blocks(f, n, indices)

        monkeypatch.setattr(kancheck.kan, "_blocks", recording)
        # each cell's least-id map is dropped once counted, on the set or,
        # with its factors recorded, on its factor
        for tables in (without_factors(searched_eg_product), searched_eg_product):
            held.clear()
            assert check(tables, 4).passed
            assert [n for n, _, _ in held] == [n for n, _ in cells]
            for n, leasts, levels in held:
                assert not leasts
                assert levels <= {n - 1}
            # a level's later cells, where it has more than one, find the
            # indexes its first cell built
            assert any(levels for _, _, levels in held) == (len(cells) > 4)

    @pytest.mark.parametrize("owned, kept", [
        (
            lambda X: check_kan_to_point(X, 4),
            lambda X: check_kan_fibration(to_point_map(X), 4),
        ),
        (
            lambda X: check_trivial_fibration_to_point(X, 4),
            lambda X: kancheck.kan._fill_cells(
                to_point_map(X), "trivial", 4, TRIVIAL_CELLS, owned=False
            ),
        ),
    ], ids=["kan", "trivial"])
    def test_builds_match_a_kept_map_and_none_twice(self, eg_product, monkeypatch, owned, kept):
        # the same tables with no factors recorded, so that both search in full
        eg_product = without_factors(eg_product)
        builds = recording_builds(monkeypatch)
        kept(eg_product)
        on_kept = builds[:]
        builds.clear()
        owned(eg_product)
        assert builds == on_kept
        assert len(set(builds)) == len(builds)
        assert {m for _, m, _ in builds} == set(range(5))

    def test_callers_map_keeps_every_map(self, eg_product):
        # a caller's map is searched in full, over a point and on a product
        # that records its factors too, and keeps every least-id map and
        # index it built; its report is the factor rule's
        for X in (without_factors(eg_product), eg_product):
            f = to_point_map(X)
            assert check_kan_fibration(f, 4) == check_kan_to_point(eg_product, 4)
            assert set(f._leasts) == {
                (n, tuple(i for i in range(n + 1) if i != k)) for n, k in horn_cells(4)
            }
            assert {m for m, _ in f._indexes} == {0, 1, 2, 3}

    def test_same_report_as_the_kept_map(self, eg_product):
        def reports(X, max_dim):
            return (
                fibration_report_to_dict(check_kan_to_point(X, max_dim)),
                fibration_report_to_dict(check_kan_fibration(to_point_map(X), max_dim)),
            )

        owned, kept = reports(eg_product, 4)
        assert owned == kept and owned["passed"]
        data = load_input("bench/inputs/s4_pair.json")
        G = group_from_input(data)
        pair = group_pair_double_groupoid(G, *subgroups_from_input(data, G))
        owned, kept = reports(diagonal(double_nerve(pair, 2, 2)), 2)
        assert owned == kept and not owned["passed"]
        assert owned["failure"]["family"]["n"] == 2


def s4_pair():
    """The S4 pair's double groupoid: AB != BA, so its double nerve's
    diagonal is not Kan, at n = 2."""
    data = load_input("bench/inputs/s4_pair.json")
    G = group_from_input(data)
    return group_pair_double_groupoid(G, *subgroups_from_input(data, G))


def s4_pair_diagonal(dim):
    """The S4-pair double nerve's diagonal: it has no action, and it is not
    Kan at n = 2."""
    return diagonal(double_nerve(s4_pair(), dim, dim))


def recording_stages(monkeypatch):
    """Record the stage each advance of a double-nerve build reaches."""
    reached = []
    advance = _DoubleNerveBuild.advance

    def recording(build):
        advance(build)
        reached.append(build.n)

    monkeypatch.setattr(_DoubleNerveBuild, "advance", recording)
    return reached


class TestStagedDiagonal:
    """A to-point Kan check of a double nerve's diagonal grown a level at a
    time builds level n only when its first cell at n starts."""

    @pytest.mark.parametrize("max_dim", [3, 4, 5])
    def test_failing_check_builds_no_stage_past_its_failing_level(self, monkeypatch, max_dim):
        reached = recording_stages(monkeypatch)
        report = check_kan_to_point(diagonal_stages(s4_pair(), max_dim), max_dim)
        assert not report.passed and report.failure.n == 2
        assert reached == [1, 2]

    def test_passing_check_builds_each_stage_once(self, monkeypatch):
        reached = recording_stages(monkeypatch)
        D = preset_double_groupoid("z2-commuting")
        report = check_kan_to_point(diagonal_stages(D, 3), 3)
        assert report.passed and reached == [1, 2, 3]
        monkeypatch.undo()
        assert report == check_kan_to_point(diagonal(double_nerve(D, 3, 3)), 3)

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("which, max_dim", [
        ("s4-pair", 3), ("s3-counterexample", 3), ("z2-commuting", 2),
    ])
    def test_reports_match_the_built_diagonal(self, monkeypatch, rows, which, max_dim):
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        D = s4_pair() if which == "s4-pair" else preset_double_groupoid(which)
        built = diagonal(double_nerve(D, max_dim, max_dim))
        for check in (check_kan_to_point, check_trivial_fibration_to_point):
            staged = fibration_report_to_dict(check(diagonal_stages(D, max_dim), max_dim))
            assert staged == fibration_report_to_dict(check(built, max_dim))
        assert check_kan_to_point(built, max_dim).passed == (which == "z2-commuting")


def closed_form_cells(order, max_dim, kind):
    """The cells of ``product(EG(G), EG(G))``, |G| = order, by counting:
    an n-simplex is its n + 1 vertices, so for n >= 2 a horn or a boundary
    fixes every vertex and has one filler, and there are |X_n| of them; at
    n = 1 a horn is a vertex and a boundary a pair of vertices."""
    cells = []
    for n in range(1, max_dim + 1):
        if n >= 2:
            families = order ** (2 * n + 2)
        else:
            families = order ** 2 if kind == "kan" else order ** 4
        ks = range(n + 1) if kind == "kan" else [-1]
        cells += [(n, k, families, families) for k in ks]
    return cells


class TestProductRule:
    """The Kan and trivial-fibration checks over a point of a product search
    each factor once, on a map of its own, and multiply the counts cell by
    cell when both pass (the product rule); otherwise they search the
    product in full.  Their reports are the full search's."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("group, max_dim", [
        (cyclic_group(2), 5), (cyclic_group(3), 3), (symmetric_group_preset(3), 2),
    ], ids=["Z2", "Z3", "S3"])
    def test_counts_match_the_closed_form(self, group, max_dim, rows, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        eg = eg_construction(group, max_dim)
        X = product(eg, eg)
        checks = [(check_kan_to_point, "kan"), (check_trivial_fibration_to_point, "trivial")]
        for check, kind in checks:
            report = check(X, max_dim)
            assert report.passed
            assert [(c.n, c.k, c.families, c.filled) for c in report.cells] == (
                closed_form_cells(group.order, max_dim, kind)
            )

    @pytest.mark.parametrize("check, cells", [
        (check_kan_to_point, horn_cells(4)),
        (check_trivial_fibration_to_point, TRIVIAL_CELLS),
    ], ids=["kan", "trivial"])
    def test_one_restricted_map_per_cell_and_none_twice(
        self, searched_eg_product, monkeypatch, check, cells
    ):
        builds = []
        for kind in ("_build_index", "_build_least"):

            def counting(f, m, faces, build=getattr(SimplicialMap, kind), kind=kind):
                builds.append((kind, m, faces, f.domain.counts[m]))
                return build(f, m, faces)

            monkeypatch.setattr(SimplicialMap, kind, counting)
        assert check(searched_eg_product, 4).passed
        assert len(set(builds)) == len(builds)
        leasts = [b for b in builds if b[0] == "_build_least"]
        # each over the factor EG(Z2), searched once, whose level n has
        # 2^(n+1) simplices against the product's 4^(n+1): no map over the
        # product, so no cell was searched on it
        assert leasts == [
            ("_build_least", n, tuple(i for i in range(n + 1) if i != k), 2 ** (n + 1))
            for n, k in cells
        ]

    def test_a_cell_spans_several_full_blocks(self, searched_eg_product, monkeypatch):
        rows = 16
        monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        blocks = Counter()
        check = kancheck.kan._check_witnesses

        def recording(f, n, indices, ys, *columns):
            blocks[n, indices, len(ys)] += 1
            return check(f, n, indices, ys, *columns)

        monkeypatch.setattr(kancheck.kan, "_check_witnesses", recording)
        report = check_kan_to_point(searched_eg_product, 4)
        # each dim-4 cell of the factor EG(Z2) has 2^5 = 32 families: 2 full
        # blocks
        assert {cell: count for cell, count in blocks.items() if cell[0] == 4} == {
            (4, tuple(i for i in range(5) if i != k), rows): 2 for k in range(5)
        }
        monkeypatch.setattr(kancheck.kan, "_check_witnesses", check)
        assert report == check_kan_fibration(to_point_map(searched_eg_product), 4)

    def test_failing_cell_is_searched_in_full(self, z2, monkeypatch):
        # Y, the S4-pair diagonal, is not Kan, so neither is EG(Z2) x Y: each
        # factor is searched, then the product in full, from its first cell
        Y = s4_pair_diagonal(2)
        X = product(eg_construction(z2, 2), Y)
        seen = []
        count_cell = kancheck.kan._count_cell

        def recording(f, n, indices):
            seen.append((n, indices, f.domain))
            return count_cell(f, n, indices)

        monkeypatch.setattr(kancheck.kan, "_count_cell", recording)
        owned = fibration_report_to_dict(check_kan_to_point(X, 2))
        monkeypatch.setattr(kancheck.kan, "_count_cell", count_cell)
        full = to_point_map(X)
        assert owned == fibration_report_to_dict(check_kan_fibration(full, 2))
        assert not owned["passed"] and owned["failure"]["family"]["n"] == 2
        # EG(Z2) in full (5 cells), Y to its failing cell, then X from its
        # first cell to the same one
        names = {id(X._factors[0]): "eg", id(Y): "Y", id(X): "X"}
        on = [names[id(domain)] for _, _, domain in seen]
        half = (len(seen) - 5) // 2
        assert on == ["eg"] * 5 + ["Y"] * half + ["X"] * half
        cells = [(n, indices) for n, indices, _ in seen[5:]]
        assert cells[:half] == cells[half:] and cells[-1][0] == 2

    @pytest.mark.parametrize("build", [
        lambda eg: product(eg, standard_simplex(2, 3)),
        lambda eg: product(standard_simplex(2, 3), eg),
        lambda eg: product(nerve(one_object_groupoid(cyclic_group(3)), 3), eg),
        lambda eg: product(eg, product(eg, eg)),
    ], ids=["eg-x-delta2", "delta2-x-eg", "bz3-x-eg", "eg-x-eg-x-eg"])
    @pytest.mark.parametrize("check", [check_kan_to_point, check_trivial_fibration_to_point])
    def test_reports_match_the_full_search(self, z2, build, check):
        # Delta[2] fills neither every horn nor every boundary, and BZ3 fills
        # every horn but not every boundary; EG x (EG x EG) is decided from
        # its factors, the second by the same rule
        X = build(eg_construction(z2, 3))
        assert X._factors is not None
        assert fibration_report_to_dict(check(X, 3)) == (
            fibration_report_to_dict(check(without_factors(X), 3))
        )

    def test_caller_map_uses_the_rule_only_over_a_point(self, eg_product):
        # over a codomain that is not a point the caller's map is searched
        # in full, on its own maps
        f = SimplicialMap(eg_product, eg_product, [range(c) for c in eg_product.counts])
        assert check_kan_fibration(f, 2).passed
        assert set(f._leasts) == {
            (n, tuple(i for i in range(n + 1) if i != k)) for n, k in horn_cells(2)
        }

    def test_no_grow_closure_outlives_a_check(self, eg_product):
        gc.collect()
        gc.disable()
        try:
            assert check_kan_to_point(eg_product, 4).passed
            assert check_kan_to_point(without_factors(eg_product), 4).passed
            assert not check_kan_to_point(s4_pair_diagonal(2), 2).passed
            grows = [
                o for o in gc.get_objects()
                if isinstance(o, types.FunctionType) and o.__name__ == "grow"
            ]
        finally:
            gc.enable()
        assert grows == []


def searched_cells(monkeypatch):
    """Record the ``(n, I)`` of every cell a sweep searches
    (``kan._count_cell``)."""
    seen = []
    count_cell = kancheck.kan._count_cell

    def recording(f, n, indices):
        seen.append((n, indices))
        return count_cell(f, n, indices)

    monkeypatch.setattr(kancheck.kan, "_count_cell", recording)
    return seen


def report_cells(report):
    """The ``(n, I)`` of each cell of a report, in order."""
    return [(c.n, tuple(i for i in range(c.n + 1) if i != c.k)) for c in report.cells]


# nerves recorded as 2-coskeletal, each to the bound it is checked at
COSKELETAL_SETS = {
    "EG(Z2)-8": lambda: eg_construction(cyclic_group(2), 8),
    "EG(Z3)-6": lambda: eg_construction(cyclic_group(3), 6),
    "EG(S3)-5": lambda: eg_construction(symmetric_group_preset(3), 5),
    "BS3-5": lambda: nerve(one_object_groupoid(symmetric_group_preset(3)), 5),
    # the pair groupoid on 3 objects: its boundaries fill too, so its
    # trivial sweep reaches the counted levels
    "codiscrete3-5": lambda: nerve(group_times_pair_groupoid(cyclic_group(1), 3, range(9)), 5),
}


@pytest.fixture(scope="module")
def full_searches():
    """Filled by :func:`full_search`, and dropped with this module."""
    return {}


def full_search(searches, name, check):
    """The named set, and ``check`` of a copy of it that records no
    coskeleton, to its bound: every cell searched.  Made once per set and
    check, at the block size in force at the first call."""
    if (name, check) not in searches:
        X = COSKELETAL_SETS[name]()
        searches[name, check] = X, fibration_report_to_dict(check(without_factors(X), X.bound))
    return searches[name, check]


class TestCountedCells:
    """A check over a point counts each cell (n, I) of a set recorded as
    c-coskeletal with |I| >= c + 2, and searches the others: the nerves of
    groupoids, recorded with c = 2, have their horns counted from n = 4 and
    their boundaries from n = 3.  Its reports are the full search's."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("check", [check_kan_to_point, check_trivial_fibration_to_point],
                             ids=["kan", "trivial"])
    @pytest.mark.parametrize("name", sorted(COSKELETAL_SETS))
    def test_counted_reports_are_the_full_search(
        self, full_searches, name, check, rows, monkeypatch
    ):
        # the reference is searched at the default block size: the block size
        # cuts only the cells the counted check searches
        X, full = full_search(full_searches, name, check)
        assert X._coskeletal == 2
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        searched = searched_cells(monkeypatch)
        report = check(X, X.bound)
        assert fibration_report_to_dict(report) == full
        assert searched == [cell for cell in report_cells(report) if len(cell[1]) < 4]
        # every set here passes both checks but BS3, whose boundaries at n = 2
        # do not all fill
        assert report.passed == (name != "BS3-5" or check is check_kan_to_point)

    def test_records_extensions_and_products_are_searched_in_full(self, z2, monkeypatch):
        # none of these records a coskeleton, though each is a nerve or a
        # product of nerves: a check of it searches every cell it reports
        N = nerve(one_object_groupoid(z2), 5)
        grown = nerve(one_object_groupoid(z2), 4).extended(
            N.counts[5], N._faces[5], N._degens[4], N._labels[5]
        )
        record = simplicial_from_dict(simplicial_to_dict(N))
        both = product(N, N)
        # the product itself is searched, not its factors
        monkeypatch.setattr(kancheck.kan, "_from_factors", lambda *args: None)
        searched = searched_cells(monkeypatch)
        for X in (grown, record, both):
            assert X._coskeletal is None
            for check in (check_kan_to_point, check_trivial_fibration_to_point):
                searched.clear()
                report = check(X, 5)
                assert searched == report_cells(report)
                # BZ2 and its square are Kan, and fail a boundary at n = 2
                assert report.passed == (check is check_kan_to_point)
                if X is not both:
                    assert report == check(N, 5)

    def test_a_callers_map_is_searched_in_full(self):
        X = eg_construction(cyclic_group(3), 5)
        f = to_point_map(X)
        assert check_kan_fibration(f, 5) == check_kan_to_point(X, 5)
        assert set(f._leasts) == {
            (n, tuple(i for i in range(n + 1) if i != k)) for n, k in horn_cells(5)
        }

    @pytest.mark.parametrize("check", [check_kan_to_point, check_trivial_fibration_to_point],
                             ids=["kan", "trivial"])
    def test_a_counted_level_keeps_its_laws(self, z2, check):
        # a level the check counts, level 4 of a set recorded as
        # 2-coskeletal with a face moved, is refused as the search refuses it
        X = eg_construction(z2, 4)
        faces = [list(t) for t in X._faces[4]]
        faces[0][0] = faces[0][1]
        broken = eg_construction(z2, 3).extended(X.counts[4], faces, X._degens[3], X._labels[4])
        broken._coskeletal = 2
        with pytest.raises(RejectedInput, match="simplicial identities") as counted:
            check(broken, 4)
        with pytest.raises(RejectedInput) as searched:
            check(without_factors(broken), 4)
        assert str(counted.value) == str(searched.value)


class TestActionChecks:
    """G acts freely on EG(G) by left multiplication, and the universal
    cover ``eg_cover(G, bound)``, ``EG -> BG``, is invariant under it."""

    def test_eg_action_is_left_multiplication(self, s3):
        # G acts on EG(G) by left multiplication, each g a permutation of
        # every level that commutes with pi: the deck transformations
        for G in (cyclic_group(2), s3):
            f = eg_cover(G, 2)
            X, pi = f.domain, f.components
            assert X == eg_construction(G, 2)
            assert f.codomain == nerve(one_object_groupoid(G), 2)
            for n in range(3):
                for g in range(G.order):
                    # an id's coordinates are its digits base |G|
                    moved = [
                        sum(G.mul(g, c) * G.order ** (n - t) for t, c in enumerate(coords))
                        for coords in itertools.product(range(G.order), repeat=n + 1)
                    ]
                    assert sorted(moved) == list(range(X.counts[n]))
                    assert gather(pi[n], moved) == list(pi[n])
                    # each fibre is one orbit: |G| simplices over each of BG's
                    assert Counter(pi[n]) == dict.fromkeys(range(f.codomain.counts[n]), G.order)


class TestCertificateIntegrity:
    def test_witness_reverified_on_construction(self, z2_nerve_map):
        fam = restriction_family(z2_nerve_map, Simplex(2, 1), (0, 1))
        good = brute_force_fill(z2_nerve_map, *fam)
        X = z2_nerve_map.domain
        # a witness id outside X_2 is rejected
        for outside in (-1, X.size(2)):
            with pytest.raises(InternalInvariantError, match="not in the domain"):
                FillCertificate(z2_nerve_map, *fam, outside, 1)
        # and so is a 2-simplex whose faces are not the family's
        _, indices, faces, _ = fam
        wrong = next(
            w.idx for w in simplices(X, 2)
            if [X.face(i, w).idx for i in indices] != list(faces)
        )
        with pytest.raises(InternalInvariantError, match="witness face"):
            FillCertificate(z2_nerve_map, *fam, wrong, wrong + 1)
        assert good.filled
        assert good == FillCertificate(z2_nerve_map, *fam, good.witness, good.witness + 1)
