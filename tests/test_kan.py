import gc
import itertools
import types
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from oracles import map_apply, simplices

import kancheck.kan
from kancheck import (
    CompatibleFamily,
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
    fill_partial_horn,
    group_pair_double_groupoid,
    is_compatible,
    iter_compatible_families,
    nerve,
    one_object_groupoid,
    point,
    product,
    symmetric_group_preset,
    to_point_map,
    validate_simplicial_identities,
)
from kancheck.cli import group_from_input, load_input, subgroups_from_input
from kancheck.errors import InternalInvariantError, RejectedInput
from kancheck.kan import FibrationReport, FillCertificate, HornCellStats
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import fibration_report_to_dict
from kancheck.simplicial import GroupAction, TruncatedSimplicialSet, checked_orbits, gather


def restriction_family(f, x, indices):
    """The family cut out of an existing simplex: x_i = d_i x, y = f x."""
    X = f.domain
    return CompatibleFamily.from_mapping(
        f, x.dim, {i: X.face(i, x) for i in indices}, map_apply(f, x)
    )


def full_scan_fill(family):
    """The oracle: scan all of X_n in ascending id order for a filler.

    Returns the first filler (or None) and the number of simplices examined.
    """
    X = family.f.domain
    for x in simplices(X, family.n):
        if map_apply(family.f, x) == family.target and all(
            X.face(i, x) == xi for i, xi in family.items()
        ):
            return x, x.idx + 1
    return None, X.size(family.n)


def fiber_families(f, n, indices):
    """The oracle enumeration: every face drawn from its whole f-fiber, found
    by a scan of all of X_{n-1} (no index), backtracking in ascending index
    order, as (faces, target) pairs."""
    X, Y = f.domain, f.codomain
    for y in simplices(Y, n):
        required = [Y.face(i, y) for i in indices]

        def extend(chosen):
            t = len(chosen)
            if t == len(indices):
                yield tuple(chosen), y
                return
            for x in simplices(X, n - 1):
                if map_apply(f, x) == required[t] and (n < 2 or all(
                    X.face(indices[s], x) == X.face(indices[t] - 1, chosen[s])
                    for s in range(t)
                )):
                    yield from extend(chosen + [x])

        yield from extend([])


def oracle_report(f, kind, max_dim, cells):
    """The oracle sweep: the (n, k) cells filled in order over objects, with
    families from fiber_families and fills from full_scan_fill."""
    done = []
    for n, k in cells:
        indices = tuple(i for i in range(n + 1) if i != k)
        families = filled = 0
        for faces, y in fiber_families(f, n, indices):
            families += 1
            family = CompatibleFamily(f, n, indices, faces, y)
            witness, examined = full_scan_fill(family)
            if witness is None:
                done.append(HornCellStats(n, k, families, filled))
                failure = FillCertificate(family, None, examined)
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
    def test_restriction_is_compatible(self, s3_nerve_map):
        for x in simplices(s3_nerve_map.domain, 3):
            fam = restriction_family(s3_nerve_map, x, (0, 2, 3))
            assert is_compatible(fam)

    def test_mismatched_target_face_incompatible(self, z2_nerve):
        # against the identity map, f x_i = x_i must equal d_i y on the nose
        from kancheck import SimplicialMap

        ident = SimplicialMap(
            z2_nerve, z2_nerve,
            [list(range(z2_nerve.counts[n])) for n in range(z2_nerve.bound + 1)],
        )
        y = Simplex(2, 3)
        right = CompatibleFamily.from_mapping(
            ident, 2, {0: z2_nerve.face(0, y)}, y
        )
        wrong_face = next(
            Simplex(1, k) for k in range(z2_nerve.size(1))
            if Simplex(1, k) != z2_nerve.face(0, y)
        )
        wrong = CompatibleFamily.from_mapping(ident, 2, {0: wrong_face}, y)
        assert is_compatible(right)
        assert not is_compatible(wrong)

    def test_dimension_mismatch_rejected(self, z2_nerve_map):
        with pytest.raises(RejectedInput):
            CompatibleFamily.from_mapping(
                z2_nerve_map, 2, {0: Simplex(0, 0)}, Simplex(2, 0)
            )
        with pytest.raises(RejectedInput):
            CompatibleFamily.from_mapping(
                z2_nerve_map, 2, {0: Simplex(1, 0)}, Simplex(1, 0)
            )
        with pytest.raises(RejectedInput):
            CompatibleFamily.from_mapping(
                z2_nerve_map, 2, {3: Simplex(1, 0)}, Simplex(2, 0)
            )

    def test_vertex_incompatibility_at_n2(self, eg_z2):
        # on the universal cover the pairwise vertex equations genuinely bite
        f = to_point_map(eg_z2)
        flags = set()
        for a in range(eg_z2.size(1)):
            for b in range(eg_z2.size(1)):
                fam = CompatibleFamily.from_mapping(
                    f, 2, {0: Simplex(1, a), 1: Simplex(1, b)}, Simplex(2, 0)
                )
                flags.add(is_compatible(fam))
        assert flags == {True, False}


class TestBruteForceFill:
    def test_restriction_fills(self, z2_nerve_map):
        for x in simplices(z2_nerve_map.domain, 2):
            fam = restriction_family(z2_nerve_map, x, (0, 1))
            cert = brute_force_fill(fam)
            assert cert.filled

    def test_first_witness_in_id_order(self, z2_nerve_map):
        fam = restriction_family(z2_nerve_map, Simplex(2, 0), (1,))
        cert = brute_force_fill(fam)
        others = [
            x
            for x in simplices(z2_nerve_map.domain, 2)
            if z2_nerve_map.domain.face(1, x) == fam.faces[0]
        ]
        assert cert.witness == min(others)

    def test_incompatible_rejected(self, eg_z2):
        f = to_point_map(eg_z2)
        bad = next(
            fam
            for a in range(eg_z2.size(1))
            for b in range(eg_z2.size(1))
            for fam in [
                CompatibleFamily.from_mapping(
                    f, 2, {0: Simplex(1, a), 1: Simplex(1, b)}, Simplex(2, 0)
                )
            ]
            if not is_compatible(fam)
        )
        with pytest.raises(RejectedInput):
            brute_force_fill(bad)

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
                families = list(iter_compatible_families(f, n, indices))
                assert [(fam.faces, fam.target) for fam in families] == list(
                    fiber_families(f, n, indices)
                )
                for fam in families:
                    cert = brute_force_fill(fam)
                    assert (cert.witness, cert.candidates_examined) == full_scan_fill(fam)
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


@st.composite
def groupoid_nerves(draw):
    """Nerves of connected groupoids G x pair(1..3) with at most 12 arrows,
    arrows in a drawn order, truncated at a drawn bound <= 3."""
    G = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]()
    objects = draw(st.sampled_from([k for k in (1, 2, 3) if G.order * k * k <= 12]))
    order = draw(st.permutations(range(G.order * objects * objects)))
    bound = draw(st.integers(1, 3))
    return nerve(group_times_pair_groupoid(G, objects, order), bound)


class TestGroupoidNerves:
    """Known answers: the nerve of a groupoid is Kan, and above dimension 1
    every horn has exactly one filler."""

    @settings(max_examples=12, deadline=None)
    @given(X=groupoid_nerves())
    def test_engine_matches_oracles_and_fillers_are_unique(self, X):
        f = to_point_map(X)
        for n in range(1, X.bound + 1):
            for k in range(n + 1):
                indices = tuple(i for i in range(n + 1) if i != k)
                families = list(iter_compatible_families(f, n, indices))
                assert [(fam.faces, fam.target) for fam in families] == list(
                    fiber_families(f, n, indices)
                )
                for fam in families:
                    cert = brute_force_fill(fam)
                    assert cert.filled
                    assert (cert.witness, cert.candidates_examined) == full_scan_fill(fam)
                if n >= 2:
                    # one whole-table pass counts the fillers of every horn
                    tables = X._faces[n]
                    fillers = Counter(
                        tuple(tables[i][w] for i in indices) for w in range(X.size(n))
                    )
                    assert [fillers[fam.ids] for fam in families] == [1] * len(families)
                    assert len(families) == X.size(n)


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
        built = []
        post_init = CompatibleFamily.__post_init__

        def counting(family):
            built.append(family)
            post_init(family)

        monkeypatch.setattr(CompatibleFamily, "__post_init__", counting)
        assert check_kan_fibration(eg_diag_map, 3).passed
        assert built == []
        report = check_kan_fibration(s3_diag_map, 2)
        assert len(built) == 1 and built[0] is report.failure.family


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
        assert fail.family.n == 2
        assert len(fail.family.index_set) == 2
        assert is_compatible(fail.family)

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

        def recording(f, n, *reps):
            seen.append((f, n, *map(len, reps)))
            return check(f, n, *reps)

        monkeypatch.setattr(kancheck.kan, "require_level_laws", recording)
        assert check_kan_fibration(eg_diag_map, 3).passed
        # the diagonal of a tensor carries Z2 x Z2, so each level's face
        # identities are compared on T_n, a quarter of X_n
        assert [(n, *reps) for _, n, *reps in seen] == [(n, 4 ** (n + 1) // 4) for n in (1, 2, 3)]
        assert all(f is eg_diag_map for f, *_ in seen)

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

    def test_broken_face_identity_refused_per_orbit(self, z2):
        # Z2 acts on the first factor with T_0 = {g}, so the least violating
        # simplex, (e, e, e) paired with the broken one, is not among the
        # representatives: they show a mismatch, and the whole level is then
        # compared, so each message names the full search's least simplex
        eg = eg_construction(z2, 2)
        broken = break_one_face(eg, 2, 0, 0, 3)
        X = product(with_action(eg, base=(1,)), broken)
        full = product(without_action(eg), broken)
        assert checked_orbits(X, 2).level(2)[0] > 0
        first = next(v for v in validate_simplicial_identities(full).violations if v.n == 2)
        want = "domain breaks the simplicial identities: " + first.describe(full)
        for check in (
            check_kan_to_point, check_trivial_fibration_to_point,
            lambda Y, n: check_kan_fibration(to_point_map(Y), n),
        ):
            for tables in (X, full):
                with pytest.raises(RejectedInput) as err:
                    check(tables, 2)
                assert str(err.value) == want

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
    def test_full_horn_delegates_to_oracle(self, z2_nerve_map):
        fam = restriction_family(z2_nerve_map, Simplex(2, 1), (0, 1))
        direct = brute_force_fill(fam)
        via = fill_partial_horn(fam)
        assert via.witness == direct.witness

    def test_z2_nerve_partial(self, z2_nerve_map):
        count = 0
        for fam in iter_compatible_families(z2_nerve_map, 3, (0, 2)):
            cert = fill_partial_horn(fam)
            assert cert.filled
            X = z2_nerve_map.domain
            for i, x in fam.items():
                assert X.face(i, cert.witness) == x
            count += 1
        assert count == 8

    def test_singletons_on_kan_diagonal(self, eg_tensor_map):
        from kancheck import diagonal_map

        diag_f = diagonal_map(eg_tensor_map)
        for k in range(3):
            for fam in iter_compatible_families(diag_f, 2, (k,)):
                assert fill_partial_horn(fam).filled

    def test_index_set_size_bounds(self, z2_nerve_map):
        fam = restriction_family(z2_nerve_map, Simplex(2, 1), (0, 1))
        empty = CompatibleFamily(z2_nerve_map, 2, (), (), fam.target)
        with pytest.raises(RejectedInput):
            fill_partial_horn(empty)
        boundary = restriction_family(z2_nerve_map, Simplex(2, 1), (0, 1, 2))
        with pytest.raises(RejectedInput):
            fill_partial_horn(boundary)

    def test_oracle_failure_propagates(self, z2_nerve_map, monkeypatch):
        import kancheck.kan

        monkeypatch.setattr(
            kancheck.kan, "_fillers", lambda f, n, indices, ys, xs: [None] * len(ys)
        )
        fam = next(iter_compatible_families(z2_nerve_map, 3, (0, 2)))
        cert = fill_partial_horn(fam)
        assert not cert.filled
        # the failure comes up from the full horn one dimension down, I = (0, 2)
        assert cert.candidates_examined == z2_nerve_map.domain.size(2)

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
                        for fam in iter_compatible_families(f, n, indices):
                            filled = full_scan_fill(fam)[0] is not None
                            assert fill_partial_horn(fam).filled == filled
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


# (witness id or None, candidates_examined) of fill_partial_horn for every
# compatible partial horn (1 <= |I| <= n <= 3) of Delta[2] -> point, in the
# order iter_compatible_families gives them, recorded with the engine that
# filled one family at a time
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
                ws, examined = kancheck.kan._partial_fillers(f, n, indices, ys, xs)
                rows_filled += zip(ws, examined)
                mixed += None in ws and ws.count(None) < len(ws)
            assert rows_filled == pinned
            certificates = map(fill_partial_horn, iter_compatible_families(f, n, indices))
            assert [
                (None if c.witness is None else c.witness.idx, c.candidates_examined)
                for c in certificates
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
        assert report.failure.family.n == 2
        assert len(report.failure.family.index_set) == 3

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
    """EG(Z2) x EG(Z2) to bound 4, with the free action of Z2 x Z2."""
    eg = eg_construction(z2, 4)
    return product(eg, eg)


def horn_cells(max_dim):
    return [(n, k) for n in range(1, max_dim + 1) for k in range(n + 1)]


def without_action(X):
    """The same tables as X, with no group action: the full search runs."""
    return TruncatedSimplicialSet(X.counts, X._faces, X._degens)


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
        self, eg_product, monkeypatch, check, cells
    ):
        held = []
        blocks = kancheck.kan._blocks

        def recording(f, n, indices, *firsts):
            held.append((n, set(f._leasts), {m for m, _ in f._indexes}))
            return blocks(f, n, indices, *firsts)

        monkeypatch.setattr(kancheck.kan, "_blocks", recording)
        # without the action the full search drops each cell's least-id
        # map once counted; with it, no restricted least-id map is cached
        for tables in (without_action(eg_product), eg_product):
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
        # the same tables without the action, so that both search in full
        eg_product = without_action(eg_product)
        builds = recording_builds(monkeypatch)
        kept(eg_product)
        on_kept = builds[:]
        builds.clear()
        owned(eg_product)
        assert builds == on_kept
        assert len(set(builds)) == len(builds)
        assert {m for _, m, _ in builds} == set(range(5))

    def test_callers_map_keeps_every_map(self, eg_product):
        # the map is over a point and its domain has an action, so each cell
        # draws face 0 from T_{n-1}, never from a level's index by no faces:
        # no index of level 0 is built, and every full least-id map is kept
        f = to_point_map(eg_product)
        assert check_kan_fibration(f, 4).passed
        assert set(f._leasts) == {
            (n, tuple(i for i in range(n + 1) if i != k)) for n, k in horn_cells(4)
        }
        assert {m for m, _ in f._indexes} == {1, 2, 3}
        assert all(faces for _, faces in f._indexes)

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


def s4_pair_diagonal(dim):
    """The S4-pair double nerve's diagonal: it has no action, and it is not
    Kan at n = 2."""
    data = load_input("bench/inputs/s4_pair.json")
    G = group_from_input(data)
    pair = group_pair_double_groupoid(G, *subgroups_from_input(data, G))
    return diagonal(double_nerve(pair, dim, dim))


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


class TestOrbitSearch:
    """The to-point checks of a set with a free action search one family per
    orbit; their reports are the full search's."""

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
        self, eg_product, monkeypatch, check, cells
    ):
        builds = []
        for kind in ("_build_index", "_build_least"):

            def counting(f, m, faces, *ids, build=getattr(SimplicialMap, kind), kind=kind):
                builds.append((kind, m, faces, len(ids[0]) if ids else None))
                return build(f, m, faces, *ids)

            monkeypatch.setattr(SimplicialMap, kind, counting)
        assert check(eg_product, 4).passed
        assert len(set(builds)) == len(builds)
        leasts = [b for b in builds if b[0] == "_build_least"]
        # each over the w whose face i_0 is a representative, |X_n| / 4 of
        # them, and no full map: no cell was searched in full
        assert leasts == [
            ("_build_least", n, tuple(i for i in range(n + 1) if i != k), 4 ** (n + 1) // 4)
            for n, k in cells
        ]

    def test_a_cell_spans_several_full_blocks(self, eg_product, monkeypatch):
        rows = 16
        monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        blocks = Counter()
        check = kancheck.kan._check_witnesses

        def recording(f, n, indices, ys, *columns):
            blocks[n, indices, len(ys)] += 1
            return check(f, n, indices, ys, *columns)

        monkeypatch.setattr(kancheck.kan, "_check_witnesses", recording)
        report = check_kan_to_point(eg_product, 4)
        # each dim-4 cell has 1024 / 4 = 256 representatives: 16 full blocks
        assert {cell: count for cell, count in blocks.items() if cell[0] == 4} == {
            (4, tuple(i for i in range(5) if i != k), rows): 16 for k in range(5)
        }
        monkeypatch.setattr(kancheck.kan, "_check_witnesses", check)
        assert report == check_kan_fibration(to_point_map(without_action(eg_product)), 4)

    def test_failing_cell_is_searched_in_full(self, z2, monkeypatch):
        # Z2 acts on the first factor only; Y has no action and is not Kan
        X = product(eg_construction(z2, 2), s4_pair_diagonal(2))
        seen = []
        count_cell = kancheck.kan._count_cell

        def recording(f, n, indices, *restricted):
            seen.append((n, indices, bool(restricted)))
            return count_cell(f, n, indices, *restricted)

        monkeypatch.setattr(kancheck.kan, "_count_cell", recording)
        owned = fibration_report_to_dict(check_kan_to_point(X, 2))
        monkeypatch.setattr(kancheck.kan, "_count_cell", count_cell)
        assert owned == fibration_report_to_dict(check_kan_fibration(to_point_map(X), 2))
        assert not owned["passed"] and owned["failure"]["family"]["n"] == 2
        # the failing cell's representatives, then the whole cell
        assert seen[-2][:2] == seen[-1][:2] and (seen[-2][2], seen[-1][2]) == (True, False)
        assert all(restricted for _, _, restricted in seen[:-1])

    @pytest.mark.parametrize("build", [
        lambda eg: product(eg, standard_simplex(2, 3)),
        lambda eg: product(standard_simplex(2, 3), eg),
        lambda eg: product(nerve(one_object_groupoid(cyclic_group(3)), 3), eg),
        lambda eg: product(eg, product(eg, eg)),
    ], ids=["eg-x-delta2", "delta2-x-eg", "bz3-x-eg", "eg-x-eg-x-eg"])
    @pytest.mark.parametrize("check", [check_kan_to_point, check_trivial_fibration_to_point])
    def test_reports_match_the_full_search(self, z2, build, check):
        # an action on either factor, or on both through a nested product;
        # Delta[2] fills neither every horn nor every boundary, and BZ3 fills
        # every horn but not every boundary
        X = build(eg_construction(z2, 3))
        full = TruncatedSimplicialSet(X.counts, X._faces, X._degens, list(X._labels))
        assert fibration_report_to_dict(check(X, 3)) == fibration_report_to_dict(check(full, 3))

    def test_no_grow_closure_outlives_a_check(self, eg_product):
        gc.collect()
        gc.disable()
        try:
            assert check_kan_to_point(eg_product, 4).passed
            assert check_kan_to_point(without_action(eg_product), 4).passed
            assert not check_kan_to_point(s4_pair_diagonal(2), 2).passed
            grows = [
                o for o in gc.get_objects()
                if isinstance(o, types.FunctionType) and o.__name__ == "grow"
            ]
        finally:
            gc.enable()
        assert grows == []


def with_action(X, **changes):
    """A copy of X's tables carrying X's action with the given fields
    changed."""
    action = X._action
    fields = {"generators": action.generators, "base": action.base}
    Y = without_action(X)
    Y._action = GroupAction(**{**fields, **changes})
    return Y


def edited_generators(X, m, g, edits):
    """X's generator columns with generator g's image of each id in
    ``edits`` at level m set to ``edits[id]``."""
    columns = [list(map(list, level)) for level in X._action.generators]
    for idx, to in edits.items():
        columns[m][g][idx] = to
    return tuple(tuple(map(tuple, level)) for level in columns)


def swapped_entries(X, m, g, a, b):
    """X's generator columns with generator g's images of a and b swapped
    at level m: still a permutation."""
    column = X._action.generators[m][g]
    return edited_generators(X, m, g, {a: column[b], b: column[a]})


def trivial_generators(X):
    """One generator acting as the identity on every level."""
    return tuple((tuple(range(c)),) for c in X.counts)


class TestActionChecks:
    """An action that is not a free action with transversal T_0 is a broken
    invariant, refused before any cell is searched."""

    @pytest.fixture(scope="class")
    def eg(self, z2):
        return eg_construction(z2, 2)

    def test_eg_action_is_left_multiplication(self, eg, s3):
        action = eg._action
        assert action.base == (0,)
        # the one generator swaps e and g in every coordinate
        assert action.generators[1] == ((3, 2, 1, 0),)
        assert checked_orbits(eg, 2).order == 2
        assert checked_orbits(eg_construction(s3, 1), 1).order == 6

    @pytest.mark.parametrize("check", [check_kan_to_point, check_trivial_fibration_to_point])
    @pytest.mark.parametrize("as_factor", [False, True], ids=["set", "factor"])
    @pytest.mark.parametrize("broken, message", [
        # one changed entry: the column is no longer a permutation
        (lambda X: {"generators": edited_generators(X, 1, 0, {0: 2})}, "not a permutation"),
        # a permutation that does not commute with the faces
        (lambda X: {"generators": swapped_entries(X, 2, 0, 0, 1)}, "does not commute with d_"),
        # Z2 acting trivially is not free
        (lambda X: {"generators": trivial_generators(X)}, "not a bijection"),
        # both vertices of EG(Z2) lie in one orbit
        (lambda X: {"base": (0, 1)}, "not a bijection"),
    ], ids=["changed-entry", "swapped-entries", "trivial-action", "base"])
    def test_broken_action_raises(self, eg, broken, message, as_factor, check):
        bad = with_action(eg, **broken(eg))
        if as_factor:
            bad = product(eg, bad)
        with pytest.raises(InternalInvariantError, match=message):
            check(bad, 2)

    def test_caller_map_over_a_point_checks_the_action(self, eg):
        bad = with_action(eg, base=(0, 1))
        with pytest.raises(InternalInvariantError, match="not a bijection"):
            check_kan_fibration(to_point_map(bad), 2)
        # over a codomain that is not a point the action is not read
        identity = SimplicialMap(bad, bad, [range(c) for c in bad.counts], validate=False)
        assert check_kan_fibration(identity, 2).passed


class TestCertificateIntegrity:
    def test_witness_reverified_on_construction(self, z2_nerve_map):
        from kancheck.kan import FillCertificate

        fam = restriction_family(z2_nerve_map, Simplex(2, 1), (0, 1))
        good = brute_force_fill(fam)
        with pytest.raises(InternalInvariantError):
            FillCertificate(fam, Simplex(1, 0), 1)
        # a wrong-dimension witness is rejected too
        with pytest.raises(InternalInvariantError):
            FillCertificate(fam, Simplex(3, 0), 1)
        # and so is a 2-simplex whose faces are not the family's
        X = z2_nerve_map.domain
        wrong = next(
            w for w in simplices(X, 2) if X.face(0, w) != fam.face(0) or X.face(1, w) != fam.face(1)
        )
        with pytest.raises(InternalInvariantError, match="witness face"):
            FillCertificate(fam, wrong, wrong.idx + 1)
        assert good.filled
