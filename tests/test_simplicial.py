import itertools

import pytest
from oracles import apply_operator, map_apply, simplices

from kancheck import (
    Simplex,
    SimplicialMap,
    discrete_groupoid,
    nerve,
    one_object_groupoid,
    pi0,
    point,
    to_point_map,
    validate_simplicial_identities,
)
from kancheck.errors import RejectedInput, TruncationError
from kancheck.groupoids import nerve_indexed
from kancheck.ordinal import (
    Degeneracy,
    Face,
    OrdinalMap,
    SimplicialOperator,
    compose_ordinal,
    factorize,
)
from kancheck.simplicial import TruncatedSimplicialSet, gather


def swap_face_entries(X, n, i, a, b):
    """A copy of X with two entries of one face table exchanged."""
    faces = [[list(t) for t in X._faces[m]] for m in range(X.bound + 1)]
    degens = [[list(t) for t in X._degens[m]] for m in range(X.bound + 1)]
    faces[n][i][a], faces[n][i][b] = faces[n][i][b], faces[n][i][a]
    return TruncatedSimplicialSet(X.counts, faces, degens)


class TestConstruction:
    def test_point_is_lawful(self):
        assert validate_simplicial_identities(point(3)).ok

    def test_table_shape_rejected(self):
        with pytest.raises(RejectedInput):
            TruncatedSimplicialSet([1, 1], [[], [[0]]], [[[0]], []])  # needs 2 face tables

    def test_table_range_rejected(self):
        with pytest.raises(RejectedInput):
            TruncatedSimplicialSet([1, 1], [[], [[0], [1]]], [[[0]], []])

    def test_negative_entry_rejected(self):
        with pytest.raises(RejectedInput, match=r"d_1 at 1: entry -1 outside range\(0, 1\)"):
            TruncatedSimplicialSet([1, 1], [[], [[0], [-1]]], [[[0]], []])

    def test_rejection_names_first_bad_entry(self):
        # d_0 at 1 maps three edges into two vertices: 5 comes before -2 and 7
        faces = [[], [[0, 5, 1, -2, 7], [0, 0, 0, 0, 0]]]
        with pytest.raises(RejectedInput, match=r"^d_0 at 1: entry 5 outside range\(0, 2\)$"):
            TruncatedSimplicialSet([2, 5], faces, [[[0, 0]], []])

    @pytest.mark.parametrize("bad", [0.7, "0", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("place", ["face table", "component table", "counts"])
    def test_entry_that_is_not_an_int_rejected(self, place, bad):
        # never converted: 0.7 would silently become 0, "0" 0 and True 1
        counts, faces, degens = [1, 1], [[], [[0], [0]]], [[[0]], []]
        if place == "face table":
            faces[1][1] = [bad]
        elif place == "counts":
            counts[0] = bad
        kind = type(bad).__name__
        with pytest.raises(RejectedInput, match=rf"entry {bad!r} is a {kind}, not an int"):
            X = TruncatedSimplicialSet(counts, faces, degens)
            SimplicialMap(X, point(1), [[0], [bad]])

    def test_extended_equals_the_whole_set(self, s3_nerve):
        # a set grown a level at a time has the tables and labels of the set
        # built at once, and shares the tables below the new level
        X = TruncatedSimplicialSet(
            s3_nerve.counts[:1], [[]], [[]], [s3_nerve.labels_at(0)]
        )
        for n in range(1, s3_nerve.bound + 1):
            grown = X.extended(
                s3_nerve.counts[n], s3_nerve._faces[n], s3_nerve._degens[n - 1],
                s3_nerve.labels_at(n),
            )
            assert grown._faces[n - 1] is X._faces[n - 1]
            X = grown
        assert X == s3_nerve and X.bound == s3_nerve.bound
        assert [X.labels_at(n) for n in range(4)] == [s3_nerve.labels_at(n) for n in range(4)]
        assert validate_simplicial_identities(X).ok

    @pytest.mark.parametrize("faces, degens, label, message", [
        ([[0], [1]], [[0]], ["a"], r"^d_1 at 1: entry 1 outside range\(0, 1\)$"),
        ([[0]], [[0]], ["a"], r"^dimension 1 needs 2 face tables$"),
        ([[0], [0]], [[0, 0]], ["a"], r"^s_0 at 0: expected 1 entries, got 2$"),
        ([[0], [0]], [[0]], None, r"^labels must match the simplex counts$"),
        ([[0], [0]], [[0]], ["a", "b"], r"^labels must match the simplex counts$"),
    ], ids=["range", "face-count", "degeneracy-length", "no-label", "label-count"])
    def test_extended_validates_the_new_level(self, faces, degens, label, message):
        X = TruncatedSimplicialSet([1], [[]], [[]], [["v"]])
        with pytest.raises(RejectedInput, match=message):
            X.extended(1, faces, degens, label)

    def test_face_bounds(self):
        pt = point(2)
        with pytest.raises(RejectedInput):
            pt.face(0, Simplex(0, 0))
        with pytest.raises(TruncationError):
            pt.degeneracy(0, Simplex(2, 0))
        with pytest.raises(RejectedInput):
            pt.face(3, Simplex(2, 0))


class TestValidation:
    def test_nerve_is_lawful(self, z2_nerve):
        assert validate_simplicial_identities(z2_nerve).ok

    def test_corrupted_face_table_detected(self, z2_nerve):
        broken = swap_face_entries(z2_nerve, 2, 1, 0, 1)
        report = validate_simplicial_identities(broken)
        assert not report.ok
        assert any(v.identity for v in report.violations)

    def test_corrupted_degeneracy_detected(self, eg_z2):
        degens = [[list(t) for t in eg_z2._degens[m]] for m in range(eg_z2.bound + 1)]
        faces = [[list(t) for t in eg_z2._faces[m]] for m in range(eg_z2.bound + 1)]
        degens[0][0][0], degens[0][0][1] = degens[0][0][1], degens[0][0][0]
        broken = TruncatedSimplicialSet(eg_z2.counts, faces, degens)
        assert not validate_simplicial_identities(broken).ok


class TestApplyOperator:
    def test_empty_word_is_identity(self, z2_nerve):
        op = SimplicialOperator(2, ())
        x = Simplex(2, 3)
        assert apply_operator(z2_nerve, op, x) == x

    def test_face_then_degeneracy_cancels(self, z2_nerve):
        op = SimplicialOperator(2, (Degeneracy(1), Face(1)))
        for x in simplices(z2_nerve, 2):
            assert apply_operator(z2_nerve, op, x) == x

    def test_nerve_inner_face_composes(self, z2):
        C = one_object_groupoid(z2)
        N, keys = nerve_indexed(C, 2)
        gg = Simplex(2, keys[2].index((1, 1)))
        got = apply_operator(N, SimplicialOperator(2, (Face(1),)), gg)
        assert keys[1][got.idx] == (z2.mul(1, 1),) == (0,)

    def test_wrong_dimension_rejected(self, z2_nerve):
        with pytest.raises(RejectedInput):
            apply_operator(z2_nerve, SimplicialOperator(2, ()), Simplex(1, 0))

    def test_truncation_error(self, z2_nerve):
        op = SimplicialOperator(3, (Degeneracy(0),))
        with pytest.raises(TruncationError):
            apply_operator(z2_nerve, op, Simplex(3, 0))

    @pytest.mark.parametrize("fixture", ["s3_nerve", "eg_z2", "z2_nerve"])
    def test_functoriality(self, fixture, request):
        # applying the factorization of a composite equals sequential application
        X = request.getfixturevalue(fixture)
        maps = []
        for m in range(3):
            for n in range(3):
                for vals in itertools.combinations_with_replacement(range(n + 1), m + 1):
                    maps.append(OrdinalMap(m, n, vals))
        pairs = [
            (f, g)
            for f in maps
            for g in maps
            if f.target_size == g.source_size and g.target_size <= X.bound
        ]
        assert pairs
        for f, g in pairs:
            composite = factorize(compose_ordinal(g, f))
            via_g = factorize(g)
            via_f = factorize(f)
            for x in simplices(X, g.target_size):
                direct = apply_operator(X, composite, x)
                stepwise = apply_operator(X, via_f, apply_operator(X, via_g, x))
                assert direct == stepwise


class TestGather:
    """The gather kernel returns the list comprehension's list for any
    number of ids, including the none and one that ``itemgetter`` treats
    apart."""

    @pytest.mark.parametrize(
        "ids", [[], [3], [3, 0], [5, 1, 1, 4, 0, 2, 5, 3]], ids=["0", "1", "2", "many"]
    )
    @pytest.mark.parametrize(
        "table", [tuple(range(10, 16)), list(range(20, 26)), range(30, 36)],
        ids=["tuple", "list", "range"],
    )
    def test_equals_comprehension(self, table, ids):
        for col in (ids, tuple(ids)):
            got = gather(table, col)
            assert type(got) is list
            assert got == [table[x] for x in col]

    @pytest.mark.parametrize("ids", [[9], [0, 9]], ids=["1", "2"])
    def test_out_of_range_raises(self, ids):
        with pytest.raises(IndexError):
            gather((1, 2, 3), ids)


class TestSimplicialMap:
    def test_to_point_map_is_natural(self, z2_nerve):
        f = to_point_map(z2_nerve)
        SimplicialMap(f.domain, f.codomain, f.components)  # validates

    def test_non_natural_rejected(self, z2_nerve):
        pt = point(z2_nerve.bound)
        comps = [[0] * z2_nerve.counts[n] for n in range(z2_nerve.bound + 1)]
        ok = SimplicialMap(z2_nerve, pt, comps)
        assert map_apply(ok, Simplex(1, 1)) == Simplex(1, 0)
        # identity-to-self with a twisted degree-1 component breaks naturality
        twisted = [list(range(z2_nerve.counts[n])) for n in range(z2_nerve.bound + 1)]
        twisted[1] = [1, 0, 3, 2]
        with pytest.raises(RejectedInput):
            SimplicialMap(z2_nerve, z2_nerve, twisted)

    @pytest.mark.parametrize("component, message", [
        ([0, 0.0], "entry 0.0 is a float, not an int"),
        ([0], "expected 2 entries, got 1"),
        ([0, 1], r"entry 1 outside range\(0, 1\)"),
    ], ids=["float", "short", "out-of-range"])
    def test_validating_map_refuses_a_bad_component(self, z2_nerve, component, message):
        # only the package's own maps, valid by construction, skip the checks
        pt = point(z2_nerve.bound)
        comps = [(0,) * count for count in z2_nerve.counts]
        assert SimplicialMap(z2_nerve, pt, comps, validate=False).components[1] is comps[1]
        comps[1] = component
        with pytest.raises(RejectedInput, match=f"^component 1: {message}$"):
            SimplicialMap(z2_nerve, pt, comps)

    def test_fibers_ascending(self, z2_nerve):
        f = to_point_map(z2_nerve)
        fib = f.fiber(2, 0)
        assert list(fib) == sorted(fib)
        assert len(fib) == z2_nerve.size(2)

    def test_fiber_of_each_target(self, z2_nerve):
        # over a point the index keys leave the image out, so a target id
        # that is not in the codomain must still have an empty fiber
        to_point = to_point_map(z2_nerve)
        assert to_point.fiber(2, 1) == to_point.fiber(2, -1) == ()
        ids = [list(range(z2_nerve.counts[n])) for n in range(z2_nerve.bound + 1)]
        identity = SimplicialMap(z2_nerve, z2_nerve, ids)
        assert [identity.fiber(2, y) for y in range(5)] == [(0,), (1,), (2,), (3,), ()]


class TestPi0:
    def test_point(self):
        assert pi0(point(1)) == ((0,),)

    def test_bound_zero_rejected(self):
        with pytest.raises(TruncationError):
            pi0(point(0))

    def test_discrete_three_objects(self):
        N = nerve(discrete_groupoid(["a", "b", "c"]), 1)
        assert len(pi0(N)) == 3

    def test_eg_connected(self, eg_z2):
        assert len(pi0(eg_z2)) == 1

    def test_partition_covers_vertices(self, s3_nerve):
        parts = pi0(s3_nerve)
        seen = sorted(v for part in parts for v in part)
        assert seen == list(range(s3_nerve.size(0)))
