import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_kan import GROUPS, group_times_pair_groupoid

import kancheck.groupoids
from kancheck import (
    FiniteGroup,
    FiniteGroupoid,
    cyclic_group,
    discrete_groupoid,
    eg_construction,
    eg_simplex,
    nerve,
    one_object_groupoid,
    pi0,
    symmetric_group_preset,
    to_point_map,
    validate_simplicial_identities,
)
from kancheck.errors import RejectedInput
from kancheck.groupoids import nerve_indexed
from kancheck.serialize import simplicial_to_dict
from kancheck.simplicial import Simplex, TruncatedSimplicialSet


class TestFiniteGroupoid:
    def test_one_object_from_group(self, z2):
        C = one_object_groupoid(z2)
        assert C.n_arrows == 2
        assert C.compose(1, 1) == 0
        assert C.inv(1) == 1

    def test_discrete(self):
        C = discrete_groupoid(["a", "b"])
        assert C.n_arrows == 2
        with pytest.raises(RejectedInput):
            C.compose(0, 1)

    def test_bad_composition_rejected(self):
        # one object, two "identity-like" arrows with a broken table
        with pytest.raises(RejectedInput):
            FiniteGroupoid(
                ["*"], [0, 0], [0, 0],
                {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
                [0],
            )


def one_object_with(place, bad):
    """The trivial groupoid's constructor arguments with ``bad`` at ``place``."""
    args = {"sources": [0], "targets": [0], "compose": {(0, 0): 0}, "identities": [0]}
    if place == "compose":
        args["compose"] = {(0, 0): bad}
    else:
        args[place] = [bad]
    return ["x"], args["sources"], args["targets"], args["compose"], args["identities"]


class TestNonIntEntries:
    @pytest.mark.parametrize("bad", [0.0, False, "0"])
    @pytest.mark.parametrize("place, what", [
        ("sources", "arrow sources"),
        ("targets", "arrow targets"),
        ("identities", "identity arrows"),
        ("compose", "composition table"),
    ])
    def test_refused_not_converted(self, place, what, bad):
        with pytest.raises(RejectedInput, match=f"{what}: entry {bad!r} is a"):
            FiniteGroupoid(*one_object_with(place, bad))


class TestNerve:
    def test_trivial_groupoid_nerve_is_point(self):
        C = one_object_groupoid(FiniteGroup(["e"], [[0]]))
        N = nerve(C, 3)
        assert N.counts == (1, 1, 1, 1)

    def test_counts_powers_of_group_order(self, z2_nerve, s3_nerve):
        assert z2_nerve.counts == (1, 2, 4, 8)
        assert s3_nerve.counts == (1, 6, 36, 216)

    def test_nerves_lawful(self, z2_nerve, s3_nerve):
        assert validate_simplicial_identities(z2_nerve).ok
        assert validate_simplicial_identities(s3_nerve).ok

    def test_multi_object_nerve_lawful(self):
        N = nerve(discrete_groupoid(["a", "b", "c"]), 2)
        assert validate_simplicial_identities(N).ok
        assert N.counts == (3, 3, 3)

    def test_face_composes_adjacent(self, z2):
        C = one_object_groupoid(z2)
        N, keys = nerve_indexed(C, 2)
        two = Simplex(2, keys[2].index((1, 1)))
        assert keys[1][N.face(1, two).idx] == (0,)
        assert keys[1][N.face(0, two).idx] == (1,)
        assert keys[1][N.face(2, two).idx] == (1,)


def reference_nerve(C, bound):
    """The nerve and its keys, built on composable-string keys with one face
    or degeneracy formula call per simplex: the reference for the build on
    parent and last-arrow columns."""
    by_target = [
        [g for g in range(C.n_arrows) if C.arrow_target[g] == o] for o in range(len(C.objects))
    ]
    keys = [tuple(range(len(C.objects)))]
    strings = [(g,) for g in range(C.n_arrows)]
    for n in range(1, bound + 1):
        if n > 1:
            strings = [s + (g,) for s in strings for g in by_target[C.arrow_source[s[-1]]]]
        keys.append(tuple(strings))

    def face(n, s, i):
        if n == 1:
            return C.arrow_source[s[0]] if i == 0 else C.arrow_target[s[0]]
        if i == 0:
            return s[1:]
        if i == n:
            return s[:-1]
        return s[: i - 1] + (C.compose(s[i - 1], s[i]),) + s[i + 1:]

    def degeneracy(n, s, i):
        if n == 0:
            return (C.identity(s),)
        obj = C.arrow_target[s[i]] if i < n else C.arrow_source[s[n - 1]]
        return s[:i] + (C.identity(obj),) + s[i:]

    index = [{key: k for k, key in enumerate(level)} for level in keys]
    faces = [[]] + [
        [[index[n - 1][face(n, key, i)] for key in keys[n]] for i in range(n + 1)]
        for n in range(1, bound + 1)
    ]
    degens = [
        [[index[n + 1][degeneracy(n, key, i)] for key in keys[n]] for i in range(n + 1)]
        for n in range(bound)
    ] + [[]]
    labels = [[C.objects[o] for o in keys[0]]] + [
        ["|".join(C.arrow_labels[g] for g in s) for s in level] for level in keys[1:]
    ]
    counts = [len(level) for level in keys]
    return TruncatedSimplicialSet(counts, faces, degens, labels), tuple(keys)


def assert_nerve_is_reference(C, bound):
    N, keys = nerve_indexed(C, bound)
    expected, expected_keys = reference_nerve(C, bound)
    assert keys == expected_keys
    assert simplicial_to_dict(N) == simplicial_to_dict(expected)
    assert simplicial_to_dict(nerve(C, bound)) == simplicial_to_dict(expected)


ONE_OBJECT = {
    "trivial": lambda: FiniteGroup(["e"], [[0]]),
    "Z2": lambda: cyclic_group(2),
    "S3": lambda: symmetric_group_preset(3),
}


class TestNerveAgainstReference:
    """Levels 0, 1 and 2 are special cases of the column build, so every
    bound from 0 up is covered."""

    @pytest.mark.parametrize("bound", range(5))
    @pytest.mark.parametrize("group", sorted(ONE_OBJECT))
    def test_one_object(self, group, bound):
        assert_nerve_is_reference(one_object_groupoid(ONE_OBJECT[group]()), bound)

    @pytest.mark.parametrize("bound", range(5))
    def test_discrete(self, bound):
        assert_nerve_is_reference(discrete_groupoid(["a", "b", "c"]), bound)

    @pytest.mark.parametrize("bound", range(5))
    def test_codiscrete_two_objects(self, bound):
        # the trivial group times the pair groupoid: one arrow s -> t per pair
        assert_nerve_is_reference(group_times_pair_groupoid(cyclic_group(1), 2, range(4)), bound)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_group_times_pair(self, data):
        G = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]()
        objects = data.draw(st.sampled_from([k for k in (1, 2, 3) if G.order * k * k <= 12]))
        order = data.draw(st.permutations(range(G.order * objects * objects)))
        bound = data.draw(st.integers(0, 4))
        assert_nerve_is_reference(group_times_pair_groupoid(G, objects, order), bound)


class TestLevelLimit:
    def test_level_at_the_limit_is_built(self, z2, monkeypatch):
        monkeypatch.setattr(kancheck.groupoids, "MAX_LEVEL", 8)
        assert nerve(one_object_groupoid(z2), 3).counts == (1, 2, 4, 8)

    def test_level_over_the_limit_is_refused(self, z2, monkeypatch):
        monkeypatch.setattr(kancheck.groupoids, "MAX_LEVEL", 8)
        with pytest.raises(RejectedInput, match="nerve level 4 would hold 16 simplices"):
            nerve(one_object_groupoid(z2), 4)


class TestUniversalCover:
    def test_trivial_group_gives_point(self):
        EG = eg_construction(FiniteGroup(["e"], [[0]]), 3)
        assert EG.counts == (1, 1, 1, 1)

    def test_counts(self, eg_z2):
        assert eg_z2.counts == (2, 4, 8, 16)

    def test_face_deletes_coordinate(self, z2, eg_z2):
        x = eg_simplex(z2, (0, 1, 1))
        assert eg_z2.face(1, x) == eg_simplex(z2, (0, 1))
        assert eg_z2.face(0, x) == eg_simplex(z2, (1, 1))
        assert eg_z2.face(2, x) == eg_simplex(z2, (0, 1))

    def test_degeneracy_repeats_coordinate(self, z2, eg_z2):
        x = eg_simplex(z2, (0, 1))
        assert eg_z2.degeneracy(0, x) == eg_simplex(z2, (0, 0, 1))
        assert eg_z2.degeneracy(1, x) == eg_simplex(z2, (0, 1, 1))

    def test_lawful(self, eg_z2):
        assert validate_simplicial_identities(eg_z2).ok

    def test_connected(self, eg_z2):
        assert len(pi0(eg_z2)) == 1

    def test_kan_to_point(self, eg_z2):
        from kancheck import check_kan_fibration

        assert check_kan_fibration(to_point_map(eg_z2), 3).passed
