import pytest

from kancheck import (
    FiniteGroupoid,
    discrete_groupoid,
    eg_construction,
    eg_simplex,
    nerve,
    one_object_groupoid,
    pi0,
    to_point_map,
    validate_simplicial_identities,
)
from kancheck.errors import RejectedInput
from kancheck.groupoids import nerve_indexed
from kancheck.simplicial import Simplex


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


class TestNerve:
    def test_trivial_groupoid_nerve_is_point(self):
        from kancheck import FiniteGroup

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


class TestUniversalCover:
    def test_trivial_group_gives_point(self):
        from kancheck import FiniteGroup

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
