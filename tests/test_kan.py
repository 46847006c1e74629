import pytest

from kancheck import (
    CompatibleFamily,
    Simplex,
    brute_force_fill,
    check_kan_fibration,
    check_trivial_fibration_to_point,
    diagonal,
    fill_partial_horn,
    is_compatible,
    iter_compatible_families,
    point,
    to_point_map,
)
from kancheck.errors import InternalInvariantError, RejectedInput
from kancheck.presets import preset_bisimplicial
from kancheck.serialize import fibration_report_to_dict


def restriction_family(f, x, indices):
    """The family cut out of an existing simplex: x_i = d_i x, y = f x."""
    X = f.domain
    return CompatibleFamily.from_mapping(
        f, x.dim, {i: X.face(i, x) for i in indices}, f.apply(x)
    )


@pytest.fixture(scope="module")
def s3_diag_map():
    return to_point_map(diagonal(preset_bisimplicial("s3-counterexample", 2, 2)))


class TestCompatibility:
    def test_restriction_is_compatible(self, s3_nerve_map):
        for x in s3_nerve_map.domain.simplices(3):
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
        for x in z2_nerve_map.domain.simplices(2):
            fam = restriction_family(z2_nerve_map, x, (0, 1))
            cert = brute_force_fill(fam)
            assert cert.filled

    def test_first_witness_in_id_order(self, z2_nerve_map):
        fam = restriction_family(z2_nerve_map, Simplex(2, 0), (1,))
        cert = brute_force_fill(fam)
        others = [
            x
            for x in z2_nerve_map.domain.simplices(2)
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
        from kancheck.kan import FillCertificate

        monkeypatch.setattr(
            kancheck.kan, "brute_force_fill", lambda family: FillCertificate(family, None, 0)
        )
        fam = next(iter_compatible_families(z2_nerve_map, 3, (0, 2)))
        cert = fill_partial_horn(fam)
        assert not cert.filled
        assert cert.failed_subfamily is not None

    def test_oracle_equivalence_on_kan_fixtures(self, z2_nerve_map, s3_nerve_map):
        # on a Kan-verified map, recursive filling succeeds exactly when the
        # direct search does (witnesses may differ)
        for f in (z2_nerve_map, s3_nerve_map):
            for n in (1, 2):
                for size in range(1, n + 1):
                    import itertools

                    for indices in itertools.combinations(range(n + 1), size):
                        for fam in iter_compatible_families(f, n, indices):
                            assert (
                                fill_partial_horn(fam).filled
                                == brute_force_fill(fam).filled
                                == True  # noqa: E712
                            )


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
        assert good.filled
