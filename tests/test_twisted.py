"""Products decided from their factors, and the universal cover ``EG -> BG``.

A Kan or trivial-fibration check over a point of ``A x B``, built by
``product`` or given as its stages (``product_stages``), searches each factor
and multiplies the counts cell by cell when both pass; otherwise it searches
the product in full.  Its report must be the full search's on the
built product, cell for cell, and a failure must be certified on the
product's ids.  ``eg_cover`` is a covering, a Kan fibration with exactly one
filler per horn.
"""

from functools import cache

import pytest
from oracles import eg_coordinates, eg_reference, unrecorded_copy
from test_kan import standard_simplex

import kancheck.bisimplicial
import kancheck.groupoids
import kancheck.kan
from kancheck import (
    SimplicialMap,
    check_kan_fibration,
    check_kan_to_point,
    check_trivial_fibration_to_point,
    cyclic_group,
    diagonal,
    double_nerve,
    eg_construction,
    eg_cover,
    nerve,
    one_object_groupoid,
    product,
    symmetric_group_preset,
    to_point_map,
)
from kancheck.bisimplicial import product_stages
from kancheck.errors import RejectedInput
from kancheck.groupoids import nerve_indexed
from kancheck.presets import preset_double_groupoid
from kancheck.serialize import fibration_report_to_dict
from kancheck.simplicial import TruncatedSimplicialSet, _pairs

GROUPS = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "S3": symmetric_group_preset(3)}


@cache
def full_search_report(name, bound):
    """The to-point Kan report of the built EG x EG with no factors
    recorded, so that every family is searched."""
    eg = eg_construction(GROUPS[name], bound)
    return check_kan_to_point(unrecorded_copy(product(eg, eg)), bound)


def s3_counterexample_diagonal(bound):
    """Not Kan: its first failing cell is at n = 2."""
    return diagonal(double_nerve(preset_double_groupoid("s3-counterexample"), bound, bound))


def empty(bound):
    """The simplicial set with no simplices, to ``bound``."""
    return TruncatedSimplicialSet(
        [0] * (bound + 1),
        [[]] + [[[]] * (n + 1) for n in range(1, bound + 1)],
        [[[]] * (n + 1) for n in range(bound)] + [[]],
    )


class TestQuotientCheck:
    """The product rule against the full search of the built product."""

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("name, bound", [("Z2", 4), ("Z3", 3), ("S3", 2), ("S3", 3)])
    def test_report_is_the_orbit_paths(self, name, bound, rows, monkeypatch):
        # a horn of EG x EG is a pair of horns of EG, and fills exactly when
        # both do: the factor's report, multiplied cell by cell, is the full
        # search's, made at the default block size
        full = full_search_report(name, bound)
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        eg = eg_construction(GROUPS[name], bound)
        report = check_kan_to_point(product_stages(eg, eg), bound)
        assert report.passed
        assert report == full
        assert check_kan_to_point(product(eg, eg), bound) == full

    @pytest.mark.parametrize("name, bound, families", [
        ("Z2", 4, 6344), ("Z3", 3, 28449), ("S3", 2, 140040), ("S3", 3, 6858504),
        ("S3", 4, 309189384), ("S3", 5, 13369883400),
    ])
    def test_families_match_the_closed_form(self, name, bound, families):
        # EG x EG is 0-coskeletal: a horn at n >= 2 is its n + 1 vertices,
        # so each of the n + 1 cells has one family per simplex, |G|^(2(n+1));
        # at n = 1 a horn is a vertex, |G|^2 per cell
        order = GROUPS[name].order
        closed_form = 2 * order ** 2 + sum(
            (n + 1) * order ** (2 * (n + 1)) for n in range(2, bound + 1)
        )
        eg = eg_construction(GROUPS[name], bound)
        report = check_kan_to_point(product_stages(eg, eg), bound)
        assert report.passed and report.families_checked == closed_form == families

    def test_passing_check_builds_no_cover(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            kancheck.bisimplicial, "extend_product", lambda *args: built.append(args)
        )
        eg = eg_construction(GROUPS["S3"], 2)
        assert check_kan_to_point(product_stages(eg, eg), 2).passed
        assert built == []

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    def test_failing_base_gives_the_full_search_certificate(self, rows, monkeypatch):
        # EG(Z2) x Y, Y the S3 counterexample's diagonal: Y is not Kan, so
        # the product is searched in full, built or on its stages
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        eg, Y = eg_construction(cyclic_group(2), 2), s3_counterexample_diagonal(2)
        X = product(eg, Y)
        full = fibration_report_to_dict(check_kan_to_point(unrecorded_copy(X), 2))
        for tables in (product_stages(eg, Y), X):
            assert fibration_report_to_dict(check_kan_to_point(tables, 2)) == full
        assert not full["passed"] and full["failure"]["family"]["n"] == 2

    @pytest.mark.parametrize("build", [
        lambda eg, Y: (Y, eg),
        lambda eg, Y: (eg, Y),
        lambda eg, Y: (Y, standard_simplex(2, 2)),
        lambda eg, Y: (Y, Y),
        lambda eg, Y: (empty(2), Y),
        lambda eg, Y: (eg, empty(2)),
        lambda eg, Y: (product(eg, eg), Y),
        lambda eg, Y: (product(eg, Y), eg),
    ], ids=["first-fails", "second-fails", "both-fail", "b-is-a", "first-empty",
            "second-empty", "passing-product-x-c", "failing-product-x-c"])
    @pytest.mark.parametrize("check", [
        check_kan_to_point,
        check_trivial_fibration_to_point,
        lambda X, n: check_kan_fibration(to_point_map(X), n),
    ], ids=["kan", "trivial", "callers-map"])
    def test_failing_cases_give_the_full_search(self, build, check):
        eg, Y = eg_construction(cyclic_group(2), 2), s3_counterexample_diagonal(2)
        A, B = build(eg, Y)
        X = product(A, B)
        full = fibration_report_to_dict(check(unrecorded_copy(X), 2))
        assert fibration_report_to_dict(check(X, 2)) == full
        if check in (check_kan_to_point, check_trivial_fibration_to_point):
            assert fibration_report_to_dict(check(product_stages(A, B), 2)) == full

    @pytest.mark.parametrize("check", [
        check_kan_to_point, check_trivial_fibration_to_point,
    ], ids=["kan", "trivial"])
    def test_second_factor_unsearched_when_the_first_fails(self, check):
        # Delta[3] fails (the Kan check at n = 2, the trivial one at n = 1),
        # which already sends Delta[3] x EG(S3) to a full search: EG(S3) is
        # never searched, so its stage is never read
        eg = eg_construction(GROUPS["S3"], 3)

        class Unread(TruncatedSimplicialSet):
            def stage(self, n):
                raise AssertionError("the second factor was searched")

        A, B = standard_simplex(3, 3), Unread(eg.counts, eg._faces, eg._degens, list(eg._labels))
        report = fibration_report_to_dict(check(product_stages(A, B), 3))
        assert not report["passed"]
        assert report == fibration_report_to_dict(check(unrecorded_copy(product(A, eg)), 3))

    def test_bound_too_small_rejected(self):
        eg = eg_construction(GROUPS["Z2"], 2)
        with pytest.raises(RejectedInput):
            check_kan_to_point(product_stages(eg, eg), 3)


class TestCoveringMap:
    @pytest.mark.parametrize("name, bound", [("Z2", 4), ("S3", 2)])
    def test_every_horn_has_exactly_one_lift(self, name, bound):
        G = GROUPS[name]
        f = eg_cover(G, bound)
        assert f.domain == eg_reference(G, bound)
        assert f.codomain == nerve(one_object_groupoid(G), bound)
        report = check_kan_fibration(f, bound)
        assert report.passed
        assert [(c.n, c.families, c.filled) for c in report.cells] == [
            (n, G.order ** (n + 1), G.order ** (n + 1))
            for n in range(1, bound + 1) for _ in range(n + 1)
        ]
        # the caller's map keeps each cell's least-id map: one key per
        # simplex, so no two simplices fill the same horn
        for c in report.cells:
            indices = tuple(i for i in range(c.n + 1) if i != c.k)
            assert len(f.least(c.n, indices)) == f.domain.counts[c.n]

    @pytest.mark.parametrize("name, bound", [("Z2", 4), ("S3", 3)])
    def test_projection_is_the_quotient_strings(self, name, bound):
        # (g_0, ..., g_n) goes to the string (g_0^-1 g_1, ..., g_{n-1}^-1 g_n)
        # of BG, read simplex by simplex off BG's keys
        G = GROUPS[name]
        f = eg_cover(G, bound)
        keys = nerve_indexed(one_object_groupoid(G), bound)[1]
        assert list(f.components[0]) == [0] * G.order
        for n in range(1, bound + 1):
            assert [keys[n][y] for y in f.components[n]] == [
                tuple(G.mul(G.inverse[a], b) for a, b in zip(c, c[1:]))
                for c in eg_coordinates(G.order, n)
            ]

    def test_product_projection_is_simplicial(self):
        # pi x pi: EG x EG -> BG x BG, on pair ids, validated and Kan
        f = eg_cover(GROUPS["Z2"], 3)
        eg, bg = f.domain, f.codomain
        components = [_pairs(c, c, bg.counts[n]) for n, c in enumerate(f.components)]
        square = SimplicialMap(product(eg, eg), product(bg, bg), components)
        assert check_kan_fibration(square, 3).passed

    def test_wrong_projection_is_refused(self, monkeypatch):
        projection = kancheck.groupoids._eg_projection

        def swapped(G, L, E):
            pi = [list(col) for col in projection(G, L, E)]
            pi[2][0], pi[2][1] = pi[2][1], pi[2][0]
            return pi

        monkeypatch.setattr(kancheck.groupoids, "_eg_projection", swapped)
        with pytest.raises(RejectedInput, match="does not commute"):
            eg_cover(GROUPS["Z2"], 2)
