"""Sets presented as principal twisted cartesian products ``H x_tau B``.

A to-point Kan check of a presentation searches its quotient B and counts
|H| families for each of B's; its report must be the full search's on the
built set, cell for cell, and a failure must be certified on the built
set's ids.  The twist is checked on B's tables first, and the covering map
``X -> B`` is checked to be a covering, a Kan fibration with exactly one
filler per horn.
"""

from functools import cache

import pytest
from test_kan import untwisted

import kancheck.groupoids
import kancheck.kan
from kancheck import (
    check_kan_fibration,
    check_kan_to_point,
    cyclic_group,
    diagonal,
    double_nerve,
    eg_construction,
    product,
    symmetric_group_preset,
)
from kancheck.bisimplicial import product_presentation
from kancheck.errors import InternalInvariantError, RejectedInput
from kancheck.groupoids import eg_presentation, nerve_and_layout, one_object_groupoid
from kancheck.presets import preset_double_groupoid
from kancheck.serialize import fibration_report_to_dict
from kancheck.simplicial import (
    TruncatedSimplicialSet,
    TwistedProduct,
    point,
    quotient,
    quotient_map,
    require_twisting,
)

GROUPS = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "S3": symmetric_group_preset(3)}


def eg_square(G, bound):
    """EG x EG presented as (G x G) x_tau (BG x BG)."""
    eg = eg_presentation(G, bound)
    return product_presentation(eg, eg)


@cache
def full_search_report(name, bound):
    """The to-point Kan report of the built EG x EG without its
    presentation, so that every family is searched."""
    eg = eg_construction(GROUPS[name], bound)
    return check_kan_to_point(without_quotient(product(eg, eg)), bound)


def without_quotient(X):
    """The same tables and labels as X, with no presentation: the full
    search runs."""
    return TruncatedSimplicialSet(X.counts, X._faces, X._degens, list(X._labels))


def with_twist(P, n, idx, to):
    """P with ``twist[n][idx]`` set to ``to``."""
    twist = list(P.twist)
    column = list(twist[n])
    column[idx] = to
    twist[n] = column
    return TwistedProduct(P.mul, P.identity, P.base, twist, P.cover)


def s3_counterexample_diagonal(bound):
    """Not Kan: its first failing cell is at n = 2."""
    return diagonal(double_nerve(preset_double_groupoid("s3-counterexample"), bound, bound))


class TestQuotientCheck:
    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("name, bound", [("Z2", 4), ("Z3", 3), ("S3", 2), ("S3", 3)])
    def test_report_is_the_orbit_paths(self, name, bound, rows, monkeypatch):
        # the horns of the quotient are the orbits of H on X's horns: their
        # report, scaled, is the full search's, made at the default block size
        full = full_search_report(name, bound)
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        report = check_kan_to_point(eg_square(GROUPS[name], bound), bound)
        assert report.passed
        assert report == full

    def test_passing_check_builds_no_cover(self, monkeypatch):
        built = []
        eg = kancheck.groupoids.eg_construction

        def recording(*args):
            built.append(args)
            return eg(*args)

        monkeypatch.setattr(kancheck.groupoids, "eg_construction", recording)
        assert check_kan_to_point(eg_square(GROUPS["S3"], 2), 2).passed
        assert built == []

    @pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "1", "7"])
    def test_failing_base_gives_the_full_search_certificate(self, rows, monkeypatch):
        # EG(Z2) x Y, Y the S3 counterexample's diagonal, as
        # (Z2 x 1) x_tau (BZ2 x Y): its base is not Kan, because Y is not
        if rows is not None:
            monkeypatch.setattr(kancheck.kan, "BLOCK_ROWS", rows)
        Y = s3_counterexample_diagonal(2)
        P = product_presentation(eg_presentation(cyclic_group(2), 2), untwisted(Y))
        X = product(eg_construction(cyclic_group(2), 2), Y)
        full = fibration_report_to_dict(check_kan_to_point(without_quotient(X), 2))
        assert fibration_report_to_dict(check_kan_to_point(P, 2)) == full
        assert not full["passed"] and full["failure"]["family"]["n"] == 2

    def test_cover_that_fills_the_failing_cell_is_refused(self):
        B = s3_counterexample_diagonal(2)
        P = untwisted(B)
        wrong = TwistedProduct(
            P.mul, P.identity, B, P.twist, lambda: (point(2), tuple((0,) * c for c in B.counts))
        )
        with pytest.raises(InternalInvariantError, match="fills a cell"):
            check_kan_to_point(wrong, 2)

    def test_bound_too_small_rejected(self):
        with pytest.raises(RejectedInput):
            check_kan_to_point(eg_square(GROUPS["Z2"], 2), 3)


class TestTwistingIdentities:
    def test_eg_twist_is_the_first_arrow(self):
        G = GROUPS["S3"]
        P = eg_presentation(G, 3)
        _, L = nerve_and_layout(one_object_groupoid(G), 3)
        for n in range(1, 4):
            assert list(P.twist[n]) == [L.key(n, b)[0] for b in range(L.counts[n])]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("which", ["first", "last"])
    @pytest.mark.parametrize("square", [False, True], ids=["eg", "eg-square"])
    def test_one_changed_entry_is_refused(self, n, which, square):
        G = GROUPS["Z3"]
        P = eg_square(G, 3) if square else eg_presentation(G, 3)
        idx = 0 if which == "first" else P.base.counts[n] - 1
        bad = with_twist(P, n, idx, (P.twist[n][idx] + 1) % P.order)
        with pytest.raises(InternalInvariantError, match="twisting identity"):
            check_kan_to_point(bad, 3)

    def test_changed_entry_is_named(self):
        # tau s_0 = e fails at the vertex of BZ3 once the identity arrow is
        # given a twist that is not e
        P = eg_presentation(GROUPS["Z3"], 2)
        bad = with_twist(P, 1, 0, 1)
        with pytest.raises(InternalInvariantError, match=r"tau s_0 = e fails at Simplex\(dim=0"):
            require_twisting(bad, 2)

    def test_twist_outside_the_group_is_refused(self):
        P = eg_presentation(GROUPS["Z2"], 2)
        with pytest.raises(InternalInvariantError, match="does not map B_2 into H"):
            require_twisting(with_twist(P, 2, 0, 2), 2)


class TestCoveringMap:
    @pytest.mark.parametrize("name, bound", [("Z2", 4), ("S3", 2)])
    def test_every_horn_has_exactly_one_lift(self, name, bound):
        G = GROUPS[name]
        f = quotient_map(eg_presentation(G, bound))
        assert f.domain == eg_construction(G, bound)
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

    def test_product_projection_is_simplicial(self):
        G = GROUPS["Z2"]
        f = quotient_map(eg_square(G, 3))
        eg = eg_construction(G, 3)
        assert f.domain == product(eg, eg)
        assert check_kan_fibration(f, 3).passed

    def test_wrong_projection_is_refused(self):
        P = eg_presentation(GROUPS["Z2"], 2)
        X, pi = P.cover()
        swapped = [pi[0], pi[1], [pi[2][1], pi[2][0], *pi[2][2:]]]
        wrong = TwistedProduct(P.mul, P.identity, P.base, P.twist, lambda: (X, swapped))
        with pytest.raises(RejectedInput, match="does not commute"):
            quotient_map(wrong)

    def test_one_changed_entry_is_refused(self):
        # two parallel edges, a -> b, of a set presented over itself by the
        # trivial group; one edge sent onto the other is still a simplicial
        # map, but two edges from a then lie over one: not a covering
        X = TruncatedSimplicialSet([2, 4], [[], [[0, 1, 1, 1], [0, 1, 0, 0]]], [[[0, 1]], []])
        identity = [(0, 1), (0, 1, 2, 3)]
        assert quotient_map(untwisted(X)).components == tuple(identity)
        changed = [identity[0], (0, 1, 3, 3)]
        wrong = TwistedProduct(((0,),), 0, X, [(), (0,) * 4], lambda: (X, changed))
        with pytest.raises(InternalInvariantError, match="share a lift of a vertex"):
            quotient_map(wrong)

    def test_edges_must_lift_from_either_end(self):
        # Delta[1] covered twice at its vertices, but its edge lifted twice
        # from a, both lifts ending at the same lift of b: each simplex
        # lifts uniquely through a lift of its vertex 0, and the sizes and
        # fibres are those of a covering, yet b's other lift has no edge
        # into it
        B = TruncatedSimplicialSet([2, 3], [[], [[0, 1, 1], [0, 1, 0]]], [[[0, 1]], []])
        X = TruncatedSimplicialSet(
            [4, 6], [[], [[0, 1, 2, 3, 2, 2], [0, 1, 2, 3, 0, 1]]], [[[0, 1, 2, 3]], []]
        )
        pi = [(0, 0, 1, 1), (0, 0, 1, 1, 2, 2)]
        P = TwistedProduct(((0, 1), (1, 0)), 0, B, [(), (0, 0, 0)], lambda: (X, pi))
        with pytest.raises(InternalInvariantError, match="1-simplices over one simplex of B"):
            quotient_map(P)

    def test_built_eg_carries_its_checked_presentation(self):
        G = GROUPS["S3"]
        X = eg_construction(G, 2)
        P = quotient(X)
        assert P.cover()[0] is X and P.order == 6
        assert P.base == eg_presentation(G, 2).base
        assert quotient_map(P).components == tuple(map(tuple, eg_presentation(G, 2).cover()[1]))

