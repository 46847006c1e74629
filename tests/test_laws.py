"""The table law checkers against their per-simplex oracles, and every
builder checked lawful by them.

The library checks the simplicial identities, the horizontal/vertical
commutations and the naturality of a map as comparisons of whole gathered
columns.  ``oracles`` holds the per-simplex readings of the same laws; here
both run on fixtures and on seeded mutations of their tables (one or two
entries changed), and must give equal reports and byte-identical rejection
messages.
"""

import random

import pytest
import oracles

from kancheck import (
    SimplicialMap,
    cyclic_group,
    diagonal,
    discrete_groupoid,
    double_nerve,
    eg_construction,
    group_pair_double_groupoid,
    nerve,
    one_object_groupoid,
    point,
    point_bisimplicial,
    product,
    symmetric_group_preset,
    tensor,
    transpose,
    trivial_double_groupoid,
    validate_bisimplicial_identities,
    validate_simplicial_identities,
)
from kancheck.bisimplicial import TruncatedBisimplicialSet
from kancheck.cli import group_from_input, load_input, subgroups_from_input
from kancheck.errors import RejectedInput
from kancheck.presets import preset_bisimplicial
from kancheck.simplicial import TruncatedSimplicialSet

MUTATIONS = 300
SEED = 20260419


def z2():
    return cyclic_group(2)


def s3():
    return symmetric_group_preset(3)


def s4_pair_double_nerve(P, Q):
    data = load_input("bench/inputs/s4_pair.json")
    G = group_from_input(data)
    return double_nerve(group_pair_double_groupoid(G, *subgroups_from_input(data, G)), P, Q)


SIMPLICIAL = {
    "point": lambda: point(3),
    "z2-nerve": lambda: nerve(one_object_groupoid(z2()), 3),
    "s3-nerve": lambda: nerve(one_object_groupoid(s3()), 2),
    "eg-z2": lambda: eg_construction(z2(), 3),
    "s3-counterexample-diagonal": lambda: diagonal(preset_bisimplicial("s3-counterexample", 3, 3)),
    "eg-s3-squared": lambda: product(eg_construction(s3(), 2), eg_construction(s3(), 2)),
}

BISIMPLICIAL = {
    "point": lambda: point_bisimplicial(2, 3),
    "eg-z2-tensor": lambda: tensor(eg_construction(z2(), 2), eg_construction(z2(), 1)),
    "s3-counterexample": lambda: preset_bisimplicial("s3-counterexample", 3, 2),
    "nerve-times-eg": lambda: tensor(
        nerve(one_object_groupoid(z2()), 2), eg_construction(z2(), 1)
    ),
    # at bound 1 many tables may change and stay lawful
    "s3-nerve-1-squared": lambda: tensor(*(nerve(one_object_groupoid(s3()), 1),) * 2),
}


def mutated_tables(tables, rng, target_counts):
    """A copy of a list of per-level table lists with one or two entries set
    to another id of the level they point into; ``target_counts[n]`` is the
    size of that level for the tables of level n."""
    tables = [[list(t) for t in level] for level in tables]
    places = [
        (n, i, x) for n, level in enumerate(tables) if target_counts[n] > 1
        for i, t in enumerate(level) for x in range(len(t))
    ]
    for n, i, x in rng.sample(places, min(len(places), rng.choice((1, 2)))):
        old = tables[n][i][x]
        tables[n][i][x] = rng.choice([v for v in range(target_counts[n]) if v != old])
    return tables


def mutate_set(X, rng, labels=None):
    """X with one or two entries of one kind of table changed."""
    counts = X.counts
    faces, degens = [list(level) for level in X._faces], [list(level) for level in X._degens]
    if rng.random() < 0.5:
        faces = mutated_tables(faces, rng, (0,) + counts[:-1])
    else:
        degens = mutated_tables(degens, rng, counts[1:] + (0,))
    return TruncatedSimplicialSet(counts, faces, degens, labels)


def mutate_bisimplicial(X, rng):
    """X with one of its rows or columns mutated, labels kept."""
    rows, cols = list(X.rows), list(X.columns)
    lines = rows if rng.random() < 0.5 else cols
    k = rng.randrange(len(lines))
    lines[k] = mutate_set(lines[k], rng, lines[k]._labels)
    return TruncatedBisimplicialSet(rows, cols)


def identity(X):
    return X, X, [list(range(c)) for c in X.counts]


def projection(A, B):
    """The projection of ``product(A, B)`` onto its first factor."""
    P = product(A, B)
    return P, A, [[idx // B.counts[n] for idx in range(P.counts[n])] for n in range(P.bound + 1)]


# each a map's (domain, codomain, components)
MAPS = {
    "z2-nerve-identity": lambda: identity(nerve(one_object_groupoid(z2()), 3)),
    "s3-nerve-identity": lambda: identity(nerve(one_object_groupoid(s3()), 2)),
    # an edge of a bound-1 nerve may go to any other non-identity edge
    "s3-nerve-1-identity": lambda: identity(nerve(one_object_groupoid(s3()), 1)),
    "eg-z2-identity": lambda: identity(eg_construction(z2(), 3)),
    "eg-z2-times-nerve-projection": lambda: projection(
        eg_construction(z2(), 3), nerve(one_object_groupoid(z2()), 3)
    ),
}


def rejection(dom, cod, comps):
    """The message of a validating map's rejection, or None if it is built."""
    try:
        SimplicialMap(dom, cod, comps)
    except RejectedInput as exc:
        return str(exc)
    return None


class TestSimplicialIdentities:
    @pytest.mark.parametrize("name", sorted(SIMPLICIAL))
    def test_fixture_equals_oracle(self, name):
        X = SIMPLICIAL[name]()
        report = validate_simplicial_identities(X)
        assert report == oracles.validate_simplicial_identities(X)
        assert report.ok

    def test_mutations_equal_oracle(self):
        rng = random.Random(SEED)
        names = [n for n in sorted(SIMPLICIAL) if n not in ("point", "eg-s3-squared")]
        fixtures = {n: SIMPLICIAL[n]() for n in names}
        lawless = 0
        for _ in range(MUTATIONS):
            X = mutate_set(fixtures[rng.choice(names)], rng)
            report = validate_simplicial_identities(X)
            assert report == oracles.validate_simplicial_identities(X)
            lawless += not report.ok
        # the mutations reach both outcomes, so equality says something of each
        assert MUTATIONS // 4 < lawless < MUTATIONS

    def test_non_injective_degeneracy_equals_oracle(self):
        # two vertices sent to one edge by s_0: the faces cannot cancel both
        X = TruncatedSimplicialSet([2, 1], [[], [[0], [1]]], [[[0, 0]], []])
        report = validate_simplicial_identities(X)
        assert report == oracles.validate_simplicial_identities(X)
        assert report.violations[-1].identity == "degeneracy-not-injective"


def random_set(rng, counts):
    """A set with the given counts and uniformly random tables: mostly
    lawless, with empty levels when a count is 0."""
    b = len(counts) - 1
    faces = [[]] + [
        [[rng.randrange(counts[n - 1]) for _ in range(counts[n])] for _ in range(n + 1)]
        for n in range(1, b + 1)
    ]
    degens = [
        [[rng.randrange(counts[n + 1]) for _ in range(counts[n])] for _ in range(n + 1)]
        for n in range(b)
    ] + [[]]
    return TruncatedSimplicialSet(counts, faces, degens)


def test_random_tables_equal_oracle():
    # bound 0 and empty levels, which no fixture has, for all three checks
    rng = random.Random(SEED)
    for _ in range(MUTATIONS):
        counts = [rng.randrange(4) or rng.randrange(2) for _ in range(rng.randrange(1, 4))]
        if 0 in counts:
            counts = [0] * len(counts)
        X, Y = random_set(rng, counts), random_set(rng, counts)
        assert validate_simplicial_identities(X) == oracles.validate_simplicial_identities(X)
        comps = [[rng.randrange(c) for _ in range(c)] for c in counts]
        expected = oracles.naturality_error(SimplicialMap(X, Y, comps, validate=False))
        assert rejection(X, Y, comps) == expected


class TestBisimplicialIdentities:
    @pytest.mark.parametrize("name", sorted(BISIMPLICIAL))
    def test_fixture_equals_oracle(self, name):
        X = BISIMPLICIAL[name]()
        report = validate_bisimplicial_identities(X)
        assert report == oracles.validate_bisimplicial_identities(X)
        assert report.ok

    def test_mutations_equal_oracle(self):
        rng = random.Random(SEED)
        names = sorted(n for n in BISIMPLICIAL if n != "point")
        fixtures = {n: BISIMPLICIAL[n]() for n in names}
        lawless = commutation = 0
        for _ in range(MUTATIONS):
            X = mutate_bisimplicial(fixtures[rng.choice(names)], rng)
            report = validate_bisimplicial_identities(X)
            assert report == oracles.validate_bisimplicial_identities(X)
            lawless += not report.ok
            commutation += bool(report.commutation)
        assert MUTATIONS // 4 < lawless < MUTATIONS
        assert commutation > MUTATIONS // 4


class TestNaturality:
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_fixture_is_natural(self, name):
        dom, cod, comps = MAPS[name]()
        assert oracles.naturality_error(SimplicialMap(dom, cod, comps, validate=False)) is None
        assert rejection(dom, cod, comps) is None

    def test_mutations_give_the_oracle_message(self):
        rng = random.Random(SEED)
        names = sorted(MAPS)
        fixtures = {name: MAPS[name]() for name in names}
        rejected = 0
        for _ in range(MUTATIONS):
            dom, cod, comps = fixtures[rng.choice(names)]
            # the component table of level n points into codomain level n
            bad = [t for [t] in mutated_tables([[t] for t in comps], rng, cod.counts)]
            expected = oracles.naturality_error(SimplicialMap(dom, cod, bad, validate=False))
            assert rejection(dom, cod, bad) == expected
            rejected += expected is not None
        assert MUTATIONS // 4 < rejected < MUTATIONS


BUILDERS = {
    "nerve-z2": lambda: nerve(one_object_groupoid(z2()), 3),
    "nerve-s3": lambda: nerve(one_object_groupoid(s3()), 3),
    "nerve-discrete": lambda: nerve(discrete_groupoid(["a", "b", "c"]), 3),
    "double-nerve-s3-pair": lambda: preset_bisimplicial("s3-counterexample", 3, 3),
    "double-nerve-s4-pair": lambda: s4_pair_double_nerve(2, 2),
    "double-nerve-trivial": lambda: double_nerve(trivial_double_groupoid(), 2, 3),
    "eg-s3": lambda: eg_construction(s3(), 3),
    "product": lambda: product(eg_construction(z2(), 3), eg_construction(cyclic_group(3), 3)),
    "tensor": lambda: tensor(eg_construction(z2(), 3), nerve(one_object_groupoid(s3()), 2)),
    "diagonal": lambda: diagonal(preset_bisimplicial("s3-counterexample", 3, 3)),
    "transpose": lambda: transpose(preset_bisimplicial("s3-counterexample", 2, 3)),
    # 46656 bisimplices at (2,2): out of reach of a per-simplex check in tier-1
    "tensor-eg-s3": lambda: tensor(eg_construction(s3(), 2), eg_construction(s3(), 2)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_builder_is_lawful(name):
    X = BUILDERS[name]()
    if isinstance(X, TruncatedBisimplicialSet):
        assert validate_bisimplicial_identities(X).ok
    else:
        assert validate_simplicial_identities(X).ok
