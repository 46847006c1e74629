"""The group, groupoid and double-groupoid law checks against full scans.

The constructors decide associativity by Light's test, on the middle
elements of a generating set, and reach composable squares and 2x2 grids
through edge buckets.  ``oracles`` checks the same laws by looping over every
triple, pair and grid of ids.  Here both run on lawful fixtures and on seeded
mutations of their tables: they must accept exactly the same tables and
refuse the rest with byte-identical messages.

By Light's theorem a table with an identity that fails associativity always
fails it at some triple whose middle element is a generator.  The mutations
are drawn so that many of them fail first at a triple whose middle element is
not one, and the message must still name that first triple.
"""

import random
from dataclasses import replace
from itertools import product

import oracles
import pytest
from test_doublegroupoid import _codiscrete_double_groupoid, _s4_pair_double_groupoid
from test_kan import group_times_pair_groupoid

from kancheck import (
    DoubleGroupoid,
    FiniteGroup,
    FiniteGroupoid,
    Square,
    cyclic_group,
    group_from_permutations,
    group_pair_double_groupoid,
    one_object_groupoid,
    symmetric_group_preset,
)
from kancheck.errors import RejectedInput
from kancheck.groups import _by_value, _generating_set, _light_associative, _ranks
from kancheck.presets import preset_double_groupoid

MUTATIONS = 300
SEED = 20261019


def refusal(check, *args):
    """The message of the RejectedInput ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except RejectedInput as exc:
        return str(exc)
    return None


def generators(rows, source, target, identities):
    """The generating set the associativity check draws its middles from."""
    pos = _ranks(_by_value(target).values(), len(rows))
    return set(_generating_set(rows, pos, source, target, identities))


GROUPS = {
    "Z5": lambda: cyclic_group(5),
    "S3": lambda: symmetric_group_preset(3),
    "D4": lambda: group_from_permutations(4, [[2, 3, 4, 1], [4, 3, 2, 1]]),
    "S4": lambda: symmetric_group_preset(4),
}


def mutate_group_table(G, rng):
    """G's table with one or two rows a each swapping the products at two
    columns b and c: mostly a, b, c != e, so that the identity stays
    two-sided, at times any."""
    n, e = G.order, G.identity
    table = [list(row) for row in G.table]
    others = [x for x in range(n) if x != e] if rng.random() < 0.85 else list(range(n))
    for _ in range(rng.choice((1, 2))):
        a = rng.choice(others)
        b, c = rng.sample(others, 2)
        table[a][b], table[a][c] = table[a][c], table[a][b]
    return table


class TestGroupAssociativity:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_fixture_is_accepted_by_both(self, name):
        G = GROUPS[name]()
        assert oracles.group_table_error(G.labels, G.table) is None
        assert refusal(FiniteGroup, G.labels, G.table) is None

    def test_mutations_give_the_oracle_message(self):
        rng = random.Random(SEED)
        groups = {name: GROUPS[name]() for name in sorted(GROUPS)}
        associativity = off_generator = 0
        other = set()
        for _ in range(MUTATIONS):
            G = groups[rng.choice(sorted(groups))]
            table = mutate_group_table(G, rng)
            expected = oracles.group_table_error(G.labels, table)
            assert refusal(FiniteGroup, G.labels, table) == expected
            if expected is None or not expected.startswith("associativity"):
                other.add(expected and expected.split()[-1])
                continue
            associativity += 1
            n = G.order
            gens = generators(table, (0,) * n, (0,) * n, (G.identity,))
            failing = oracles.failing_triples(table)
            # Light's theorem: some failing triple has a generator in the middle
            assert any(b in gens for _, b, _ in failing)
            off_generator += failing[0][1] not in gens
        assert MUTATIONS // 4 < associativity < MUTATIONS
        assert off_generator > MUTATIONS // 20
        # tables without an identity, or with an element without an inverse
        assert {"element", "inverse"} <= other


def test_light_test_leaves_wrong_endpoints_to_the_full_scan():
    # the pair groupoid on two objects, with f: 0 -> 1 (id 2) and g: 1 -> 0
    # (id 1), and the composites fg := f and gf := g, which do not run from
    # the right factor's source: every triple with a generator in the middle
    # holds, but (f, g, f) meets fg and f, which do not compose
    C = group_times_pair_groupoid(cyclic_group(1), 2, range(4))
    src, tgt = C.arrow_source, C.arrow_target
    compose = {**C._compose, (1, 2): 1, (2, 1): 2}
    into = _by_value(tgt)
    rows = [[compose[(g, k)] for k in into[src[g]]] for g in range(C.n_arrows)]
    assert _light_associative(rows, src, tgt, C.identity_arrows) is False


GROUPOIDS = {
    "S3": lambda: one_object_groupoid(symmetric_group_preset(3)),
    "Z2-pair-2": lambda: group_times_pair_groupoid(cyclic_group(2), 2, range(8)),
    "Z3-pair-2": lambda: group_times_pair_groupoid(
        cyclic_group(3), 2, [5, 0, 11, 3, 8, 1, 10, 2, 7, 4, 9, 6]
    ),
    "codiscrete-3": lambda: group_times_pair_groupoid(cyclic_group(1), 3, range(9)),
}


def groupoid_tables(C):
    return len(C.objects), C.arrow_source, C.arrow_target, dict(C._compose), C.identity_arrows


def mutate_composition(C, rng):
    """C's composition with one or two composites of non-identity arrows
    changed: mostly to another arrow with the composite's endpoints, at times
    to any arrow."""
    n_obj, src, tgt, compose, ids = groupoid_tables(C)
    pairs = [(g, h) for g, h in compose if g not in ids and h not in ids]
    for g, h in rng.sample(pairs, min(len(pairs), rng.choice((1, 2)))):
        old = compose[(g, h)]
        same_ends = [k for k in range(C.n_arrows)
                     if src[k] == src[old] and tgt[k] == tgt[old] and k != old]
        choices = same_ends if same_ends and rng.random() < 0.8 else [
            k for k in range(C.n_arrows) if k != old
        ]
        compose[(g, h)] = rng.choice(choices)
    return n_obj, src, tgt, compose, ids


def build_groupoid(n_obj, src, tgt, compose, ids):
    return FiniteGroupoid([f"o{o}" for o in range(n_obj)], src, tgt, compose, ids)


class TestGroupoidAssociativity:
    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_fixture_is_accepted_by_both(self, name):
        tables = groupoid_tables(GROUPOIDS[name]())
        assert oracles.groupoid_error(*tables) is None
        assert refusal(build_groupoid, *tables) is None

    def test_mutations_give_the_oracle_message(self):
        rng = random.Random(SEED)
        groupoids = {name: GROUPOIDS[name]() for name in sorted(GROUPOIDS)}
        outcomes = {"accepted": 0, "associativity": 0, "other": 0}
        off_generator = 0
        for _ in range(MUTATIONS):
            C = groupoids[rng.choice(sorted(groupoids))]
            tables = mutate_composition(C, rng)
            expected = oracles.groupoid_error(*tables)
            assert refusal(build_groupoid, *tables) == expected
            if expected is None:
                outcomes["accepted"] += 1
            elif expected.startswith("associativity"):
                outcomes["associativity"] += 1
                n_obj, src, tgt, compose, ids = tables
                into = _by_value(tgt)
                rows = [[compose[(g, k)] for k in into[src[g]]] for g in range(len(src))]
                middle = int(expected.split(",")[1])
                off_generator += middle not in generators(rows, src, tgt, ids)
            else:
                outcomes["other"] += 1
        assert outcomes["associativity"] > MUTATIONS // 4
        assert outcomes["other"] > 0
        assert off_generator > MUTATIONS // 20


def _group_pair(G, A, B):
    return group_pair_double_groupoid(G, [G.index(a) for a in A], [G.index(b) for b in B])


DOUBLE_GROUPOIDS = {
    "s3-counterexample": lambda: preset_double_groupoid("s3-counterexample"),
    "z2-commuting": lambda: preset_double_groupoid("z2-commuting"),
    "s4-pair": _s4_pair_double_groupoid,
    "codiscrete": _codiscrete_double_groupoid,
    "s3-z3-z2": lambda: _group_pair(
        symmetric_group_preset(3), ["id", "(1,2,3)", "(1,3,2)"], ["id", "(1,2)"]
    ),
}



def all_squares(h, v):
    """The double groupoid of every square whose edges meet."""
    src, tgt, v_src, v_tgt = h.arrow_source, h.arrow_target, v.arrow_source, v.arrow_target
    return DoubleGroupoid(h, v, [
        Square(top, right, bottom, left)
        for top, right, bottom, left in product(
            range(h.n_arrows), range(v.n_arrows), range(h.n_arrows), range(v.n_arrows))
        if src[top] == v_tgt[right] and tgt[top] == v_tgt[left]
        and src[bottom] == v_src[right] and tgt[bottom] == v_src[left]
    ])


ALL_SQUARES = {
    "all-z3-z2": lambda: all_squares(
        one_object_groupoid(cyclic_group(3)), one_object_groupoid(cyclic_group(2))
    ),
    "all-s3-z1": lambda: all_squares(
        one_object_groupoid(symmetric_group_preset(3)), one_object_groupoid(cyclic_group(1))
    ),
}


def mutate_squares(D, rng):
    """D's square list with one change: one or two squares dropped, one edge
    of a square changed, a square added that the list lacks, or the list
    shuffled, which changes every id and keeps the double groupoid."""
    squares = list(D.squares)
    kind = rng.choice(("drop", "drop", "edge", "add", "shuffle"))
    if kind == "drop":
        for k in sorted(rng.sample(range(len(squares)), min(len(squares), rng.choice((1, 2)))),
                        reverse=True):
            del squares[k]
    elif kind == "edge":
        k, edge = rng.randrange(len(squares)), rng.choice(("top", "right", "bottom", "left"))
        arrows = (D.horizontal if edge in ("top", "bottom") else D.vertical).n_arrows
        squares[k] = replace(squares[k], **{edge: rng.randrange(arrows)})
    elif kind == "add":
        h, v = D.horizontal, D.vertical
        candidates = [
            Square(*edges) for edges in (
                (rng.randrange(h.n_arrows), rng.randrange(v.n_arrows),
                 rng.randrange(h.n_arrows), rng.randrange(v.n_arrows)) for _ in range(20)
            ) if not D.has_square(Square(*edges))
        ]
        if candidates:
            squares.insert(rng.randrange(len(squares) + 1), candidates[0])
    else:
        rng.shuffle(squares)
    return squares


def lawful_fixtures():
    """Each double groupoid with copies of its composition tables, which the
    table mutations start from."""
    fixtures = {name: DOUBLE_GROUPOIDS[name]() for name in sorted(DOUBLE_GROUPOIDS)}
    return {name: (D, dict(D._h_comp), dict(D._v_comp)) for name, D in fixtures.items()}


def mutate_comps(D, tables, rng, lawful_ends):
    """Copies of D's lawful composition tables with one or two composites
    changed.  With ``lawful_ends`` a composite of two non-identity squares
    becomes another square with its edges along the composition (left and
    right horizontally, top and bottom vertically), mostly; else any pair
    may become any square."""
    h_comp, v_comp = dict(tables[0]), dict(tables[1])
    sq = D.squares
    for _ in range(rng.choice((1, 2))):
        horizontal = rng.random() < 0.5
        comp = h_comp if horizontal else v_comp
        ids = set(D.h_identity if horizontal else D.v_identity)
        pairs = [p for p in comp if not (lawful_ends and (p[0] in ids or p[1] in ids))]
        if not pairs:
            continue
        pair = rng.choice(pairs)
        old = sq[comp[pair]]
        ends = (lambda s: (s.left, s.right)) if horizontal else (lambda s: (s.top, s.bottom))
        same = [k for k, s in enumerate(sq) if ends(s) == ends(old) and s != old]
        choices = same if lawful_ends and same and rng.random() < 0.8 else [
            k for k in range(len(sq)) if k != comp[pair]
        ]
        if choices:
            comp[pair] = rng.choice(choices)
    return h_comp, v_comp


class TestDoubleGroupoidLaws:
    @pytest.mark.parametrize("name", sorted(DOUBLE_GROUPOIDS))
    def test_fixture_composites_match_the_all_pairs_loop(self, name):
        D = DOUBLE_GROUPOIDS[name]()
        assert oracles.double_groupoid_error(D.horizontal, D.vertical, D.squares) is None
        h_comp, v_comp = oracles.double_groupoid_tables(D.horizontal, D.vertical, D.squares)
        assert D._h_comp == h_comp and list(D._h_comp) == list(h_comp)
        assert D._v_comp == v_comp and list(D._v_comp) == list(v_comp)
        assert D.h_composites == tuple(h_comp.values())
        assert D.v_composites == tuple(v_comp.values())

    def test_square_mutations_give_the_oracle_message(self):
        rng = random.Random(SEED)
        fixtures = {name: DOUBLE_GROUPOIDS[name]() for name in sorted(DOUBLE_GROUPOIDS)}
        accepted = composites = 0
        for _ in range(MUTATIONS):
            D = fixtures[rng.choice(sorted(fixtures))]
            squares = mutate_squares(D, rng)
            expected = oracles.double_groupoid_error(D.horizontal, D.vertical, squares)
            assert refusal(DoubleGroupoid, D.horizontal, D.vertical, squares) == expected
            accepted += expected is None
            composites += expected is not None and "composite of" in expected
        assert accepted > MUTATIONS // 20
        assert composites > MUTATIONS // 4

    def test_edge_groupoid_mutations_give_the_oracle_message(self):
        # a horizontal groupoid whose table was changed after it was checked:
        # the squares' composites follow it, so with every square there,
        # their associativity fails with it
        rng = random.Random(SEED)
        fixtures = {name: make() for name, make in {**DOUBLE_GROUPOIDS, **ALL_SQUARES}.items()}
        fixtures.update({f"{name}-again": fixtures[name] for name in ALL_SQUARES})
        associativity = 0
        for _ in range(MUTATIONS):
            D = fixtures[rng.choice(sorted(fixtures))]
            h = D.horizontal
            _, _, _, compose, _ = mutate_composition(h, rng)
            lawless = FiniteGroupoid(h.objects, h.arrow_source, h.arrow_target, h._compose,
                                     h.identity_arrows, h.arrow_labels)
            lawless._compose = compose
            expected = oracles.double_groupoid_error(lawless, D.vertical, D.squares)
            assert refusal(DoubleGroupoid, lawless, D.vertical, D.squares) == expected
            associativity += expected is not None and "associativity" in expected
        assert associativity > MUTATIONS // 10

    @pytest.mark.parametrize("lawful_ends", [True, False])
    def test_table_mutations_give_the_oracle_message(self, lawful_ends):
        rng = random.Random(SEED)
        fixtures = lawful_fixtures()
        outcomes = {"accepted": 0, "associativity": 0, "other": 0}
        for _ in range(MUTATIONS):
            D, *tables = fixtures[rng.choice(sorted(fixtures))]
            h_comp, v_comp = mutate_comps(D, tables, rng, lawful_ends)
            expected = oracles.square_laws_error(D.squares, h_comp, v_comp,
                                                 D.h_identity, D.v_identity)
            D._h_comp, D._v_comp = h_comp, v_comp
            assert refusal(D._validate_groupoid_laws) == expected
            key = "accepted" if expected is None else (
                "associativity" if "associativity" in expected else "other")
            outcomes[key] += 1
        # the mutations reach every outcome, so equality says something of each
        assert outcomes["accepted"] > 0
        assert outcomes["associativity"] > MUTATIONS // 20
        assert outcomes["other"] > MUTATIONS // 10

    @pytest.mark.parametrize("lawful_ends", [True, False])
    def test_interchange_mutations_give_the_oracle_message(self, lawful_ends):
        rng = random.Random(SEED)
        fixtures = lawful_fixtures()
        refused = interchange = 0
        for _ in range(MUTATIONS):
            D, *tables = fixtures[rng.choice(sorted(fixtures))]
            h_comp, v_comp = mutate_comps(D, tables, rng, lawful_ends)
            expected = oracles.interchange_error(h_comp, v_comp)
            D._h_comp, D._v_comp = h_comp, v_comp
            assert refusal(D._validate_interchange) == expected
            refused += expected is not None
            interchange += expected is not None and expected.startswith("interchange")
        assert MUTATIONS // 4 < refused < MUTATIONS
        assert interchange > MUTATIONS // 10
