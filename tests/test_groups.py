import itertools

import pytest

from kancheck import (
    cyclic_group,
    group_from_permutations,
    group_from_table,
    is_subgroup,
    product_set,
    subgroup_group,
    subgroup_products_distinct,
    symmetric_group_preset,
)
from kancheck.errors import RejectedInput


# a value of each type that int() would have read as an int
NOT_INTS = [1.0, True, "1"]


class TestNonIntEntries:
    """Group entries must be exact ints: a float, bool or str is refused,
    never converted."""

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_table_entry(self, bad):
        with pytest.raises(RejectedInput, match=f"multiplication table: entry {bad!r} is a"):
            group_from_table(["e", "g"], [[0, 1], [bad, 0]])

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_permutation_image(self, bad):
        with pytest.raises(RejectedInput, match=f"permutation images: entry {bad!r} is a"):
            group_from_permutations(2, [[2, bad]])

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_degree(self, bad):
        with pytest.raises(RejectedInput, match=f"permutation degree: entry {bad!r} is a"):
            group_from_permutations(bad, [[1]])

    @pytest.mark.parametrize("bad", NOT_INTS)
    def test_subgroup_member(self, s3, bad):
        with pytest.raises(RejectedInput, match=f"A: entry {bad!r} is a"):
            subgroup_products_distinct(s3, [0, bad], [0])


class TestGroupFromTable:
    def test_z2(self):
        G = group_from_table(["e", "g"], [[0, 1], [1, 0]])
        assert G.order == 2
        assert G.identity == 0
        assert G.inv(1) == 1

    def test_non_associative_rejected_with_witness(self):
        # an order-5 loop: latin, two-sided identity and inverses, yet
        # (a*a)*b != a*(a*b), so the failure names an associativity triple
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(RejectedInput) as err:
            group_from_table(["e", "a", "b", "c", "d"], table)
        assert "associativity" in str(err.value)
        assert "'a'" in str(err.value)

    def test_mutated_s4_names_the_first_failing_triple(self):
        # two products of one row swapped: the identity and every inverse
        # survive, and the row-at-a-time check still names the first triple
        # (a, b, c) in the order of a loop over a, then b, then c
        G = symmetric_group_preset(4)
        table = [list(r) for r in G.table]
        table[5][9], table[5][17] = table[5][17], table[5][9]
        with pytest.raises(RejectedInput) as err:
            group_from_table(G.labels, table)
        assert str(err.value) == "associativity fails at ('(3,4)', '(1,3)', '(1,2,3)')"

    @pytest.mark.parametrize("order", [3, 4])
    def test_first_failing_triple_matches_triple_loop(self, order):
        G = symmetric_group_preset(order)
        n, e = G.order, G.identity
        rejected = 0
        for a, b, c in itertools.combinations(range(n), 3):
            table = [list(r) for r in G.table]
            if e in (a, table[a][b], table[a][c]):
                continue
            table[a][b], table[a][c] = table[a][c], table[a][b]
            first = next(
                (x, y, z)
                for x, y, z in itertools.product(range(n), repeat=3)
                if table[table[x][y]][z] != table[x][table[y][z]]
            )
            with pytest.raises(RejectedInput) as err:
                group_from_table(G.labels, table)
            names = ", ".join(repr(G.labels[v]) for v in first)
            assert str(err.value) == f"associativity fails at ({names})"
            rejected += 1
        assert rejected > 0

    def test_no_identity_rejected(self):
        with pytest.raises(RejectedInput):
            group_from_table(["a", "b"], [[0, 0], [0, 0]])

    def test_shape_rejected(self):
        with pytest.raises(RejectedInput):
            group_from_table(["e", "g"], [[0, 1]])


class TestPresets:
    def test_s3_order_and_names(self, s3):
        assert s3.order == 6
        for name in ("id", "(1,2)", "(1,3)", "(2,3)", "(1,2,3)", "(1,3,2)"):
            s3.index(name)

    def test_s3_composition_convention(self, s3):
        # right-to-left: (1,2)*(1,3) applies (1,3) first, giving (1,3,2)
        got = s3.mul(s3.index("(1,2)"), s3.index("(1,3)"))
        assert s3.labels[got] == "(1,3,2)"

    def test_s4_size(self):
        assert symmetric_group_preset(4).order == 24

    def test_degree_cap(self):
        with pytest.raises(RejectedInput):
            symmetric_group_preset(5)

    def test_cyclic(self):
        G = cyclic_group(4)
        assert G.order == 4
        assert G.mul(3, 2) == 1


def cycle_notation(images):
    """Cycle notation of a permutation given by 1-based images."""
    cycles, seen = [], set()
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle = [start]
        while images[cycle[-1] - 1] != start:
            cycle.append(images[cycle[-1] - 1])
        seen.update(cycle)
        cycles.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(cycles) or "id"


def closure_by_pairs(degree, generators):
    """The reference: labels and table of the group the 1-based generators
    make, composing every pair by the formula (f*g)(x) = f(g(x))."""
    def compose(f, g):
        return tuple(f[g[x] - 1] for x in range(degree))

    elements = {tuple(range(1, degree + 1))}
    while True:
        more = {compose(g, x) for x in elements for g in generators} - elements
        if not more:
            break
        elements |= more
    elements = sorted(
        elements, key=lambda p: (sum(p[k] != k + 1 for k in range(degree)), p)
    )
    pos = {p: k for k, p in enumerate(elements)}
    table = tuple(tuple(pos[compose(a, b)] for b in elements) for a in elements)
    return tuple(map(cycle_notation, elements)), table


# S3; the S4 of bench/inputs/s4_pair.json; the dihedral group of the hexagon
# and S3 x S3 on two blocks of three, of degree 6
CLOSURES = {
    "s3": (3, [[2, 1, 3], [1, 3, 2]]),
    "s4": (4, [[2, 1, 3, 4], [2, 3, 4, 1]]),
    "d6": (6, [[2, 3, 4, 5, 6, 1], [1, 6, 5, 4, 3, 2]]),
    "s3xs3": (6, [[2, 1, 3, 4, 5, 6], [2, 3, 1, 4, 5, 6], [1, 2, 3, 5, 4, 6], [1, 2, 3, 5, 6, 4]]),
}


class TestPermutationClosure:
    def test_generates_s3(self):
        G = group_from_permutations(3, [[2, 1, 3], [1, 3, 2]])
        assert G.order == 6

    @pytest.mark.parametrize("name", sorted(CLOSURES))
    def test_table_matches_per_pair_formula(self, name):
        degree, generators = CLOSURES[name]
        G = group_from_permutations(degree, generators)
        assert (G.labels, G.table) == closure_by_pairs(degree, generators)
        assert G.order == {"s3": 6, "s4": 24, "d6": 12, "s3xs3": 36}[name]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_preset_is_the_closure_of_all_permutations(self, n):
        G = symmetric_group_preset(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        assert (G.labels, G.table) == closure_by_pairs(n, perms)

    def test_non_permutation_rejected(self):
        with pytest.raises(RejectedInput) as err:
            group_from_permutations(3, [[1, 1, 2]])
        assert str(err.value) == "(1, 1, 2) is not a permutation of 1..3"
        for degree in (0, 7):
            with pytest.raises(RejectedInput) as err:
                group_from_permutations(degree, [])
            assert str(err.value) == "permutation degree must be between 1 and 6"

    def test_matches_table_preset(self, s3):
        G = group_from_permutations(3, [[2, 1, 3], [3, 2, 1]])
        assert sorted(G.labels) == sorted(s3.labels)


class TestSubgroupProducts:
    def test_s3_counterexample_pair(self, s3):
        A = (s3.identity, s3.index("(1,2)"))
        B = (s3.identity, s3.index("(1,3)"))
        assert subgroup_products_distinct(s3, A, B)
        ab = {s3.labels[g] for g in product_set(s3, A, B)}
        ba = {s3.labels[g] for g in product_set(s3, B, A)}
        assert ab == {"id", "(1,2)", "(1,3)", "(1,3,2)"}
        assert ba == {"id", "(1,2)", "(1,3)", "(1,2,3)"}

    def test_equal_subgroups_never_distinct(self, s3):
        A = (s3.identity, s3.index("(1,2)"))
        assert not subgroup_products_distinct(s3, A, A)

    def test_abelian_never_distinct(self):
        G = cyclic_group(6)
        A = (0, 2, 4)
        B = (0, 3)
        assert not subgroup_products_distinct(G, A, B)

    def test_non_subgroup_rejected(self, s3):
        with pytest.raises(RejectedInput):
            subgroup_products_distinct(s3, (s3.index("(1,2,3)"),), (0,))
        with pytest.raises(RejectedInput):
            subgroup_products_distinct(s3, (0, s3.index("(1,2)"), s3.index("(1,3)")), (0,))

    def test_is_subgroup(self, s3):
        assert is_subgroup(s3, (0, s3.index("(1,2)")))
        assert not is_subgroup(s3, (s3.index("(1,2)"),))

    @pytest.mark.parametrize(
        "members, message",
        [
            ([0.0], "entry 0.0 is a float"),
            ([0, "1"], "entry '1' is a str"),
            ([True, 0], "entry True is a bool"),
            ([0, 6], "indices outside the group"),
            ([-1, 0], "indices outside the group"),
        ],
        ids=["float", "str", "bool", "past-order", "negative"],
    )
    def test_is_subgroup_refuses_bad_members(self, s3, members, message):
        with pytest.raises(RejectedInput, match=message):
            is_subgroup(s3, members)

    def test_subgroup_group(self, s3):
        H = subgroup_group(s3, (0, s3.index("(1,2)")))
        assert H.order == 2
        assert H.labels == ("id", "(1,2)")
