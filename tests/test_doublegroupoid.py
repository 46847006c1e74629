import hashlib
import itertools
import json

import pytest

from kancheck import (
    DoubleGroupoid,
    FiniteGroupoid,
    Square,
    column,
    diagonal,
    double_nerve,
    group_from_permutations,
    group_pair_double_groupoid,
    nerve,
    one_object_groupoid,
    row,
    subgroup_group,
    subgroup_products_distinct,
    symmetric_group_preset,
    trivial_double_groupoid,
    validate_bisimplicial_identities,
)
from kancheck.doublegroupoid import _DoubleNerveBuild, diagonal_stages, double_nerve_indexed
from kancheck.errors import RejectedInput, TruncationError
from kancheck.presets import preset_double_groupoid, z2_commuting
from kancheck.serialize import simplicial_to_dict
from kancheck.simplicial import TruncatedSimplicialSet

# square and asymmetric bounds: rows and columns are built to different bounds
BOUNDS = [(3, 3), (1, 3), (3, 1)]
# a zero bound leaves only row 0 or only column 0
ZERO_BOUNDS = [(0, 2), (2, 0), (0, 0)]


@pytest.fixture(scope="module")
def s3_D(s3_pair):
    return group_pair_double_groupoid(s3_pair.group, s3_pair.A, s3_pair.B)


class TestGroupPairDoubleGroupoid:
    def test_trivial_pair(self, s3_pair):
        D = group_pair_double_groupoid(s3_pair.group, (0,), (0,))
        assert D.n_squares == 1

    def test_s3_preset_has_three_squares(self, s3_D):
        assert s3_D.n_squares == 3

    def test_missing_mixed_square(self, s3_D):
        # no square has the generator of A on top and the generator of B on
        # the right, because their product is not of the form b'a'
        a = s3_D.horizontal.arrow_labels.index("(1,2)")
        b = s3_D.vertical.arrow_labels.index("(1,3)")
        for bottom in range(s3_D.horizontal.n_arrows):
            for left in range(s3_D.vertical.n_arrows):
                assert not s3_D.has_square(Square(a, b, bottom, left))

    def test_identity_squares(self, s3_D):
        a = s3_D.horizontal.arrow_labels.index("(1,2)")
        e_v = s3_D.vertical.identity(0)
        e_h = s3_D.horizontal.identity(0)
        assert s3_D.squares[s3_D.v_identity[a]] == Square(a, e_v, a, e_v)
        b = s3_D.vertical.arrow_labels.index("(1,3)")
        assert s3_D.squares[s3_D.h_identity[b]] == Square(e_h, b, e_h, b)

    def test_interchange_validated_on_construction(self, s3_pair):
        # construction re-runs the exhaustive interchange audit
        group_pair_double_groupoid(s3_pair.group, s3_pair.A, s3_pair.B)
        data = z2_commuting()
        D = group_pair_double_groupoid(data.group, data.A, data.B)
        assert D.n_squares == 8

    def test_non_subgroup_rejected(self, s3_pair):
        with pytest.raises(RejectedInput):
            group_pair_double_groupoid(
                s3_pair.group, (s3_pair.group.index("(1,2,3)"),), s3_pair.B
            )

    def test_corrupt_square_set_rejected(self, s3_D):
        with pytest.raises(RejectedInput):
            DoubleGroupoid(s3_D.horizontal, s3_D.vertical, s3_D.squares[:-1])

    # the message of a missing square is formatted only on a miss; these are
    # the messages it has always had
    @pytest.mark.parametrize("drop, message", [
        (0, "vertical identity square of horizontal arrow 0"),
        (2, "horizontal identity square of vertical arrow 1"),
        (1, "vertical composite of Square(top=0, right=1, bottom=0, left=1) and "
            "Square(top=0, right=1, bottom=1, left=0)"),
        (4, "horizontal composite of Square(top=0, right=0, bottom=1, left=1) and "
            "Square(top=1, right=0, bottom=1, left=0)"),
    ])
    def test_missing_square_named(self, drop, message):
        data = z2_commuting()
        D = group_pair_double_groupoid(data.group, data.A, data.B)
        squares = D.squares[:drop] + D.squares[drop + 1:]
        with pytest.raises(RejectedInput) as err:
            DoubleGroupoid(D.horizontal, D.vertical, squares)
        assert str(err.value) == f"{message} is missing from the square set"
        with pytest.raises(RejectedInput) as err:
            D.square_id(Square(1, 1, 1, 0))
        assert str(err.value) == (
            "square Square(top=1, right=1, bottom=1, left=0) is missing from the square set"
        )


class TestDoubleNerve:
    def test_trivial_is_point(self):
        NN = double_nerve(trivial_double_groupoid(), 2, 2)
        assert all(NN.size(p, q) == 1 for p in range(3) for q in range(3))

    def test_square_level_count(self, s3_D):
        NN = double_nerve(s3_D, 2, 2)
        assert NN.size(1, 1) == 3
        assert NN.size(2, 2) == 7

    @pytest.mark.parametrize("P, Q", BOUNDS)
    def test_lawful(self, s3_D, P, Q):
        assert validate_bisimplicial_identities(double_nerve(s3_D, P, Q)).ok

    @pytest.mark.parametrize("P, Q", BOUNDS)
    def test_zero_column_is_nerve_of_vertical_group(self, s3_pair, s3_D, P, Q):
        B_group = subgroup_group(s3_pair.group, s3_pair.B)
        expected = nerve(one_object_groupoid(B_group), Q)
        got = column(double_nerve(s3_D, P, Q), 0)
        assert simplicial_to_dict(got) == simplicial_to_dict(expected)

    @pytest.mark.parametrize("P, Q", BOUNDS)
    def test_zero_row_is_nerve_of_horizontal_group(self, s3_pair, s3_D, P, Q):
        A_group = subgroup_group(s3_pair.group, s3_pair.A)
        expected = nerve(one_object_groupoid(A_group), P)
        got = row(double_nerve(s3_D, P, Q), 0)
        assert simplicial_to_dict(got) == simplicial_to_dict(expected)

    def test_degenerate_levels_are_strings(self, s3_D):
        NN, keys = double_nerve_indexed(s3_D, 2, 2)
        assert NN.size(0, 0) == 1
        assert NN.size(1, 0) == s3_D.horizontal.n_arrows
        assert NN.size(0, 1) == s3_D.vertical.n_arrows
        assert keys[2][0] == tuple(
            (g, h)
            for g in range(2)
            for h in range(2)
        )

    def test_z2_pair_nerve_lawful(self):
        NN = double_nerve(preset_double_groupoid("z2-commuting"), 2, 2)
        assert validate_bisimplicial_identities(NN).ok


def _filtered_product_keys(D, P, Q):
    """Every (p,q) key list of the double nerve, enumerated as the filtered
    product of all candidate strings, chains and columns: the oracle for the
    indexed enumeration."""
    def strings(C, n):
        if n == 0:
            return tuple(range(len(C.objects)))
        out = [(g,) for g in range(C.n_arrows)]
        for _ in range(n - 1):
            out = [
                s + (g,) for s in out for g in range(C.n_arrows)
                if C.arrow_target[g] == C.arrow_source[s[-1]]
            ]
        return tuple(out)

    def matrices(p, q):
        columns = [(s,) for s in range(D.n_squares)]
        for _ in range(q - 1):
            columns = [
                c + (s,) for c in columns for s in range(D.n_squares)
                if D.squares[c[-1]].bottom == D.squares[s].top
            ]
        mats = [(c,) for c in columns]
        for _ in range(p - 1):
            mats = [
                m + (c,) for m in mats for c in columns
                if all(D.squares[m[-1][j]].right == D.squares[c[j]].left for j in range(q))
            ]
        return tuple(mats)

    return tuple(
        tuple(
            strings(D.vertical, q) if p == 0 else strings(D.horizontal, p) if q == 0
            else matrices(p, q)
            for q in range(Q + 1)
        )
        for p in range(P + 1)
    )


def _s4_pair_double_groupoid():
    G = group_from_permutations(4, [[2, 1, 3, 4], [2, 3, 4, 1]])
    A = tuple(G.index(s) for s in ("id", "(2,3)"))
    B = tuple(G.index(s) for s in (
        "id", "(3,4)", "(1,2)", "(1,2)(3,4)", "(1,3)(2,4)", "(1,3,2,4)", "(1,4,2,3)", "(1,4)(2,3)",
    ))
    assert subgroup_products_distinct(G, A, B)
    return group_pair_double_groupoid(G, A, B)


def _nested_key_double_nerve(D, P, Q):
    """The rows and columns of the double nerve built on the nested keys of
    ``_filtered_product_keys`` with the face and degeneracy formulas of the
    nested-key build: the oracle for the build on flat column ids."""
    sq = D.squares
    keys = _filtered_product_keys(D, P, Q)

    def label(p, q, key):
        if p == 0:
            return "|".join(D.vertical.arrow_labels[b] for b in key)
        if q == 0:
            return "|".join(D.horizontal.arrow_labels[a] for a in key)
        return ";".join("|".join(D.square_label(s) for s in c) for c in key)

    def v_line(mat, i):
        """Vertical arrows along the i-th vertical line, top row first."""
        if i == 0:
            return tuple(sq[s].left for s in mat[0])
        return tuple(sq[s].right for s in mat[i - 1])

    def h_level(mat, j):
        """Horizontal arrows along the j-th horizontal level, left column first."""
        if j == 0:
            return tuple(sq[c[0]].top for c in mat)
        return tuple(sq[c[j - 1]].bottom for c in mat)

    def h_face_key(p, mat, i):
        if p == 1:
            return v_line(mat, 1 if i == 0 else 0)
        if i == 0:
            return mat[1:]
        if i == p:
            return mat[:-1]
        merged = tuple(D.h_compose(a, b) for a, b in zip(mat[i - 1], mat[i]))
        return mat[: i - 1] + (merged,) + mat[i + 1:]

    def v_face_key(q, mat, j):
        if q == 1:
            return h_level(mat, 0 if j == 1 else 1)
        if j == 0:
            return tuple(c[1:] for c in mat)
        if j == q:
            return tuple(c[:-1] for c in mat)
        return tuple(c[: j - 1] + (D.v_compose(c[j - 1], c[j]),) + c[j + 1:] for c in mat)

    def h_degen_key(p, key, i):
        """Insert an identity column; at p = 0 the key is a vertical string."""
        id_col = tuple(D.h_identity[b] for b in (key if p == 0 else v_line(key, i)))
        return (id_col,) if p == 0 else key[:i] + (id_col,) + key[i:]

    def v_degen_key(q, key, j):
        """Insert an identity row; at q = 0 the key is a horizontal string."""
        if q == 0:
            return tuple((D.v_identity[a],) for a in key)
        id_row = (D.v_identity[a] for a in h_level(key, j))
        return tuple(c[:j] + (s,) + c[j:] for s, c in zip(id_row, key))

    def line(levels, face_key, degen_key, level_labels):
        index = [{key: k for k, key in enumerate(level)} for level in levels]
        bound = len(levels) - 1
        faces = [[]] + [
            [[index[n - 1][face_key(n, key, i)] for key in levels[n]] for i in range(n + 1)]
            for n in range(1, bound + 1)
        ]
        degens = [
            [[index[n + 1][degen_key(n, key, i)] for key in levels[n]] for i in range(n + 1)]
            for n in range(bound)
        ] + [[]]
        return TruncatedSimplicialSet([len(level) for level in levels], faces, degens, level_labels)

    rows = [nerve(D.horizontal, P)] + [
        line(
            [keys[p][q] for p in range(P + 1)], h_face_key, h_degen_key,
            [[label(p, q, key) for key in keys[p][q]] for p in range(P + 1)],
        )
        for q in range(1, Q + 1)
    ]
    columns = [nerve(D.vertical, Q)] + [
        line(keys[p], v_face_key, v_degen_key,
             [[label(p, q, key) for key in keys[p][q]] for q in range(Q + 1)])
        for p in range(1, P + 1)
    ]
    return rows, columns, keys


def _codiscrete_double_groupoid():
    """Every square over the codiscrete groupoid on two objects, both ways:
    the one double groupoid here with more than one object."""
    arrows = [(t, s) for t in range(2) for s in range(2)]  # s -> t
    ids = {a: k for k, a in enumerate(arrows)}
    C = FiniteGroupoid(
        ["x", "y"], [s for _, s in arrows], [t for t, _ in arrows],
        {(ids[t, m], ids[m, s]): ids[t, s] for t, m in arrows for s in range(2)},
        [ids[o, o] for o in range(2)], [f"{s}>{t}" for t, s in arrows],
    )
    src, tgt = C.arrow_source, C.arrow_target
    return DoubleGroupoid(C, C, [
        Square(top, right, bottom, left)
        for top, right, bottom, left in itertools.product(range(len(arrows)), repeat=4)
        if src[top] == tgt[right] and tgt[top] == tgt[left]
        and src[bottom] == src[right] and tgt[bottom] == src[left]
    ])


# the (3,3) cases keep the ids they had before the asymmetric bounds were added;
# z2-commuting (A = B = G) has every square whose boundary commutes
DOUBLE_NERVE_CASES = [
    pytest.param(which, P, Q, id=which if (P, Q) == (3, 3) else f"{which}-{P}-{Q}")
    for which in ("s3-preset", "s4-pair", "z2-commuting")
    for P, Q in BOUNDS + ZERO_BOUNDS
]


def _case_double_groupoid(which, s3_D):
    return {
        "s3-preset": lambda: s3_D,
        "s4-pair": _s4_pair_double_groupoid,
        "z2-commuting": lambda: preset_double_groupoid("z2-commuting"),
        "codiscrete": _codiscrete_double_groupoid,
    }[which]()


@pytest.mark.parametrize("which, P, Q", DOUBLE_NERVE_CASES)
def test_double_nerve_keys_match_filtered_product(which, P, Q, s3_D):
    D = _case_double_groupoid(which, s3_D)
    _, keys = double_nerve_indexed(D, P, Q)
    assert keys == _filtered_product_keys(D, P, Q)
    assert len(keys[P][Q]) > 0


@pytest.mark.parametrize("which, P, Q", DOUBLE_NERVE_CASES + [
    pytest.param("codiscrete", P, Q, id=f"codiscrete-{P}-{Q}") for P, Q in [(2, 2)] + ZERO_BOUNDS
])
def test_double_nerve_matches_nested_key_oracle(which, P, Q, s3_D):
    D = _case_double_groupoid(which, s3_D)
    NN, keys = double_nerve_indexed(D, P, Q)
    rows, columns, oracle_keys = _nested_key_double_nerve(D, P, Q)
    assert keys == oracle_keys
    assert NN.bounds == (P, Q)
    # the records hold every table and every label
    assert [simplicial_to_dict(r) for r in NN.rows] == [simplicial_to_dict(r) for r in rows]
    assert [simplicial_to_dict(c) for c in NN.columns] == [simplicial_to_dict(c) for c in columns]


def _table_digest(X):
    """The sha256 of a line's counts and every face and degeneracy table."""
    text = json.dumps([X.counts, X._faces, X._degens], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# the digest of every row and column of two double nerves, and of a nerve:
# a change to how the tables are gathered must leave every id where it is
TABLE_DIGESTS = {
    "s4-pair-4-4": {
        "rows": [
            "07759699da5f99ceac93614357760dd281b5ada55fa7287a685581ef36e31a66",
            "6f7db5349c96173cc3e3da7c8c813021b68a2cfbce4c1a5ad60d3dcb069c4051",
            "a88a16d670a2e822b668a59ef712354f1419852880660c549e603dc671977355",
            "b8e632a56e6a1c7b7dfd9da9aaaac5f4ae770fe6bad9822428d5ab4a7f412038",
            "ce108dba18d7cc750b87161601ed6c828cadfaa243616866fcb74c4d15269398",
        ],
        "columns": [
            "b44834b1addf81ac40503ce6ff90e119b8700edf6c1800194ed4ceb9bb87bfa5",
            "ff21372ca111a0ed9444b9826701520d51333a3c57b6f745b79da02161ecd013",
            "8d69174abe96d65f0ebfabcb3ce27642ecfe6dc3c1603683b9810ca9307f3185",
            "009cbc68ae205725717ae065a33262f9b651e39a9923a5c3b82071c833903348",
            "1ace455a38d94f4dbbc8a636e1ae3c92e4ab90b5a836ed11be3c14b9a0ab356f",
        ],
    },
    "s3-counterexample-3-3": {
        "rows": [
            "169b97476d1d83b3cd1e326391271e206de2a70d4a9f5da3dd4bf5e3b70791a2",
            "b5c3820a9c64c55c7c1212e5ccd2b1700b5216dd85abf354bb3969a6aab95b85",
            "b39ab3fae3eef48794690207385ead9d662f2583cecec5a9915819e6348aca32",
            "b8a4b0f243ecd1f59f92406dd3c0a632bc242aa73f301294475bf87fbe8464c7",
        ],
        "columns": [
            "169b97476d1d83b3cd1e326391271e206de2a70d4a9f5da3dd4bf5e3b70791a2",
            "16fd1ea4a37e0170271649b3c47d6bcddc24f87bc14761fa146a5fc58d60b43c",
            "9c4bd0db528a03057c03ef517aad31b335354f19f61aeff8d19eadd88d64b9f8",
            "e63dbcfe9319309d7ae63d7c450964515eaa769c9ababf2c55631bc7fe62d4d3",
        ],
    },
}


@pytest.mark.parametrize("name, build", [
    ("s4-pair-4-4", lambda: double_nerve(_s4_pair_double_groupoid(), 4, 4)),
    ("s3-counterexample-3-3",
     lambda: double_nerve(preset_double_groupoid("s3-counterexample"), 3, 3)),
])
def test_double_nerve_tables_are_pinned(name, build):
    NN = build()
    assert [_table_digest(r) for r in NN.rows] == TABLE_DIGESTS[name]["rows"]
    assert [_table_digest(c) for c in NN.columns] == TABLE_DIGESTS[name]["columns"]


def test_nerve_tables_are_pinned():
    N = nerve(one_object_groupoid(symmetric_group_preset(3)), 4)
    assert _table_digest(N) == "50faa7abd0778063b285d82a6b4f1d9127a4fefab2aa5ce535954840bdd2b827"


# each stage of the build is a double nerve of its own bounds: square and
# asymmetric bounds, and zero bounds, on every double groupoid above
STAGED_CASES = [
    pytest.param(which, P, Q, id=f"{which}-{P}-{Q}")
    for which in ("s3-preset", "s4-pair", "z2-commuting", "trivial")
    for P, Q in [(3, 3), (1, 3), (3, 1), (2, 0), (0, 2)]
]


@pytest.mark.parametrize("which, P, Q", STAGED_CASES)
def test_every_stage_is_the_double_nerve_of_its_bounds(which, P, Q, s3_D):
    D = trivial_double_groupoid() if which == "trivial" else _case_double_groupoid(which, s3_D)
    build = _DoubleNerveBuild(D, P, Q)
    for n in range(max(P, Q) + 1):
        if n:
            build.advance()
        bounds = (min(n, P), min(n, Q))
        NN, keys = double_nerve_indexed(D, *bounds)
        staged = build.nerve()
        assert staged.bounds == bounds and build.keys() == keys
        # the records hold every table and every label
        assert [simplicial_to_dict(r) for r in staged.rows] == [
            simplicial_to_dict(r) for r in NN.rows
        ]
        assert [simplicial_to_dict(c) for c in staged.columns] == [
            simplicial_to_dict(c) for c in NN.columns
        ]
        rows, columns, oracle_keys = _nested_key_double_nerve(D, *bounds)
        assert keys == oracle_keys
        assert [simplicial_to_dict(r) for r in staged.rows] == [
            simplicial_to_dict(r) for r in rows
        ]
        assert [simplicial_to_dict(c) for c in staged.columns] == [
            simplicial_to_dict(c) for c in columns
        ]


@pytest.mark.parametrize("which", ["s3-preset", "s4-pair", "z2-commuting"])
def test_diagonal_stages_are_the_diagonals_of_the_stages(which, s3_D):
    D = _case_double_groupoid(which, s3_D)
    stages = diagonal_stages(D, 3)
    for n in range(4):
        built = diagonal(double_nerve(D, n, n))
        assert simplicial_to_dict(stages.stage(n)) == simplicial_to_dict(built)
    # a stage is built once, and read again as it was
    assert stages.stage(2) is stages.stage(2)
    with pytest.raises(TruncationError):
        stages.stage(4)
