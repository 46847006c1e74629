"""Arrow algebra of the simplex category: ordinal maps, operator words, normal forms.

Conventions used throughout the package:

* An ``OrdinalMap`` is a weakly order-preserving map ``[m] -> [n]`` between the
  finite ordinals ``[n] = {0, ..., n}``.  Cofaces ``delta_i : [n-1] -> [n]``
  skip the value ``i``; codegeneracies ``sigma_i : [n+1] -> [n]`` repeat it.
* A ``SimplicialOperator`` is a word of face/degeneracy actions on simplices,
  stored in application order: ``word[0]`` hits the simplex first.
* Contravariance ties the two together.  A word applied at starting dimension
  ``n`` realises an ordinal map ``[target_dim] -> [n]`` where ``target_dim``
  is the dimension the word ends at; reading the word left to right composes
  the corresponding cofaces/codegeneracies outermost-first.
* ``factorize`` produces the unique epi-mono normal form.  As a word in
  application order that means: all faces first, with strictly decreasing
  indices (the values the ordinal map misses), then all degeneracies, with
  strictly increasing indices (the positions it repeats).  Written as an
  operator composite this is the usual ``s_{j_l} ... s_{j_1} d_{i_1} ... d_{i_k}``
  normal form.  A power such as ``(s_0)^0`` is the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositionError, RejectedInput


@dataclass(frozen=True)
class OrdinalMap:
    """Weakly increasing map {0..source_size} -> {0..target_size}."""

    source_size: int
    target_size: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source_size < 0 or self.target_size < 0:
            raise RejectedInput("ordinal sizes must be nonnegative")
        if len(self.values) != self.source_size + 1:
            raise RejectedInput(
                f"expected {self.source_size + 1} values, got {len(self.values)}"
            )
        for k, v in enumerate(self.values):
            if not 0 <= v <= self.target_size:
                raise RejectedInput(f"value {v} at {k} outside [0, {self.target_size}]")
            if k and v < self.values[k - 1]:
                raise RejectedInput("values must be weakly increasing")

    def __call__(self, k: int) -> int:
        return self.values[k]

    @staticmethod
    def identity(n: int) -> "OrdinalMap":
        return OrdinalMap(n, n, tuple(range(n + 1)))

    @staticmethod
    def coface(i: int, n: int) -> "OrdinalMap":
        """delta_i : [n-1] -> [n], the injection missing i."""
        if n < 1 or not 0 <= i <= n:
            raise RejectedInput(f"coface index {i} invalid at target [{n}]")
        return OrdinalMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))

    @staticmethod
    def codegeneracy(i: int, n: int) -> "OrdinalMap":
        """sigma_i : [n+1] -> [n], the surjection repeating i."""
        if n < 0 or not 0 <= i <= n:
            raise RejectedInput(f"codegeneracy index {i} invalid at target [{n}]")
        return OrdinalMap(n + 1, n, tuple(v - 1 if v > i else v for v in range(n + 2)))


def compose_ordinal(g: OrdinalMap, f: OrdinalMap) -> OrdinalMap:
    """The composite g after f; requires f.target_size == g.source_size."""
    if f.target_size != g.source_size:
        raise CompositionError(
            f"cannot compose [{f.source_size}]->[{f.target_size}] "
            f"with [{g.source_size}]->[{g.target_size}]"
        )
    return OrdinalMap(
        f.source_size, g.target_size, tuple(g.values[v] for v in f.values)
    )


@dataclass(frozen=True)
class Face:
    index: int


@dataclass(frozen=True)
class Degeneracy:
    index: int


Token = Face | Degeneracy


def _walk_dimensions(source_dim: int, word: tuple[Token, ...]) -> tuple[int, ...]:
    """Dimensions visited by a word, starting at source_dim; rejects invalid tokens."""
    dims = [source_dim]
    for pos, token in enumerate(word):
        here = dims[-1]
        if isinstance(token, Face):
            if here < 1 or not 0 <= token.index <= here:
                raise RejectedInput(
                    f"face index {token.index} invalid at dimension {here} (position {pos})"
                )
            dims.append(here - 1)
        elif isinstance(token, Degeneracy):
            if not 0 <= token.index <= here:
                raise RejectedInput(
                    f"degeneracy index {token.index} invalid at dimension {here} (position {pos})"
                )
            dims.append(here + 1)
        else:
            raise RejectedInput(f"unknown token {token!r}")
    return tuple(dims)


@dataclass(frozen=True)
class SimplicialOperator:
    """A dimension-valid word of face/degeneracy actions, in application order."""

    source_dim: int
    word: tuple[Token, ...]

    def __post_init__(self) -> None:
        if self.source_dim < 0:
            raise RejectedInput("source dimension must be nonnegative")
        _walk_dimensions(self.source_dim, self.word)

    @property
    def target_dim(self) -> int:
        return _walk_dimensions(self.source_dim, self.word)[-1]

    def dimension_path(self) -> tuple[int, ...]:
        return _walk_dimensions(self.source_dim, self.word)

    def ordinal(self) -> OrdinalMap:
        """The ordinal map [target_dim] -> [source_dim] the word realises."""
        acc = OrdinalMap.identity(self.source_dim)
        here = self.source_dim
        for token in self.word:
            if isinstance(token, Face):
                acc = compose_ordinal(acc, OrdinalMap.coface(token.index, here))
                here -= 1
            else:
                acc = compose_ordinal(acc, OrdinalMap.codegeneracy(token.index, here))
                here += 1
        return acc

    def canonical(self) -> "SimplicialOperator":
        return factorize(self.ordinal())

    @property
    def is_canonical(self) -> bool:
        return self == self.canonical()


def factorize(alpha: OrdinalMap) -> SimplicialOperator:
    """Epi-mono normal form of an ordinal map, as an operator word.

    The faces come from the values alpha misses (applied largest index first),
    the degeneracies from the positions it repeats (applied smallest first).
    The result is the unique canonical word with ``result.ordinal() == alpha``.
    """
    image = set(alpha.values)
    missed = [i for i in range(alpha.target_size + 1) if i not in image]
    repeated = [
        j for j in range(alpha.source_size) if alpha.values[j] == alpha.values[j + 1]
    ]
    word: list[Token] = [Face(i) for i in sorted(missed, reverse=True)]
    word.extend(Degeneracy(j) for j in sorted(repeated))
    return SimplicialOperator(alpha.target_size, tuple(word))


def _power(token: Token, times: int) -> list[Token]:
    return [token] * times


def check_power_identity(family: int, i: int, j: int, m: int, n: int) -> bool:
    """Check one of the four iterated face/degeneracy power laws at ambient n.

    Both sides are read as operator words on n-simplices and compared as the
    ordinal maps they realise.  The families are:

      1. d_i d_j^m == d_j^m d_{i+m}    for i >= j
      2. d_i^m     == d_i^{m-1} d_j    for i <= j < i+m
      3. d_i s_j^m == s_j^m d_{i-m}    for i > j+m
      4. d_i s_j^m == s_j^{m-1}        for j <= i <= j+m

    Powers are repeated single-index tokens; the right factor applies first.
    Side-condition or dimension violations are rejected, not reported False.
    """
    if m < 1:
        raise RejectedInput("power m must be at least 1")
    if min(i, j, n) < 0:
        raise RejectedInput("indices and ambient dimension must be nonnegative")
    if family == 1:
        if not i >= j:
            raise RejectedInput("family 1 requires i >= j")
        lhs = _power(Face(j), m) + [Face(i)]
        rhs = [Face(i + m)] + _power(Face(j), m)
    elif family == 2:
        if not i <= j < i + m:
            raise RejectedInput("family 2 requires i <= j < i+m")
        lhs = _power(Face(i), m)
        rhs = [Face(j)] + _power(Face(i), m - 1)
    elif family == 3:
        if not i > j + m:
            raise RejectedInput("family 3 requires i > j+m")
        lhs = _power(Degeneracy(j), m) + [Face(i)]
        rhs = [Face(i - m)] + _power(Degeneracy(j), m)
    elif family == 4:
        if not j <= i <= j + m:
            raise RejectedInput("family 4 requires j <= i <= j+m")
        lhs = _power(Degeneracy(j), m) + [Face(i)]
        rhs = _power(Degeneracy(j), m - 1)
    else:
        raise RejectedInput(f"unknown identity family {family}")
    left = SimplicialOperator(n, tuple(lhs))
    right = SimplicialOperator(n, tuple(rhs))
    return left.ordinal() == right.ordinal()


BASIC_IDENTITIES = (
    "face-face",
    "degen-degen",
    "face-degen-under",
    "face-degen-cancel",
    "face-degen-over",
)


def check_basic_identity(name: str, i: int, j: int, n: int) -> bool:
    """Check one of the five single-step simplicial identities at ambient n."""
    if min(i, j, n) < 0:
        raise RejectedInput("indices and ambient dimension must be nonnegative")
    if name == "face-face":
        if not i < j:
            raise RejectedInput("face-face requires i < j")
        lhs: list[Token] = [Face(j), Face(i)]
        rhs: list[Token] = [Face(i), Face(j - 1)]
    elif name == "degen-degen":
        if not i <= j:
            raise RejectedInput("degen-degen requires i <= j")
        lhs = [Degeneracy(j), Degeneracy(i)]
        rhs = [Degeneracy(i), Degeneracy(j + 1)]
    elif name == "face-degen-under":
        if not i < j:
            raise RejectedInput("face-degen-under requires i < j")
        lhs = [Degeneracy(j), Face(i)]
        rhs = [Face(i), Degeneracy(j - 1)]
    elif name == "face-degen-cancel":
        if i not in (j, j + 1):
            raise RejectedInput("face-degen-cancel requires i in {j, j+1}")
        lhs = [Degeneracy(j), Face(i)]
        rhs = []
    elif name == "face-degen-over":
        if not i > j + 1:
            raise RejectedInput("face-degen-over requires i > j+1")
        lhs = [Degeneracy(j), Face(i)]
        rhs = [Face(i - 1), Degeneracy(j)]
    else:
        raise RejectedInput(f"unknown identity {name!r}")
    left = SimplicialOperator(n, tuple(lhs))
    right = SimplicialOperator(n, tuple(rhs))
    return left.ordinal() == right.ordinal()
