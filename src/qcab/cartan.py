"""Finite-type Cartan data, root systems, reduced words and the Weyl-group walk.

All node labels and word positions are 1-based, matching the usual tables.
Roots, the beta sequence of a word and the vectors of ``WeylWalk`` are exact
integer vectors in the simple-root basis; fractions appear only while the
minimal symmetrizer is found.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

FAMILIES = "ABCDEFG"

# Coxeter number h = 2|Phi^+|/n is computed from the root system, never tabled.


class CartanError(ValueError):
    """Raised for unsupported families/ranks or malformed Cartan input."""


@dataclass(frozen=True)
class CartanDatum:
    """Cartan matrix, minimal symmetrizer and derived root-system data."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]  # c[i-1][j-1] = <h_i, alpha_j>
    symmetrizer: tuple[int, ...]  # minimal positive d_i with d_i c_ij = d_j c_ji
    coxeter_number: int
    distance: tuple[tuple[int, ...], ...]  # edge distance d(i,j) in the diagram
    # coupling[i-1]: the pairs (k-1, c_ki) with k != i and c_ki != 0
    coupling: tuple[tuple[tuple[int, int], ...], ...]
    star: tuple[int, ...]  # Dynkin involution, star[i-1] = i*
    positive_roots: tuple[tuple[int, ...], ...]  # alpha-basis coordinates
    w0_word: tuple[int, ...]

    # -- basic tables -------------------------------------------------

    def c(self, i: int, j: int) -> int:
        return self.cartan[i - 1][j - 1]

    def d(self, i: int) -> int:
        return self.symmetrizer[i - 1]

    def dist(self, i: int, j: int) -> int:
        return self.distance[i - 1][j - 1]

    def star_of(self, i: int) -> int:
        return self.star[i - 1]

    @property
    def longest_length(self) -> int:
        return len(self.positive_roots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CartanDatum({self.family}{self.rank})"

    def __hash__(self) -> int:
        # The type determines every field; the generated hash would walk all roots on each cache lookup.
        return hash((self.family, self.rank))

    def _check_node(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise CartanError(f"node {i} out of range for {self.family}{self.rank}")


# ----------------------------------------------------------------------
# construction


def _base_cartan(family: str, rank: int) -> list[list[int]]:
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(a: int, b: int, cab: int = -1, cba: int = -1) -> None:
        c[a - 1][b - 1] = cab
        c[b - 1][a - 1] = cba

    if family == "A" and n >= 1:
        for i in range(1, n):
            link(i, i + 1)
    elif family == "B" and n >= 2:
        for i in range(1, n - 1):
            link(i, i + 1)
        link(n - 1, n, -1, -2)  # node n is the short one
    elif family == "C" and n >= 2:
        for i in range(1, n - 1):
            link(i, i + 1)
        link(n - 1, n, -2, -1)  # node n is the long one
    elif family == "D" and n >= 4:
        for i in range(1, n - 2):
            link(i, i + 1)
        link(n - 2, n - 1)
        link(n - 2, n)
    elif family == "E" and n in (6, 7, 8):
        link(1, 3)
        link(2, 4)
        for i in range(3, n):
            link(i, i + 1)
    elif family == "F" and n == 4:
        link(1, 2)
        link(2, 3, -1, -2)  # nodes 1,2 long; 3,4 short
        link(3, 4)
    elif family == "G" and n == 2:
        # Node 1 short, node 2 long; the only labelling consistent with the
        # reference data this library certifies against.
        link(1, 2, -3, -1)
    else:
        raise CartanError(f"unsupported type {family}{rank}")
    return c


def _minimal_symmetrizer(c: list[list[int]]) -> list[int]:
    # Spread ratios d_i c_ij = d_j c_ji along the (connected) diagram.
    n = len(c)
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and c[i][j] != 0:
                ratio = Fraction(c[i][j], c[j][i])
                dj = d[i] * ratio
                if d[j] == 0:
                    d[j] = dj
                    todo.append(j)
                elif d[j] != dj:
                    raise CartanError("matrix is not symmetrizable")
    den = math.lcm(*(x.denominator for x in d))
    vals = [int(x * den) for x in d]
    g = math.gcd(*vals)
    return [v // g for v in vals]


def _distance_table(c: list[list[int]]) -> list[list[int]]:
    n = len(c)
    big = n + 10
    dist = [[0 if i == j else (1 if c[i][j] != 0 else big) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def _positive_roots(c: list[list[int]]) -> list[tuple[int, ...]]:
    """Reflection closure of the simple roots, in simple-root coordinates."""
    n = len(c)
    simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    seen: set[tuple[int, ...]] = set(simple)
    todo = list(simple)
    while todo:
        x = todo.pop()
        for i in range(n):
            # s_i in alpha-coordinates: x_i -> x_i - sum_j c_ij x_j
            pairing = sum(c[i][j] * x[j] for j in range(n))
            y = list(x)
            y[i] -= pairing
            ty = tuple(y)
            if ty not in seen:
                seen.add(ty)
                todo.append(ty)
    return sorted(r for r in seen if all(a >= 0 for a in r))


@lru_cache(maxsize=None)
def build_cartan(family: str, rank: int) -> CartanDatum:
    """Build the Cartan datum of a finite type such as ``("B", 2)``."""
    family = family.upper()
    if family not in FAMILIES:
        raise CartanError(f"unknown family {family!r}")
    c = _base_cartan(family, rank)
    d = _minimal_symmetrizer(c)
    pos = _positive_roots(c)
    n = rank
    if 2 * len(pos) % n != 0:
        raise CartanError("inconsistent root count")
    h = 2 * len(pos) // n

    datum = CartanDatum(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in c),
        symmetrizer=tuple(d),
        coxeter_number=h,
        distance=tuple(tuple(row) for row in _distance_table(c)),
        coupling=tuple(tuple((k, c[k][i]) for k in range(n) if k != i and c[k][i]) for i in range(n)),
        star=(0,) * rank,  # placeholder, replaced below
        positive_roots=tuple(pos),
        w0_word=(),
    )
    w0, walk = _ascending_word(datum)
    star = tuple(walk.root(i).index(-1) + 1 for i in range(1, n + 1))  # w0(alpha_i) = -alpha_{i*}
    object.__setattr__(datum, "star", star)
    object.__setattr__(datum, "w0_word", w0)
    return datum


def parse_type(code: str) -> CartanDatum:
    """Parse a string code like ``"B2"`` or ``"F4"``."""
    code = code.strip()
    if len(code) < 2 or code[0].upper() not in FAMILIES or not code[1:].isdecimal():
        raise CartanError(f"bad type code {code!r}")
    return build_cartan(code[0].upper(), int(code[1:]))


# ----------------------------------------------------------------------
# the Weyl-group walk


class WeylWalk:
    """w = s_{i_1} ... s_{i_u} of a word read letter by letter, held as the
    integer vectors y_j = pi_j - w pi_j (j = 1..n) in simple-root coordinates.

    Appending s_i changes only y_i, by the root w(alpha_i) = alpha_i -
    sum_k c_ki y_k; l(w s_i) > l(w) exactly when that root is positive
    (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).
    """

    __slots__ = ("y", "_coupling")

    def __init__(self, datum: CartanDatum) -> None:
        self.y = [[0] * datum.rank for _ in range(datum.rank)]
        self._coupling = datum.coupling

    def _next(self, i: int) -> list[int]:
        """y_i of w s_i: e_i - y_i - sum_{k != i} c_ki y_k."""
        y = self.y
        out = [-a for a in y[i - 1]]
        out[i - 1] += 1
        for k, cki in self._coupling[i - 1]:
            out = [a - cki * b for a, b in zip(out, y[k])]
        return out

    def root(self, i: int) -> list[int]:
        """w(alpha_i) in simple-root coordinates."""
        return [a - b for a, b in zip(self._next(i), self.y[i - 1])]

    def step(self, i: int) -> list[int]:
        """Append s_i to w and return the new y_i = pi_i - w s_i pi_i."""
        self.y[i - 1] = self._next(i)
        return self.y[i - 1]


def beta_sequence(datum: CartanDatum, word: tuple[int, ...] | list[int]) -> list[tuple[int, ...]]:
    """beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) in simple-root
    coordinates; requires a reduced word."""
    word = tuple(word)
    walk, betas = WeylWalk(datum), []
    for k, i in enumerate(word, 1):
        datum._check_node(i)
        yi = walk.y[i - 1]
        b = tuple(a - c for a, c in zip(walk.step(i), yi))
        if any(a < 0 for a in b):
            raise CartanError(f"word {word} is not reduced (position {k})")
        betas.append(b)
    return betas


def is_reduced(datum: CartanDatum, word: tuple[int, ...] | list[int]) -> bool:
    try:
        beta_sequence(datum, word)
    except CartanError:
        return False
    return True


def _ascending_word(datum: CartanDatum, xi: dict[int, int] | None = None) -> tuple[tuple[int, ...], WeylWalk]:
    """A reduced word for w0 and its walk: append the first candidate letter
    i with w(alpha_i) > 0 until there is none.  The candidates are the nodes
    1..n or, with heights ``xi``, the sources of the successively reflected
    quiver by larger height, then smaller node; a letter lowers its height by 2.
    """
    walk, word = WeylWalk(datum), []
    nodes = range(1, datum.rank + 1)
    for _ in range(datum.longest_length):  # no reduced word is longer
        candidates = nodes
        if xi is not None:
            sources = (i for i in nodes if all(xi[i] > xi[k + 1] for k, _ in datum.coupling[i - 1]))
            candidates = sorted(sources, key=lambda i: (-xi[i], i))
        i = next((i for i in candidates if any(a > 0 for a in walk.root(i))), 0)
        if not i:
            break
        walk.step(i)
        word.append(i)
        if xi is not None:
            xi[i] -= 2
    return tuple(word), walk


def longest_word(
    datum: CartanDatum, adapted_to: dict[int, int] | None = None
) -> tuple[int, ...]:
    """A reduced word for w0; adapted to a height function when one is given.

    With ``adapted_to`` = {node: height}, each emitted letter is a source of
    the successively reflected quiver (largest height, ties to the smaller
    node index).
    """
    if adapted_to is None:
        return datum.w0_word
    validate_height_function(datum, adapted_to)
    return _ascending_word(datum, dict(adapted_to))[0]


def validate_height_function(datum: CartanDatum, xi: dict[int, int]) -> None:
    eps = parity_function(datum)
    for i in xi:
        if i not in eps:
            raise CartanError(f"height function names node {i!r} outside 1..{datum.rank}")
    for i in range(1, datum.rank + 1):
        if i not in xi:
            raise CartanError(f"height function misses node {i}")
        if (xi[i] - eps[i]) % 2 != 0:
            raise CartanError(f"height parity mismatch at node {i}")
        for j in range(1, i):
            if datum.c(j, i) < 0 and abs(xi[j] - xi[i]) != 1:
                raise CartanError(f"heights at adjacent nodes {j},{i} must differ by 1")


@lru_cache(maxsize=None)
def parity_function(datum: CartanDatum) -> Mapping[int, int]:
    """The fixed parity eps_i = d(i, 1) mod 2 used for (i, p) index sets, built
    once per datum; callers share the read-only mapping."""
    return MappingProxyType({i: datum.dist(i, 1) % 2 for i in range(1, datum.rank + 1)})
