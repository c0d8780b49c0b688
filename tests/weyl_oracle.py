"""Reference Weyl-group arithmetic, the independent oracle of the tests.

The library walks words with ``cartan.WeylWalk`` in simple-root coordinates
packed into Python ints.  This module checks it the textbook way: a weight is a plain
tuple of its coordinates in the fundamental-weight basis, the simple root
alpha_j is column j of the Cartan matrix C[i][j] = <h_i, alpha_j>, a word acts
by simple reflections, and ``to_alpha`` inverts C exactly over the rationals.
On top sit the closed forms of a sequence's seed: Lambda from the invariant
form and the case table of B.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from qcab.cartan import CartanError


def fundamental_weight(datum, i: int) -> tuple[int, ...]:
    return tuple(int(k == i - 1) for k in range(datum.rank))


def simple_root(datum, j: int) -> tuple[int, ...]:
    return tuple(row[j - 1] for row in datum.cartan)


def weight_from_alpha(datum, coeffs) -> tuple[int, ...]:
    """The weight sum_j coeffs_j alpha_j."""
    return tuple(sum(c * a for c, a in zip(row, coeffs)) for row in datum.cartan)


def reflect(datum, i: int, w) -> tuple[int, ...]:
    """s_i(w) = w - <h_i, w> alpha_i."""
    return tuple(x - w[i - 1] * a for x, a in zip(w, simple_root(datum, i)))


def weyl_act(datum, word, w) -> tuple[int, ...]:
    """Apply s_{i_1} o ... o s_{i_r} to ``w`` (s_{i_1} outermost)."""
    for i in reversed(tuple(word)):
        w = reflect(datum, i, w)
    return tuple(w)


@lru_cache(maxsize=None)
def _inverse(datum) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """C^{-1} by Gauss-Jordan elimination over the rationals, returned as a
    denominator D and the integer rows of D C^{-1}."""
    n = datum.rank
    a = [[Fraction(x) for x in row] for row in datum.cartan]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        inv[col] = [x / f for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return den, tuple(tuple(int(x * den) for x in row) for row in inv)


def to_alpha(datum, w) -> tuple[int, ...]:
    """The simple-root coordinates of ``w``; CartanError off the root lattice."""
    den, rows = _inverse(datum)
    coeffs = [divmod(sum(x * y for x, y in zip(row, w)), den) for row in rows]
    if any(r for _, r in coeffs):
        raise CartanError("weight does not lie in the root lattice")
    return tuple(q for q, _ in coeffs)


def bilinear(datum, x, y) -> int:
    """The invariant form, from (alpha_i, pi_j) = d_i delta_ij; at least one
    argument must lie in the root lattice."""
    try:
        a = to_alpha(datum, x)
    except CartanError:
        a, y = to_alpha(datum, y), x
    return sum(d * ai * yi for d, ai, yi in zip(datum.symmetrizer, a, y))


# ----------------------------------------------------------------------
# closed forms of a sequence's seed


def uplus(seq, k: int, limit: int) -> int:
    """Next position > k with the same letter, or limit + 1."""
    a = seq.letter(k)
    return next((v for v in range(k + 1, limit + 1) if seq.letter(v) == a), limit + 1)


def b_infinite_entry(seq, u: int, v: int, limit: int | None = None) -> int:
    """The exchange-matrix case table b_{u,v} of the unwindowed sequence."""
    if limit is None:
        limit = max(u, v) + len(seq.letters) + 2
    up, vp = uplus(seq, u, limit), uplus(seq, v, limit)
    if v == up:
        return 1
    if v == seq.uminus(u):
        return -1
    iu, iv = seq.letter(u), seq.letter(v)
    if u < v < up < vp:
        return seq.datum.c(iu, iv)
    if v < u < vp < up:
        return -seq.datum.c(iu, iv)
    return 0


def lambda_closed_form(seq, u: int, v: int) -> int:
    """Lambda_{u,v} = (pi_{i_u} - w_u pi_{i_u}, pi_{i_v} + w_v pi_{i_v}) for
    w_t = s_{i_1} ... s_{i_t}, valid whenever u < v^+."""
    datum = seq.datum
    pu, pv = fundamental_weight(datum, seq.letter(u)), fundamental_weight(datum, seq.letter(v))
    left = tuple(a - b for a, b in zip(pu, weyl_act(datum, seq.prefix(u), pu)))
    right = tuple(a + b for a, b in zip(pv, weyl_act(datum, seq.prefix(v), pv)))
    return bilinear(datum, left, right)
