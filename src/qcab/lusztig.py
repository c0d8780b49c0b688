"""Piecewise-linear transition maps on PBW parameter vectors.

Parameters c index the positions of a reduced word for the longest element.
The degree formula g = sum c_u (e_u - e_{u^-}) links them to degree vectors,
and the braid-move transition maps are given in closed form for 2-, 3- and
4-moves; 6-moves (and a universal fallback) go through degree conjugation.
"""

from __future__ import annotations

from .braid import BraidError, BraidMove, IndexSequence, apply_move_to_sequence
from .cartan import CartanError, beta_sequence, bilinear
from .gvectors import GVector, gmap_apply

CParam = tuple[int, ...]


class LusztigError(ValueError):
    pass


def deg_of_c(c: CParam, word: IndexSequence) -> GVector:
    """g = sum_u c_u (e_u - e_{u^-}), with e_0 understood as zero."""
    if any(x < 0 for x in c):
        raise LusztigError("parameters must be non-negative")
    g: GVector = {}
    for u, cu in enumerate(c, start=1):
        if cu == 0:
            continue
        g[u] = g.get(u, 0) + cu
        um = word.uminus(u)
        if um >= 1:
            g[um] = g.get(um, 0) - cu
    return {u: v for u, v in g.items() if v}


def c_of_deg(g: GVector, word: IndexSequence) -> CParam:
    """Inverse of deg_of_c: c_u is the same-letter tail sum of g from u."""
    ell = len(word.letters)
    c = [0] * ell
    for u in range(1, ell + 1):
        a = word.letter(u)
        c[u - 1] = sum(g.get(v, 0) for v in range(u, ell + 1) if word.letter(v) == a)
        if c[u - 1] < 0:
            raise LusztigError("degree vector lies outside the parameter cone")
    if deg_of_c(tuple(c), word) != {u: v for u, v in g.items() if v}:
        raise LusztigError("degree vector lies outside the parameter cone")
    return tuple(c)


def nu(c: CParam, word: IndexSequence) -> int:
    """The exact integer -(1/2) sum c_k c_l (beta_k, beta_l) + sum c_s^2."""
    datum = word.datum
    betas = beta_sequence(datum, word.letters[: len(c)])
    double = 0
    for k, ck in enumerate(c):
        if not ck:
            continue
        for l, cl in enumerate(c):
            if cl:
                double += ck * cl * bilinear(datum, betas[k], betas[l])
    if double % 2:
        raise CartanError("odd pairing sum")  # pragma: no cover - form is even
    return -(double // 2) + sum(x * x for x in c)


# ----------------------------------------------------------------------
# transition maps


_B2_ROOT_ORDER = ("a1", "a11", "a12", "a2")  # alpha1, alpha1+alpha2, alpha1+2alpha2, alpha2


def _local_b2_roots(long_first: bool) -> tuple[str, ...]:
    """Root labels carried by the four positions of a local 4-move word.

    A doubled-edge block starting with the long letter carries the roots in
    the reference order; starting with the short letter reverses the list.
    """
    if long_first:
        return _B2_ROOT_ORDER
    return tuple(reversed(_B2_ROOT_ORDER))


def cmap_apply(move: BraidMove, word_src: IndexSequence, c_src: CParam) -> CParam:
    """Transport a parameter vector along the move from word_src to its target."""
    word_src = IndexSequence(word_src.datum, word_src.letters, periodic=False)
    if len(c_src) != len(word_src.letters):
        raise LusztigError("parameter length must match the word")
    if any(x < 0 for x in c_src):
        raise LusztigError("parameters must be non-negative")
    k = move.k
    c = list(c_src)
    if move.kind == "two":
        c[k - 1], c[k] = c[k], c[k - 1]
        return tuple(c)
    if move.kind == "three":
        x, y, z = c_src[k - 1 : k + 2]
        m = min(x, z)
        c[k - 1 : k + 2] = (y + z - m, m, x + y - m)
        return tuple(c)
    if move.kind == "four":
        datum = word_src.datum
        a, b = word_src.letter(k), word_src.letter(k + 1)
        long_first = datum.d(a) > datum.d(b)
        src_roots = _local_b2_roots(long_first)
        tgt_roots = tuple(reversed(src_roots))
        val = dict(zip(src_roots, c_src[k - 1 : k + 3]))
        pi1 = min(
            val["a1"] + val["a11"], val["a1"] + val["a2"], val["a12"] + val["a2"]
        )
        pi2 = min(
            2 * val["a1"] + val["a11"], 2 * val["a1"] + val["a2"], 2 * val["a12"] + val["a2"]
        )
        out = {
            "a2": val["a11"] + 2 * val["a12"] + val["a2"] - pi2,
            "a12": pi2 - pi1,
            "a11": 2 * pi1 - pi2,
            "a1": val["a1"] + val["a11"] + val["a12"] - pi1,
        }
        c[k - 1 : k + 3] = [out[r] for r in tgt_roots]
        return tuple(c)
    if move.kind == "six":
        return cmap_by_degrees(move, word_src, c_src)
    raise BraidError(f"unsupported move kind {move.kind!r}")


def cmap_by_degrees(move: BraidMove, word_src: IndexSequence, c_src: CParam) -> CParam:
    """The conjugation c -> c_of_deg(gmap(deg_of_c(c))), valid for every kind."""
    g_src = deg_of_c(c_src, word_src)
    g_tgt = gmap_apply(move, word_src, g_src)
    target = apply_move_to_sequence(word_src, move)
    return c_of_deg(g_tgt, target)
