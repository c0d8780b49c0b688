"""Piecewise-linear transition maps on PBW parameter vectors.

Parameters c index the positions of a reduced word for the longest element.
The degree formula g = sum c_u (e_u - e_{u^-}) links them to degree vectors,
and the braid-move transition maps are given in closed form for 2-, 3- and
4-moves; 6-moves (and a universal fallback) go through degree conjugation.
"""

from __future__ import annotations

from .braid import BraidError, BraidMove, IndexSequence, swap_block
from .cartan import CartanError, beta_sequence
from .gvectors import GVector, gmap_apply, tail_sums

CParam = tuple[int, ...]


class LusztigError(ValueError):
    pass


def deg_of_c(c: CParam, word: IndexSequence) -> GVector:
    """g = sum_u c_u (e_u - e_{u^-}), with e_0 understood as zero."""
    if any(x < 0 for x in c):
        raise LusztigError("parameters must be non-negative")
    # one forward pass up to the last nonzero entry, which must lie in the word
    top = max((u for u, cu in enumerate(c, start=1) if cu), default=0)
    g = [0] * (top + 1)  # g[0] collects the e_0 terms
    last: dict[int, int] = {}  # letter -> its last position so far
    for u, (a, cu) in enumerate(zip(word.prefix(top), c), start=1):
        g[u] += cu
        g[last.get(a, 0)] -= cu
        last[a] = u
    return {u: v for u, v in enumerate(g) if u and v}


def c_of_deg(g: GVector, word: IndexSequence) -> CParam:
    """Inverse of deg_of_c: c_u is the same-letter tail sum of g from u."""
    ell = len(word.letters)
    c = tail_sums(g, word.letters)
    if any(x < 0 for x in c) or any(v and not 1 <= u <= ell for u, v in g.items()):
        raise LusztigError("degree vector lies outside the parameter cone")
    return tuple(c)


def nu(c: CParam, word: IndexSequence) -> int:
    """The exact integer -(1/2) sum c_k c_l (beta_k, beta_l) + sum c_s^2.

    The double sum is (gamma, gamma) for gamma = sum c_k beta_k, with the form
    (x, y) = sum_i d_i x_i (C y)_i on simple-root coordinates, C[i][j] = <h_i, alpha_j>.
    """
    if any(x < 0 for x in c):
        raise LusztigError("parameters must be non-negative")
    if len(c) > len(word.letters):
        raise LusztigError(f"{len(c)} parameters for a word of {len(word.letters)} letters")
    datum = word.datum
    gamma = [0] * datum.rank
    for ck, beta in zip(c, beta_sequence(datum, word.letters[: len(c)])):
        if ck:
            gamma = [g + ck * b for g, b in zip(gamma, beta)]
    double = sum(
        d * g * sum(cij * gj for cij, gj in zip(row, gamma))
        for d, g, row in zip(datum.symmetrizer, gamma, datum.cartan)
    )
    if double % 2:
        raise CartanError("odd pairing sum")  # pragma: no cover - form is even
    return -(double // 2) + sum(x * x for x in c)


# ----------------------------------------------------------------------
# transition maps


_B2_ROOT_ORDER = ("a1", "a11", "a12", "a2")  # alpha1, alpha1+alpha2, alpha1+2alpha2, alpha2


def _check_params(move: BraidMove, word: IndexSequence, c: CParam) -> None:
    """Raise LusztigError unless c holds one non-negative entry per letter of
    the word and the move's block lies in the word."""
    n = len(word.letters)
    if len(c) != n:
        raise LusztigError("parameter length must match the word")
    if any(x < 0 for x in c):
        raise LusztigError("parameters must be non-negative")
    if move.k + move.span - 1 > n:
        raise LusztigError(f"a {move.kind}-move at {move.k} runs past the {n} letters of the word")


def cmap_apply(move: BraidMove, word_src: IndexSequence, c_src: CParam) -> CParam:
    """Transport a parameter vector along the move from word_src to its target."""
    _check_params(move, word_src, c_src)
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
        # the positions of a doubled-edge block carry the roots in the
        # reference order when it starts with the long letter, else reversed
        src_roots = _B2_ROOT_ORDER if datum.d(a) > datum.d(b) else _B2_ROOT_ORDER[::-1]
        tgt_roots = src_roots[::-1]
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
    _check_params(move, word_src, c_src)
    g_tgt = gmap_apply(move, word_src, deg_of_c(c_src, word_src))
    return c_of_deg(g_tgt, IndexSequence(word_src.datum, swap_block(word_src.letters, move.kind, move.k)))
