"""Closed-form degree transformations under braid moves, cones and p-sums.

Degree vectors are finitely supported integer vectors over window positions,
handled as sparse dicts so the e_0 = 0 convention (absent neighbours) falls
out naturally.  A map takes the degree of an element w.r.t. the source
sequence to its degree w.r.t. the swapped target sequence; the Cartan letters
(i, j) entering the case tables are those of the target.  A move swaps one
block, so the maps read what they need of the target off the source word.
"""

from __future__ import annotations

from .braid import BraidError, BraidMove, IndexSequence

GVector = dict[int, int]


def _plus(x: int) -> int:
    return x if x > 0 else 0


def _get(g: GVector, u: int) -> int:
    return g.get(u, 0) if u >= 1 else 0


def _set(g: GVector, u: int, val: int) -> None:
    if u < 1:
        return  # e_0 = 0: coordinates at absent neighbours are discarded
    if val:
        g[u] = val
    else:
        g.pop(u, None)


def _check_positions(g: GVector, seq: IndexSequence) -> None:
    """Raise BraidError unless every position of g lies in seq (from 1 on)."""
    top = float("inf") if seq.periodic else len(seq.letters)
    for u in g:
        if not 1 <= u <= top:
            raise BraidError(f"degree position {u} is not a position of the sequence")


def _target_frame(move: BraidMove, seq_src: IndexSequence) -> tuple[int, int, int, int]:
    """(i, j, k^-, (k+1)^-) of the target word, read off the source.

    The block k..k + span - 1 is swapped and every other letter is kept, so
    i = i_{k+1} and j = i_k, and as i_k is not i, the target's k^- and
    (k+1)^- are the source's (k+1)^- and k^-.
    """
    k, n = move.k, len(seq_src.letters)
    if not seq_src.periodic and k + move.span - 1 > n:
        raise BraidError(f"a {move.kind}-move at {k} does not fit in {n} letters")
    j, i = seq_src.letter(k), seq_src.letter(k + 1)
    return i, j, seq_src.uminus(k + 1), seq_src.uminus(k)


def gmap_apply(move: BraidMove, seq_src: IndexSequence, g_src: GVector) -> GVector:
    """Transport a degree vector along the move from seq_src to its target."""
    _check_positions(g_src, seq_src)
    k = move.k
    i, j, km, k1m = _target_frame(move, seq_src)
    datum = seq_src.datum
    cji, cij = datum.c(j, i), datum.c(i, j)
    g = dict(g_src)
    if move.kind == "two":
        gk, gk1 = _get(g_src, k), _get(g_src, k + 1)
        _set(g, k, gk1)
        _set(g, k + 1, gk)
        return g
    if move.kind == "three":
        gk = _get(g_src, k)
        for u in (k, k + 1, k + 2, km, k1m):
            if u >= 1:
                g.pop(u, None)
        _set(g, k, -gk)
        sigma = {k + 1: k + 2, k + 2: k + 1}
        for u in (k + 2, k1m):
            _set(g, u, _get(g_src, sigma.get(u, u)) + _plus(gk))
        for u in (k + 1, km):
            _set(g, u, _get(g_src, sigma.get(u, u)) - _plus(-gk))
        return g
    if move.kind == "four":
        g0, g1, g2, g3 = (_get(g_src, k + t) for t in range(4))
        a_aux = g0 + cji * _plus(-g1)
        b_aux = -g1 + cij * _plus(-a_aux)
        for u in (k, k + 1, k + 2, k + 3, km, k1m):
            if u >= 1:
                g.pop(u, None)
        _set(g, k + 3, g2 - cji * _plus(g1) + _plus(a_aux))
        _set(g, k + 2, g3 - _plus(-g1) + _plus(b_aux))
        _set(g, k + 1, -a_aux + cji * _plus(-b_aux))
        _set(g, k, -b_aux)
        _set(g, km, _get(g_src, km) + _plus(g1) - _plus(-b_aux))
        _set(g, k1m, _get(g_src, k1m) + _plus(a_aux) - cji * _plus(b_aux))
        return g
    if move.kind == "six":
        g0, g1, g2, g3, g4, g5 = (_get(g_src, k + t) for t in range(6))
        a = g2 - cji * _plus(g1)
        b = g3 - _plus(-g1)
        c = -g1 - cij * _plus(a) - _plus(-b)
        d = g0 + cji * _plus(-g1) - 2 * _plus(-a) + cji * _plus(-c)
        e = -a - cji * _plus(c) + _plus(d)
        f = -c + cij * _plus(-d)
        gg = -b - _plus(-c) + cij * _plus(-e) + _plus(f)
        h = -d + _plus(e) + cji * _plus(-f)
        ii = -f + _plus(gg) + cij * _plus(-h)
        for u in (k, k + 1, k + 2, k + 3, k + 4, k + 5, km, k1m):
            if u >= 1:
                g.pop(u, None)
        _set(g, km, _get(g_src, km) + _plus(g1) + _plus(b) - _plus(-gg) - _plus(-ii))
        _set(g, k1m, _get(g_src, k1m) + _plus(d) - cji * _plus(f) + 2 * _plus(h) - cji * _plus(ii))
        _set(g, k, -ii)
        _set(g, k + 1, -h + cji * _plus(-ii))
        _set(g, k + 2, -gg + _plus(ii))
        _set(g, k + 3, -e + cji * _plus(-gg) + _plus(h))
        _set(g, k + 4, g5 - _plus(-b) + _plus(gg))
        _set(g, k + 5, g4 - _plus(-a) - cji * _plus(b) + _plus(e))
        return g
    raise BraidError(f"unknown move kind {move.kind!r}")  # pragma: no cover


def gmap_shift(seq: IndexSequence, g_shifted: GVector) -> GVector:
    """Transport a degree vector on the forward shift of seq (its letters
    from the second on) back to seq.

    Position u of the shift is u + 1 of seq, and position 1 absorbs minus
    the p-sum of the first letter of seq.
    """
    _check_positions(g_shifted, seq)
    head = seq.letter(1)
    g: GVector = {}
    _set(g, 1, -sum(v for u, v in g_shifted.items() if seq.letter(u + 1) == head))
    for u, v in g_shifted.items():
        _set(g, u + 1, v)
    return g


# ----------------------------------------------------------------------
# cones and p-sums


def tail_sums(g: GVector, letters: tuple[int, ...]) -> list[int]:
    """Entry u - 1 is the sum of g over the positions v >= u in 1..len(letters)
    that carry the letter of u, in one backward pass."""
    out, acc = [0] * len(letters), {}
    for u in range(len(letters), 0, -1):
        a = letters[u - 1]
        out[u - 1] = acc[a] = acc.get(a, 0) + g.get(u, 0)
    return out


def cone_contains(g: GVector, seq: IndexSequence) -> bool:
    """Whether every same-letter tail partial sum of g is non-negative.

    A tail sum changes only at a position of the support, so the support is
    walked downwards with one running sum per letter.
    """
    _check_positions(g, seq)
    acc: dict[int, int] = {}
    for u in sorted(g, reverse=True):
        a = seq.letter(u)
        acc[a] = acc.get(a, 0) + g[u]
        if acc[a] < 0:
            return False
    return True


def cone_generator(seq: IndexSequence, u: int) -> GVector:
    g: GVector = {u: 1}
    um = seq.uminus(u)
    if um >= 1:
        g[um] = -1
    return g


def p_sum(g: GVector, seq: IndexSequence, node: int) -> int:
    return sum(v for u, v in g.items() if seq.letter(u) == node)


def psum_delta(move: BraidMove, seq_src: IndexSequence, g_src: GVector) -> dict[int, int]:
    """p_i(target g) - p_i(source g'), from the case tables, per diagram node.

    Only configurations covered by a closed-form table are accepted; others
    raise, since the general boundary behaviour has no stated table.
    """
    _check_positions(g_src, seq_src)
    datum = seq_src.datum
    deltas = {node: 0 for node in range(1, datum.rank + 1)}
    if move.kind == "two":
        return deltas
    k = move.k
    i, j, km, k1m = _target_frame(move, seq_src)
    gk, gk1 = _get(g_src, k), _get(g_src, k + 1)
    if move.kind == "three":
        if km == 0:
            deltas[i] += _plus(-gk)
        if k1m == 0:
            deltas[j] -= _plus(gk)
        return deltas
    if move.kind == "four":
        # tail-sum identities of the boundary cases; the row-wise
        # simplifications in the source table carry a sign slip in one row,
        # so the unsimplified forms are used (and oracle-tested)
        cji, cij = datum.c(j, i), datum.c(i, j)
        a_aux = gk + cji * _plus(-gk1)
        b_aux = -gk1 + cij * _plus(-a_aux)
        if k1m == 0:
            deltas[j] += -gk - cji * _plus(gk1) + _plus(-a_aux) + cji * _plus(-b_aux)
        if km == 0:
            deltas[i] += -_plus(gk1) + _plus(-b_aux)
        return deltas
    if move.kind == "six":
        if km >= 1 and k1m >= 1:
            return deltas
        if all(_get(g_src, k + t) == 0 for t in range(4)):
            return deltas
        raise BraidError("no closed-form p-sum table for this 6-move boundary case")
    raise BraidError(f"unknown move kind {move.kind!r}")  # pragma: no cover
