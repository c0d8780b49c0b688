"""Index sequences, seed construction, braid moves and the G2 certification.

A sequence of diagram nodes i = (i_1, i_2, ...) determines a compatible pair
(Lambda, B) on any window [1, s]: B couples consecutive occurrences of equal
or adjacent letters, and Lambda pairs the partial Weyl-group products against
fundamental weights.  Braid moves act on sequences by local letter swaps and
on seeds by short mutation sequences followed by a relabelling.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby, product
from typing import NamedTuple

import numpy as np

from .cartan import CartanDatum, WeylWalk, build_cartan, is_reduced
from .seeds import (
    CompatiblePair,
    SeedError,
    _adopt_pair,
    _amax,
    mutate_arrays,
    mutate_pair,
    permute_pair,
    transpositions,
)


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class IndexSequence:
    """A window of diagram-node letters, optionally extended periodically.

    With ``periodic`` set, the first ``len(letters)`` entries must form a
    reduced word for the longest element and the sequence continues by
    i_k = (i_{k-l})* for k > l.
    """

    datum: CartanDatum
    letters: tuple[int, ...]
    periodic: bool = False

    def __post_init__(self) -> None:
        for a in self.letters:
            if not 1 <= a <= self.datum.rank:
                raise BraidError(f"letter {a} out of range")
        longest = len(self.letters) == self.datum.longest_length
        if self.periodic and not (longest and is_reduced(self.datum, self.letters)):
            raise BraidError("periodic sequences need a reduced longest word")

    def letter(self, k: int) -> int:
        if k < 1:
            raise BraidError("positions are 1-based")
        n = len(self.letters)
        if k <= n:
            return self.letters[k - 1]
        if not self.periodic:
            raise BraidError(f"position {k} beyond a window of {n} letters")
        # unfold i_k = (i_{k-l})^* as many periods back as needed; * is an involution
        periods, r = divmod(k - 1, n)
        base = self.letters[r]
        return self.datum.star_of(base) if periods % 2 else base

    def prefix(self, s: int) -> tuple[int, ...]:
        if s <= len(self.letters):
            return self.letters[: max(s, 0)]
        # from a list: tuple() of a generator grows by resizing, and in hot
        # loops those resizes leave the small-object heap fragmented
        return tuple([self.letter(k) for k in range(1, s + 1)])

    def uminus(self, k: int) -> int:
        """Previous position < k with the same letter, or 0."""
        a = self.letter(k)
        for v in range(k - 1, 0, -1):
            if self.letter(v) == a:
                return v
        return 0


def alternating(datum: CartanDatum) -> IndexSequence:
    """The alternating rank-2 sequence (1, 2, 1, 2, ...) as a periodic word."""
    if datum.rank != 2:
        raise BraidError("the alternating preset needs rank 2")
    ell = datum.longest_length
    return IndexSequence(datum, tuple(1 if k % 2 == 0 else 2 for k in range(ell)), periodic=True)


# ----------------------------------------------------------------------
# seed construction


@lru_cache(maxsize=None)
def _pairing_arrays(datum: CartanDatum) -> tuple[np.ndarray, np.ndarray]:
    """-C^T and the symmetrizer as read-only int64 arrays, made once per datum."""
    neg_ct, sym = -np.array(datum.cartan, dtype=np.int64).T, np.array(datum.symmetrizer, dtype=np.int64)
    neg_ct.setflags(write=False)
    sym.setflags(write=False)
    return neg_ct, sym


def _windows(
    datum: CartanDatum, words: list[tuple[int, ...]], t: int | None = None
) -> tuple[np.ndarray, list[frozenset[int]]]:
    """(Lambda, B) on the window [1, s] of each of M words of one length s,
    as one (M, 2, s, s) array, and each word's exchangeable positions.

    A window reads its letters alone: u is exchangeable iff u^+ <= s; each B
    entry of an exchangeable column v sits at a row <= v^+ <= s; and Lambda
    walks the letters 1..s.  The words are walked in sorted order, each from
    where it leaves the previous one, so a prefix they share is walked once.
    With a position t, a word whose walk reaches t copies its x rows past t
    from an earlier word with the same letters past t and the same walk
    state after t letters: the state and the letters decide those rows, so a
    braid move's target, equal to its source past the block ending at t,
    walks only the block.  Raises BraidError if a Lambda entry could reach
    2**53, where its float64 product would no longer be exact.
    """
    size, s = len(words), len(words[0])
    n, off = datum.rank, datum.coupling

    # x_u = pi_i - w_u pi_i in simple-root coordinates, for i = i_u and
    # w_u = s_{i_1} ... s_{i_u}: the walk's y_i right after letter u, packed
    # into one int.  last[t] holds, per letter j + 1, its last position (0 if
    # none) in the first t letters of the current word, so after t letters
    # the walk's y_j is the x row at last[t][j], or zero; hist holds the
    # word's x rows, one packed int per position
    walk = WeylWalk(datum)
    step, last, hist, prev = walk.step, [[0] * n], [], ()
    xs = [0] * (size * s)  # the packed x rows of all words, in their order
    # (letters past t, walk state after t letters) -> where in xs the x rows
    # past t of the first word with them start
    suffixes: dict[tuple, int] = {}
    # B entries of all words, at flat indices into the (M, 2, s, s) array
    at, val = [], []
    put, give = at.append, val.append
    exchangeable = [frozenset()] * size
    for m in sorted(range(size), key=words.__getitem__):
        w = words[m]
        p = 0  # the prefix shared with the previous word is walked already
        for a, c in zip(w, prev):
            if a != c:
                break
            p += 1
        del last[p + 1 :], hist[p:]
        walk.y = [hist[q - 1] if q else 0 for q in last[p]]
        rest = w[p:]  # the letters still to walk
        if t is not None and p <= t < s:
            hist += map(step, w[p:t])
            rest = w[t:]
            own = m * s + t
            start = suffixes.setdefault((rest, tuple(walk.y)), own)
            if start != own:
                hist += xs[start : start + s - t]
                rest = ()
        hist += map(step, rest)
        for u in range(p, s):
            row = last[u][:]
            row[w[u] - 1] = u + 1
            last.append(row)
        xs[m * s : (m + 1) * s] = hist
        prev = w

        # u^+ in the window; s + 1 when there is none
        nxt = [s + 1] * (s + 1)
        seen: dict[int, int] = {}
        for k, a in zip(range(s, 0, -1), reversed(w)):
            nxt[k] = seen.get(a, s + 1)
            seen[a] = k
        ex = []
        base = (2 * m + 1) * s * s - s - 1  # entry (u, v) of this B is at base + u s + v
        for v in range(1, s + 1):
            vp = nxt[v]
            if vp > s:
                continue  # frozen column stays zero
            ex.append(v)
            col, before, inside = base + v, last[v - 1], last[vp - 1]
            jv = w[v - 1] - 1
            put(col + vp * s)
            give(-1)
            u = before[jv]
            if u:
                put(col + u * s)
                give(1)
            for j, cu in off[jv]:
                # u < v < u+ < v+ forces u to be the last j before v
                u = before[j]
                if u and nxt[u] < vp:
                    put(col + u * s)
                    give(cu)
                # v < u < v+ < u+ forces u to be the last j before v+
                u = inside[j]
                if u > v:
                    put(col + u * s)
                    give(-cu)
        exchangeable[m] = frozenset(ex)

    # pi_i + w_u pi_i = 2 pi_i - x_u has the pi-coordinates 2 e_i - C x_u
    neg_ct, sym = _pairing_arrays(datum)
    x = walk.decode(xs).reshape(size, s, n)
    plus = x @ neg_ct
    hot = np.fromiter(chain.from_iterable(words), np.intp, size * s)  # i_u
    hot += np.arange(-1, size * s * n - 1, n)  # and its entry in the row of u
    plus.reshape(-1)[hot] += 2
    # each partial sum of the grid (x d) plus^T is an integer of size at most
    # n max|x| max|d| max|plus|; below 2**53 float64 holds it exactly, in any
    # summation order, and x d holds in int64
    if n * _amax(x) * _amax(sym) * _amax(plus) >= 2**53:
        raise BraidError("a Lambda entry would reach 2**53")
    x *= sym
    grid = (x.astype(np.float64) @ plus.astype(np.float64).transpose(0, 2, 1)).astype(np.int64)
    rows = np.arange(s)
    grid *= rows[:, None] < rows  # keep u < v
    out = np.zeros((size, 2, s, s), dtype=np.int64)
    np.subtract(grid, grid.transpose(0, 2, 1), out=out[:, 0])
    out.reshape(-1)[np.fromiter(at, np.intp, len(at))] = val
    return out, exchangeable


def build_seed(seq: IndexSequence, s: int) -> CompatiblePair:
    """The compatible pair (Lambda^{i,s}, B^{i,s}) on the window [1, s]."""
    if s < 1:
        raise BraidError(f"window {s} is below 1")
    letters = seq.prefix(s)
    windows, ex = _windows(seq.datum, [letters])
    sym = seq.datum.symmetrizer
    return _adopt_pair(windows[0, 0], windows[0, 1], ex[0], tuple([sym[a - 1] for a in letters]))


# ----------------------------------------------------------------------
# braid moves


# The move of two distinct letters a, b at position k, keyed by the c-product
# c_ab c_ba: its kind, its span of alternating letters a, b, a, ..., the
# mutations at k + offset and the transpositions (k + t, k + t + 1) of sigma.
MoveRecipe = namedtuple("MoveRecipe", "kind span mutations swaps")
MOVES = {
    0: MoveRecipe("two", 2, (), (0,)),
    1: MoveRecipe("three", 3, (0,), (1,)),
    2: MoveRecipe("four", 4, (0, 1, 0), (0, 2)),
    3: MoveRecipe("six", 6, (0, 1, 2, 0, 3, 1, 0, 2, 3, 0), (0, 2, 4)),
}
MOVE_SPAN = {recipe.kind: recipe.span for recipe in MOVES.values()}


@dataclass(frozen=True)
class BraidMove:
    """A local move: its kind, position, mutation list and relabelling."""

    kind: str
    k: int
    mutations: tuple[int, ...]
    perm: tuple[tuple[int, int], ...]  # disjoint transpositions (k, k+1)

    @property
    def span(self) -> int:
        return MOVE_SPAN[self.kind]

    def perm_map(self) -> dict[int, int]:
        return transpositions(*(k for k, _ in self.perm))


def detect_move(seq: IndexSequence, k: int) -> BraidMove:
    """The braid move available at position k, from its row of MOVES."""
    a, b = seq.letter(k), seq.letter(k + 1)
    if a == b:
        raise BraidError(f"no move at {k}: repeated letter")
    p = seq.datum.c(a, b) * seq.datum.c(b, a)
    if p not in MOVES:
        raise BraidError(f"no move at {k}: c-product {p}")  # pragma: no cover
    kind, span, mutations, swaps = MOVES[p]
    if [seq.letter(k + t) for t in range(span)] != [(a, b)[t % 2] for t in range(span)]:
        raise BraidError(f"no {span}-move at {k}")
    return BraidMove(kind, k, tuple(k + m for m in mutations), tuple((k + t, k + t + 1) for t in swaps))


def swap_block(letters: tuple[int, ...], kind: str, k: int) -> tuple[int, ...]:
    """A move's target word: the letters with the block k..k + span - 1
    (1-based) swapped, and every letter outside the block kept."""
    span = MOVE_SPAN[kind]
    if not 1 <= k <= len(letters) - span + 1:
        raise BraidError(f"a {kind}-move at {k} does not fit in {len(letters)} letters")
    out = list(letters)
    a, b = out[k - 1], out[k]
    out[k - 1 : k + span - 1] = [b if t % 2 == 0 else a for t in range(span)]
    return tuple(out)


def unfold(seq: IndexSequence, n: int) -> IndexSequence:
    """The first n letters as an explicit, non-periodic sequence."""
    return IndexSequence(seq.datum, seq.prefix(n), periodic=False)


def min_window(move: BraidMove, seq: IndexSequence) -> int:
    """The least window that holds the move's block: its last letter k + span - 1.

    A certificate restricts to every window that holds the block: a mutation
    at k reads column k of B, at rows <= k^+; each recipe offset is at most
    span - 3, so every mutated position recurs in the block; and sigma swaps
    positions in the block, keeping its last two frozen or exchangeable.
    """
    return move.k + move.span - 1


def move_witness(seq: IndexSequence, move: BraidMove, s: int) -> tuple | None:
    """None when the move's mutations and relabelling carry the window [1, s]
    of seq to the window of the swapped sequence, else the first differing
    entry (matrix, u, v, got, want), Lambda before B, each row-major.

    Any window from min_window up holds the block and may be certified; a
    smaller one raises BraidError, and a mutation at a position frozen in the
    window raises SeedError.  Both windows read only their own letters, so a
    periodic sequence and any unfolding of it to s or more letters give the
    same verdict.
    """
    if s < min_window(move, seq):
        raise BraidError(f"window {s} too small; need at least {min_window(move, seq)}")
    return _stack_verdicts(seq.datum, [seq.prefix(s)], move)[0]


def verify_move_on_seed(seq: IndexSequence, move: BraidMove, s: int) -> bool:
    """Whether the move certifies on the window [1, s]; see move_witness."""
    return move_witness(seq, move, s) is None


def forward_shift_seed(seq: IndexSequence, s: int) -> tuple[CompatiblePair, dict[int, int], int]:
    """The forward shift of the window [1, s], as (pair, sigma_+, s - 1).

    Mutates at every occurrence of the first letter but the last, relabels by
    sigma_+ and drops position s; the result is the seed of letters 2..s on
    [1, s - 1].  sigma_+ reads the window's letters: an occurrence of the
    first letter goes to the position before the next one, the last
    occurrence to s, and any other u to u - 1.
    """
    if s < 2:
        raise BraidError(f"window {s} is below 2; a shift needs two letters")
    head = seq.letter(1)
    xs = [u for u, a in enumerate(seq.prefix(s), start=1) if a == head]
    pair = build_seed(seq, s)
    for x in xs[:-1]:
        pair = mutate_pair(pair, x)
    sigma = {k: k - 1 for k in range(1, s + 1)}
    sigma.update(zip(xs, [x - 1 for x in xs[1:]] + [s]))
    pair = permute_pair(pair, sigma)
    lam, b = pair.lam[: s - 1, : s - 1].copy(), pair.b[: s - 1, : s - 1].copy()
    if len(xs) > 1:  # the next-to-last occurrence lands at the last one - 1, frozen in letters 2..s
        b[:, xs[-1] - 2] = 0
    return _adopt_pair(lam, b, pair.exchangeable - {s, xs[-1] - 1}, pair.diag[:-1]), sigma, s - 1


# ----------------------------------------------------------------------
# exhaustive G2 certification


class CertWitness(NamedTuple):
    """A configuration that fails, and the first differing entry (u, v) of its
    relabelled window against the target window, in ``matrix`` "lam" or "b"."""

    family: str
    letters: tuple[int, ...]
    k: int
    matrix: str
    u: int
    v: int
    got: int
    want: int


@dataclass(frozen=True)
class CertReport:
    total: int
    mismatches: int
    elapsed_ms: int
    families: dict[str, int]
    witnesses: tuple[CertWitness, ...] = ()  # the first few mismatches

    def to_json(self) -> str:
        doc = {**self.__dict__, "witnesses": [w._asdict() for w in self.witnesses]}
        return json.dumps(doc, sort_keys=True)


def _g2_rep_words() -> list[tuple[int, ...]]:
    """One alternating reduced word per Weyl-group element of G2."""
    words: list[tuple[int, ...]] = [()]
    for length in range(1, 6):
        for start in (1, 2):
            words.append(tuple(start if t % 2 == 0 else 3 - start for t in range(length)))
    words.append(tuple(1 if t % 2 == 0 else 2 for t in range(6)))
    return words


_CORES = ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))
_MAX_WITNESSES = 5
# Matrix entries in one (N, s, s) stack: enough to amortise numpy's call
# overhead, few enough that each int64 stack array stays near 64 KB.
_STACK_ENTRIES = 2**13


def g2_sequences():
    """Yield (family, letters, k) for the exhaustive 6-move certification.

    A configuration is a head, the alternating core at k = len(head) + 1 and a
    tail w3 d.  Heads take three shapes, w1 a w2 b c | w1 a c{1,2} | w1 a a{0,1},
    and the deliberate overlap between the families is kept.  Each (window, k),
    that is each pair of head and tail lengths, is one contiguous run, and in
    it equal heads are adjacent.  The two cores of one head and tail are
    adjacent too: the target window of each is the source window of the other.
    """
    reps, ab = _g2_rep_words(), (1, 2)
    heads = [("i", w1 + (a,) + w2 + bc) for w1, a, w2, bc in product(reps, ab, reps, product(ab, repeat=2))]
    heads += [("ii", w1 + (a,) + (c,) * r) for w1, a, c, r in product(reps, ab, ab, (1, 2))]
    heads += [("iii", w1 + (a,) * r) for w1, a, r in product(reps, ab, (1, 2))]
    heads.sort(key=lambda item: (len(item[1]), item[1]))
    tails = sorted((w3 + (d,) for w3 in reps for d in ab), key=len)
    for _, same_head in groupby(heads, key=lambda item: len(item[1])):
        same_head = list(same_head)
        for _, same_tail in groupby(tails, key=len):
            for (fam, head), tail, core in product(same_head, same_tail, _CORES):
                yield fam, head + core + tail, len(head) + 1


def _stack_verdicts(datum: CartanDatum, words: list[tuple[int, ...]], move: BraidMove) -> list[tuple | None]:
    """Certify the move on distinct windows of one length.

    For each word, None when the mutations of the move and its relabelling
    carry the word's window (Lambda and B) to the window of the swapped word,
    else the first differing entry as (matrix, u, v, got, want).  Raises
    SeedError, as mutate_pair does, when a mutation position is frozen in a
    source window.
    """
    targets = [swap_block(w, move.kind, move.k) for w in words]
    # each window is built once; in a full G2 run every target is also a source
    index = {w: n for n, w in enumerate(dict.fromkeys(words + targets))}
    lo, hi = move.k - 1, move.k + move.span - 1  # the block, 0-based and half-open
    # a target equals its source past the block, so its walk there is shared
    windows, exchangeable = _windows(datum, list(index), hi)
    for ex in exchangeable[: len(words)]:
        for m in move.mutations:
            if m not in ex:
                raise SeedError(f"position {m} is frozen or out of range")
    lam, b = windows[: len(words), 0], windows[: len(words), 1]  # index starts with the words
    if not move.mutations:  # the relabel below writes in place
        lam, b = lam.copy(), b.copy()
    for m in move.mutations:
        lam, b = mutate_arrays(lam, b, m)
    want = windows[[index[w] for w in targets]]
    del windows  # each stack is dropped once the next is built, to keep the peak low
    # sigma swaps positions inside the block; entries move with their rows and
    # columns, and every entry outside the block's rows and columns stays put
    idx = np.arange(lo, hi)
    for u, v in move.perm_map().items():
        idx[v - 1 - lo] = u - 1
    for a in (lam, b):
        a[:, lo:hi] = a[:, idx]
        a[:, :, lo:hi] = a[:, :, idx]
    verdicts: list[tuple | None] = [None] * len(words)
    for m, (got, wanted) in enumerate(((lam, want[:, 0]), (b, want[:, 1]))):
        for n in np.flatnonzero((got != wanted).any(axis=(1, 2))):
            if verdicts[n] is None:  # Lambda's first differing entry before B's
                u, v = np.argwhere(got[n] != wanted[n])[0]
                verdicts[n] = (("lam", "b")[m], int(u) + 1, int(v) + 1, int(got[n, u, v]), int(wanted[n, u, v]))
    return verdicts


def _g2_stacks():
    """Cut g2_sequences into stacks (k, {letters: families}) of one (window, k).

    A stack ends where the (window, k) changes, or where the head changes once
    it holds _STACK_ENTRIES matrix entries.  The copies of a configuration
    share their head, so each distinct configuration lands in one stack.
    """
    stack, prev = {}, None
    for fam, letters, k in g2_sequences():
        at = (len(letters), k, letters[: k - 1])
        if stack and (at[:2] != prev[:2] or (at != prev and len(stack) * at[0] ** 2 >= _STACK_ENTRIES)):
            yield prev[1], stack
            stack = {}
        stack.setdefault(letters, []).append(fam)
        prev = at
    if stack:
        yield prev[1], stack


def _certify_stack(item: tuple[int, dict[tuple[int, ...], list[str]]]) -> tuple[Counter, int, list[CertWitness]]:
    """Family counts, mismatches counted with multiplicity and witnesses of a stack."""
    k, families = item
    words = list(families)
    datum = build_cartan("G", 2)
    move = detect_move(IndexSequence(datum, words[0]), k)
    bad, witnesses = 0, []
    for w, verdict in zip(words, _stack_verdicts(datum, words, move)):
        if verdict:
            bad += len(families[w])
            witnesses += [CertWitness(fam, w, k, *verdict) for fam in dict.fromkeys(families[w])]
    return Counter(fam for fams in families.values() for fam in fams), bad, witnesses[:_MAX_WITNESSES]


def g2_exhaustive_certify(jobs: int | None = None) -> CertReport:
    """Run the full 6-move certification over all 62,208 local sequences, on
    ``jobs`` processes (default 8), at most one per CPU."""
    start = time.monotonic()
    if jobs is not None and jobs < 1:
        raise BraidError(f"jobs must be at least 1, not {jobs}")
    jobs = min(8 if jobs is None else jobs, os.cpu_count() or 1)
    counts: Counter[str] = Counter()
    mismatches, witnesses = 0, []
    # results are folded as they come; with jobs <= 1 the stacks are cut as
    # they come too, so no more than one stack is held at a time
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        if pool:
            stacks = list(_g2_stacks())
            # four tasks per process: a task per stack pays a round trip each
            results = pool.map(_certify_stack, stacks, chunksize=-(-len(stacks) // (4 * jobs)))
        else:
            results = map(_certify_stack, _g2_stacks())
        for c, bad, w in results:
            counts.update(c)
            mismatches += bad
            witnesses += w[: _MAX_WITNESSES - len(witnesses)]
    elapsed = int(1000 * (time.monotonic() - start))
    return CertReport(sum(counts.values()), mismatches, elapsed, dict(counts), tuple(witnesses))
