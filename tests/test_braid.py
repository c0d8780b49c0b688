import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcab import braid
from qcab.braid import (
    MOVE_SPAN,
    MOVES,
    BraidError,
    IndexSequence,
    _stack_verdicts,
    _windows,
    alternating,
    build_seed,
    detect_move,
    forward_shift_seed,
    g2_exhaustive_certify,
    g2_sequences,
    min_window,
    move_witness,
    swap_block,
    unfold,
    verify_move_on_seed,
)
from qcab.cartan import WeylWalk, build_cartan, longest_word, parse_type
from qcab.cli import main
from qcab.seeds import SeedError, check_compatible, mutate_pair, permute_pair, transpositions

import weyl_oracle
from test_qgroth import ALL_TYPES
from test_seeds import lam_entry
from weyl_oracle import b_infinite_entry, lambda_closed_form, uplus

G2_LAMBDA_8 = np.array(
    [
        [0, -3, -1, -3, 0, 0, 2, 3],
        [3, 0, 0, -3, 0, 0, 3, 6],
        [1, 0, 0, -3, 0, 0, 3, 6],
        [3, 3, 3, 0, 0, 0, 3, 9],
        [0, 0, 0, 0, 0, 0, 2, 6],
        [0, 0, 0, 0, 0, 0, 0, 6],
        [-2, -3, -3, -3, -2, 0, 0, 3],
        [-3, -6, -6, -9, -6, -6, -3, 0],
    ]
)


def test_index_sequence_basics():
    d = build_cartan("B", 2)
    seq = alternating(d)
    assert seq.prefix(6) == (1, 2, 1, 2, 1, 2)
    assert uplus(seq, 1, 10) == 3
    assert seq.uminus(3) == 1
    assert seq.uminus(1) == 0
    with pytest.raises(BraidError):
        IndexSequence(d, (1, 3))
    with pytest.raises(BraidError):
        IndexSequence(d, (1, 2, 1), periodic=True)


def test_periodic_extension_uses_star():
    d = build_cartan("A", 2)
    seq = IndexSequence(d, (1, 2, 1), periodic=True)
    # star swaps the two nodes, so the extension alternates forever
    assert seq.prefix(8) == (1, 2, 1, 2, 1, 2, 1, 2)
    # a prefix reads as its letters, within the word and periods past it
    for code in ("A3", "B2", "E6"):
        d = parse_type(code)
        word = longest_word(d)
        for seq in (IndexSequence(d, word), IndexSequence(d, word, periodic=True)):
            for s in range(-1, 3 * len(word) + 2 if seq.periodic else len(word) + 1):
                assert seq.prefix(s) == tuple(seq.letter(k) for k in range(1, s + 1))
        # i_k = (i_{k - l})^* past the first period
        letters = IndexSequence(d, word, periodic=True).prefix(3 * len(word))
        assert letters[len(word) :] == tuple(d.star_of(a) for a in letters[: 2 * len(word)])
        with pytest.raises(BraidError, match=f"position {len(word) + 1} beyond"):
            IndexSequence(d, word).prefix(len(word) + 1)


def test_b2_window_entries():
    d = build_cartan("B", 2)
    seq = alternating(d)
    pair = build_seed(seq, 4)
    assert pair.frozen == {3, 4}
    # infinite case-table values from the worked example
    assert b_infinite_entry(seq, 2, 1) == 2
    assert b_infinite_entry(seq, 1, 2) == -1
    assert b_infinite_entry(seq, 1, 3) == 1
    assert b_infinite_entry(seq, 3, 1) == -1
    assert check_compatible(pair)


def test_builder_matches_case_table():
    rng = random.Random(11)
    for _ in range(40):
        code = rng.choice(["A3", "B2", "B3", "C3", "G2", "D4", "F4"])
        d = build_cartan(code[0], int(code[1]))
        letters = tuple(rng.randrange(1, d.rank + 1) for _ in range(rng.randrange(6, 16)))
        seq = IndexSequence(d, letters)
        s = len(letters)
        windows, (ex,) = _windows(d, [letters])
        b = windows[0, 1]
        for v in range(1, s + 1):
            for u in range(1, s + 1):
                want = b_infinite_entry(seq, u, v, limit=s) if v in ex else 0
                assert b[u - 1, v - 1] == want


BATCH_TYPES = ("A3", "B3", "C3", "D4", "F4", "G2")


@settings(max_examples=30)
@given(data=st.data())
def test_batched_windows_match_single_windows(data):
    """A word's window in a stack is its window built alone: the walk shared
    along common prefixes and the stacked arrays leak nothing between words."""
    d = parse_type(data.draw(st.sampled_from(BATCH_TYPES)))
    letter = st.integers(1, d.rank)
    s = data.draw(st.integers(1, 20))
    stem = data.draw(st.lists(letter, min_size=s, max_size=s))
    words = [tuple(stem)]
    for _ in range(data.draw(st.integers(0, 8))):  # each keeps a prefix of the stem
        cut = data.draw(st.integers(0, s))
        words.append(tuple(stem[:cut] + data.draw(st.lists(letter, min_size=s - cut, max_size=s - cut))))
    words = data.draw(st.permutations(list(dict.fromkeys(words))))
    windows, exchangeable = _windows(d, words)
    assert windows.shape == (len(words), 2, s, s) and windows.dtype == np.int64
    for m, w in enumerate(words):
        alone, (ex,) = _windows(d, [w])
        assert np.array_equal(windows[m], alone[0]) and exchangeable[m] == ex, (w, words)


@pytest.mark.parametrize("code", BATCH_TYPES)
def test_batched_windows_of_one_letter(code):
    """s = 1: every one-letter window is Lambda = 0 with a frozen B, stacked or alone."""
    d = parse_type(code)
    words = [(a,) for a in range(d.rank, 0, -1)]
    windows, exchangeable = _windows(d, words)
    assert not windows.any() and exchangeable == [frozenset()] * d.rank
    for w in words:
        alone, (ex,) = _windows(d, [w])
        assert alone.shape == (1, 2, 1, 1) and not alone.any() and ex == frozenset()


@contextmanager
def _counted_steps():
    """The letters passed to WeylWalk.step while the context is open."""
    calls, step = [], WeylWalk.step

    def counted(walk, i):
        calls.append(i)
        return step(walk, i)

    with mock.patch.object(WeylWalk, "step", counted):
        yield calls


SHARE_TYPES = ("A3", "B3", "C3", "D4", "E6", "F4", "G2")


@settings(max_examples=40)
@given(data=st.data())
def test_shared_suffix_windows_match_single_windows(data):
    """A move planted in a random word: its source and target, built in one
    stack that shares their rows past the block's end t, are each the window
    built alone, and the target walks only its block.  A third word with the
    same letters past t, whose walk state at t may or may not be the source's,
    is its window alone too."""
    d = parse_type(data.draw(st.sampled_from(SHARE_TYPES)))
    letter = st.integers(1, d.rank)
    a = data.draw(letter)
    b = data.draw(letter.filter(lambda c: c != a))
    kind, span = MOVES[d.c(a, b) * d.c(b, a)][:2]
    head, tail = data.draw(st.lists(letter, max_size=8)), data.draw(st.lists(letter, max_size=12))
    source = tuple(head) + tuple((a, b)[u % 2] for u in range(span)) + tuple(tail)
    k, s = len(head) + 1, len(source)
    t = k + span - 1
    target = swap_block(source, kind, k)
    other = tuple(data.draw(st.lists(letter, min_size=t, max_size=t)) + tail)
    pair = data.draw(st.permutations([source, target]))
    with _counted_steps() as calls:
        windows, exchangeable = _windows(d, pair, t)
    assert len(calls) == s + span
    words = data.draw(st.permutations(list(dict.fromkeys([source, target, other]))))
    stacked = _windows(d, words, t)
    for m, w in enumerate(pair):
        alone, (ex,) = _windows(d, [w])
        assert np.array_equal(windows[m], alone[0]) and exchangeable[m] == ex, (w, pair)
    for m, w in enumerate(words):
        alone, (ex,) = _windows(d, [w])
        assert np.array_equal(stacked[0][m], alone[0]) and stacked[1][m] == ex, (w, words)


def test_shared_suffix_needs_equal_walk_states():
    """Equal letters past t do not share rows when the Weyl elements at t
    differ: 1,2 and 2,1 on A2 walk every letter and are each their window alone."""
    d = build_cartan("A", 2)
    tail = (1, 2, 1, 1, 2, 2)
    words = [(1, 2) + tail, (2, 1) + tail]
    with _counted_steps() as calls:
        windows, exchangeable = _windows(d, words, 2)
    assert len(calls) == 2 * len(words[0])
    for m, w in enumerate(words):
        alone, (ex,) = _windows(d, [w])
        assert np.array_equal(windows[m], alone[0]) and exchangeable[m] == ex


def test_move_target_walks_only_its_block():
    """An E7 two-move at k = 1 on a 134-letter window walks the source's s
    letters and the target's block: the target copies its rows past the block."""
    d = parse_type("E7")
    seq = IndexSequence(d, longest_word(d), periodic=True)
    move, s = detect_move(seq, 1), 2 * d.longest_length + 8
    assert (move.kind, s) == ("two", 134)
    with _counted_steps() as calls:
        assert verify_move_on_seed(seq, move, s)
    assert len(calls) == s + move.span


@pytest.mark.parametrize("code", ["G2", "F4", "E8"])
def test_lambda_grid_is_exact_up_to_its_bound(code):
    """Lambda is a float64 product, exact while n max|x| max|d| max|plus| is
    below 2**53: a symmetrizer scaled by the largest factor below that bound
    scales Lambda exactly, and the next factor raises instead of rounding."""
    d = parse_type(code)
    letters, walk, n = longest_word(d), WeylWalk(d), d.rank
    xs = [list(walk.step(i)) for i in letters]
    plus = [[2 * (j == i - 1) - sum(d.cartan[j][c] * x[c] for c in range(n)) for j in range(n)] for i, x in zip(letters, xs)]
    bound = n * max(map(abs, itertools.chain(*xs))) * max(d.symmetrizer) * max(map(abs, itertools.chain(*plus)))
    f = (2**53 - 1) // bound
    lam = _windows(d, [letters])[0][0, 0]
    scaled = _windows(dataclasses.replace(d, symmetrizer=tuple(f * a for a in d.symmetrizer)), [letters])[0][0, 0]
    assert np.array_equal(scaled, f * lam) and np.abs(scaled).max() > 2**40
    with pytest.raises(BraidError, match=r"would reach 2\*\*53"):
        _windows(dataclasses.replace(d, symmetrizer=tuple((f + 1) * a for a in d.symmetrizer)), [letters])


def test_lambda_grid_matches_closed_form_on_every_type(monkeypatch):
    """On the w0 window of each of the 32 types, every Lambda entry of the
    float64 grid is the closed form (pi - w_u pi, pi + w_v pi)."""
    # the closed form re-applies each prefix per entry; memoized, each is applied once
    monkeypatch.setattr(weyl_oracle, "weyl_act", lru_cache(maxsize=None)(weyl_oracle.weyl_act))
    for code in ALL_TYPES:
        d = parse_type(code)
        seq = IndexSequence(d, longest_word(d))
        s = len(seq.letters)
        lam = build_seed(seq, s).lam
        assert np.array_equal(lam, -lam.T), code
        for u, v in itertools.combinations(range(1, s + 1), 2):
            assert lam[u - 1, v - 1] == lambda_closed_form(seq, u, v), (code, u, v)


def test_lambda_closed_form_extension():
    # the closed form also covers v < u < v^+, beyond the defining triangle;
    # it is the independent reference for the window builder
    for code in ("B2", "G2"):
        d = build_cartan(code[0], 2)
        seq = alternating(d)
        pair = build_seed(seq, 8)
        for v in range(1, 9):
            vp = uplus(seq, v, 12)
            for u in range(v + 1, min(vp, 9)):
                assert lam_entry(pair, u, v) == lambda_closed_form(seq, u, v)
    rng = random.Random(13)
    for code in ("A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        d = build_cartan(code[0], int(code[1]))
        for _ in range(5):
            letters = tuple(rng.randrange(1, d.rank + 1) for _ in range(rng.randrange(10, 28)))
            seq = IndexSequence(d, letters)
            s = len(letters)
            pair = build_seed(seq, s)
            for u in range(1, s + 1):
                for v in range(1, s + 1):
                    if u < uplus(seq, v, s):
                        assert lam_entry(pair, u, v) == lambda_closed_form(seq, u, v), (code, letters, u, v)


def test_seed_compatibility_across_types():
    rng = random.Random(4)
    for code in ("A3", "B2", "B3", "C3", "B4", "C4", "F4", "G2", "D4", "A4"):
        d = build_cartan(code[0], int(code[1]))
        ell = d.longest_length
        for window in (ell, 2 * ell, 3 * ell):
            letters = tuple(rng.randrange(1, d.rank + 1) for _ in range(window + ell))
            pair = build_seed(IndexSequence(d, letters), window)
            assert check_compatible(pair)


def test_g2_lambda_chain_matches_reference():
    d = build_cartan("G", 2)
    pair = build_seed(alternating(d), 8)
    assert np.array_equal(pair.lam, G2_LAMBDA_8)
    chain = [
        ((3,), None),
        ((4, 5, 3), None),
        ((6, 4, 3), None),
        ((5, 6, 3), None),
    ]
    p = pair
    for muts, _ in chain:
        for k in muts:
            p = mutate_pair(p, k)
    from qcab.seeds import transpositions

    p = permute_pair(p, transpositions(3, 5, 7))
    target = build_seed(IndexSequence(d, (1, 2, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 2)), 8)
    assert p == target


def test_detect_and_apply_moves():
    d = build_cartan("B", 2)
    seq = alternating(d)
    mv = detect_move(seq, 1)
    assert mv.kind == "four" and mv.mutations == (1, 2, 1) and mv.perm == ((1, 2), (3, 4))
    # a move swaps one block, also on a periodic word
    assert swap_block(seq.prefix(8), mv.kind, 1) == (2, 1, 2, 1, 1, 2, 1, 2)

    g = build_cartan("G", 2)
    mvg = detect_move(alternating(g), 1)
    assert mvg.kind == "six"
    assert mvg.mutations == (1, 2, 3, 1, 4, 2, 1, 3, 4, 1)
    assert mvg.perm == ((1, 2), (3, 4), (5, 6))

    a = build_cartan("A", 3)
    sa = IndexSequence(a, (1, 3, 2, 1, 2, 3))
    assert detect_move(sa, 1) == braid.BraidMove("two", 1, (), ((1, 2),))
    assert detect_move(sa, 3) == braid.BraidMove("three", 3, (3,), ((4, 5),))
    assert swap_block(sa.letters, "three", 3) == (1, 3, 1, 2, 1, 3)
    with pytest.raises(BraidError):
        detect_move(sa, 4)
    # the block must fit: no swap changes the word's length
    assert swap_block((1, 2, 1, 2), "two", 3) == (1, 2, 2, 1)
    for kind, k in (("six", 1), ("two", 0), ("two", 4), ("three", 3), ("four", -1)):
        with pytest.raises(BraidError, match="does not fit in 4 letters"):
            swap_block((1, 2, 1, 2), kind, k)


def test_verify_moves_all_kinds():
    cases = []
    a3 = build_cartan("A", 3)
    cases += [
        (IndexSequence(a3, (1, 3, 2, 1, 2, 3, 2, 1, 3, 2, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2)), (1, 3, 5)),
    ]
    b2 = build_cartan("B", 2)
    cases += [(unfold(alternating(b2), 24), (1, 2, 3))]
    b3 = build_cartan("B", 3)
    cases += [(IndexSequence(b3, (2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2)), (1, 6, 11))]
    c3 = build_cartan("C", 3)
    cases += [
        (IndexSequence(c3, (1, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3, 2, 1, 3, 2, 3, 2, 3, 1, 2, 3, 1, 2, 3, 2, 3, 2, 1, 3)), (2, 4, 10)),
    ]
    f4 = build_cartan("F", 4)
    cases += [(IndexSequence(f4, tuple([1, 2, 3, 2, 3, 2, 3, 4, 1, 2, 3, 2, 3, 2, 3, 4] * 6)), (2, 4, 11))]
    g2 = build_cartan("G", 2)
    cases += [(unfold(alternating(g2), 30), (1, 2, 3))]
    for seq, ks in cases:
        for k in ks:
            mv = detect_move(seq, k)
            s = min_window(mv, seq)
            assert verify_move_on_seed(seq, mv, s), (seq.datum, k, mv.kind)


def test_all_admissible_positions_alternating_rank2():
    for code, window in (("B2", 26), ("G2", 30)):
        d = build_cartan(code[0], 2)
        seq = unfold(alternating(d), window + d.longest_length + 8)
        count = 0
        for k in range(1, window + 1):
            mv = detect_move(seq, k)
            if min_window(mv, seq) > window:
                break
            assert verify_move_on_seed(seq, mv, window), (code, k)
            count += 1
        assert count >= 10


def test_random_adapted_sequences_all_moves():
    """Moves found on height-adapted periodic words verify across types."""
    from qcab.cartan import longest_word, parity_function

    rng = random.Random(77)
    for code in ("A3", "B3", "C3", "F4"):
        d = build_cartan(code[0], int(code[1]))
        eps = parity_function(d)
        for _ in range(3):
            xi = {i: eps[i] + 2 * rng.randrange(0, 3) for i in range(1, d.rank + 1)}
            # repair adjacency gaps so xi is a genuine height function
            for _ in range(d.rank):
                for i in range(1, d.rank + 1):
                    for j in range(1, d.rank + 1):
                        if i != j and d.c(i, j) < 0 and abs(xi[i] - xi[j]) > 1:
                            xi[j] = xi[i] + (1 if xi[j] > xi[i] else -1)
            word = longest_word(d, xi)
            seq = unfold(IndexSequence(d, word, periodic=True), 4 * d.longest_length)
            found = 0
            for k in range(1, 2 * d.longest_length):
                try:
                    mv = detect_move(seq, k)
                except BraidError:
                    continue
                assert verify_move_on_seed(seq, mv, min_window(mv, seq)), (code, xi, k)
                found += 1
            assert found > 0


def test_window_tower_consistency():
    """Larger windows restrict to smaller ones on shared exchangeable columns."""
    rng = random.Random(41)
    for code in ("B2", "B3", "G2"):
        d = build_cartan(code[0], int(code[1]))
        letters = tuple(rng.randrange(1, d.rank + 1) for _ in range(30))
        seq = IndexSequence(d, letters)
        big = build_seed(seq, 24)
        small = build_seed(seq, 14)
        assert np.array_equal(big.lam[:14, :14], small.lam)
        for v in small.exchangeable:
            assert v in big.exchangeable
            assert np.array_equal(big.b[:14, v - 1], small.b[:, v - 1])


def test_verify_move_window_guard():
    """A window must hold the block, and any window that does certifies."""
    d = build_cartan("G", 2)
    seq = unfold(alternating(d), 30)
    mv = detect_move(seq, 1)
    assert min_window(mv, seq) == 6
    with pytest.raises(BraidError, match="window 5 too small; need at least 6"):
        verify_move_on_seed(seq, mv, 5)
    assert verify_move_on_seed(seq, mv, 6)


def test_forward_shift():
    for code, s in (("B2", 12), ("A2", 12), ("G2", 16)):
        d = build_cartan(code[0], 2)
        seq = alternating(d)
        pair, sigma, sub = forward_shift_seed(seq, s)
        assert sub == s - 1  # the whole window but its last position
        assert sigma[1] == 2 and sigma[2] == 1  # alternating: 1 -> 1+ - 1 = 2
        target = build_seed(IndexSequence(d, seq.prefix(s)[1:]), sub)
        assert pair == target
        # an explicit word reads sigma_+ within its own letters, to s or s + l + 2 of them
        for n in (s, s + d.longest_length + 2):
            assert forward_shift_seed(unfold(seq, n), s) == (pair, sigma, sub)


def _outcome(fn, *args):
    """fn(*args), or the text of the SeedError it raises."""
    try:
        return fn(*args)
    except SeedError as exc:
        return f"SeedError: {exc}"


@pytest.mark.parametrize("code", ALL_TYPES)
@settings(max_examples=10)
@given(data=st.data())
def test_window_seed_reads_only_its_letters(code, data):
    """A window's seed and a move's outcome read only the window's letters: a
    tail past the window, the periodic extension and an unfolding to the
    window change nothing, planted failing or frozen mutations included."""
    d = parse_type(code)
    ell = d.longest_length
    letters = st.integers(1, d.rank)
    w = tuple(data.draw(st.lists(letters, min_size=1, max_size=2 * ell)))
    tail = tuple(data.draw(st.lists(letters, min_size=1, max_size=ell)))
    assert build_seed(IndexSequence(d, w + tail), len(w)) == build_seed(IndexSequence(d, w), len(w))
    seq = IndexSequence(d, longest_word(d), periodic=True)
    s = data.draw(st.integers(ell, 3 * ell))  # windows past one period read the periodic extension
    assert build_seed(seq, s) == build_seed(IndexSequence(d, seq.prefix(s)), s)
    moves = []
    for k in range(1, ell + 1):
        try:
            moves.append(detect_move(seq, k))
        except BraidError:
            pass
    if not moves:  # A1 has no braid moves
        return
    move = data.draw(st.sampled_from(moves))
    block = st.integers(move.k, move.k + move.span - 1)
    move = dataclasses.replace(move, mutations=move.mutations + tuple(data.draw(st.lists(block, max_size=2))))
    s = data.draw(st.integers(min_window(move, seq), min_window(move, seq) + ell))
    assert _outcome(move_witness, seq, move, s) == _outcome(move_witness, unfold(seq, s), move, s)


def _row_pairs(d):
    """For each MOVES row that the type has, its pairs of letters (a, b)."""
    rows = {}
    for a, b in itertools.permutations(range(1, d.rank + 1), 2):
        rows.setdefault(d.c(a, b) * d.c(b, a), []).append((a, b))
    return rows


@pytest.mark.parametrize("code", ALL_TYPES)
@settings(max_examples=10)
@given(data=st.data())
def test_move_certifies_on_every_window_holding_its_block(code, data):
    """An alternating block planted into a drawn word, for every MOVES row of
    the type, certifies at every window from the block's end to the word's."""
    d = parse_type(code)
    letters = st.lists(st.integers(1, d.rank), max_size=8)
    head, tail = data.draw(letters), data.draw(letters)
    for p, pairs in sorted(_row_pairs(d).items()):
        recipe = braid.MOVES[p]
        assert all(m <= recipe.span - 3 for m in recipe.mutations)
        a, b = data.draw(st.sampled_from(pairs))
        word = tuple(head) + tuple((a, b)[t % 2] for t in range(recipe.span)) + tuple(tail)
        seq = IndexSequence(d, word)
        move = detect_move(seq, len(head) + 1)
        assert move.kind == recipe.kind and min_window(move, seq) == len(head) + recipe.span
        for s in range(min_window(move, seq), len(word) + 1):
            assert verify_move_on_seed(seq, move, s), (word, move.k, s)


@pytest.mark.parametrize("code", ALL_TYPES)
@settings(max_examples=10)
@given(data=st.data())
def test_forward_shift_is_the_seed_of_the_shifted_word(code, data):
    """The shift of the window [1, s] of w is the seed of w[1:] on [1, s - 1],
    with sigma_+ read from letters 1..s, for every 2 <= s <= len(w)."""
    d = parse_type(code)
    n = data.draw(st.integers(2, 24))
    if data.draw(st.booleans()):
        w = IndexSequence(d, longest_word(d), periodic=True).prefix(n)
    else:
        w = tuple(data.draw(st.lists(st.integers(1, d.rank), min_size=n, max_size=n)))
    seq = IndexSequence(d, w)
    for s in range(2, n + 1):
        sigma = {u: uplus(seq, u, s) - 1 if w[u - 1] == w[0] else u - 1 for u in range(1, s + 1)}
        want = (build_seed(IndexSequence(d, w[1:]), s - 1), sigma, s - 1)
        assert forward_shift_seed(seq, s) == want, (w, s)
    with pytest.raises(BraidError):
        forward_shift_seed(seq, 1)


# SHA-256 of the sorted enumeration, one "family letters k" line per item
G2_ENUMERATION_SHA256 = "22681a25ca9961a76261576169358fad5090a0b17ea05bb9c0953a818792405d"


def _run_key(item):
    return len(item[1]), item[2]


def test_g2_enumeration_count():
    items = list(g2_sequences())
    assert len(items) == 62208
    assert Counter(fam for fam, _, _ in items) == {"i": 55296, "ii": 4608, "iii": 2304}
    # each (window, k) is one contiguous run, and the two cores of one head
    # and tail are adjacent, each the other's 6-move swap
    runs = [key for key, _ in itertools.groupby(items, key=_run_key)]
    assert len(runs) == len(set(runs))
    for (_, w1, k1), (_, w2, k2) in zip(items[::2], items[1::2]):
        assert k1 == k2 and w2 == swap_block(w1, "six", k1)
    # the same multiset of configurations as the ungrouped enumeration
    text = "\n".join(f"{fam} {','.join(map(str, letters))} {k}" for fam, letters, k in sorted(items))
    assert hashlib.sha256(text.encode()).hexdigest() == G2_ENUMERATION_SHA256
    # the certifier's stacks hold each distinct configuration once, with its
    # family multiplicity, and one (window, k) each
    stacks = list(braid._g2_stacks())
    configs = [(k, w) for k, families in stacks for w in families]
    assert len(configs) == len(set(configs)) == 32352
    assert sum(len(f) for _, families in stacks for f in families.values()) == 62208
    assert all(len({len(w) for w in families}) == 1 for _, families in stacks)


# The 6-move recipe with four more steps at k - 1 and k: they cancel only where
# b_{k-1,k} = 0 after the recipe, so about half of the configurations fail.
SIX_MUTATIONS = braid.MOVES[3].mutations
PLANTED_OFFSETS = SIX_MUTATIONS + (-1, 0, -1, 0)


def _plant_six_move(monkeypatch, offsets):
    monkeypatch.setitem(braid.MOVES, 3, braid.MOVES[3]._replace(mutations=offsets))


def _public_path(seq, move, s):
    """The relabelled and the target pair on the window [1, s] by the public
    path: build_seed, mutate_pair per mutation of the move, permute_pair."""
    pair = build_seed(seq, s)
    for m in move.mutations:
        pair = mutate_pair(pair, m)
    target = build_seed(IndexSequence(seq.datum, swap_block(seq.prefix(s), move.kind, move.k)), s)
    return permute_pair(pair, move.perm_map()), target


def _first_diff(got, want):
    """The first differing entry (matrix, u, v, got, want) of two pairs, 1-based,
    Lambda before B, each in row-major order; None when they agree."""
    for m in ("lam", "b"):
        at = np.argwhere(getattr(got, m) != getattr(want, m))
        if len(at):
            u, v = at[0]
            return m, int(u) + 1, int(v) + 1, int(getattr(got, m)[u, v]), int(getattr(want, m)[u, v])
    return None


def _g2_public_path(letters, k):
    seq = IndexSequence(build_cartan("G", 2), letters)
    return _public_path(seq, detect_move(seq, k), len(letters))


def _certifier_sample(monkeypatch, offsets):
    """Stacked verdicts and public-path verdicts on a fixed sample, as
    {(letters, k): holds} each."""
    _plant_six_move(monkeypatch, offsets)
    d = build_cartan("G", 2)
    rng = random.Random(9)
    sample = rng.sample(list(itertools.islice(g2_sequences(), 0, None, 97)), 120)
    stacked = {}
    for (_, k), run in itertools.groupby(sorted(sample, key=_run_key), key=_run_key):
        words = list(dict.fromkeys(letters for _, letters, _ in run))
        move = detect_move(IndexSequence(d, words[0]), k)
        for w, verdict in zip(words, _stack_verdicts(d, words, move)):
            stacked[w, k] = verdict is None
    public = {}
    for _, letters, k in sample:
        got, want = _g2_public_path(letters, k)
        public[letters, k] = got == want
    return stacked, public


def test_g2_certifier_sample(monkeypatch):
    """Stacked verdicts agree with the public path, and the recipe holds on every sampled configuration."""
    stacked, public = _certifier_sample(monkeypatch, SIX_MUTATIONS)
    assert stacked == public
    assert set(public.values()) == {True}


def test_g2_certifier_sample_planted(monkeypatch):
    """Under the planted recipe the stacked verdicts still agree with the public path, failures included."""
    stacked, public = _certifier_sample(monkeypatch, PLANTED_OFFSETS)
    assert stacked == public
    assert set(public.values()) == {True, False}


def test_g2_certifier_names_witnesses(monkeypatch, tmp_path):
    head = list(itertools.islice(g2_sequences(), 600))
    monkeypatch.setattr(braid, "g2_sequences", lambda: iter(head))
    _plant_six_move(monkeypatch, PLANTED_OFFSETS)
    report = g2_exhaustive_certify(jobs=1)
    holds = {}
    for _, letters, k in head:
        if (letters, k) not in holds:
            got, want = _g2_public_path(letters, k)
            holds[letters, k] = got == want
    # every copy of a failing configuration counts
    assert report.total == 600 and report.mismatches == sum(not holds[w, k] for _, w, k in head) > 0
    assert len(report.witnesses) == 5
    for fam, letters, k, matrix, u, v, got, want in report.witnesses:
        assert (fam, letters, k) in head
        public, target = _g2_public_path(letters, k)
        # the first differing entry, Lambda before B, each in row-major order
        diffs = [(m, np.argwhere(getattr(public, m) != getattr(target, m))) for m in ("lam", "b")]
        assert (matrix, u - 1, v - 1) == next((m, *at[0]) for m, at in diffs if len(at))
        assert (got, want) == (getattr(public, matrix)[u - 1, v - 1], getattr(target, matrix)[u - 1, v - 1])
    assert dataclasses.replace(g2_exhaustive_certify(jobs=2), elapsed_ms=0) == dataclasses.replace(report, elapsed_ms=0)

    out = tmp_path / "cert.json"
    assert main(["g2-cert", "--jobs", "1", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["mismatches"] == report.mismatches
    assert doc["witnesses"] == [{**w._asdict(), "letters": list(w.letters)} for w in report.witnesses]


def test_g2_certifier_compares_b(monkeypatch):
    """A fault in B alone, at an entry (s, 1) that no mutation reads, is a mismatch."""
    mutate = braid.mutate_arrays

    def mutate_and_bump(lam, b, k):
        lam, b = mutate(lam, b, k)
        b[..., -1, 0] += 1
        return lam, b

    monkeypatch.setattr(braid, "mutate_arrays", mutate_and_bump)
    items = list(itertools.islice(g2_sequences(), 4))
    (s, k), = {_run_key(item) for item in items}
    d = build_cartan("G", 2)
    words = [letters for _, letters, _ in items]
    verdicts = _stack_verdicts(d, words, detect_move(IndexSequence(d, words[0]), k))
    assert all(v[:3] == ("b", s, 1) and v[3] - v[4] == len(SIX_MUTATIONS) for v in verdicts)


MOVE_TYPES = ("G2", "B2", "F4", "C3", "B3", "A3")


@given(st.data())
def test_move_certifier_matches_public_path(data):
    """On every move kind, move_witness and verify_move_on_seed agree with the
    public path, verdict and first differing entry, on height-adapted words."""
    code = data.draw(st.sampled_from(MOVE_TYPES))
    d = build_cartan(code[0], int(code[1]))
    # a height function: node 1 even, adjacent nodes one apart
    xi, todo = {1: 2 * data.draw(st.integers(-2, 2))}, [1]
    while todo:
        i = todo.pop()
        for j in range(1, d.rank + 1):
            if j not in xi and d.c(i, j) < 0:
                xi[j] = xi[i] + data.draw(st.sampled_from((-1, 1)))
                todo.append(j)
    ell = d.longest_length
    seq = IndexSequence(d, longest_word(d, adapted_to=xi), periodic=True)
    moves = []
    for k in range(1, ell + 2):
        try:
            moves.append(detect_move(seq, k))
        except BraidError:
            pass
    # the kind first, longest first, so the rarer 3-, 4- and 6-moves are not
    # drowned by 2-moves; the types too start with those that have 4- and 6-moves
    kind = data.draw(st.sampled_from(sorted({m.kind for m in moves}, key=MOVE_SPAN.get, reverse=True)))
    move = data.draw(st.sampled_from([m for m in moves if m.kind == kind]))
    # planted steps inside the block make some moves fail; near the block's
    # end they can land on a frozen position, and both paths then raise
    block = st.integers(move.k, move.k + move.span - 1)
    move = dataclasses.replace(move, mutations=move.mutations + tuple(data.draw(st.lists(block, max_size=2))))
    s = data.draw(st.integers(min_window(move, seq), min_window(move, seq) + 2 * ell + 2))
    if data.draw(st.booleans()):
        seq = unfold(seq, data.draw(st.integers(s, s + ell + move.span + 2)))
    try:
        got, want = _public_path(seq, move, s)
    except SeedError as exc:
        assert _outcome(move_witness, seq, move, s) == f"SeedError: {exc}"
    else:
        assert move_witness(seq, move, s) == _first_diff(got, want)
        assert verify_move_on_seed(seq, move, s) == (got == want)


# The 6-move recipe with four more steps at k and k + 1, which fails at k = 1.
PLANTED_AT_K = SIX_MUTATIONS + (0, 1, 0, 1)


def test_verify_move_cli_names_the_witness(monkeypatch, capsys):
    _plant_six_move(monkeypatch, PLANTED_AT_K)
    argv = ["verify-move", "--type", "G2", "--seq", "alt", "--k", "1", "--window", "14"]
    assert main(argv) == 1
    seq = alternating(build_cartan("G", 2))
    matrix, u, v, got, want = _first_diff(*_public_path(seq, detect_move(seq, 1), 14))
    line = f"six-move at 1 on window 14: MISMATCH at {matrix}[{u},{v}]: got {got}, want {want}"
    assert capsys.readouterr().out == line + "\n"


def test_frozen_mutation_raises_seed_error():
    """A hand-built move that mutates a frozen or absent position raises as mutate_pair does."""
    seq = unfold(alternating(build_cartan("G", 2)), 30)
    move = detect_move(seq, 1)
    pair = build_seed(seq, 14)
    for m in (max(pair.frozen), 0, 15):
        with pytest.raises(SeedError):
            mutate_pair(pair, m)
        bad = dataclasses.replace(move, mutations=move.mutations + (m,))
        with pytest.raises(SeedError, match=f"position {m} is frozen or out of range"):
            move_witness(seq, bad, 14)
        with pytest.raises(SeedError):
            verify_move_on_seed(seq, bad, 14)


def test_frozen_mutation_in_one_word_of_a_stack_raises():
    """A stack in which one word alone has a mutation position frozen raises
    SeedError, wherever that word sits; the other words certify."""
    d = build_cartan("G", 2)
    core = (1, 2, 1, 2, 1, 2)
    # position 5 carries letter 1: exchangeable iff a later 1 is in the window
    good, frozen = [core + (1, 2), core + (2, 1)], core + (2, 2)
    move = detect_move(IndexSequence(d, good[0]), 1)
    planted = dataclasses.replace(move, mutations=move.mutations + (5,))
    assert 5 not in build_seed(IndexSequence(d, frozen), 8).exchangeable
    assert all(5 in build_seed(IndexSequence(d, w), 8).exchangeable for w in good)
    assert len(_stack_verdicts(d, good, planted)) == 2
    for words in itertools.permutations(good + [frozen]):
        with pytest.raises(SeedError, match="position 5 is frozen or out of range"):
            _stack_verdicts(d, list(words), planted)


def test_g2_jobs_are_bounded(monkeypatch, capsys):
    """jobs below 1 is a usage error, and the pool never exceeds the CPU count."""
    with pytest.raises(BraidError):
        g2_exhaustive_certify(jobs=0)
    assert main(["g2-cert", "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: jobs must be at least 1")
    workers = []

    class RecordingPool:
        """Records max_workers and maps in this process: it starts no process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    head = list(itertools.islice(g2_sequences(), 40))
    monkeypatch.setattr(braid, "g2_sequences", lambda: iter(head))
    monkeypatch.setattr(braid, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(braid.os, "cpu_count", lambda: 3)
    for jobs in (10**6, None, 3, 2, 1):
        report = g2_exhaustive_certify(jobs=jobs)
        assert report.total == 40 and report.mismatches == 0
    assert workers == [3, 3, 3, 2]  # one job runs in this process


def test_appendix_orders_equivalent_on_window_14():
    """All 32 ten-step mutation orders give the same pair on a G2 window."""
    from qcab.seeds import transpositions

    orders = [
        (0, 1, 2, 0, 3, 1, 0, 2, 3, 0),
        (0, 1, 2, 0, 3, 1, 0, 3, 2, 0),
        (0, 1, 2, 3, 0, 1, 0, 2, 3, 0),
        (0, 1, 2, 3, 0, 1, 0, 3, 2, 0),
        (0, 2, 1, 0, 3, 1, 0, 2, 3, 0),
        (0, 2, 1, 0, 3, 1, 0, 3, 2, 0),
        (0, 2, 1, 3, 0, 1, 0, 2, 3, 0),
        (0, 2, 1, 3, 0, 1, 0, 3, 2, 0),
        (1, 2, 3, 1, 0, 1, 2, 0, 3, 1),
        (1, 2, 3, 1, 0, 1, 2, 3, 0, 1),
        (1, 2, 3, 1, 0, 2, 1, 0, 3, 1),
        (1, 2, 3, 1, 0, 2, 1, 3, 0, 1),
        (1, 3, 2, 1, 0, 1, 2, 0, 3, 1),
        (1, 3, 2, 1, 0, 1, 2, 3, 0, 1),
        (1, 3, 2, 1, 0, 2, 1, 0, 3, 1),
        (1, 3, 2, 1, 0, 2, 1, 3, 0, 1),
        (2, 0, 1, 2, 3, 1, 2, 0, 3, 2),
        (2, 0, 1, 2, 3, 1, 2, 3, 0, 2),
        (2, 0, 1, 2, 3, 2, 1, 0, 3, 2),
        (2, 0, 1, 2, 3, 2, 1, 3, 0, 2),
        (2, 1, 0, 2, 3, 1, 2, 0, 3, 2),
        (2, 1, 0, 2, 3, 1, 2, 3, 0, 2),
        (2, 1, 0, 2, 3, 2, 1, 0, 3, 2),
        (2, 1, 0, 2, 3, 2, 1, 3, 0, 2),
        (3, 1, 2, 0, 3, 2, 3, 0, 1, 3),
        (3, 1, 2, 0, 3, 2, 3, 1, 0, 3),
        (3, 1, 2, 3, 0, 2, 3, 0, 1, 3),
        (3, 1, 2, 3, 0, 2, 3, 1, 0, 3),
        (3, 2, 1, 0, 3, 2, 3, 0, 1, 3),
        (3, 2, 1, 0, 3, 2, 3, 1, 0, 3),
        (3, 2, 1, 3, 0, 2, 3, 0, 1, 3),
        (3, 2, 1, 3, 0, 2, 3, 1, 0, 3),
    ]
    d = build_cartan("G", 2)
    seq = unfold(alternating(d), 22)
    k = 2
    base = build_seed(seq, 14)
    results = []
    for order in orders:
        p = base
        for off in order:
            p = mutate_pair(p, k + off)
        p = permute_pair(p, transpositions(k, k + 2, k + 4))
        results.append(p)
    first = results[0]
    assert all(p == first for p in results[1:])
    target = build_seed(IndexSequence(d, swap_block(seq.letters, "six", k)), 14)
    assert first == target
