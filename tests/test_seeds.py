import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcab.braid import IndexSequence, alternating, build_seed, unfold
from qcab.cartan import build_cartan
from qcab.seeds import (
    SeedError,
    check_compatible,
    make_pair,
    mutate_arrays,
    mutate_pair,
    pair_from_json,
    pair_to_json,
    permute_pair,
    quiver_from_matrix,
    quiver_mutate,
    quiver_to_matrix,
    transpositions,
)


def _check_entry(pair, u, v):
    if not 1 <= u <= pair.size >= v >= 1:
        raise SeedError(f"entry ({u},{v}) outside the window 1..{pair.size}")


def b_entry(pair, u, v):
    """B_uv of an exchangeable column v, read 1-based; a position outside the window raises SeedError."""
    _check_entry(pair, u, v)
    if v not in pair.exchangeable:
        raise SeedError(f"column {v} is frozen")
    return int(pair.b[u - 1, v - 1])


def lam_entry(pair, u, v):
    """Lambda_uv read 1-based; a position outside the window raises SeedError, where a bare index would wrap."""
    _check_entry(pair, u, v)
    return int(pair.lam[u - 1, v - 1])


def random_skew_symmetrizable(rng, n, n_frozen=0, max_entry=2):
    """A random exchange window with known symmetrizer, plus its Lambda-free pair."""
    d = [rng.choice([1, 1, 2, 3]) for _ in range(n)]
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                continue
            g = np.gcd(d[i], d[j])
            p = rng.randrange(-max_entry, max_entry + 1)
            b[i, j] = p * (d[j] // g)
            b[j, i] = -p * (d[i] // g)
    frozen = set(rng.sample(range(1, n + 1), n_frozen))
    for v in frozen:
        b[:, v - 1] = 0
    ex = set(range(1, n + 1)) - frozen
    return b, ex, tuple(d)


def test_make_pair_validation():
    lam = np.zeros((3, 3), dtype=np.int64)
    b = np.zeros((3, 3), dtype=np.int64)
    make_pair(lam, b, {1, 2, 3}, (1, 1, 1))
    bad = lam.copy()
    bad[0, 1] = 1
    with pytest.raises(SeedError):
        make_pair(bad, b, {1, 2, 3}, (1, 1, 1))
    b2 = b.copy()
    b2[0, 2] = 1
    with pytest.raises(SeedError):
        make_pair(lam, b2, {1, 2}, (1, 1, 1))  # frozen column 3 must be zero


@pytest.mark.parametrize("diag, u", [((0, 1), 1), ((1, 0), 2), ((-1, 1), 1)])
def test_seeds_refuse_a_diag_entry_below_one(diag, u):
    """Both boundaries name the position; the first pair is compatible, since 2 d_1 = 0 when b_1 = 0."""
    named = re.escape(f"diag entry {diag[u - 1]} at position {u} is below 1")
    lam, b = np.array([[0, 1], [-1, 0]]), np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(SeedError, match=named):
        make_pair(lam, b, {1}, diag)
    text = f'{{"window": 2, "lambda": [[0, 1], [-1, 0]], "b": [], "frozen": [2], "diag": [{diag[0]}, {diag[1]}]}}'
    with pytest.raises(SeedError, match=named):
        pair_from_json(text)


@pytest.mark.parametrize("u", [1, 2])
def test_seeds_refuse_a_diag_entry_whose_double_leaves_int64(u):
    """2 d_u must fit in int64, as the compatibility check and the degree check hold it there; both boundaries name the position."""
    diag = tuple(2**62 if v == u else 1 for v in (1, 2))
    named = re.escape(f"diag entry {2**62} at position {u} is too large")
    lam, b = np.array([[0, 1], [-1, 0]]), np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(SeedError, match=named):
        make_pair(lam, b, {1}, diag)
    text = f'{{"window": 2, "lambda": [[0, 1], [-1, 0]], "b": [], "frozen": [2], "diag": [{diag[0]}, {diag[1]}]}}'
    with pytest.raises(SeedError, match=named):
        pair_from_json(text)
    largest = tuple(2**62 - 1 if v == u else 1 for v in (1, 2))
    assert make_pair(lam, b, {1}, largest).diag == largest


def test_check_compatible_refuses_a_product_past_int64():
    """Over Z, (B^T Lambda)_11 = 6 c = 2**64 + 2; in int64 it wraps to 2 = 2 d_1, which read as compatible."""
    c = 3074457345618258603
    lam, b = np.array([[0, -c], [c, 0]]), np.array([[0, 0], [6, 0]])
    with pytest.raises(SeedError, match=r"B\^T Lambda would overflow int64"):
        check_compatible(make_pair(lam, b, {1}, (1, 1)))
    text = f'{{"window": 2, "lambda": [[0, {-c}], [{c}, 0]], "b": [[2, 1, 6]], "frozen": [2], "diag": [1, 1]}}'
    with pytest.raises(SeedError, match=r"B\^T Lambda would overflow int64"):
        pair_from_json(text)


def test_make_pair_leaves_caller_arrays_writable():
    lam = np.zeros((2, 2), dtype=np.int64)
    b = np.zeros((2, 2), dtype=np.int64)
    pair = make_pair(lam, b, {1, 2}, (1, 1))
    assert lam.flags.writeable and b.flags.writeable
    assert not pair.lam.flags.writeable and not pair.b.flags.writeable
    lam[0, 1] = 5  # the pair keeps its own copy
    assert lam_entry(pair, 1, 2) == 0


@pytest.mark.parametrize("entry", ["lam_entry", "b_entry"])
@pytest.mark.parametrize("u, v", [(0, 1), (1, 0), (-1, 2), (5, 1), (1, 5)])
def test_pair_entries_reject_positions_outside_the_window(entry, u, v):
    pair = build_seed(alternating(build_cartan("B", 2)), 4)
    with pytest.raises(SeedError, match=re.escape(f"entry ({u},{v}) outside the window 1..4")):
        {"lam_entry": lam_entry, "b_entry": b_entry}[entry](pair, u, v)


def test_check_compatible_vacuous_and_perturbed():
    lam = np.zeros((2, 2), dtype=np.int64)
    b = np.zeros((2, 2), dtype=np.int64)
    pair = make_pair(lam, b, set(), (1, 1))
    assert check_compatible(pair)

    from qcab import alternating, build_cartan, build_seed

    seed = build_seed(alternating(build_cartan("B", 2)), 6)
    assert check_compatible(seed)
    lam2, b2 = np.array(seed.lam), np.array(seed.b)
    lam2[0, 1] += 1
    lam2[1, 0] -= 1
    assert not check_compatible(make_pair(lam2, b2, seed.exchangeable, seed.diag))


def test_mutation_involution_and_compatibility():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randrange(3, 9)
        b, ex, d = random_skew_symmetrizable(rng, n, n_frozen=rng.randrange(0, 2))
        if not ex:
            continue
        lam = np.zeros((n, n), dtype=np.int64)
        pair = make_pair(lam, b, ex, d)
        k = rng.choice(sorted(ex))
        once = mutate_pair(pair, k)
        twice = mutate_pair(once, k)
        assert twice == pair


def test_mutation_preserves_compatibility_on_built_seeds():
    from qcab import alternating, build_cartan, build_seed

    rng = random.Random(2)
    for code, window in (("B2", 8), ("G2", 10)):
        seed = build_seed(alternating(build_cartan(code[0], 2)), window)
        pair = seed
        for _ in range(12):
            k = rng.choice(sorted(pair.exchangeable))
            pair = mutate_pair(pair, k)
            assert check_compatible(pair)


def test_mutate_frozen_rejected():
    from qcab import alternating, build_cartan, build_seed

    seed = build_seed(alternating(build_cartan("B", 2)), 4)
    with pytest.raises(SeedError):
        mutate_pair(seed, 4)


def test_permute_pair():
    from qcab import alternating, build_cartan, build_seed

    seed = build_seed(alternating(build_cartan("B", 2)), 6)
    assert permute_pair(seed, {}) == seed
    perm = transpositions(1)
    relabeled = permute_pair(seed, perm)
    assert check_compatible(relabeled)
    assert permute_pair(relabeled, perm) == seed
    # a frozen point moves into the window with its rows, columns and label
    moved = permute_pair(seed, {5: 1, 1: 5})
    assert moved.frozen == {1, 6} and moved.diag == (seed.diag[4], *seed.diag[1:4], seed.diag[0], seed.diag[5])
    assert check_compatible(moved) and moved.lam[0, 1] == seed.lam[4, 1] and moved.b[1, 0] == seed.b[1, 4]
    assert permute_pair(moved, {5: 1, 1: 5}) == seed
    with pytest.raises(SeedError):
        permute_pair(seed, {1: 2})  # not a permutation


def test_quiver_round_trip_and_mutation_oracle():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randrange(2, 11)
        b, ex, d = random_skew_symmetrizable(rng, n, n_frozen=rng.randrange(0, 3))
        if not ex:
            continue
        frozen = frozenset(range(1, n + 1)) - frozenset(ex)
        q = quiver_from_matrix(b, frozen)
        assert np.array_equal(quiver_to_matrix(q), b)
        k = rng.choice(sorted(ex))
        via_quiver = quiver_to_matrix(quiver_mutate(q, k))
        lam = np.zeros((n, n), dtype=np.int64)
        via_matrix = mutate_pair(make_pair(lam, b, ex, d), k).b
        assert np.array_equal(via_quiver, via_matrix), (b, k)


@given(
    st.sampled_from(["A3", "B2", "B3", "C3", "D4", "G2"]),
    st.lists(st.integers(1, 8), min_size=12, max_size=20),
    st.integers(6, 10),
    st.lists(st.integers(0, 99), min_size=1, max_size=8),
)
def test_mutation_walks_match_quiver_oracle(code, letters, window, picks):
    """Walks of mutate_pair on built seeds against the arrow-level oracle."""
    d = build_cartan(code[0], int(code[1]))
    letters = tuple((a - 1) % d.rank + 1 for a in letters)
    pair = build_seed(IndexSequence(d, letters), window)
    ex = sorted(pair.exchangeable)
    if not ex:
        return
    q = quiver_from_matrix(pair.b, pair.frozen)
    for pick in picks:
        k = ex[pick % len(ex)]
        prev, pair, q = pair, mutate_pair(pair, k), quiver_mutate(q, k)
        assert np.array_equal(quiver_to_matrix(q), pair.b), (code, letters, k)
        assert check_compatible(pair)
        assert mutate_pair(pair, k) == prev


@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_stacked_mutation_is_slicewise(n, s, data):
    """mutate_arrays on an (n, s, s) stack equals n calls on its slices, whose
    Lambda part is E^T Lambda E, and writes to no input."""
    entries = hnp.arrays(np.int64, (n, s, s), elements=st.integers(-9, 9))
    a, b = data.draw(entries), data.draw(entries)
    k = data.draw(st.integers(1, s))
    lam = a - np.swapaxes(a, 1, 2)
    lam.setflags(write=False)
    b.setflags(write=False)
    lam2, b2 = mutate_arrays(lam, b, k)
    for i in range(n):
        one_lam, one_b = mutate_arrays(lam[i], b[i], k)
        assert np.array_equal(lam2[i], one_lam) and np.array_equal(b2[i], one_b)
        e = np.eye(s, dtype=np.int64)
        e[:, k - 1] = np.maximum(-b[i, :, k - 1], 0)
        e[k - 1, k - 1] = -1
        assert np.array_equal(one_lam, e.T @ lam[i] @ e)


def test_mutation_raises_before_int64_overflow():
    """The walk that always takes the mutation giving the largest |b| leaves
    int64 at its 13th step; it must raise there, not return a wrapped pair."""
    pair = build_seed(unfold(alternating(build_cartan("G", 2)), 22), 14)
    last = None
    with pytest.raises(SeedError, match="overflow int64"):
        for _ in range(13):
            grown = {u: mutate_pair(pair, u) for u in sorted(pair.exchangeable - {last})}
            last = max(grown, key=lambda u: np.abs(grown[u].b).max())
            pair = grown[last]
            assert check_compatible(pair)


@pytest.mark.parametrize("m", [3037000499, 3037000500])
def test_mutation_bound_is_sharp_on_b(m):
    """b'_23 = b_23 + b_21 b_13 = m + m**2 with every |b| <= m: exact while
    m (m + 1) < 2**63, raised from the first m where it is not."""
    lam = np.zeros((3, 3), dtype=np.int64)
    b = np.zeros((3, 3), dtype=np.int64)
    b[1, 0] = b[0, 2] = b[1, 2] = m
    if m * (m + 1) < 2**63:
        assert mutate_arrays(lam, b, 1)[1][1, 2] == m * (m + 1)
    else:
        with pytest.raises(SeedError, match="overflow int64"):
            mutate_arrays(lam, b, 1)


def test_mutation_bound_counts_the_window_and_int64_min():
    """(Lambda e)_2 = x m + x m overflows although each term fits, and an entry
    -2**63, whose numpy absolute value wraps, counts as 2**63."""
    lam = np.zeros((4, 4), dtype=np.int64)
    lam[1, 2:] = 2**31
    lam[2:, 1] = -(2**31)
    b = np.zeros((4, 4), dtype=np.int64)
    b[1:, 0] = -(2**31)
    with pytest.raises(SeedError, match="overflow int64"):
        mutate_arrays(lam, b, 1)
    b = np.zeros((4, 4), dtype=np.int64)
    b[0, 1], b[1, 0] = 1, -(2**63)
    with pytest.raises(SeedError, match="overflow int64"):
        mutate_arrays(np.zeros((4, 4), dtype=np.int64), b, 1)


def test_quiver_mutate_isolated_vertex():
    b = np.zeros((3, 3), dtype=np.int64)
    b[0, 1] = 1
    b[1, 0] = -1
    q = quiver_from_matrix(b, frozenset())
    out = quiver_mutate(q, 3)
    assert out.arrows == q.arrows


def test_quiver_local_double_arrow_block():
    """The local rank-2 double-arrow block mutates consistently three ways."""
    from qcab import alternating, build_cartan, build_seed
    from qcab.braid import detect_move, swap_block, unfold

    d = build_cartan("B", 2)
    seq = unfold(alternating(d), 20)
    s = 14
    seed = build_seed(seq, s)
    q = quiver_from_matrix(seed.b, seed.frozen)
    k = 3
    for m in (k, k + 1, k):
        q = quiver_mutate(q, m)
        seed = mutate_pair(seed, m)
        assert np.array_equal(quiver_to_matrix(q), seed.b)
    move = detect_move(seq, k)
    relabeled = permute_pair(seed, move.perm_map())
    target = build_seed(
        unfold(seq, 20).__class__(d, swap_block(seq.letters, "four", k)), s
    )
    assert np.array_equal(relabeled.b, target.b)


_B2 = alternating(build_cartan("B", 2))
_SEED_PAIR = build_seed(_B2, 6)
_SEED_TEXT = pair_to_json(_SEED_PAIR, "B2", list(_B2.prefix(6)))


def test_seed_file_round_trip():
    pair, doc = pair_from_json(_SEED_TEXT)
    assert pair == _SEED_PAIR and doc["type"] == "B2" and doc["sequence"] == list(_B2.prefix(6))


@settings(max_examples=300)
@given(st.integers(0, len(_SEED_TEXT) - 1), st.sampled_from(["", *'{}[],:"-0129.e tx']), st.sampled_from([0, 1]))
def test_corrupted_seed_file_raises_seed_error(at, ch, cut):
    """One character deleted, replaced or inserted: a compatible pair or SeedError, nothing else."""
    try:
        pair, _ = pair_from_json(_SEED_TEXT[:at] + ch + _SEED_TEXT[at + cut :])
    except SeedError:
        return
    assert check_compatible(pair)
