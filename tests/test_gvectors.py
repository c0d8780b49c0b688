import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qcab.braid import (
    BraidError,
    IndexSequence,
    alternating,
    build_seed,
    detect_move,
    min_window,
    swap_block,
    unfold,
)
from qcab.cartan import build_cartan, parse_type
from qcab.gvectors import (
    _target_frame,
    cone_contains,
    cone_generator,
    gmap_apply,
    gmap_shift,
    p_sum,
    psum_delta,
    tail_sums,
)
from qcab.torus import ClusterState, degree_of_pointed, mutate_state

from test_cartan import ALL_TYPES


def g2_sources():
    d = build_cartan("G", 2)
    src1 = IndexSequence(d, tuple(2 if t % 2 == 0 else 1 for t in range(12)))
    src2 = IndexSequence(d, tuple(1 if t % 2 == 0 else 2 for t in range(12)))
    return detect_move(src1, 1), src1, detect_move(src2, 1), src2


# the twelve reference assignments; the second entry of the first family is
# weight-corrected (see the decisions ledger) and oracle-confirmed below
G2_PART1 = {
    (1,): {6: 1, 4: -1},
    (2,): {6: 1, 4: -1, 1: 1},
    (3, 1): {6: 2, 4: -2, 1: 3},
    (4, 2): {6: 1, 4: -1, 1: 2},
    (5, 3): {6: 1, 4: -1, 1: 3},
    (6, 4): {1: 1},
}
G2_PART2 = {
    (1,): {6: 1, 4: -1},
    (2,): {6: 3, 4: -3, 1: 1},
    (3, 1): {6: 2, 4: -2, 1: 1},
    (4, 2): {6: 3, 4: -3, 1: 2},
    (5, 3): {6: 1, 4: -1, 1: 1},
    (6, 4): {1: 1},
}


def _unit_minus(support):
    g = {support[0]: 1}
    if len(support) > 1:
        g[support[1]] = -1
    return g


def test_g2_six_move_fixtures():
    mv1, src1, mv2, src2 = g2_sources()
    for inp, want in G2_PART1.items():
        assert gmap_apply(mv1, src1, _unit_minus(inp)) == want
    for inp, want in G2_PART2.items():
        assert gmap_apply(mv2, src2, _unit_minus(inp)) == want


def test_four_move_unit_cases():
    """The four local images of unit parameter vectors, both letter orders."""
    for code, letters, k in (
        ("B3", (1, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3), 2),
        ("C3", (1, 3, 2, 3, 2, 3, 2, 1, 2, 3, 2, 3), 2),
    ):
        d = build_cartan(code[0], 3)
        tgt = IndexSequence(d, letters)
        src = IndexSequence(d, swap_block(letters, "four", k))
        mv = detect_move(src, k)
        i, j = tgt.letter(k), tgt.letter(k + 1)
        cij, cji = d.c(i, j), d.c(j, i)
        km, k1m = tgt.uminus(k), tgt.uminus(k + 1)
        src_km, src_k1m = src.uminus(k), src.uminus(k + 1)
        assert (src_km, src_k1m) == (k1m, km)

        def unit(u, um):
            g = {u: 1}
            if um >= 1:
                g[um] = -1
            return g

        e = lambda u: {u: 1}
        ekm = unit(k, 0 if km < 1 else km)
        # u = k+3 -> e_k - e_{k^-}
        got = gmap_apply(mv, src, unit(k + 3, k + 1))
        want = {k: 1}
        if km >= 1:
            want[km] = -1
        assert got == want
        # u = k -> e_{k+3} - e_{k+1}
        assert gmap_apply(mv, src, unit(k, k1m)) == {k + 3: 1, k + 1: -1}
        # u = k+2 -> (e_{k+3} - e_{k+1}) - c_{i,j} (e_k - e_{k^-})
        got = gmap_apply(mv, src, unit(k + 2, k))
        want = {k + 3: 1, k + 1: -1, k: -cij}
        if km >= 1:
            want[km] = cij
        assert got == want
        # u = k+1 -> (e_k - e_{k^-}) - c_{j,i} (e_{k+3} - e_{k+1})
        got = gmap_apply(mv, src, unit(k + 1, km))
        want = {k: 1, k + 3: -cji, k + 1: cji}
        if km >= 1:
            want[km] = -1
        assert got == want


def test_two_and_three_move_maps():
    d = build_cartan("A", 3)
    seq = IndexSequence(d, (1, 3, 2, 1, 2, 3, 1, 2))
    mv = detect_move(seq, 1)
    assert mv.kind == "two"
    assert gmap_apply(mv, seq, {1: 2, 2: -1, 5: 4}) == {1: -1, 2: 2, 5: 4}
    seq3 = IndexSequence(d, (2, 1, 2, 3, 2, 1, 2, 3))
    mv3 = detect_move(seq3, 1)
    assert mv3.kind == "three"
    # one-step image of the unit at k: for g' = e_1: g = -e_1 + e_3-adjust
    out = gmap_apply(mv3, seq3, {1: 1})
    assert out == {1: -1, 3: 1}


def test_cone_membership():
    d = build_cartan("B", 2)
    seq = unfold(alternating(d), 12)
    assert cone_contains({}, seq)
    for u in range(1, 9):
        assert cone_contains(cone_generator(seq, u), seq)
    assert not cone_contains({1: -1}, seq)
    assert p_sum({1: 2, 3: -1, 2: 5}, seq, 1) == 1
    assert p_sum({1: 2, 3: -1, 2: 5}, seq, 2) == 5


def test_cone_contains_walks_the_support():
    """cone_contains against every same-letter tail sum up to the top of the
    support, on periodic words; a support far out costs what its size costs."""
    rng = random.Random(37)
    for code in ("B2", "G2", "A3"):
        d = parse_type(code)
        seq = IndexSequence(d, d.w0_word, periodic=True)
        for _ in range(300):
            g = {rng.randrange(1, 40): rng.randrange(-2, 3) for _ in range(rng.randrange(6))}
            assert cone_contains(g, seq) == all(t >= 0 for t in tail_sums(g, seq.prefix(max(g, default=0)))), g
    assert cone_contains({10**9: 1}, alternating(build_cartan("B", 2)))


def test_maps_read_the_target_off_the_source():
    """The target's letters at k, k + 1 and their previous occurrences, as the
    degree maps read them off the source, on every move of three periods of
    w0; on the periodic word a block past the first period reads the same."""
    for code in ("A3", "B3", "C3", "D4", "F4", "G2"):
        d = parse_type(code)
        periodic = IndexSequence(d, d.w0_word, periodic=True)
        word = unfold(periodic, 3 * d.longest_length)
        for k in range(1, len(word.letters)):
            try:
                move = detect_move(word, k)
            except BraidError:
                continue
            tgt = IndexSequence(d, swap_block(word.letters, move.kind, k))
            want = (tgt.letter(k), tgt.letter(k + 1), tgt.uminus(k), tgt.uminus(k + 1))
            assert _target_frame(move, word) == want == _target_frame(move, periodic), (code, k)


def random_cone_point(rng, seq, top, n_gens=5):
    g = {}
    for _ in range(n_gens):
        u = rng.randrange(1, top + 1)
        c = rng.randrange(0, 3)
        gen = cone_generator(seq, u)
        for k, v in gen.items():
            g[k] = g.get(k, 0) + c * v
    return {k: v for k, v in g.items() if v}


def move_cases():
    cases = []
    a3 = build_cartan("A", 3)
    s = IndexSequence(a3, (1, 3, 2, 1, 2, 3, 1, 3, 2, 1, 2, 3))
    cases.append((s, 1))  # two
    cases.append((s, 3))  # three
    s3 = IndexSequence(a3, (2, 1, 2, 3, 2, 1, 2, 3, 1, 2))
    cases.append((s3, 1))  # three at the boundary
    b3 = build_cartan("B", 3)
    s4 = IndexSequence(b3, (1, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3))
    cases.append((s4, 2))  # four, interior
    s5 = IndexSequence(b3, (2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3))
    cases.append((s5, 1))  # four at the boundary
    g2 = build_cartan("G", 2)
    s6 = IndexSequence(g2, tuple(1 if t % 2 == 0 else 2 for t in range(14)))
    cases.append((s6, 3))  # six, interior
    return cases


def test_cone_preservation_and_psum_consistency():
    rng = random.Random(31)
    for seq, k in move_cases():
        mv = detect_move(seq, k)
        tgt = IndexSequence(seq.datum, swap_block(seq.letters, mv.kind, k))
        for _ in range(300):
            g_src = random_cone_point(rng, seq, min(len(seq.letters), k + 7))
            g_tgt = gmap_apply(mv, seq, g_src)
            assert cone_contains(g_tgt, tgt), (seq.letters, k, g_src)
            deltas = psum_delta(mv, seq, g_src)
            for node in range(1, seq.datum.rank + 1):
                assert (
                    p_sum(g_tgt, tgt, node) - p_sum(g_src, seq, node) == deltas[node]
                ), (seq.letters, k, g_src, node)


def test_six_move_psum_delta_cases():
    g2 = build_cartan("G", 2)
    seq = IndexSequence(g2, tuple(1 if t % 2 == 0 else 2 for t in range(14)))
    mv = detect_move(seq, 3)  # interior: both neighbours exist
    assert psum_delta(mv, seq, {3: 2, 5: -1}) == {1: 0, 2: 0}
    boundary = IndexSequence(g2, tuple(2 if t % 2 == 0 else 1 for t in range(14)))
    mvb = detect_move(boundary, 1)
    # vanishing on the first four slots keeps every p-sum
    assert psum_delta(mvb, boundary, {5: 1, 7: -2}) == {1: 0, 2: 0}
    with pytest.raises(BraidError):
        psum_delta(mvb, boundary, {1: 1})


def test_shift_map_on_generators():
    """gmap_shift carries the cone generator at u of the shifted word to the
    one at u + 1 of the word, periodic or unfolded."""
    d = build_cartan("B", 2)
    seq = alternating(d)
    shifted = IndexSequence(d, seq.prefix(13)[1:])
    for u in range(1, 7):
        want = cone_generator(unfold(seq, 13), u + 1)
        for word in (seq, unfold(seq, 13)):
            assert gmap_shift(word, cone_generator(shifted, u)) == want
    with pytest.raises(BraidError, match="position 14 beyond a window of 13 letters"):
        gmap_shift(unfold(seq, 13), {13: 1})
    with pytest.raises(BraidError, match="degree position 0"):
        gmap_shift(seq, {0: 1})


@pytest.mark.parametrize("fam, n", ALL_TYPES)
@given(data=st.data())
def test_maps_land_in_the_single_block_target(fam, n, data):
    """On the periodic w0 word of every type, gmap_apply takes a cone point
    supported over three periods into the cone of the word with the one block
    swapped, and psum_delta, where it has a table, gives the p-sum change."""
    d = build_cartan(fam, n)
    ell = d.longest_length
    seq = IndexSequence(d, d.w0_word, periodic=True)
    moves = []
    for k in range(1, ell + 1):
        try:
            moves.append(detect_move(seq, k))
        except BraidError:
            pass
    if ell == 1:  # A1: a single letter carries no move
        assert moves == []
        return
    kind = data.draw(st.sampled_from(sorted({m.kind for m in moves})))
    mv = data.draw(st.sampled_from([m for m in moves if m.kind == kind]))
    g = {}
    for u, c in data.draw(st.lists(st.tuples(st.integers(1, 3 * ell), st.integers(1, 3)), max_size=8)):
        for v, x in cone_generator(seq, u).items():
            g[v] = g.get(v, 0) + c * x
    g = {u: x for u, x in g.items() if x}
    tgt = IndexSequence(d, swap_block(seq.prefix(3 * ell + mv.span), kind, mv.k))
    g_tgt = gmap_apply(mv, seq, g)
    assert cone_contains(g_tgt, tgt), (fam, n, mv, g, g_tgt)
    try:
        deltas = psum_delta(mv, seq, g)
    except BraidError:
        assert kind == "six"  # only some six-move boundaries have no table
    else:
        for node in range(1, d.rank + 1):
            assert p_sum(g_tgt, tgt, node) - p_sum(g, seq, node) == deltas[node], (fam, n, mv, g, node)


def _oracle_moves():
    """(periodic word, k) for every move in the first period of the w0 words
    of A3, B2 and G2, and for the 4-moves there of the B3, C3 and F4 words
    reached from w0 by the 3-move at 1 and the 2-move at 6."""
    out = []
    for code in ("A3", "B2", "G2", "B3", "C3", "F4"):
        d = parse_type(code)
        word = d.w0_word
        if code in ("B3", "C3", "F4"):  # no height-adapted w0 word of these has a 4-move at k <= l + 1
            word = swap_block(swap_block(word, "three", 1), "two", 6)
        seq = IndexSequence(d, word, periodic=True)
        for k in range(1, len(word) + 1):
            try:
                mv = detect_move(seq, k)
            except BraidError:
                continue
            if code in ("A3", "B2", "G2") or mv.kind == "four":
                out.append((seq, k))
    return out


def _gvec(g: tuple[int, ...]) -> dict[int, int]:
    return {u: x for u, x in enumerate(g, start=1) if x}


def _onto_alt(code, kind, n):
    """The word that the move at 1 carries onto the first n letters of the alternating word."""
    alt = alternating(parse_type(code))
    return IndexSequence(alt.datum, swap_block(alt.prefix(n), kind, 1))


@given(
    case=st.sampled_from(_oracle_moves()),
    grow=st.sampled_from((0, 2, "ell")),
    walk=st.lists(st.integers(0, 63), max_size=3),
)
@example(case=(_onto_alt("B2", "four", 16), 1), grow="ell", walk=[0, 1, 2])
@example(case=(_onto_alt("G2", "six", 18), 1), grow=2, walk=[2, 0])
def test_torus_oracle_equivalence(case, grow, walk):
    """Move recipes on the torus transport degrees exactly as gmap_apply says.

    T, the word with the move's block swapped, has the move back to the
    source S at k, with the same recipe.  Mutating T's initial state along
    it puts each variable of S at sigma(u); a walk on S replayed at sigma of
    its steps gives the same variables, whose degrees in T are gmap_apply of
    their degrees in S.  A walk step indexes S's exchangeable positions.
    A failure names the move, the window, the walk, the position, got and want.
    """
    seq, k = case
    d = seq.datum
    mv = detect_move(seq, k)
    window = min_window(mv, seq) + (d.longest_length if grow == "ell" else grow)
    walk = walk[: 2 if d.family in "GF" else 3]
    pair_s = build_seed(seq, window)
    pair_t = build_seed(IndexSequence(d, swap_block(seq.prefix(window), mv.kind, k)), window)
    sigma = mv.perm_map()
    src, tgt = ClusterState.from_pair(pair_s), ClusterState.from_pair(pair_t)
    for m in mv.mutations:
        tgt = mutate_state(tgt, m)
    ex = sorted(pair_s.exchangeable)
    steps = [ex[i % len(ex)] for i in walk]

    def check(src, tgt, u, done):
        got = _gvec(degree_of_pointed(tgt.variables[sigma.get(u, u) - 1], pair_t))
        want = gmap_apply(mv, seq, _gvec(degree_of_pointed(src.variables[u - 1], pair_s)))
        where = f"{mv.kind}-move at {k} on {seq.prefix(window)}, window {window}, walk {done}, position {u}"
        assert got == want, f"{where}: got {got}, want {want}"

    def step(src, tgt, u):
        return mutate_state(src, u), mutate_state(tgt, sigma.get(u, u))

    # the initial variables, every variable one step away, then the walk
    for u in range(1, window + 1):
        check(src, tgt, u, [])
    for u in ex:
        check(*step(src, tgt, u), u, [u])
    for j, u in enumerate(steps, start=1):
        src, tgt = step(src, tgt, u)
        check(src, tgt, u, steps[:j])
