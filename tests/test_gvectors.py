import random

import pytest

from qcab.braid import (
    BraidError,
    IndexSequence,
    alternating,
    apply_move_to_sequence,
    build_seed,
    detect_move,
    shift_move,
    swap_block,
    unfold,
)
from qcab.cartan import build_cartan, parse_type
from qcab.gvectors import _target_frame, cone_contains, cone_generator, gmap_apply, p_sum, psum_delta, tail_sums
from qcab.torus import ClusterState, degree_of_pointed, mutate_state


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
        tgt = apply_move_to_sequence(seq, mv)
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
    d = build_cartan("B", 2)
    seq = alternating(d)
    mv = shift_move(seq)
    shifted = apply_move_to_sequence(seq, mv)
    for u in range(1, 7):
        g_src = cone_generator(unfold(shifted, 12), u)
        got = gmap_apply(mv, unfold(shifted, 12), g_src)
        want = cone_generator(unfold(seq, 13), u + 1)
        assert got == want


def torus_oracle(seq_tgt, mv, src, window):
    pair_t = build_seed(seq_tgt, window)
    pair_s = build_seed(src, window)
    st = ClusterState.from_pair(pair_t)
    for m in mv.mutations:
        st = mutate_state(st, m)
    sigma = mv.perm_map()
    checks = []
    for v in range(1, window + 1):
        img = st.variables[sigma.get(v, v) - 1]
        g = degree_of_pointed(img, pair_t)
        checks.append(({v: 1}, {u + 1: x for u, x in enumerate(g) if x}))
    for k in sorted(pair_s.exchangeable):
        stp = mutate_state(ClusterState.from_pair(pair_s), k)
        gp = degree_of_pointed(stp.variables[k - 1], pair_s)
        st2 = mutate_state(st, sigma.get(k, k))
        img = st2.variables[sigma.get(k, k) - 1]
        g = degree_of_pointed(img, pair_t)
        checks.append(
            (
                {u + 1: x for u, x in enumerate(gp) if x},
                {u + 1: x for u, x in enumerate(g) if x},
            )
        )
    return checks


def test_torus_oracle_equivalence():
    """Move recipes on the torus transport degrees exactly as the maps say."""
    b2 = build_cartan("B", 2)
    tgt_b2 = unfold(alternating(b2), 16)
    src_b2 = IndexSequence(b2, swap_block(tgt_b2.letters, "four", 1))
    mv_b2 = detect_move(src_b2, 1)
    for g_src, g_want in torus_oracle(tgt_b2, mv_b2, src_b2, 8):
        assert gmap_apply(mv_b2, src_b2, g_src) == g_want

    g2 = build_cartan("G", 2)
    tgt_g2 = unfold(alternating(g2), 18)
    src_g2 = IndexSequence(g2, swap_block(tgt_g2.letters, "six", 1))
    mv_g2 = detect_move(src_g2, 1)
    for g_src, g_want in torus_oracle(tgt_g2, mv_g2, src_g2, 8):
        assert gmap_apply(mv_g2, src_g2, g_src) == g_want
