import random

import pytest

from qcab.braid import BraidError, IndexSequence, alternating, detect_move, swap_block
from qcab.cartan import build_cartan
from qcab.gvectors import cone_generator
from qcab.lusztig import LusztigError, c_of_deg, cmap_apply, cmap_by_degrees, deg_of_c, nu

from test_cartan import ALL_TYPES
from weyl_oracle import bilinear, simple_root, weyl_act


def word(code, letters):
    return IndexSequence(build_cartan(code[0], int(code[1])), letters)


def test_deg_of_c_examples():
    w = word("B2", (1, 2, 1, 2))
    assert deg_of_c((0, 0, 0, 0), w) == {}
    assert deg_of_c((0, 0, 1, 0), w) == {3: 1, 1: -1}
    assert deg_of_c((1, 0, 0, 0), w) == {1: 1}


def test_deg_c_round_trip_random():
    rng = random.Random(17)
    words = [
        word("B2", (1, 2, 1, 2)),
        word("G2", (1, 2, 1, 2, 1, 2)),
        word("A3", (1, 2, 1, 3, 2, 1)),
    ]
    for w in words:
        for _ in range(3400):
            c = tuple(rng.randrange(0, 6) for _ in w.letters)
            assert c_of_deg(deg_of_c(c, w), w) == c


def test_c_of_deg_outside_cone():
    w = word("B2", (1, 2, 1, 2))
    with pytest.raises(LusztigError):
        c_of_deg({1: -1}, w)


def test_tail_sum_errors():
    """Negative tail sums and support outside 1..l leave the cone; a parameter
    vector running past a non-periodic word is refused."""
    w = word("B2", (1, 2, 1, 2))
    assert c_of_deg({3: 1, 1: -1}, w) == (0, 0, 1, 0)
    for g in ({3: -1, 1: 1}, {5: 1}, {0: 1}, {1: 1, 5: 1}):
        with pytest.raises(LusztigError, match="outside the parameter cone"):
            c_of_deg(g, w)
    assert c_of_deg({5: 0, 2: 1}, w) == (0, 1, 0, 0)
    with pytest.raises(BraidError, match="position 5 beyond"):
        deg_of_c((0, 1, 0, 0, 1), w)
    assert deg_of_c((0, 1, 0, 0, 1), IndexSequence(w.datum, w.letters, periodic=True)) == {2: 1, 5: 1, 3: -1}


def test_nu_examples():
    w = word("B2", (1, 2, 1, 2))
    assert nu((0, 0, 0, 0), w) == 0
    assert nu((1, 0, 0, 0), w) == -1  # -(alpha1, alpha1)/2 + 1 = -2 + 1
    assert nu((0, 0, 0, 1), w) == 0  # short root: -1 + 1
    g = word("G2", (1, 2, 1, 2, 1, 2))
    assert nu((1, 0, 0, 0, 0, 0), g) == 0  # short alpha1: -(2)/2 + 1
    # parameters are checked as deg_of_c checks them
    with pytest.raises(LusztigError, match="5 parameters for a word of 4 letters"):
        nu((0, 0, 0, 0, 1), w)
    with pytest.raises(LusztigError, match="non-negative"):
        nu((1, -1, 0, 0), w)


def test_nu_is_the_oracle_form_on_w0():
    """nu on w0 of every type against -1/2 sum c_k c_l (beta_k, beta_l) + sum c_k^2,
    with beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) and the form of the reference weights."""
    rng = random.Random(41)
    for fam, n in ALL_TYPES:
        d = build_cartan(fam, n)
        w0 = d.w0_word
        betas = [weyl_act(d, w0[:k], simple_root(d, i)) for k, i in enumerate(w0)]
        for _ in range(3):
            c = [0] * len(w0)
            for k in rng.sample(range(len(w0)), min(len(w0), 6)):
                c[k] = rng.randrange(1, 5)
            double = sum(
                ck * cl * bilinear(d, betas[k], betas[l]) for k, ck in enumerate(c) if ck for l, cl in enumerate(c) if cl
            )
            assert 2 * nu(tuple(c), IndexSequence(d, w0)) == -double + 2 * sum(x * x for x in c), (fam, n, c)


def test_two_move_swap():
    w = word("A3", (1, 3, 2, 1, 2, 3))
    mv = detect_move(w, 1)
    assert cmap_apply(mv, w, (2, 5, 1, 0, 0, 3)) == (5, 2, 1, 0, 0, 3)


def test_three_move_local_example():
    w = word("A2", (1, 2, 1))
    mv = detect_move(w, 1)
    assert cmap_apply(mv, w, (1, 0, 1)) == (0, 1, 0)
    assert cmap_apply(mv, w, (0, 1, 0)) == (1, 0, 1)


def test_four_move_unit_example():
    w = word("B2", (1, 2, 1, 2))
    mv = detect_move(w, 1)
    # the long-root unit parameter moves to the far slot of the reversed list
    assert cmap_apply(mv, w, (1, 0, 0, 0)) == (0, 0, 0, 1)


G2_ZETA_PART1 = {
    1: (0, 0, 0, 0, 0, 1),
    2: (1, 0, 0, 0, 0, 1),
    3: (3, 0, 0, 0, 0, 2),  # printed value weight-corrected in slot 6; see ledger
    4: (2, 0, 0, 0, 0, 1),
    5: (3, 0, 0, 0, 0, 1),
    6: (1, 0, 0, 0, 0, 0),
}
G2_ZETA_PART2 = {
    1: (0, 0, 0, 0, 0, 1),
    2: (1, 0, 0, 0, 0, 3),
    3: (1, 0, 0, 0, 0, 2),
    4: (2, 0, 0, 0, 0, 3),
    5: (1, 0, 0, 0, 0, 1),
    6: (1, 0, 0, 0, 0, 0),
}


def test_g2_six_move_basis_fixtures():
    wi = word("G2", (1, 2, 1, 2, 1, 2))
    wip = word("G2", (2, 1, 2, 1, 2, 1))
    mv_ip, mv_i = detect_move(wip, 1), detect_move(wi, 1)
    for u, want in G2_ZETA_PART1.items():
        c = tuple(1 if t == u - 1 else 0 for t in range(6))
        assert cmap_apply(mv_ip, wip, c) == want
    for u, want in G2_ZETA_PART2.items():
        c = tuple(1 if t == u - 1 else 0 for t in range(6))
        assert cmap_apply(mv_i, wi, c) == want


def closed_form_cases():
    return [
        (word("B2", (1, 2, 1, 2)), 1),
        (word("A3", (1, 3, 2, 1, 2, 3)), 1),
        (word("A3", (1, 2, 1, 3, 2, 1)), 1),
        (word("A3", (2, 1, 2, 3, 2, 1)), 1),
        (word("B3", (1, 2, 3, 2, 3, 2, 3, 1, 2)), 2),
        (word("B3", (2, 3, 2, 3, 1, 2, 3, 2, 1)), 1),
        (word("B3", (3, 2, 3, 2, 1, 2, 3, 2, 1)), 1),  # short letter first
        (word("C3", (3, 2, 3, 2, 3, 1, 2, 3, 2)), 1),
        (word("C3", (1, 2, 3, 2, 3, 2, 1, 3, 2)), 2),  # short letter first
        (word("B2", (2, 1, 2, 1)), 1),
    ]


def test_closed_forms_match_degree_conjugation():
    rng = random.Random(19)
    for w, k in closed_form_cases():
        mv = detect_move(w, k)
        for _ in range(400):
            c = tuple(rng.randrange(0, 5) for _ in w.letters)
            assert cmap_apply(mv, w, c) == cmap_by_degrees(mv, w, c), (w.letters, k, c)


def test_cmap_bijection_inverse_move():
    rng = random.Random(29)
    for w, k in closed_form_cases():
        mv = detect_move(w, k)
        tgt = IndexSequence(w.datum, swap_block(w.letters, mv.kind, k))
        mv_back = detect_move(tgt, k)
        for _ in range(200):
            c = tuple(rng.randrange(0, 5) for _ in w.letters)
            assert cmap_apply(mv_back, tgt, cmap_apply(mv, w, c)) == c


def test_cmap_validates_input():
    """cmap_apply and cmap_by_degrees refuse the same inputs with the same message."""
    w = word("B2", (1, 2, 1, 2))
    alt = alternating(w.datum)
    for fn in (cmap_apply, cmap_by_degrees):
        for seq, k, c, error in (
            (w, 1, (1, 0, 0), "parameter length must match the word"),
            (w, 1, (1, 0, 0, 0, 0), "parameter length must match the word"),
            (w, 1, (1, -1, 0, 0), "parameters must be non-negative"),
            (alt, 2, (1, 0, 0, 0), "a four-move at 2 runs past the 4 letters of the word"),
        ):
            with pytest.raises(LusztigError, match=error):
                fn(detect_move(seq, k), seq, c)


@pytest.mark.parametrize("code, k", [("A3", 6), ("A2", 3)])
def test_cmap_refuses_a_block_past_the_word(code, k):
    """A move found on the periodic word whose block leaves the first period
    (a two-move at 6 on A3, a three-move at 3 on A2) has no parameter map."""
    d = build_cartan(code[0], int(code[1]))
    periodic = IndexSequence(d, d.w0_word, periodic=True)
    mv = detect_move(periodic, k)
    with pytest.raises(LusztigError, match=f"at {k} runs past the {len(d.w0_word)} letters"):
        cmap_apply(mv, periodic, (1,) * len(d.w0_word))
