import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcab.cartan import (
    CartanError,
    WeylWalk,
    beta_sequence,
    build_cartan,
    is_reduced,
    longest_word,
    parity_function,
    parse_type,
)
from qcab.qgroth import check_kappa

from weyl_oracle import bilinear, fundamental_weight, simple_root, to_alpha, weight_from_alpha, weyl_act

ALL_TYPES = (
    [("A", n) for n in range(1, 11)]
    + [("B", n) for n in range(2, 11)]
    + [("C", n) for n in range(2, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_basic_tables():
    a1 = build_cartan("A", 1)
    assert a1.cartan == ((2,),)
    assert a1.symmetrizer == (1,)
    assert a1.coxeter_number == 2

    b2 = build_cartan("B", 2)
    assert b2.cartan == ((2, -1), (-2, 2))
    assert b2.symmetrizer == (2, 1)

    g2 = build_cartan("G", 2)
    assert g2.cartan == ((2, -3), (-1, 2))
    assert g2.symmetrizer == (1, 3)
    assert g2.coxeter_number == 6


def test_parse_type_and_errors():
    assert parse_type("F4").family == "F"
    with pytest.raises(CartanError):
        parse_type("H3")
    with pytest.raises(CartanError):
        build_cartan("B", 1)
    with pytest.raises(CartanError):
        build_cartan("E", 9)


def test_symmetrizability_all_types():
    for fam, n in ALL_TYPES:
        d = build_cartan(fam, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert d.d(i) * d.c(i, j) == d.d(j) * d.c(j, i)
        assert 2 * len(d.positive_roots) == n * d.coxeter_number


def test_b2_root_closure_example():
    d = build_cartan("B", 2)
    roots = {r for r in d.positive_roots}
    assert roots == {(1, 0), (1, 1), (1, 2), (0, 1)}
    betas = beta_sequence(d, (1, 2, 1, 2))
    assert betas == [(1, 0), (1, 1), (1, 2), (0, 1)]
    betas2 = beta_sequence(d, (2, 1, 2, 1))
    assert betas2 == [(0, 1), (1, 2), (1, 1), (1, 0)]


def test_g2_root_closure():
    d = build_cartan("G", 2)
    assert len(d.positive_roots) == 6


def test_beta_sequence_enumerates_positive_roots():
    for fam, n in ALL_TYPES:
        d = build_cartan(fam, n)
        betas = beta_sequence(d, d.w0_word)
        assert len(betas) == len(d.positive_roots)
        assert set(betas) == set(d.positive_roots)


def test_weyl_act_defining_relation():
    d = build_cartan("B", 3)
    for i in range(1, 4):
        v = weyl_act(d, (i,), fundamental_weight(d, i))
        assert v == tuple(p - a for p, a in zip(fundamental_weight(d, i), simple_root(d, i)))


def test_w0_star():
    for code, star in (("A3", (3, 2, 1)), ("D5", (1, 2, 3, 5, 4)), ("E6", (6, 2, 5, 4, 3, 1)), ("B4", (1, 2, 3, 4))):
        assert parse_type(code).star == star
    for fam, n in ALL_TYPES:
        d = build_cartan(fam, n)
        for i in range(1, d.rank + 1):
            img = weyl_act(d, d.w0_word, fundamental_weight(d, i))
            assert img == tuple(-x for x in fundamental_weight(d, d.star_of(i)))


@pytest.mark.parametrize("fam,n", ALL_TYPES)
@settings(max_examples=6)
@given(data=st.data())
def test_weyl_walk_matches_weyl_act(fam, n, data):
    """The walk against the reflection reference, on words that need not be
    reduced: y_j = pi_j - w pi_j for every j after each letter, the root of
    the letter is w(alpha_i) before it, and reducedness is the per-prefix rule."""
    d = build_cartan(fam, n)
    word = data.draw(st.lists(st.integers(1, n), max_size=min(2 * d.longest_length, 24)))
    walk = WeylWalk(d)
    first_descent = None
    for u, i in enumerate(word, 1):
        beta = list(to_alpha(d, weyl_act(d, word[: u - 1], simple_root(d, i))))
        if first_descent is None and min(beta) < 0:
            first_descent = u
        assert walk.root(i) == beta
        before = walk.y[i - 1]
        after = walk.step(i)
        assert [a - b for a, b in zip(after, before)] == beta
        for j in range(1, n + 1):
            pi = fundamental_weight(d, j)
            assert walk.y[j - 1] == list(to_alpha(d, tuple(p - x for p, x in zip(pi, weyl_act(d, word[:u], pi)))))
    assert is_reduced(d, word) == (first_descent is None)
    if first_descent is None:
        assert beta_sequence(d, word) == [
            to_alpha(d, weyl_act(d, word[:k], simple_root(d, i))) for k, i in enumerate(word)
        ]
    else:
        with pytest.raises(CartanError, match=f"position {first_descent}\\)"):
            beta_sequence(d, word)


def test_weyl_act_b2_example():
    d = build_cartan("B", 2)
    got = weyl_act(d, (2, 1), fundamental_weight(d, 1))
    want = tuple(p - a - 2 * b for p, a, b in zip(fundamental_weight(d, 1), simple_root(d, 1), simple_root(d, 2)))
    assert got == want


def test_weyl_group_action_properties():
    rng = random.Random(0)
    for code in ("B3", "G2", "A4"):
        d = parse_type(code)
        for _ in range(50):
            v = tuple(rng.randrange(-4, 5) for _ in range(d.rank))
            w = tuple(rng.randrange(1, d.rank + 1) for _ in range(6))
            # s_i s_i = id
            for i in range(1, d.rank + 1):
                assert weyl_act(d, (i, i), v) == v
            # braid-equivalent words act equally (braid relation on a pair)
            i, j = 1, 2
            m = {0: 2, 1: 3, 2: 4, 3: 6}[d.c(i, j) * d.c(j, i)]
            w1 = tuple(i if t % 2 == 0 else j for t in range(m))
            w2 = tuple(j if t % 2 == 0 else i for t in range(m))
            assert weyl_act(d, w1, v) == weyl_act(d, w2, v)
            # form invariance on root-lattice elements
            r1 = weight_from_alpha(d, tuple(rng.randrange(-3, 4) for _ in range(d.rank)))
            r2 = weight_from_alpha(d, tuple(rng.randrange(-3, 4) for _ in range(d.rank)))
            a1 = weyl_act(d, w, r1)
            a2 = weyl_act(d, w, r2)
            assert bilinear(d, a1, a2) == bilinear(d, r1, r2)


def test_bilinear_values():
    d = build_cartan("B", 2)
    a1, a2 = simple_root(d, 1), simple_root(d, 2)
    assert bilinear(d, a1, a1) == 4
    assert bilinear(d, a1, a2) == -2
    for i in (1, 2):
        for j in (1, 2):
            assert bilinear(d, simple_root(d, i), fundamental_weight(d, j)) == (d.d(i) if i == j else 0)
    # pi_1 = alpha_1 + alpha_2 lies in the root lattice of B2 and pi_2 does not
    assert bilinear(d, fundamental_weight(d, 1), fundamental_weight(d, 2)) == 1
    with pytest.raises(CartanError):
        bilinear(d, fundamental_weight(d, 2), fundamental_weight(d, 2))


def test_is_reduced():
    b2 = build_cartan("B", 2)
    assert is_reduced(b2, (1, 2, 1, 2))
    assert not is_reduced(b2, (1, 1))
    a2 = build_cartan("A", 2)
    assert is_reduced(a2, (1, 2, 1))
    assert not is_reduced(a2, (1, 2, 1, 2))
    assert not is_reduced(a2, (1, 3))
    with pytest.raises(CartanError, match="node 0"):
        beta_sequence(a2, (0,))


def test_longest_word_adapted():
    rng = random.Random(8)
    cases = [(build_cartan("B", 3), {1: 0, 2: -1, 3: 0})]
    for fam, n in ALL_TYPES:
        d = build_cartan(fam, n)
        for _ in range(2):
            # node 1 even, adjacent nodes one apart: a height function
            xi, todo = {1: 2 * rng.randint(-2, 2)}, [1]
            while todo:
                i = todo.pop()
                for j in range(1, n + 1):
                    if j not in xi and d.c(i, j) < 0:
                        xi[j] = xi[i] + rng.choice((-1, 1))
                        todo.append(j)
            cases.append((d, xi))
    for d, xi in cases:
        word = longest_word(d, xi)
        assert len(word) == d.longest_length
        assert is_reduced(d, word)
        # each letter is a source of the successively reflected quiver
        heights = dict(xi)
        for i in word:
            for j in range(1, d.rank + 1):
                if j != i and d.c(i, j) < 0:
                    assert heights[i] > heights[j]
            heights[i] -= 2
    b3 = build_cartan("B", 3)
    with pytest.raises(CartanError, match="misses node 2"):
        longest_word(b3, {1: 0})
    with pytest.raises(CartanError, match="parity mismatch at node 2"):
        longest_word(b3, {1: 0, 2: 0, 3: 0})
    # a key outside 1..n is refused, even beside a valid height function
    for extra in (4, 0, "x"):
        with pytest.raises(CartanError, match=f"node {extra!r} outside 1..3"):
            longest_word(b3, {1: 0, 2: 1, 3: 0, extra: 5})
    with pytest.raises(CartanError, match="node 'x' outside 1..2"):
        check_kappa(build_cartan("B", 2), {1: 0, 2: 1, "x": 5}, 4)


def test_parity_function():
    d = build_cartan("B", 3)
    assert parity_function(d) == {1: 0, 2: 1, 3: 0}
