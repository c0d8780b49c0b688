import copy
import hashlib
import itertools
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcab.braid import alternating, build_seed
from qcab.cartan import build_cartan, parse_type
from qcab.commutative import LaurentPoly, RationalX
from qcab.seeds import mutate_pair
from qcab.torus import (
    ClusterState,
    DivisionRemainderError,
    NotPointedError,
    QCoeff,
    QLaurent,
    TorusError,
    WindowTorus,
    _packed_product,
    _packs,
    degree_of_pointed,
    divide_right_exact,
    leading_term,
    mutate_state,
    predicted_degree,
    q_structure_witness,
    qcoeff_from_text,
    qcoeff_to_text,
    qlaurent_from_text,
    qlaurent_to_text,
)


def b2_pair(window=4):
    return build_seed(alternating(build_cartan("B", 2)), window)


def small_torus():
    return WindowTorus(np.array([[0, 2, -1], [-2, 0, 3], [1, -3, 0]], dtype=np.int64))


def test_qcoeff_arithmetic_and_text():
    a = QCoeff({1: 2, -3: 1})
    b = QCoeff({0: 1, 1: -2})
    assert (a + b) - b == a
    assert a * QCoeff.one() == a
    assert (a * b).bar() == a.bar() * b.bar()
    for c in (a, b, a * b, QCoeff.integer(-7)):
        assert qcoeff_from_text(qcoeff_to_text(c)) == c
    assert not QCoeff({2: 0})
    assert QCoeff.q_power(4).is_q_power()
    assert not a.is_q_power()


def test_normal_monomial_relations():
    torus = small_torus()
    z1 = QLaurent.generator(torus, 1)
    z2 = QLaurent.generator(torus, 2)
    z1i = QLaurent.generator(torus, 1, -1)
    one = QLaurent.monomial(torus, (0, 0, 0))
    assert z1 * z1i == one
    # Z_1 Z_2 = q^{Lambda_12} Z_2 Z_1
    assert z1 * z2 == (z2 * z1).scale(QCoeff.q_power(2 * 2))
    # bar fixes normalized monomials
    m = QLaurent.monomial(torus, (2, -1, 3))
    assert m.bar() == m


def random_qlaurent(rng, torus, n_terms=3, span=2):
    x = QLaurent.zero(torus)
    for _ in range(n_terms):
        a = tuple(rng.randrange(-span, span + 1) for _ in range(len(torus.one)))
        coeff = QCoeff({rng.randrange(-3, 4): rng.randrange(-2, 3) or 1})
        x = x + QLaurent.monomial(torus, a, coeff)
    return x


def test_pickle_and_copy_keep_the_interned_torus():
    x = random_qlaurent(random.Random(3), small_torus())
    y = pickle.loads(pickle.dumps(x))
    assert y == x and y.torus is x.torus
    state = mutate_state(ClusterState.from_pair(b2_pair()), 1)
    clone = copy.deepcopy(state)
    assert clone.variables == state.variables
    assert all(v.torus is state.variables[0].torus for v in clone.variables)


def test_multiplication_associative_random():
    rng = random.Random(7)
    torus = small_torus()
    for _ in range(100):
        x, y, z = (random_qlaurent(rng, torus) for _ in range(3))
        assert (x * y) * z == x * (y * z)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bar_is_an_antiautomorphism(data):
    torus = small_torus()
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_qlaurent(rng, torus)
    y = random_qlaurent(rng, torus)
    assert (x * y).bar() == y.bar() * x.bar()


def test_exact_division_roundtrip():
    rng = random.Random(13)
    torus = small_torus()
    for _ in range(60):
        d = random_qlaurent(rng, torus, n_terms=2)
        lead_exp = max(d.terms) if d.terms else None
        if d.is_zero:
            continue
        # force a unit leading coefficient
        a, _ = leading_term(d)
        d = d + QLaurent.monomial(torus, a, QCoeff.q_power(1)) - QLaurent.monomial(torus, a, d.terms[a])
        x = random_qlaurent(rng, torus, n_terms=3)
        assert divide_right_exact(x * d, d) == x
    with pytest.raises(DivisionRemainderError):
        divide_right_exact(
            QLaurent.generator(small_torus(), 1) + QLaurent.generator(small_torus(), 3),
            QLaurent.generator(small_torus(), 2) + QLaurent.monomial(small_torus(), (0, 0, 0)),
        )


# Few exponents and q-powers, so sums and products collide and cancel.
_exponents = st.tuples(*[st.integers(-1, 1)] * 3)
_coeffs = st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), min_size=1, max_size=3)


@st.composite
def qlaurents(draw, max_terms=4):
    x = QLaurent.zero(small_torus())
    for a, c in draw(st.dictionaries(_exponents, _coeffs, max_size=max_terms)).items():
        x = x + QLaurent.monomial(small_torus(), a, QCoeff(c))
    return x


def assert_canonical(x):
    for c in x.terms.values():
        assert c.terms and all(c.terms.values())


def _naive_product(x, y):
    """The product summed one term pair at a time, with numpy twists."""
    torus = x.torus
    out = QLaurent.zero(torus)
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            twist = int(np.array(a) @ torus.lam @ np.array(b))
            key = tuple(u + v for u, v in zip(a, b))
            out = out + QLaurent.monomial(torus, key, (ca * cb).shift(twist))
    return out


@given(qlaurents(), qlaurents(), qlaurents(), qlaurents())
def test_product_ring_laws_and_canonical_form(x, y, z, w):
    z = w - y  # y + z = w, so the products below cancel term by term
    products = [x * y, y * z, (x * y) * z, x * (y * z), x * w, (y + z) * x]
    assert products[0] == _naive_product(x, y) and products[1] == _naive_product(y, z)
    assert products[2] == products[3]
    assert x * (y + z) == x * y + x * z == products[4]
    assert products[5] == y * x + z * x
    assert (x * y + x * z) - x * w == QLaurent.zero(small_torus())
    for p in products:
        assert_canonical(p)


@given(_exponents, _exponents, _exponents)
def test_product_drops_cancelled_terms(a, b, c):
    torus = small_torus()
    e = tuple(x + y - z for x, y, z in zip(c, a, b))
    key = tuple(x + y for x, y in zip(a, c))
    # X^a X^c and X^b X^e land on the same key; weight X^e to cancel it exactly.
    (t1,) = (QLaurent.monomial(torus, a) * QLaurent.monomial(torus, c)).terms[key].terms
    (t2,) = (QLaurent.monomial(torus, b) * QLaurent.monomial(torus, e)).terms[key].terms
    u = QLaurent.monomial(torus, a) + QLaurent.monomial(torus, b)
    v = QLaurent.monomial(torus, c) - QLaurent.monomial(torus, e, QCoeff.q_power(t1 - t2))
    p = u * v
    assert_canonical(p)
    assert key not in p.terms and len(p.terms) == (0 if a == b else 2)


# Long coefficients in steps of q^{step/2}, so that products pack: entries
# past 2^64 of both signs among small ones, some of them cancelling.
_run_entries = st.integers(-3, 3) | st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**65) + 3, 2**70 - 1])


@st.composite
def coeff_runs(draw, step, min_size=1, max_size=8, entries=_run_entries):
    lo = draw(st.integers(-4, 4))
    values = draw(st.lists(entries, min_size=min_size, max_size=max_size))
    return QCoeff({lo + step * j: v for j, v in enumerate(values)})


@st.composite
def long_qlaurents(draw, step, max_terms=4):
    terms = {}
    for a in draw(st.lists(_exponents, max_size=max_terms, unique=True)):
        if c := draw(coeff_runs(step)):
            terms[a] = c
    return QLaurent(small_torus(), terms)


@given(st.sampled_from([1, 2, 4]), st.data())
def test_packed_product_matches_termwise_sum(step, data):
    """Both sides of the size rule, against the term-pair sum."""
    x = data.draw(long_qlaurents(step) | qlaurents())
    y = data.draw(long_qlaurents(step) | qlaurents())
    p = x * y
    assert p == _naive_product(x, y)
    assert_canonical(p)


def test_packed_product_reads_entries_at_the_digit_bound():
    """One entry reaches 2^63 + 2^32, with M = 2^32 (2^31 + 4) just under 2^64."""
    torus = small_torus()
    x = QLaurent.monomial(torus, (1, 0, 0), QCoeff({0: 2**32}))
    y = QLaurent.monomial(torus, (0, 1, 0), QCoeff({0: 2**31 + 1, 2: 1, 4: 1, 6: 1}))
    assert _packs(x, y)
    p = x * y
    assert p == _naive_product(x, y)
    assert p.terms[(1, 1, 0)].terms[2] == 2**63 + 2**32


@pytest.mark.parametrize("gap, e", [(20_000, 1), (3, 500)])
def test_packed_product_leaves_sparse_and_spread_products_to_the_dict_path(gap, e):
    """Both pass the size rule.  A gap of 20,000 half-units in a 4-entry coefficient packs as
    20,001 digits; at exponent 500 the two products on key (e, e) lie 2 e^2 half-units apart."""
    torus = WindowTorus(np.array([[0, 1], [-1, 0]], dtype=np.int64))
    c = QCoeff({0: 1, 1: -(2**64), 2: 3, gap: 1})
    x = QLaurent.monomial(torus, (e, 0), c) + QLaurent.monomial(torus, (0, e), c)
    y = QLaurent.monomial(torus, (0, e), c) + QLaurent.monomial(torus, (e, 0), c)
    assert _packs(x, y) and _packed_product(x, y) is None
    assert x * y == _naive_product(x, y)


@given(_exponents, _exponents, _exponents, coeff_runs(2, 8, 8, _run_entries.filter(bool)), st.integers(0, 8), st.booleans())
def test_packed_product_cancels_whole_and_digitwise(a, b, c, coeff, cut, odd):
    """X^a X^c coeff and X^b X^e part land on one key, where the entries of part cancel.

    part is coeff from its cut-th entry on, so the key cancels whole at cut 0
    and digit by digit otherwise.  An odd shift puts the two products on
    different residues mod g = 2: the product takes the dict path, and nothing
    cancels.
    """
    torus = small_torus()
    e = tuple(x + y - z for x, y, z in zip(c, a, b))
    key = tuple(x + y for x, y in zip(a, c))
    (t1,) = (QLaurent.monomial(torus, a) * QLaurent.monomial(torus, c)).terms[key].terms
    (t2,) = (QLaurent.monomial(torus, b) * QLaurent.monomial(torus, e)).terms[key].terms
    part = QCoeff(dict(sorted(coeff.terms.items())[cut:]))
    u = QLaurent.monomial(torus, a) + QLaurent.monomial(torus, b)
    v = QLaurent.monomial(torus, c, coeff) - QLaurent.monomial(torus, e, part.shift(t1 - t2 + odd))
    p = u * v
    assert p == _naive_product(u, v)
    assert_canonical(p)
    if a != b:
        assert _packs(u, v)
        assert (_packed_product(u, v) is None) == (odd and bool(part))
        rest = coeff - part.shift(odd)
        assert p.terms.get(key, QCoeff()) == rest.shift(t1)


@given(qlaurents(), qlaurents(max_terms=3), st.integers(-3, 3), st.sampled_from([1, -1]))
def test_division_inverts_product(x, d, k, sign):
    if d.is_zero:
        return
    a, c = leading_term(d)
    d = d + QLaurent.monomial(small_torus(), a, QCoeff.q_power(k, sign) - c)
    stats = {}
    y = divide_right_exact(x * d, d, stats=stats)
    assert y == x
    assert_canonical(y)
    steps, peak = _naive_division_trace(x * d, d)
    assert stats == {"steps": steps, "remainder_peak": peak, "output_terms": len(x.terms)}


def _naive_division_trace(x, d, max_steps=None):
    """Steps and largest remainder of leading-term division by whole products."""
    torus = x.torus
    lead, lead_coeff = leading_term(d)
    rem, steps, peak = x, 0, len(x.terms)
    while not rem.is_zero and steps != max_steps:
        m, c = leading_term(rem)
        t = tuple(u - v for u, v in zip(m, lead))
        (twist,) = (QLaurent.monomial(torus, t) * QLaurent.monomial(torus, lead)).terms[m].terms
        rem = rem - QLaurent.monomial(torus, t, (c * lead_coeff.q_power_inverse()).shift(-twist)) * d
        steps += 1
        peak = max(peak, len(rem.terms))
    return steps, peak


def test_division_stats_and_remainder_witness():
    torus = small_torus()
    pair = b2_pair()
    state = mutate_state(mutate_state(ClusterState.from_pair(pair), 1), 2)
    x, d = state.variables[0], state.variables[1]
    stats = {}
    assert divide_right_exact(x * d, d, stats=stats) == x
    steps, peak = _naive_division_trace(x * d, d)
    assert stats == {"steps": steps, "remainder_peak": peak, "output_terms": len(x.terms)}
    # 1 + Z_2 leads with 1, so 1 / (1 + Z_2) runs the series 1 - Z_2 + Z_2^2 - ...
    # up to the cap of 4 (1 + 1)(2 + 1) + 64 = 88 steps, and Z_2^88 leads the remainder.
    one = QLaurent.monomial(torus, (0, 0, 0))
    stats = {}
    with pytest.raises(DivisionRemainderError, match=r"after 88 steps, leading term \(1\) Z\[2\]\^88$"):
        divide_right_exact(one, one + QLaurent.generator(torus, 2), stats=stats)
    assert stats == {"steps": 88, "remainder_peak": 1, "output_terms": 88}
    # Each step trades the leading remainder term for Z_1 and Z_2 multiples,
    # up to the cap of 4 (1 + 1)(3 + 1) + 64 = 96 steps.
    x = QLaurent.generator(torus, 3)
    d = one + QLaurent.generator(torus, 1) + QLaurent.generator(torus, 2)
    with pytest.raises(DivisionRemainderError, match="after 96 steps"):
        divide_right_exact(x, d, stats=stats)
    peak = _naive_division_trace(x, d, max_steps=96)[1]
    assert stats == {"steps": 96, "remainder_peak": peak, "output_terms": 96}
    assert stats["remainder_peak"] > 2


def test_heavy_g2_walk_golden_digests():
    """The eight steps of criterion 8's heavy G2 walk, against fixed digests.

    Step 8 multiplies v3 v3 v3 (1,720 x 197 terms) and v2 v2 v6, and gives a
    variable of 5,058 terms; its products take the packed path.
    """
    pair = build_seed(alternating(parse_type("G2")), 6)
    state = ClusterState.from_pair(pair)
    digests = {
        6: "67f1eb8ace72c633e73f855f3e6ec15bddf5be04284e1eb2a66ab25518f79260",
        7: "55ba5b1e6a48e2355c2cd99a98d3e0deb0b6e24e5d8f35a721fd9980c03c3d46",
        8: "355c12ec5ded88f02dc44d7a08e98c6c1163743ee0e36743bda34cecfd107e51",
    }
    for step, k in enumerate((2, 1, 3, 4, 1, 2, 3, 4), start=1):
        state = mutate_state(state, k)
        text = "\n".join(qlaurent_to_text(v) for v in state.variables)
        if step in digests:
            assert hashlib.sha256(text.encode()).hexdigest() == digests[step]
        for u in range(1, pair.size + 1):
            assert degree_of_pointed(state.variables[u - 1], pair) == predicted_degree(state, u)


def _replayed_stats(state, k):
    """mutate_state's record, recomputed from whole products and sums and the division trace."""
    cur = state.current
    col = cur.b[:, k - 1].tolist()
    lam = cur.lam.tolist()
    old = state.variables[k - 1]
    num, pairs, packed = QLaurent.zero(old.torus), 0, 0
    for sign in (1, -1):
        m = [(u, sign * b) for u, b in enumerate(col) if u != k - 1 and sign * b > 0]
        shift = sum(mu * lam[u][k - 1] for u, mu in m)
        shift -= sum(mu * mv * lam[u][v] for i, (u, mu) in enumerate(m) for v, mv in m[i + 1 :])
        term = QLaurent.monomial(old.torus, old.torus.one, QCoeff.q_power(shift))
        for u, mu in m:
            for _ in range(mu):
                x = state.variables[u]
                pairs += len(term.terms) * len(x.terms)
                packed += len(term.terms) * len(x.terms) if _packs(term, x) else 0
                term = term * x
        num = num + term
    steps, peak = _naive_division_trace(num, old)
    new = mutate_state(state, k).variables[k - 1]
    assert divide_right_exact(num, old) == new
    return {
        "numerator_terms": len(num.terms),
        "term_pairs": pairs,
        "packed_pairs": packed,
        "longest_coefficient": max(len(c.terms) for c in new.terms.values()),
        "steps": steps,
        "remainder_peak": peak,
    }


def test_mutate_state_stats():
    state = ClusterState.from_pair(b2_pair())
    stats = {}
    after = mutate_state(state, 1, stats=stats)
    assert after == mutate_state(state, 1)
    assert stats == _replayed_stats(state, 1) == {
        "numerator_terms": 2, "term_pairs": 3, "packed_pairs": 0,
        "longest_coefficient": 1, "steps": 2, "remainder_peak": 2,
    }
    state = ClusterState.from_pair(build_seed(alternating(parse_type("G2")), 6))
    for k in (2, 1, 3, 4, 1, 2):
        state = mutate_state(state, k)
    stats = {}
    mutate_state(state, 3, stats=stats)
    assert stats == _replayed_stats(state, 3) == {
        "numerator_terms": 367, "term_pairs": 550, "packed_pairs": 359,
        "longest_coefficient": 34, "steps": 197, "remainder_peak": 367,
    }


def test_one_step_exchange_degree():
    pair = b2_pair()
    st0 = ClusterState.from_pair(pair)
    st1 = mutate_state(st0, 1)
    b = pair.b
    want = tuple(
        (-1 if u == 1 else max(-int(b[u - 1, 0]), 0)) for u in range(1, pair.size + 1)
    )
    assert degree_of_pointed(st1.variables[0], pair) == want


def test_mutation_involution_restores_variables():
    pair = b2_pair()
    st0 = ClusterState.from_pair(pair)
    for k in (1, 2):
        st2 = mutate_state(mutate_state(st0, k), k)
        assert st2.variables == st0.variables
        assert st2.current == pair


def test_not_pointed_detection():
    pair = b2_pair()
    torus = WindowTorus(pair.lam)
    one = QLaurent.monomial(torus, (0, 0, 0, 0))
    # B e_1 = (0, 2, -1, 0) and B e_2 = (-1, 0, 1, -1) on this seed.
    assert degree_of_pointed(one + QLaurent.monomial(torus, (0, 2, -1, 0)), pair) == (0, 0, 0, 0)
    planted = [
        QLaurent.generator(torus, 1) + QLaurent.generator(torus, 2),
        QLaurent.generator(torus, 1).scale(QCoeff({0: 2})),  # lead coefficient 2
        one + QLaurent.monomial(torus, (1, 2, -2, 1)),  # B (e_1 - e_2): n has a negative entry
        one + QLaurent.generator(torus, 4, -1),  # Lambda (m - g) gives n = 0, but B n != m - g
    ]
    for x in planted:
        with pytest.raises(NotPointedError):
            degree_of_pointed(x, pair)


@pytest.mark.parametrize("u", [0, -1, 5])
def test_generator_rejects_positions_outside_the_window(u):
    with pytest.raises(TorusError, match=f"position {u} outside the window 1..4"):
        QLaurent.generator(WindowTorus(b2_pair().lam), u)


@pytest.mark.parametrize("u", [0, 5, -2])
def test_predicted_degree_rejects_positions_outside_the_window(u):
    state = mutate_state(ClusterState.from_pair(b2_pair()), 1)
    with pytest.raises(TorusError, match=f"position {u} outside the window 1..4"):
        predicted_degree(state, u)


def test_degree_of_pointed_checks_its_torus():
    pair = b2_pair()
    foreign = WindowTorus(-pair.lam)  # same size, another torus
    lone = QLaurent.generator(foreign, 1)  # pointed, but over another Lambda
    summed = lone + QLaurent.generator(foreign, 2)
    for x in (lone, summed):
        with pytest.raises(TorusError, match="mismatched ambient tori"):
            degree_of_pointed(x, pair)
    assert degree_of_pointed(QLaurent.generator(WindowTorus(np.array(pair.lam)), 1), pair) == (1, 0, 0, 0)


def _fraction_walk(pair0, walk):
    """The q=1 fraction-field walk, as an independent oracle: the variables
    before the walk and after each of its steps (one list, updated in place)."""
    xs = [RationalX.from_poly(LaurentPoly.var(u)) for u in range(1, pair0.size + 1)]
    yield xs
    b = pair0.b.copy()
    for k in walk:
        col = b[:, k - 1]
        mp_r = RationalX.from_poly(LaurentPoly.const(1))
        mm_r = RationalX.from_poly(LaurentPoly.const(1))
        for v in range(pair0.size):
            e = int(col[v])
            if e > 0:
                mp_r = mp_r * xs[v] ** e
            elif e < 0:
                mm_r = mm_r * xs[v] ** (-e)
        xs[k - 1] = (mp_r + mm_r) * xs[k - 1].inverse()
        row = b[k - 1, :].copy()
        colc = col.copy()
        b2 = b + np.outer(np.maximum(colc, 0), np.maximum(row, 0)) - np.outer(
            np.maximum(-colc, 0), np.maximum(-row, 0)
        )
        b2[k - 1, :] = -row
        b2[:, k - 1] = -colc
        b = b2
        yield xs


def _commutative_specialization(state):
    *_, xs = _fraction_walk(state.initial, state.history)
    return xs


@pytest.mark.parametrize("code, window, steps", [("B2", 4, 10), ("G2", 6, 6)])
def test_fraction_walk_stays_laurent(code, window, steps):
    """Each exchange divides out exactly (the Laurent phenomenon at q = 1), so
    make's one cancellation keeps every variable a Laurent polynomial."""
    pair = build_seed(alternating(parse_type(code)), window)
    walk = list(itertools.islice(itertools.cycle(sorted(pair.exchangeable)), steps))
    for xs in _fraction_walk(pair, walk):
        assert all(x.is_polynomial for x in xs)


def _at_q1(x):
    out = LaurentPoly.zero()
    for a, c in x.terms.items():
        out = out + LaurentPoly.monomial(
            {u + 1: e for u, e in enumerate(a) if e}, c.at_q1()
        )
    return out


WALK_SEEDS = {("B2", 4): 6, ("G2", 6): 4}  # (type, window): longest walk drawn


@given(st.data())
def test_q1_specialization_matches_commutative_fractions(data):
    """Along a drawn exchange walk, every step agrees with the q = 1 fraction
    walk, the stepwise degree rule and a seed-only replay of its history."""
    code, window = data.draw(st.sampled_from(sorted(WALK_SEEDS)))
    pair = build_seed(alternating(parse_type(code)), window)
    walk = data.draw(st.lists(st.sampled_from(sorted(pair.exchangeable)), max_size=WALK_SEEDS[(code, window)]))
    state, replay = ClusterState.from_pair(pair), pair
    for k in walk:
        state, replay = mutate_state(state, k), mutate_pair(replay, k)
        assert state.initial == pair and state.current == replay
        oracle = _commutative_specialization(state)
        for u in range(1, pair.size + 1):
            x = state.variables[u - 1]
            assert RationalX.from_poly(_at_q1(x)) == oracle[u - 1]
            assert degree_of_pointed(x, pair) == predicted_degree(state, u)
            assert q_structure_witness(x) is None


def test_q_structure_witness_names_the_smallest_bad_monomial():
    torus = small_torus()
    sym = QCoeff({-1: 2, 1: 2})
    x = QLaurent.monomial(torus, (0, 1, 0), sym) + QLaurent.monomial(torus, (1, 0, 0), QCoeff({0: 1}))
    assert q_structure_witness(x) is None
    skew = x + QLaurent.monomial(torus, (0, 0, 1), QCoeff({1: 1})) + QLaurent.monomial(torus, (0, 0, 2), QCoeff({2: 1}))
    assert q_structure_witness(skew) == "not bar-invariant: coefficient (q^1/2) of Z[3]"
    negative = x - QLaurent.monomial(torus, (0, 1, 0), sym).scale(QCoeff({0: 2}))
    assert q_structure_witness(negative) == "not positive: coefficient (-2*q^1/2 - 2*q^-1/2) of Z[2]"
    assert q_structure_witness(negative + skew) == "not bar-invariant: coefficient (q^1/2) of Z[3]"


def test_b2_ladder_path_positive_laurent():
    """Along the ladder-stepping path every variable stays bar-invariant and positive Laurent."""
    pair = b2_pair(4)
    state = ClusterState.from_pair(pair)
    for k in (1, 2, 1, 1, 2, 1):
        state = mutate_state(state, k)
        for v in state.variables:
            assert q_structure_witness(v) is None
    oracle = _commutative_specialization(state)
    for u in range(pair.size):
        assert RationalX.from_poly(_at_q1(state.variables[u])) == oracle[u]


def test_equal_degree_equal_monomial_rank2():
    """Distinct cluster variables found by short walks have distinct degrees."""
    cases = [(b2_pair(), 5)]
    cases.append((build_seed(alternating(build_cartan("G", 2)), 6), 3))
    for pair, max_depth in cases:
        seen = {}
        stack = [(ClusterState.from_pair(pair), 0)]
        while stack:
            state, depth = stack.pop()
            for u in range(pair.size):
                g = degree_of_pointed(state.variables[u], pair)
                prev = seen.get(g)
                assert prev is None or prev == state.variables[u]
                seen[g] = state.variables[u]
            if depth < max_depth:
                for k in sorted(state.current.exchangeable):
                    stack.append((mutate_state(state, k), depth + 1))
        assert len(seen) > pair.size


@given(qlaurents())
def test_text_round_trip(x):
    assert qlaurent_from_text(small_torus(), qlaurent_to_text(x)) == x


# One character of a canonical text deleted, replaced or inserted.
_EDITS = st.tuples(st.integers(0, 200), st.sampled_from(["", *"()[]^*+-,/ qXZ0123"]), st.sampled_from([0, 1]))


def edit_text(text, edit):
    at, ch, cut = edit
    at %= len(text)
    return text[:at] + ch + text[at + cut :]


@given(qlaurents(), _EDITS)
def test_malformed_text_raises_torus_error(x, edit):
    try:
        qlaurent_from_text(small_torus(), edit_text(qlaurent_to_text(x), edit))
    except TorusError:
        pass


@pytest.mark.parametrize(
    "text, named",
    [
        ("(1) Z[1,2]", "'Z[1,2]': expected Z[n]"),
        ("(1) X[1]", "'X[1]': expected Z[n]"),
        ("(1)) Z[1]", "') Z[1]': expected Z[n]"),
        ("(1 Z[1]", "unbalanced parentheses"),
        ("(1) Z[4]", "index 4 outside window"),
        ("(1) Z[0]", "index 0 outside window"),
        ("(q^x) Z[1]", "bad integer 'x'"),
        ("(2*) Z[1]", "bad integer ''"),
        ("(1) Z[1]^", "bad integer ''"),
    ],
)
def test_text_parser_names_the_bad_part(text, named):
    with pytest.raises(TorusError, match=re.escape(named)):
        qlaurent_from_text(small_torus(), text)
