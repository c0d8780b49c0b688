import copy
import dataclasses
import gc
import hashlib
import itertools
import pickle
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcab.torus as torus_module
from qcab.braid import IndexSequence, alternating, build_seed
from qcab.cartan import build_cartan, parse_type
from qcab.commutative import LaurentPoly, RationalX
from qcab.qgroth import TCartan, XElement, XTorus
from qcab.seeds import CompatiblePair, check_compatible, make_pair, mutate_pair
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
    qlaurent_to_text,
)

from degree_oracle import replayed_degree, seed_chain


def qlaurent_from_text(torus, text):
    """The window-torus element written by ``qlaurent_to_text``; a bad term or index raises TorusError."""
    out = QLaurent.zero(torus)
    s = len(torus.one)
    for coeff, factors in torus_module._parse_terms(text, "Z", 1):
        a = [0] * s
        for (u,), exp in factors:
            if not 1 <= u <= s:
                raise TorusError(f"index {u} outside window")
            a[u - 1] += exp
        out = out + QLaurent.monomial(torus, a, coeff)
    return out


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


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"])
def test_copied_states_start_their_own_exchange_table(clone):
    """A copy keeps the variables, the history, the seeds and the degrees, and labels its variables 0..s-1."""
    state = ClusterState.from_pair(build_seed(alternating(parse_type("G2")), 6))
    for k in (2, 1, 3):
        state = mutate_state(state, k)
    copied = clone(state)
    assert copied == state and copied.degrees == state.degrees
    assert copied.labels == tuple(range(6)) and copied.exchanges is not state.exchanges
    assert not copied.exchanges.entries
    for k in (4, 1):
        after, copied_after = mutate_state(state, k), mutate_state(copied, k)
        assert copied_after.variables == after.variables
        assert copied_after.degrees == after.degrees
        assert copied_after.labels[k - 1] not in copied.labels


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


@given(qlaurents(), qlaurents(max_terms=3), st.integers(-3, 3))
def test_division_consumes_its_dividend_only_when_asked(x, d, k):
    """The public division leaves its dividend as it was; ``_consume`` spends its coefficients and keeps its exponents."""
    if d.is_zero:
        return
    a, c = leading_term(d)
    d = d + QLaurent.monomial(small_torus(), a, QCoeff.q_power(k) - c)
    dividend = x * d
    kept = {b: QCoeff(c.terms) for b, c in dividend.terms.items()}
    assert divide_right_exact(dividend, d) == x
    assert dividend.terms == kept
    rows = dividend.term_rows
    assert divide_right_exact(dividend, d, _consume=True) == x
    assert dividend.terms.keys() == kept.keys() == rows.keys()  # the cached rows still name every term
    assert not any(c.terms for c in dividend.terms.values())


_CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@st.composite
def xelements(draw, max_terms=3):
    """Small B3 (i,p)-torus elements: node 2 at odd levels, nodes 1 and 3 at even ones."""
    amb = XTorus(TCartan(build_cartan("B", 3)))
    hats = st.tuples(st.integers(1, 3), st.integers(-2, 2)).map(lambda t: (t[0], 2 * t[1] + (t[0] == 2)))
    x = XElement.zero(amb)
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.dictionaries(hats, st.integers(-2, 2), max_size=3))
        x = x + XElement.monomial(amb, exps, QCoeff(draw(_coeffs)))
    return x


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(qlaurents(), qlaurents()), st.tuples(xelements(), xelements())), st.sampled_from(sorted(_CLONES)))
def test_cached_term_rows_agree_with_the_torus(xy, clone):
    """term_rows[b] twists like torus.row(b), on a window and on the (i,p) torus, read or unread, copied or not."""
    x, y = xy
    torus = y.torus

    def assert_rows(z):
        assert z.term_rows.keys() == z.terms.keys()
        for a in x.terms:
            for b in z.terms:
                assert torus.twist(a, z.term_rows[b]) == torus.twist(a, torus.row(b))

    unread = type(y)(torus, dict(y.terms))
    assert "term_rows" not in vars(unread)
    assert_rows(y)
    product = x * y
    assert x * unread == product  # unread's rows are first built by this product
    copied = _CLONES[clone](y)  # a copy of an element whose rows were read
    assert copied == y and copied.torus is torus
    assert_rows(copied)
    assert x * copied == product


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
    """mutate_state's record, recomputed from whole products and sums and the division trace.

    The numerator is built from unit-started products, but the pairs are
    counted as ``mutate_state`` forms them: M' and M'' start from their first
    factor, so the product by a first factor is not counted.
    """
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
        for i, x in enumerate(state.variables[u] for u, mu in m for _ in range(mu)):
            if i:
                pairs += len(term.terms) * len(x.terms)
                packed += len(term.terms) * len(x.terms) if _packs(term, x) else 0
            term = term * x
        num = num + term
    steps, peak = _naive_division_trace(num, old)
    new = mutate_state(state, k).variables[k - 1]
    assert divide_right_exact(num, old) == new
    return {
        "reused": False,
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
        "reused": False, "numerator_terms": 2, "term_pairs": 1, "packed_pairs": 0,
        "longest_coefficient": 1, "steps": 2, "remainder_peak": 2,
    }
    state = ClusterState.from_pair(build_seed(alternating(parse_type("G2")), 6))
    for k in (2, 1, 3, 4, 1, 2):
        state = mutate_state(state, k)
    stats = {}
    mutate_state(state, 3, stats=stats)
    assert stats == _replayed_stats(state, 3) == {
        "reused": False, "numerator_terms": 367, "term_pairs": 174, "packed_pairs": 0,
        "longest_coefficient": 34, "steps": 197, "remainder_peak": 367,
    }


def test_exchange_with_a_unit_numerator_monomial():
    """M'' is the unit q^{shift/2} when b_k has no negative entry; M' = q X_2 forms no product."""
    pair = make_pair(np.array([[0, -2], [2, 0]]), np.array([[0, 0], [1, 0]]), {1}, (1, 1))
    assert check_compatible(pair)
    state = ClusterState.from_pair(pair)
    stats = {}
    after = mutate_state(state, 1, stats=stats)
    assert stats == _replayed_stats(state, 1) == {
        "reused": False, "numerator_terms": 2, "term_pairs": 0, "packed_pairs": 0,
        "longest_coefficient": 1, "steps": 2, "remainder_peak": 2,
    }
    torus = state.variables[0].torus
    assert after.variables[0] == qlaurent_from_text(torus, "(1) Z[1]^-1 + (1) Z[1]^-1*Z[2]")
    assert after.variables[0] * state.variables[0] == qlaurent_from_text(torus, "(1) + (q) Z[2]")
    assert degree_of_pointed(after.variables[0], pair) == predicted_degree(after, 1) == (-1, 0)


def test_reused_step_stats_and_identity():
    """A step whose exchange is alive returns that very variable, and its record reads only reused."""
    pair = build_seed(alternating(parse_type("G2")), 6)
    root = ClusterState.from_pair(pair)
    assert pair.b[0, 3] == 0  # mutations at 1 and 4 commute
    one_four = mutate_state(mutate_state(root, 1), 4)
    stats = {}
    four = mutate_state(root, 4, stats=stats)
    assert stats == {"reused": True}
    assert four.variables[3] is one_four.variables[3]
    assert four.labels[3] == one_four.labels[3]
    stats = {}
    four_one = mutate_state(four, 1, stats=stats)
    assert stats == {"reused": True}
    assert four_one.variables == one_four.variables and four_one.labels == one_four.labels
    for state in (four, four_one):  # reused steps carry the degree replayed along their own path
        for u in range(1, pair.size + 1):
            assert predicted_degree(state, u) == replayed_degree(state, u)
            assert degree_of_pointed(state.variables[u - 1], pair) == predicted_degree(state, u)
    stats = {}
    mutate_state(four, 2, stats=stats)
    assert stats["reused"] is False and set(stats) == set(_replayed_stats(four, 2))


def _seed(code, window):
    """The alternating seed of a rank-2 type, else the seed of the periodic word (1, 2, 3)^3."""
    datum = parse_type(code)
    word = alternating(datum) if datum.rank == 2 else IndexSequence(datum, (1, 2, 3) * 3, periodic=True)
    return build_seed(word, window)


def _walk_tree(positions, depth):
    """Every walk of length <= depth with no immediate repeat, shortest first."""
    level, walks = [()], []
    for _ in range(depth):
        level = [w + (k,) for w in level for k in positions if not w or w[-1] != k]
        walks += level
    return walks


# Divisions of each tree below when only states with children are held and an
# exchange is kept only while some state holds its variable: a leaf's variable
# then dies with the leaf, and a sibling walk that meets its exchange again
# divides anew.
DIVISIONS_WITH_UNKEPT_LEAVES = {"B2": 10, "G2": 130, "B3": 63, "C3": 63}


@pytest.mark.parametrize("code, window, depth", [("B2", 4, 5), ("G2", 6, 4), ("B3", 8, 3), ("C3", 8, 3)])
def test_reused_exchanges_equal_recomputed(code, window, depth, monkeypatch):
    """Every variable of a walk tree, whose states all stay alive, equals the one its walk gives alone.

    The alone walk starts from a fresh ``from_pair`` and keeps only its
    latest state.  Every tree but B2's must serve some steps from the
    exchange table, and no label of a tree may name two variables.

    The tree is then walked again holding only the states that have
    children, as exchange_walks does.  A family's memo keeps every exchange
    it computed, for as long as any of its states lives, so this walk runs
    as many divisions as the one holding every state, and fewer than
    ``DIVISIONS_WITH_UNKEPT_LEAVES``; each of its states equals the first
    walk's, compared before it is dropped.
    """
    pair = _seed(code, window)
    walks = _walk_tree(sorted(pair.exchangeable), depth)
    divisions = [0]

    def counting(*args, **kwargs):
        divisions[0] += 1
        return divide_right_exact(*args, **kwargs)

    monkeypatch.setattr(torus_module, "divide_right_exact", counting)
    states = {(): ClusterState.from_pair(pair)}
    for walk in walks:
        states[walk] = mutate_state(states[walk[:-1]], walk[-1])
    held_all = divisions[0]
    assert held_all < len(walks) or code == "B2"  # B2's two positions never commute
    divisions[0] = 0
    parents = {(): ClusterState.from_pair(pair)}
    for walk in walks:
        state = mutate_state(parents[walk[:-1]], walk[-1])
        assert state.variables == states[walk].variables, walk
        if len(walk) < depth:
            parents[walk] = state
    monkeypatch.undo()
    assert divisions[0] == held_all
    assert divisions[0] < DIVISIONS_WITH_UNKEPT_LEAVES[code] or code == "B2"
    named = {}  # a label names one variable across the tree
    for state in states.values():
        for label, x in zip(state.labels, state.variables):
            assert named.setdefault(label, x) is x
    for walk in walks:
        alone = ClusterState.from_pair(pair)
        for k in walk:
            alone = mutate_state(alone, k)
        assert states[walk].variables == alone.variables, walk


def test_a_state_keeps_the_variables_it_was_mutated_into():
    """A repeated step returns the identical variable, and the memo holds one entry per distinct exchange.

    A step reused from another state returns the variable computed there,
    and the memo keeps it while the reusing state lives.
    """
    pair = build_seed(alternating(parse_type("G2")), 6)
    root = ClusterState.from_pair(pair)
    two = mutate_state(root, 2)
    stats = {}
    again = mutate_state(root, 2, stats=stats)
    assert stats == {"reused": True}
    assert again.variables[1] is two.variables[1] and again.labels == two.labels
    for k in (1, 3, 1, 2, 3):
        mutate_state(root, k)
    memo = root.exchanges.entries
    assert len(memo) == 3 and sum(x is two.variables[1] for x, _ in memo.values()) == 1
    assert pair.b[0, 3] == 0  # mutations at 1 and 4 commute
    one = mutate_state(root, 1)
    four = mutate_state(mutate_state(one, 4), 1)  # the exchange at 4 is computed from one
    ref = weakref.ref(four.variables[3])
    stats = {}
    assert mutate_state(root, 4, stats=stats).variables[3] is ref()
    assert stats == {"reused": True} and len(memo) == 5  # the steps at 4 from one and at 1 after it
    del one, four
    gc.collect()
    assert sum(x is ref() for x, _ in memo.values()) == 1


def test_the_memo_outlives_the_states_an_exchange_was_computed_from():
    """With only the root left, a step at 4 reuses the variable that mu_4(mu_1(root)) computed from mu_1(root)."""
    pair = build_seed(alternating(parse_type("G2")), 6)
    assert pair.b[0, 3] == 0  # mutations at 1 and 4 commute
    root = ClusterState.from_pair(pair)
    four = mutate_state(mutate_state(root, 1), 4)
    ref, label = weakref.ref(four.variables[3]), four.labels[3]
    del four
    gc.collect()
    stats = {}
    state = mutate_state(root, 4, stats=stats)
    assert stats == {"reused": True}
    assert ref() is not None and state.variables[3] is ref() and state.labels[3] == label


@pytest.mark.parametrize("code, window, depth", [("B2", 4, 5), ("G2", 6, 3), ("B3", 8, 3)])
def test_the_memo_holds_one_entry_per_division(code, window, depth, monkeypatch):
    """A walk tree that keeps only the states with children leaves its root's memo one entry per division run."""
    pair = _seed(code, window)
    divisions = [0]

    def counting(*args, **kwargs):
        divisions[0] += 1
        return divide_right_exact(*args, **kwargs)

    monkeypatch.setattr(torus_module, "divide_right_exact", counting)
    root = ClusterState.from_pair(pair)
    parents = {(): root}
    for walk in _walk_tree(sorted(pair.exchangeable), depth):
        state = mutate_state(parents[walk[:-1]], walk[-1])
        if len(walk) < depth:
            parents[walk] = state
    del parents, state
    gc.collect()
    assert divisions[0] > 0 and len(root.exchanges.entries) == divisions[0]
    labels = sorted(label for _, label in root.exchanges.entries.values())
    assert labels == list(range(window, root.exchanges.next_label))


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)), dataclasses.replace],
    ids=["copy", "deepcopy", "pickle", "replace"],
)
def test_copied_states_start_an_empty_exchanged_map(clone):
    """A copied or pickled state starts an empty memo of its own; a replaced one shares its original's."""
    state = mutate_state(ClusterState.from_pair(build_seed(alternating(parse_type("G2")), 6)), 2)
    for k in (1, 3):
        mutate_state(state, k)
    assert len(state.exchanges.entries) == 3
    copied = clone(state)
    assert copied == state
    mutate_state(copied, 4)
    if clone is dataclasses.replace:
        assert copied.exchanges is state.exchanges and len(state.exchanges.entries) == 4
    else:
        assert copied.exchanges is not state.exchanges
        assert len(state.exchanges.entries) == 3 and len(copied.exchanges.entries) == 1


DEGREE_SEEDS = {("B2", 4): 6, ("G2", 6): 5, ("B3", 8): 6, ("C3", 8): 6}  # (type, window): longest walk drawn


@given(st.data())
def test_carried_degrees_equal_the_replay(data):
    """After every step of a drawn walk and of each walk with two adjacent steps swapped, every carried degree equals the replay.

    All states stay alive, so the swapped walks are served from the exchange
    table wherever the two swapped mutations commute.
    """
    code, window = data.draw(st.sampled_from(sorted(DEGREE_SEEDS)))
    pair = _seed(code, window)
    walk = data.draw(st.lists(st.sampled_from(sorted(pair.exchangeable)), max_size=DEGREE_SEEDS[(code, window)]))
    root = ClusterState.from_pair(pair)
    swapped = [walk[:t] + walk[t + 1 : t + 2] + walk[t : t + 1] + walk[t + 2 :] for t in range(len(walk) - 1)]
    kept = []
    for w in [walk, *swapped]:
        state = root
        for k in w:
            state = mutate_state(state, k)
            kept.append(state)
            positions = range(1, pair.size + 1)
            assert [predicted_degree(state, u) for u in positions] == [replayed_degree(state, u) for u in positions]


@pytest.mark.parametrize("code, steps", [("B2", 300), ("G2", 200)])
def test_long_walk_degrees_equal_the_replay(code, steps):
    """A long random walk on window 4, immediate repeats allowed: every step's new variable carries the replayed degree.

    The walk keeps only its latest state, and the seeds for the replay are
    rebuilt one step at a time beside it.
    """
    pair = build_seed(alternating(parse_type(code)), 4)
    rng = random.Random(2901)
    state, chain = ClusterState.from_pair(pair), [pair]
    for _ in range(steps):
        k = rng.choice(sorted(pair.exchangeable))
        state = mutate_state(state, k)
        chain.append(mutate_pair(chain[-1], k))
        assert predicted_degree(state, k) == replayed_degree(state, k, chain)
        assert degree_of_pointed(state.variables[k - 1], pair) == predicted_degree(state, k)
    assert state.current == chain[-1] and seed_chain(state) == chain


def test_exchange_key_holds_the_shift():
    """A state over another Lambda that shares the table computes its own exchange.

    On states reached by mutation the shift follows from the variables'
    labels, since Lambda is their quasi-commutation.  Here the seed is
    replaced by one with 3 Lambda and 3 D, still compatible, so only the
    shift tells the two exchanges apart.
    """
    pair = b2_pair()
    root = ClusterState.from_pair(pair)
    tripled = CompatiblePair(pair.lam * 3, pair.b, pair.exchangeable, tuple(3 * d for d in pair.diag))
    other = dataclasses.replace(root, initial=tripled, current=tripled)
    assert other.exchanges is root.exchanges
    for k in sorted(pair.exchangeable):
        theirs = mutate_state(other, k)
        mine = mutate_state(root, k)
        assert mine.variables == mutate_state(ClusterState.from_pair(pair), k).variables
        assert theirs.variables[k - 1] != mine.variables[k - 1]


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


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda t: QLaurent.monomial(t, (1, 0, 0)) * QLaurent.generator(t, 4), "has 4 entries, got 3"),
        (lambda t: QLaurent.monomial(t, (0, 0, 0, 0, 1)) * QLaurent.generator(t, 4), "has 4 entries, got 5"),
        (lambda t: QLaurent.monomial(t, (1.5, 0, 0, 0)), "an exponent entry is not an integer in (1.5, 0, 0, 0)"),
        (lambda t: QLaurent.generator(t, 2, 1.5), "an exponent entry is not an integer in (0, 1.5, 0, 0)"),
    ],
    ids=["short", "long", "fractional", "fractional-generator"],
)
def test_window_key_refuses_a_wrong_length_or_a_non_integer_entry(make, named):
    """Unchecked, a short or long exponent is cut to the shorter length in products, and 1.5 reads as 1."""
    torus = WindowTorus(b2_pair().lam)
    with pytest.raises(TorusError, match=re.escape(named)):
        make(torus)
    (a,) = QLaurent.monomial(torus, np.array([1, 0, 0, -2])).terms
    assert a == (1, 0, 0, -2) and all(type(e) is int for e in a)


@pytest.mark.parametrize("u", [0, -1, 5])
def test_generator_rejects_positions_outside_the_window(u):
    with pytest.raises(TorusError, match=f"position {u} outside the window 1..4"):
        QLaurent.generator(WindowTorus(b2_pair().lam), u)


@pytest.mark.parametrize("u", [0, 5, -2])
def test_predicted_degree_rejects_positions_outside_the_window(u):
    state = mutate_state(ClusterState.from_pair(b2_pair()), 1)
    with pytest.raises(TorusError, match=f"position {u} outside the window 1..4"):
        predicted_degree(state, u)


@pytest.mark.parametrize("k", [0, 3, 4, 5])
def test_mutate_state_refuses_a_frozen_or_outside_position(k):
    state = ClusterState.from_pair(b2_pair())
    assert k not in state.current.exchangeable
    with pytest.raises(TorusError, match=f"position {k} is frozen or out of range"):
        mutate_state(state, k)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda x: divide_right_exact(x, QLaurent.zero(x.torus)), "division by zero"),
        (lambda x: leading_term(QLaurent.zero(x.torus)), "zero element has no leading term"),
        (lambda x: x ** -1, "negative powers only exist for monomials"),
    ],
    ids=["divide-by-zero", "leading-term-of-zero", "negative-power"],
)
def test_zero_and_negative_power_raise(call, named):
    x = QLaurent.generator(small_torus(), 1) + QLaurent.generator(small_torus(), 2)
    with pytest.raises(TorusError, match=named):
        call(x)


def test_degree_of_pointed_checks_its_torus():
    pair = b2_pair()
    foreign = WindowTorus(-pair.lam)  # same size, another torus
    lone = QLaurent.generator(foreign, 1)  # pointed, but over another Lambda
    summed = lone + QLaurent.generator(foreign, 2)
    for x in (lone, summed):
        with pytest.raises(TorusError, match="mismatched ambient tori"):
            degree_of_pointed(x, pair)
    assert degree_of_pointed(QLaurent.generator(WindowTorus(np.array(pair.lam)), 1), pair) == (1, 0, 0, 0)


def _per_term_degree(x, pair):
    """The degree certificate of ``degree_of_pointed`` one term at a time in Python ints, as an oracle.

    For each term m != g, n_u = -(row u of Lambda) . (m - g) / 2 d_u must
    divide exactly with n_u >= 0 at every exchangeable u, and B n must equal
    m - g.
    """
    torus = WindowTorus(pair.lam)
    if x.torus is not torus:
        raise TorusError("mismatched ambient tori")
    if x.is_zero:
        raise NotPointedError("zero element is not pointed")
    g = leading_term(x)[0]
    if not x.terms[g].is_q_power():
        raise NotPointedError("lead coefficient is not a q-power")
    cols = pair.b.T.tolist()
    checks = [(torus.rows[u - 1], 2 * pair.diag[u - 1], cols[u - 1]) for u in sorted(pair.exchangeable)]
    for m in x.terms:
        diff = tuple(a - b for a, b in zip(m, g))
        bn = torus.one
        for row, d2, col in checks:
            n, r = divmod(-sum(a * b for a, b in zip(row, diff)), d2)
            if r or n < 0:
                raise NotPointedError("an exponent is not of the form g + B n")
            bn = tuple(v + n * c for v, c in zip(bn, col))
        if bn != diff:
            raise NotPointedError("an exponent is not of the form g + B n")
    return g


def _outcome(certify, x, pair):
    try:
        return certify(x, pair)
    except TorusError as exc:
        return type(exc)


ORACLE_SEEDS = {("B2", 4): b2_pair(), ("G2", 6): build_seed(alternating(parse_type("G2")), 6)}
BREAKS = ("indivisible", "negative n", "B n differs", "lead", "zero", "foreign")


def _unit_rows(pair, keep):
    """The unit vectors e_v whose row v of Lambda_ex satisfies keep(row, 2d)."""
    ex = [u - 1 for u in sorted(pair.exchangeable)]
    d2 = np.array([2 * pair.diag[u] for u in ex])
    s = pair.size
    return [tuple(int(v == w) for w in range(s)) for v in range(s) if keep(pair.lam[v, ex], d2)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORACLE_SEEDS)), st.sampled_from((None, *BREAKS)), st.data())
def test_degree_certificate_matches_the_per_term_oracle(seed, planted, data):
    """Pointed elements g + B n (n >= 0) certify to g under both; each planted break raises the same class under both.

    The breaks: a term whose Lambda (m - g) is not divisible by 2 d_u; a term
    g + B n with n of mixed signs; a term g + B n + w with n >= 0 and w a unit
    vector with w Lambda_ex = 0; a lead coefficient 2 q^k; zero; the element
    over another torus.
    """
    pair = ORACLE_SEEDS[seed]
    torus, s, r = WindowTorus(pair.lam), pair.size, len(pair.exchangeable)
    b_ex = pair.b[:, [u - 1 for u in sorted(pair.exchangeable)]]
    g = data.draw(st.tuples(*[st.integers(-3, 3)] * s))
    ns = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * r).filter(any), unique=True, max_size=5))
    lead = QCoeff.q_power(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, -1])))
    terms = {g: lead}
    for n in ns:
        terms[tuple(int(v) for v in np.add(g, b_ex @ n))] = QCoeff(data.draw(_coeffs.filter(lambda c: any(c.values()))))
    x = QLaurent(torus, terms)
    if planted in ("indivisible", "negative n", "B n differs"):
        n = data.draw(st.tuples(*[st.integers(0, 2)] * r))
        if planted == "indivisible":
            w = data.draw(st.sampled_from(_unit_rows(pair, lambda row, d2: (row % d2).any())))
        elif planted == "negative n":
            neg, pos = data.draw(st.permutations(range(r)))[:2]
            n = tuple(-1 if u == neg else max(v, 1) if u == pos else v for u, v in enumerate(n))
            w = torus.one
        else:
            w = data.draw(st.sampled_from(_unit_rows(pair, lambda row, d2: not row.any())))
        m = tuple(int(v) for v in np.add(np.add(g, b_ex @ n), w))
        x = x + QLaurent.monomial(torus, m)
    elif planted == "lead":
        x = QLaurent(torus, {**terms, g: lead * QCoeff.integer(2)})
    elif planted == "zero":
        x = QLaurent.zero(torus)
    elif planted == "foreign":
        x = QLaurent(WindowTorus(-pair.lam), terms)
    got, want = _outcome(degree_of_pointed, x, pair), _outcome(_per_term_degree, x, pair)
    assert got == want
    if planted is None:
        assert got == g
    else:
        assert want in (NotPointedError, TorusError)


@pytest.mark.parametrize("big", [2**62, -(2**62), 2**64, -(2**64), "bound + 1"])
def test_degree_certificate_refuses_exponents_past_its_int64_bound(big):
    """An exponent entry past ``exp_bound`` raises TorusError naming the bound, however far past int64 it lies."""
    pair = b2_pair()
    bound = pair.degree_check.exp_bound
    big = bound + 1 if big == "bound + 1" else big
    torus = WindowTorus(pair.lam)
    x = QLaurent.monomial(torus, (0, 0, 0, 0)) + QLaurent.monomial(torus, (0, 2, -1, big))
    with pytest.raises(TorusError, match=f"beyond {bound} in absolute value") as info:
        degree_of_pointed(x, pair)
    assert not isinstance(info.value, NotPointedError)
    assert degree_of_pointed(QLaurent.monomial(torus, (0, 2, -1, big)), pair) == (0, 2, -1, big)  # one term: no product


def test_degree_certificate_is_exact_at_its_int64_bound():
    """Entries of exactly +-exp_bound certify as the oracle does; n past ``n_bound`` raises TorusError naming it."""
    pair = b2_pair()
    bound = pair.degree_check.exp_bound
    torus = WindowTorus(pair.lam)
    g = (0, 0, bound, -bound)
    x = QLaurent.monomial(torus, g, QCoeff.q_power(3))
    for k, c in ((1, QCoeff({0: 2})), (2, QCoeff({-1: 1, 1: 1}))):  # g + k B e_1, B e_1 = (0, 2, -1, 0)
        x = x + QLaurent.monomial(torus, (0, 2 * k, bound - k, -bound), c)
    assert degree_of_pointed(x, pair) == _per_term_degree(x, pair) == g
    # On G2 window 6, v = (-1, 1, 0, 1, 0, 0) has v Lambda_ex = (6, 6, 4, 0), so the
    # element Z^{-h v} + Z^{h v} asks for n_1 = 6 h, which passes n_bound at h = exp_bound.
    pair = ORACLE_SEEDS[("G2", 6)]
    check = pair.degree_check
    h = check.exp_bound
    assert 6 * h > check.n_bound
    torus = WindowTorus(pair.lam)
    v = np.array((-1, 1, 0, 1, 0, 0))
    x = QLaurent.monomial(torus, -h * v) + QLaurent.monomial(torus, h * v)
    with pytest.raises(TorusError, match=f"beyond {check.n_bound}, the int64 bound") as info:
        degree_of_pointed(x, pair)
    assert not isinstance(info.value, NotPointedError)


@pytest.mark.parametrize(
    "clone, frozen",
    [
        (copy.copy, True),
        (copy.deepcopy, True),
        (lambda p: pickle.loads(pickle.dumps(p)), True),
        (lambda p: dataclasses.replace(p, lam=np.array(p.lam)), False),  # handed a writable Lambda
    ],
    ids=["copy", "deepcopy", "pickle", "replace"],
)
def test_copied_pairs_rebuild_their_degree_check(clone, frozen):
    """A copied, unpickled or replaced pair carries no certificate data of the original and certifies the same variables.

    Its own data, built on first use, is read-only and shares no memory with
    either pair; a copied or unpickled pair's Lambda and B are read-only too.
    """
    pair = build_seed(alternating(parse_type("G2")), 6)
    original = pair.degree_check
    copied = clone(pair)
    assert copied == pair and "degree_check" not in vars(copied)
    state = ClusterState.from_pair(pair)
    for k in (2, 1, 3, 4, 1, 2):
        state = mutate_state(state, k)
        for u in range(1, pair.size + 1):
            assert degree_of_pointed(state.variables[u - 1], copied) == predicted_degree(state, u)
    check = copied.degree_check
    assert check is not original and check.torus is original.torus
    for a in (check.lam_ex, check.d2, check.b_ex_t):
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in (copied.lam, copied.b, pair.lam, pair.b))
    assert (check.exp_bound, check.n_bound) == (original.exp_bound, original.n_bound)
    assert copied.lam.flags.writeable is not frozen and not copied.b.flags.writeable


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
        assert all(x.den == LaurentPoly.const(1) for x in xs)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda t: QLaurent.zero(t),
        lambda t: QLaurent.monomial(t, (1, 0, 0)),
        lambda t: qlaurent_from_text(t, "(1) Z[1]"),
    ],
    ids=["zero", "monomial", "from_text"],
)
def test_constructors_refuse_a_non_torus(build):
    """A bare Lambda is not a torus: each constructor refuses it at once with TorusError."""
    lam = small_torus().lam
    with pytest.raises(TorusError, match="expected a torus object, got ndarray"):
        build(np.array(lam))
    assert build(small_torus()).torus is small_torus()
