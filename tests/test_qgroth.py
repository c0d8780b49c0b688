import dataclasses
import hashlib
import operator
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcab import qgroth
from qcab.braid import IndexSequence
from qcab.cartan import build_cartan, parity_function
from qcab.commutative import CommutativeError, LaurentPoly, RationalX, _key
from qcab.qgroth import (
    QGrothError,
    TCartan,
    XElement,
    XTorus,
    _kr_gram_rows,
    _ladder,
    _normkey,
    b_monomial_exponents,
    check_kappa,
    compatible_reading,
    kappa_witness,
    kr_monomial,
    npairing,
    substitute_b2,
    verify_fq_fixture,
    verify_truncated_fixture,
    xelement_from_text,
    xelement_to_text,
    z_xi,
)
from qcab.seeds import make_pair
from qcab.torus import QCoeff, QLaurent, TorusError, WindowTorus, q_structure_witness, qcoeff_from_text

from test_torus import _EDITS, coeff_runs, edit_text

FIXTURES = Path(__file__).parent / "fixtures"


def ambient(code):
    return XTorus(TCartan(build_cartan(code[0], int(code[1]))))


def test_a1_series():
    tc = TCartan(build_cartan("A", 1))
    assert [tc.tilde_b(1, 1, u) for u in range(1, 8)] == [1, 0, -1, 0, 1, 0, -1]


def test_vanishing_conditions_small():
    for code in ("A2", "B2", "C3", "G2", "F4", "D4"):
        d = build_cartan(code[0], int(code[1]))
        assert TCartan(d).check_vanishing(30)


def test_periodic_table_matches_recurrence():
    d = build_cartan("B", 2)
    tc = TCartan(d, umax=100)  # umax is ignored: the table holds one period and two terms
    # the recurrence s_m = -C_off s_{m-1} - s_{m-2}, run directly to u = 40
    c_off = np.array(d.cartan) - 2 * np.eye(2, dtype=int)
    series = [np.eye(2, dtype=int), -c_off]
    while len(series) < 40:
        series.append(-c_off @ series[-1] - series[-2])
    for u in range(1, 41):
        for i in (1, 2):
            for j in (1, 2):
                assert tc.tilde_b(i, j, u) == d.d(i) * series[u - 1][i - 1, j - 1]
    assert len(tc._series) == 2 * d.coxeter_number + 2
    with pytest.raises(QGrothError, match="not periodic"):
        TCartan(dataclasses.replace(d, coxeter_number=3))  # a wrong period is refused


def test_npairing_antisymmetry_and_parity():
    d = build_cartan("B", 3)
    tc = TCartan(d)
    eps = parity_function(d)
    rng = random.Random(0)
    for _ in range(1000):
        i, j = rng.randrange(1, 4), rng.randrange(1, 4)
        p = eps[i] + 2 * rng.randrange(-8, 8)
        s = eps[j] + 2 * rng.randrange(-8, 8)
        assert npairing(tc, (i, p), (j, s)) == -npairing(tc, (j, s), (i, p))
    with pytest.raises(QGrothError):
        npairing(tc, (1, 1), (2, 1))


def test_kr_monomials_and_ladders():
    amb = ambient("B2")
    m = kr_monomial(amb, 1, -4, 0)
    ((key, coeff),) = m.terms.items()
    assert dict(key) == {(1, -4): 1, (1, -2): 1, (1, 0): 1}
    assert coeff == QCoeff.one()
    assert z_xi(amb, {1: 0, 2: 1}, 1, -4) == m
    with pytest.raises(QGrothError):
        kr_monomial(amb, 1, 2, 0)
    with pytest.raises(QGrothError):
        kr_monomial(amb, 1, 1, 3)
    with pytest.raises(QGrothError, match="level 1 does not match"):
        kr_monomial(amb, 1, 0, 1)  # the ladder's top must match the node parity too
    prod = m * m
    assert prod.bar() == prod  # commutative monomial powers stay bar-fixed


def test_xelement_products_and_bar():
    amb = ambient("B2")
    x = XElement.raw_generator(amb, 1, 0)
    y = XElement.raw_generator(amb, 2, 1)
    lhs = x * y
    rhs = (y * x).scale(QCoeff.q_power(2 * npairing(amb.tc, (1, 0), (2, 1))))
    assert lhs == rhs
    a = x * y + XElement.monomial(amb, {(1, -2): 2}, QCoeff({1: 3}))
    b = y * x
    assert (a * b).bar() == b.bar() * a.bar()


def test_compatible_reading_order():
    d = build_cartan("B", 2)
    pairs = compatible_reading(d, {1: 0, 2: 1}, 6)
    assert pairs == [(2, 1), (1, 0), (2, -1), (1, -2), (2, -3), (1, -4)]


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


def test_check_kappa_windows():
    for code, xi in (
        ("B2", {1: 0, 2: 1}),
        ("B3", {1: 0, 2: -1, 3: 0}),
        ("G2", {1: 0, 2: 1}),
    ):
        d = build_cartan(code[0], int(code[1]))
        assert check_kappa(d, xi, 2 * d.longest_length)
    for code in ALL_TYPES:  # every finite type of rank <= 8, bipartite height function
        d = build_cartan(code[0], int(code[1:]))
        assert kappa_witness(d, dict(parity_function(d)), 2 * d.longest_length) is None, code


@st.composite
def height_functions(draw):
    """A type of rank <= 4 and a height function on it: adjacent heights differ by 1."""
    code = draw(st.sampled_from(["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]))
    d = build_cartan(code[0], int(code[1]))
    xi, todo = {1: 2 * draw(st.integers(-3, 3))}, [1]  # node 1 has even parity
    while todo:  # Dynkin diagrams are trees: walk out from node 1
        i = todo.pop()
        for j in range(1, d.rank + 1):
            if j not in xi and d.c(i, j) < 0:
                xi[j] = xi[i] + draw(st.sampled_from([-1, 1]))
                todo.append(j)
    return d, xi


@given(height_functions())
def test_kr_gram_recurrence_matches_pairing_vec(case):
    d, xi = case
    amb = XTorus(TCartan(d))
    hats = compatible_reading(d, xi, 2 * d.longest_length)
    krs = [next(iter(z_xi(amb, xi, i, p).terms)) for i, p in hats]
    assert _kr_gram_rows(amb, xi, hats).tolist() == [[amb.pairing_vec(a, b) for b in krs] for a in krs]


@pytest.mark.parametrize("code", ["A2", "B2", "G2"])
def test_kr_gram_folds_long_gaps(code):
    """On a window spanning several periods, the Gram matrix sums the four-term npairing over both ladders."""
    d = build_cartan(code[0], int(code[1]))
    tc, xi, period = TCartan(d), dict(parity_function(d)), 2 * d.coxeter_number
    hats = compatible_reading(d, xi, 3 * period)
    levels = [p for _, p in hats]
    assert max(levels) - min(levels) > period + 1  # some gaps fold
    ladders = [_ladder(i, p, xi[i]) for i, p in hats]
    want = [[sum(npairing(tc, a, b) for a in la for b in lb) for lb in ladders] for la in ladders]
    assert _kr_gram_rows(XTorus(tc), xi, hats).tolist() == want


def test_kr_gram_refuses_a_table_that_could_wrap(monkeypatch):
    d, xi = build_cartan("B", 2), {1: 0, 2: 1}
    amb, hats = ambient("B2"), compatible_reading(d, xi, 8)
    planted = amb.gram_table.copy()
    for entry, wraps in (((2**63 - 1) // 64, False), ((2**63 - 1) // 64 + 1, True)):
        planted[0, 1, 3] = entry
        monkeypatch.setattr(amb, "gram_table", planted)
        if wraps:
            with pytest.raises(QGrothError, match="may exceed int64"):
                _kr_gram_rows(amb, xi, hats)
            with pytest.raises(QGrothError, match="may exceed int64"):
                kappa_witness(d, xi, 8)
        else:
            _kr_gram_rows(amb, xi, hats)  # 64 times the entry still fits


def test_kr_gram_needs_nested_ladders():
    amb, xi = ambient("B2"), {1: 0, 2: 1}
    for hats in ([(1, -2)], [(2, 1), (1, 0), (1, -4)], [(1, 0), (1, 0)]):
        with pytest.raises(QGrothError, match="does not step down the ladder"):
            list(_kr_gram_rows(amb, xi, hats))


def plant(monkeypatch, matrix, u, v):
    """Make qgroth.build_seed add 1 to entry (u, v) of Lambda (and -1 at (v, u)) or of B."""
    real = qgroth.build_seed

    def build_seed(seq, s):
        seed = real(seq, s)
        lam, b = seed.lam.copy(), seed.b.copy()
        if matrix == "lam":
            lam[u - 1, v - 1] += 1
            lam[v - 1, u - 1] -= 1
        else:
            b[u - 1, v - 1] += 1
        return make_pair(lam, b, seed.exchangeable, seed.diag)

    monkeypatch.setattr(qgroth, "build_seed", build_seed)
    return real


def test_kappa_witness_names_a_planted_lambda_entry(monkeypatch):
    d, xi = build_cartan("B", 3), {1: 0, 2: -1, 3: 0}
    real = plant(monkeypatch, "lam", 5, 9)
    pairs = compatible_reading(d, xi, 18)
    want = real(IndexSequence(d, tuple(i for i, _ in pairs)), 18).lam_entry(5, 9)
    assert kappa_witness(d, xi, 18) == ("lam", 5, 9, want + 1, want)
    assert not check_kappa(d, xi, 18)


def test_kappa_witness_names_a_planted_b_entry(monkeypatch):
    d, xi = build_cartan("B", 3), {1: 0, 2: -1, 3: 0}
    plant(monkeypatch, "b", 7, 4)  # column 4 is exchangeable; b_74 goes from -1 to 0
    pairs = compatible_reading(d, xi, 18)
    i, p = pairs[3]
    want = -b_monomial_exponents(d, i, p - 1).get(pairs[6], 0)
    # the image moves on the whole ladder of row 7, whose lowest hat is pairs[6]
    assert kappa_witness(d, xi, 18) == ("image", 4, pairs[6], want + 1, want)
    assert not check_kappa(d, xi, 18)


@pytest.mark.parametrize("other", ["G2", "A3", "B3"])
def test_kappa_refuses_a_tcartan_of_another_type(other):
    """A TCartan carries its datum's pairing table; another datum's would give false mismatches."""
    d, xi = build_cartan("B", 2), {1: 0, 2: 1}
    tc = TCartan(build_cartan(other[0], int(other[1])))
    for check in (kappa_witness, check_kappa):
        with pytest.raises(QGrothError, match=f"a TCartan of {other} given for B2"):
            check(d, xi, 8, tc=tc)
    assert kappa_witness(d, xi, 8, tc=TCartan(build_cartan("B", 2))) is None


@pytest.mark.parametrize("code", ALL_TYPES)
def test_pairing_table_matches_npairing(code):
    """The periodic table equals the four-term formula and is antisymmetric, folded gaps included."""
    d = build_cartan(code[0], int(code[1:]))
    tc, eps, period = TCartan(d), parity_function(d), 2 * d.coxeter_number
    amb = XTorus(tc)

    def check(a, b):
        got, want = amb.pairing(a, b), npairing(tc, a, b)
        assert got == want, f"{code} pairing({a}, {b}): got {got}, want {want}"
        assert amb.pairing(b, a) == -got, f"{code} pairing({b}, {a}): got {amb.pairing(b, a)}, want {-got}"
        twisted = amb.pairing_vec(((a, 2),), ((b, -1),))  # the product's path: twist by the row of b
        assert twisted == -2 * want, f"{code} pairing_vec(2 {a}, -{b}): got {twisted}, want {-2 * want}"

    edges = (-period - 2, -period - 1, -1, 0, 1, period + 1, period + 2)  # the last unfolded and first folded gaps
    for i in range(1, d.rank + 1):
        for j in range(1, d.rank + 1):
            for gap in edges:
                if (gap - eps[i] + eps[j]) % 2 == 0:
                    check((i, eps[j] + gap), (j, eps[j]))

    @given(st.integers(1, d.rank), st.integers(1, d.rank), st.integers(-4, 4), st.integers(-3 * period - 2, 3 * period + 2))
    def random_gaps(i, j, base, gap):
        s = eps[j] + 2 * base
        gap += (eps[i] - eps[j] - gap) % 2  # up to three periods either way, at the parity of node i
        check((i, s + gap), (j, s))

    random_gaps()


def _old_join(a, b):
    """The merge-and-sort join the bisect insertion replaced."""
    merged = dict(a)
    for u, e in b:
        merged[u] = merged.get(u, 0) + e
    return _normkey(merged)


_b3_hats = st.tuples(st.integers(1, 3), st.integers(-3, 3)).map(lambda t: (t[0], 2 * t[1] + (t[0] == 2)))


@given(st.dictionaries(_b3_hats, st.integers(-2, 2), max_size=6), st.data())
def test_join_inserts_into_canonical_keys(exps, data):
    """join equals the dict merge on canonical keys, with cancelling exponents and either operand longer."""
    a = _normkey(exps)
    cancel = data.draw(st.sets(st.sampled_from(sorted(exps)), max_size=len(exps))) if exps else set()
    extra = data.draw(st.dictionaries(_b3_hats, st.integers(-2, 2), max_size=8))
    b = _normkey({**extra, **{u: -exps[u] for u in cancel}})
    amb = ambient("B3")
    for x, y in ((a, b), (b, a)):
        assert amb.join(x, y) == _old_join(x, y), (x, y)


def test_join_cancels_and_keeps_the_level_order():
    amb = ambient("B3")
    a = _normkey({(1, -2): 1, (2, -1): 2, (1, 0): -1})
    assert amb.join(a, _normkey({(2, -1): -2, (1, 0): 1})) == (((1, -2), 1),)
    assert amb.join(_normkey({(3, 0): 1}), a) == (((1, -2), 1), ((2, -1), 2), ((1, 0), -1), ((3, 0), 1))
    assert amb.join(a, ()) == a and amb.join((), a) == a


@pytest.mark.parametrize("r", [2, 3])
def test_b4_fixture_products_match_the_termwise_oracle(r):
    amb = ambient("B4")
    x = xelement_from_text(amb, (FIXTURES / "b4_fundamental_x10.txt").read_text().strip())
    want = got = x
    for t in range(1, r):
        want = _naive_xproduct(want, x.tr_shift(2 * t))
        got = got * x.tr_shift(2 * t)
    assert got == want and len(got.terms) == (80, 702)[r - 2]


@pytest.mark.parametrize("shifts", [(0, 2), (-4, 0), (2, 6)])
def test_at_q1_is_multiplicative_on_b4_fixture_products(shifts):
    amb = ambient("B4")
    x = xelement_from_text(amb, (FIXTURES / "b4_fundamental_x10.txt").read_text().strip())
    a, b = (x.tr_shift(r) for r in shifts)
    assert (a * b).at_q1() == a.at_q1() * b.at_q1()


def test_at_q1_drops_terms_that_sum_to_zero():
    amb = ambient("B4")
    x = XElement.monomial(amb, {(1, 0): 1}, qcoeff_from_text("q^1/2 - q^-1/2"))
    y = XElement.monomial(amb, {(2, 1): 2, (1, 0): -1}, qcoeff_from_text("q + 1"))
    assert x.at_q1().is_zero
    assert (x + y).at_q1() == LaurentPoly.monomial({("X", 2, 1): 2, ("X", 1, 0): -1}, 2)


def test_xtorus_is_one_per_cartan_datum():
    d = build_cartan("B", 2)
    assert XTorus(TCartan(d)) is B2 and ambient("B2") is B2
    table = B2.table
    assert pickle.loads(pickle.dumps(B2)) is B2 and B2.table is table
    assert ambient("C2") is not B2


def test_npairing_builds_a_datums_table_once(monkeypatch):
    """With no torus held by the caller, a second npairing call on a fresh datum builds no table."""
    monkeypatch.setattr(XTorus, "_interned", type(XTorus._interned)())  # no datum interned yet
    calls = []
    tilde_b = TCartan.tilde_b
    monkeypatch.setattr(TCartan, "tilde_b", lambda tc, *args: calls.append(args) or tilde_b(tc, *args))
    d = build_cartan("E", 8)
    tc, eps = TCartan(d), parity_function(d)
    a, b = (1, eps[1]), (2, eps[2] + 4)
    want = npairing(tc, a, b)
    assert len(calls) > d.rank**2  # the first call builds the table, a row per pair of nodes
    calls.clear()
    assert npairing(tc, a, b) == want
    assert len(calls) == 4  # the four terms of the formula, and no table


@pytest.mark.parametrize(
    "exps, named",
    [({(3, 0): 1}, "node 3 outside 1..2"), ({(0, 0): 1}, "node 0 outside"), ({(1, 1): 1}, "parity of node 1"),
     ({(1, 0): 1, (2, 0): -1}, "parity of node 2"), ({(2, 2): 0}, "parity of node 2")],
)
def test_monomial_checks_its_generators(exps, named):
    """Table lookups do not validate, so the element boundary does."""
    with pytest.raises(QGrothError, match=named):
        XElement.monomial(B2, exps)
    x = XElement.raw_generator(B2, 1, 0)
    with pytest.raises(QGrothError, match="parity of node 1"):
        x.relabel(lambda u: (u[0], u[1] + 1))


def test_truncate_and_shifts():
    amb = ambient("B4")
    x = xelement_from_text(amb, (FIXTURES / "b4_fundamental_x10.txt").read_text().strip())
    xi = {1: 0, 2: 1, 3: 2, 4: 3}
    t = x.truncate(xi)
    ((key, coeff),) = t.terms.items()
    assert dict(key) == {(1, 0): 1}
    assert t.truncate(xi) == t
    d = x.dq_shift(1)
    assert d.dq_shift(-1) == x
    assert any(dict(a).get((1, 8)) == 1 for a in d.terms)
    with pytest.raises(QGrothError):
        x.tr_shift(3)
    y = x.tr_shift(2).tr_shift(-2)
    assert y == x
    # level shifts preserve products (the pairing depends on level gaps only)
    g1 = XElement.raw_generator(amb, 1, 0)
    g2 = XElement.raw_generator(amb, 2, 1)
    assert (g1 * g2).tr_shift(4) == g1.tr_shift(4) * g2.tr_shift(4)


def test_truncation_commutes_with_dual_shift():
    amb = ambient("B4")
    x = xelement_from_text(amb, (FIXTURES / "b4_fundamental_x10.txt").read_text().strip())
    h = amb.datum.coxeter_number
    xi = {1: 2, 2: 3, 3: 4, 4: 5}
    shifted_xi = {amb.datum.star_of(i): v + h for i, v in xi.items()}
    assert x.dq_shift(1).truncate(shifted_xi) == x.truncate(xi).dq_shift(1)


def test_b4_fixture_all_checks():
    amb = ambient("B4")
    x = xelement_from_text(amb, (FIXTURES / "b4_fundamental_x10.txt").read_text().strip())
    assert len(x.terms) == 9
    report = verify_fq_fixture(x, 1, 0, 0)
    assert all(report.values()), report


def test_b4_fixture_perturbation_fails_positivity():
    amb = ambient("B4")
    text = (FIXTURES / "b4_fundamental_x10.txt").read_text().strip()
    x = xelement_from_text(amb, text.replace("(q^-1 + q)", "(q^-1 - q)", 1))
    report = verify_fq_fixture(x, 1, 0, 0)
    assert not report["positive"]
    assert not report["bar_invariant"]


def test_b3_truncated_fixture_checks():
    amb = ambient("B3")
    x = xelement_from_text(amb, (FIXTURES / "b3_truncated_simple.txt").read_text().strip())
    assert len(x.terms) == 15
    report = verify_truncated_fixture(x, {(2, -5): 1, (1, 0): 1}, {1: 0, 2: -1, 3: 0})
    assert report["dominant"] and report["support"] and report["positive"]
    # the printed q-powers of the five lowest-level terms do not follow the
    # bar-invariant normalization that the fundamental fixture obeys; this
    # mismatch is recorded, not hidden (see the decisions ledger)
    assert report["bar_invariant"] is False


def test_xelement_text_round_trip():
    amb = ambient("B3")
    x = xelement_from_text(amb, (FIXTURES / "b3_truncated_simple.txt").read_text().strip())
    assert xelement_from_text(amb, xelement_to_text(x)) == x


@pytest.mark.parametrize(
    "name, code, digest",
    [
        ("b4_fundamental_x10.txt", "B4", "63620705c05eabb1e6b6491c670d3c6df6f7f241c3a95293dcdad87dfed626dd"),
        ("b3_truncated_simple.txt", "B3", "c78d1d632a7d79d181e639d8ffedc7ca8933854e5b32dbd697447ea6e3deecae"),
    ],
)
def test_xelement_to_text_golden_digests(name, code, digest):
    """The canonical text of each fixture, against a fixed SHA-256 of its rendering."""
    x = xelement_from_text(ambient(code), (FIXTURES / name).read_text().strip())
    assert hashlib.sha256(xelement_to_text(x).encode()).hexdigest() == digest


B2 = ambient("B2")
# B2 generators (1, even level) and (2, odd level): mostly near level 0, so terms collide, and
# some up to 33 levels apart, past the 2h + 1 = 9 of the unfolded table
_hats = st.tuples(st.sampled_from([1, 2]), st.integers(-2, 2) | st.integers(-8, 8)).map(
    lambda t: (t[0], t[0] - 1 + 2 * t[1])
)
_coeffs = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), min_size=1, max_size=3)


@st.composite
def xelements(draw, coeffs=_coeffs.map(QCoeff)):
    x = XElement.zero(B2)
    for exps, c in draw(st.lists(st.tuples(st.dictionaries(_hats, st.integers(-2, 2), max_size=3), coeffs), max_size=4)):
        x = x + XElement.monomial(B2, exps, c)
    return x


# Long coefficients in steps of q^{step/2}, so that products pack, with large and cancelling entries
long_xelements = st.sampled_from([1, 2, 4]).flatmap(lambda step: xelements(coeff_runs(step)))


@given(xelements())
def test_xelement_text_round_trip_random(x):
    assert xelement_from_text(B2, xelement_to_text(x)) == x


def _naive_xproduct(x, y):
    """The product summed one term pair at a time, each twist one hat pair at a time, through XElement addition."""
    amb = x.torus
    out = XElement.zero(amb)
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            exps = dict(a)
            for u, e in b:
                exps[u] = exps.get(u, 0) + e
            twist = sum(ea * eb * amb.pairing(u, v) for u, ea in a for v, eb in b)
            out = out + XElement.monomial(amb, exps, (ca * cb).shift(twist))
    return out


@given(xelements() | long_xelements, xelements() | long_xelements)
def test_xelement_product_matches_termwise_sum(x, y):
    p = x * y
    assert p == _naive_xproduct(x, y)
    assert all(c.terms and all(c.terms.values()) for c in p.terms.values())


def test_xelement_product_drops_cancelled_terms():
    a, b = XElement.raw_generator(B2, 1, 0), XElement.raw_generator(B2, 2, 1)
    ((key, ab),) = (a * b).terms.items()
    ((_, ba),) = (b * a).terms.items()
    # weight a so that its product with b cancels b times a exactly
    p = (a + b) * (b - a.scale(ab * ba.q_power_inverse()))
    assert key not in p.terms and len(p.terms) == 2


@given(xelements(), _EDITS)
def test_malformed_xelement_text_raises_module_errors(x, edit):
    try:
        xelement_from_text(B2, edit_text(xelement_to_text(x), edit))
    except (TorusError, QGrothError):
        pass


def test_tori_compare_by_cartan_datum():
    x = XElement.raw_generator(B2, 1, 0)
    fresh = XElement(ambient("B2"), x.terms)  # a second XTorus over one datum
    assert fresh == x and (fresh + x).terms == x.scale(QCoeff.integer(2)).terms
    assert fresh * x == x * x
    other = XElement(ambient("C2"), x.terms)
    assert other != x
    for op in (operator.add, operator.mul):
        with pytest.raises(TorusError, match="mismatched ambient tori"):
            op(other, x)
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(TorusError, match="window torus"):
        XElement.generator(B2, 1)  # (i,p) generators are built by raw_generator
    window = QLaurent.generator(WindowTorus(np.zeros((1, 1), dtype=np.int64)), 1)
    assert window != x and x != window
    with pytest.raises(TorusError, match="mismatched ambient tori"):
        window + x
    with pytest.raises(TorusError, match="mismatched ambient tori"):
        x + window


def test_q_structure_witness_names_x_factors():
    """On an XElement the witness names the monomial by its (i,p) hats, as XTorus.text prints them."""
    x = XElement.monomial(B2, {(2, 1): -1, (1, 0): 1}, QCoeff.q_power(1))
    assert B2.text(next(iter(x.terms))) == "X[1,0]*X[2,1]^-1" and B2.text(B2.one) == ""
    assert q_structure_witness(x) == "not bar-invariant: coefficient (q^1/2) of X[1,0]*X[2,1]^-1"
    assert q_structure_witness(x + x.bar()) is None
    negative = XElement.monomial(B2, {}, QCoeff.integer(-1))
    assert q_structure_witness(x + x.bar() + negative) == "not positive: coefficient (-1) of 1"


def test_xelement_matches_window_torus():
    """XElements on a fixed list of hat indices, embedded in the window torus of their pairing."""
    hats = [(1, -2), (2, -1), (1, 0), (2, 1), (1, 2)]
    lam = np.array([[B2.pairing(u, v) for v in hats] for u in hats], dtype=np.int64)
    rng = random.Random(5)

    def embed(x):
        return QLaurent(WindowTorus(lam), {tuple(dict(a).get(u, 0) for u in hats): c for a, c in x.terms.items()})

    def restrict(w):
        return XElement(B2, {_normkey(dict(zip(hats, a))): c for a, c in w.terms.items()})

    def random_x():
        x = XElement.zero(B2)
        for _ in range(rng.randint(1, 3)):
            exps = {u: rng.randint(-2, 2) for u in rng.sample(hats, rng.randint(0, 3))}
            c = QCoeff({rng.randint(-3, 3): rng.choice([-2, -1, 1, 2]) for _ in range(2)})
            x = x + XElement.monomial(B2, exps, c)
        return x

    assert XElement.__mul__ is QLaurent.__mul__
    for _ in range(30):
        x, y = random_x(), random_x()
        assert embed(x * y) == embed(x) * embed(y)
        assert restrict(embed(x) * embed(y)) == x * y
        assert embed(x.bar()) == embed(x).bar()
        assert embed(x**3) == embed(x) ** 3
        assert x**3 == x * x * x and isinstance(x**3, XElement)


# ----------------------------------------------------------------------
# commutative layer


def test_laurent_poly_basics():
    x = LaurentPoly.var("x")
    y = LaurentPoly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y).divexact(x + y) == LaurentPoly.const(1)
    with pytest.raises(CommutativeError):
        (x * x + y).divexact(x + y)
    q = (x + y) * LaurentPoly.var("x", -3)
    assert q.divexact(x + y) == LaurentPoly.var("x", -3)


_labels = st.one_of(
    st.integers(0, 30),  # repr "10" sorts before "2"
    st.tuples(st.integers(1, 12), st.integers(-12, 12)),
    st.tuples(st.sampled_from(["X", "Z"]), st.integers(1, 12), st.integers(-12, 12)),
    st.text(max_size=3),
)


@given(st.lists(st.tuples(_labels, st.integers(-2, 2)), max_size=8))
def test_keys_order_variables_by_repr(pairs):
    assert _key(pairs) == tuple(sorted(filter(operator.itemgetter(1), pairs), key=lambda t: repr(t[0])))


def test_rational_reduction_and_equality():
    x = LaurentPoly.var("x")
    y = LaurentPoly.var("y")
    a = RationalX.make(x * x - y * y, x + y)
    assert a.is_polynomial and a.num == x - y
    b = RationalX.make(x, x + y)
    assert b * b.inverse() == RationalX.from_poly(LaurentPoly.const(1))
    c = RationalX.make(x * (x + y), y * (x + y))
    assert c == RationalX.make(x, y)


def _laurent_polys(min_terms=0):
    term = st.tuples(st.dictionaries(st.sampled_from("xyz"), st.integers(-2, 2), max_size=2), st.integers(-3, 3))
    polys = st.lists(term, min_size=min_terms, max_size=3).map(
        lambda ts: sum((LaurentPoly.monomial(e, c) for e, c in ts), LaurentPoly.zero())
    )
    return polys.filter(lambda p: not p.is_zero) if min_terms else polys


@given(_laurent_polys(), _laurent_polys(1), _laurent_polys(1))
def test_make_divides_out_an_exact_denominator(p, q, h):
    """make keeps a fraction's value, and returns p over 1 whenever the denominator divides."""
    assert RationalX.make(p * h, q * h) == RationalX.make(p, q)
    r = RationalX.make(p * q, q)
    assert r.is_polynomial and r.num == p
    zero = RationalX.make(p - p, q)
    assert zero.num.is_zero and zero.den == LaurentPoly.const(1)


def test_substitute_b2_report():
    report = substitute_b2(1)
    assert len(report) == 22
    assert all(report.values()), {k: v for k, v in report.items() if not v}
