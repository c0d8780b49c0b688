"""The (i, p)-indexed quantum torus, KR monomials, truncation and the q=1
substitution checks.

The torus generators are indexed by pairs (i, p) with p matching a fixed
parity per node; their commutation exponents come from the Laurent expansion
of the inverse of the t-deformed symmetrized Cartan matrix.  Elements are
stored in the bar-invariant commutative-monomial basis, so the bar involution
acts on coefficients alone.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .braid import IndexSequence, build_seed
from .cartan import CartanDatum, build_cartan, validate_height_function
from .commutative import LaurentPoly, RationalX, _key
from .seeds import mutate_pair
from .torus import QCoeff, QLaurent, Torus, _parse_terms, _q_structure_breaks, qcoeff_to_text

HatIndex = tuple[int, int]  # (node, level)
ExpKey = tuple[tuple[HatIndex, int], ...]  # sorted ((i,p), exponent) pairs


class QGrothError(ValueError):
    pass


# ----------------------------------------------------------------------
# the t-deformed Cartan matrix and its inverse series


class TCartan:
    """Laurent coefficients of the inverse t-deformed Cartan matrix, as a periodic table.

    With M(t) = t * C(t) (an integer polynomial matrix with M(0) = 1), the
    series inverse follows the recurrence s_m = -C_off s_{m-1} - s_{m-2}, and
    the coefficient b(i, j, u) equals d_i * (s_{u-1})_{i,j}.  The recurrence
    is second order, so s_{2h} = 1 and s_{2h+1} = s_1 make the series periodic
    with period 2h (h the Coxeter number).  The table holds exactly 2h + 2
    terms, both equalities are checked when it is built, and every u >= 1 is
    read at (u - 1) mod 2h.  ``umax`` is accepted and ignored.  The pairing
    table of ``XTorus`` is read from ``tilde_b`` once per datum, when the
    torus is first built, not here.
    """

    def __init__(self, datum: CartanDatum, umax: int | None = None):
        self.datum = datum
        self.period = 2 * datum.coxeter_number
        n = datum.rank
        c_off = [[datum.cartan[i][j] if i != j else 0 for j in range(n)] for i in range(n)]
        s = [[[int(i == j) for j in range(n)] for i in range(n)], [[-v for v in row] for row in c_off]]
        while len(s) < self.period + 2:
            prev, prev2 = s[-1], s[-2]
            s.append([
                [-sum(c_off[i][t] * prev[t][j] for t in range(n)) - prev2[i][j] for j in range(n)]
                for i in range(n)
            ])
        if s[self.period] != s[0] or s[self.period + 1] != s[1]:
            raise QGrothError(f"the inverse series of {datum.family}{datum.rank} is not periodic with period 2h")
        self._series = s

    def tilde_b(self, i: int, j: int, u: int) -> int:
        """The coefficient of t^u in the (i, j) entry of the inverse matrix."""
        if u <= 0:
            return 0
        return self.datum.d(i) * self._series[(u - 1) % self.period][i - 1][j - 1]

    def check_vanishing(self, umax: int = 50) -> bool:
        """Conditions: b(i,j,u) = 0 when u <= d(i,j) or u = d(i,j) mod 2."""
        n = self.datum.rank
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                dij = self.datum.dist(i, j)
                for u in range(-4, umax + 1):
                    v = self.tilde_b(i, j, u)
                    if (u <= dij or (u - dij) % 2 == 0) and v != 0:
                        return False
        return True


def npairing(tc: TCartan, a: HatIndex, b: HatIndex) -> int:
    """The skew commutation exponent between torus generators at a and b."""
    (i, p), (j, s) = a, b
    XTorus(tc).check(a, b)
    return (
        tc.tilde_b(i, j, p - s - 1)
        - tc.tilde_b(i, j, s - p - 1)
        - tc.tilde_b(i, j, p - s + 1)
        + tc.tilde_b(i, j, s - p + 1)
    )


# ----------------------------------------------------------------------
# torus elements


def _normkey(exps: dict[HatIndex, int]) -> ExpKey:
    return tuple(sorted(((u, e) for u, e in exps.items() if e), key=_level_order))


def _level_order(term: tuple[HatIndex, int]) -> tuple[int, int]:
    """The canonical order of an ``ExpKey``: by level, then by node."""
    (i, p), _ = term
    return p, i


class XTorus(Torus):
    """The (i,p) torus of a Cartan datum: its pairing table and the torus protocol of ``QLaurent``.

    One object per datum, interned for the life of the process, so tori
    compare by identity and a datum's table is built once.
    By ``npairing`` the pairing of (i, p) and (j, s) is f_ij(p - s), and f_ij
    is odd, 0 at 0, and b(d - 1) - b(d + 1) for d >= 1 with b = tilde_b(i, j, .):
    periodic for d >= 2 with the period 2h of ``TCartan``.  ``table[i][j]``
    holds f_ij(d) at list index d for |d| <= 2h + 1, negative d counted from
    the end; a longer gap folds to (d - 2) mod 2h + 2, with its sign.

    ``gram_table`` is a read-only int64 array of the same table, indexed
    [i - 1, j - 1, d], for the gathered Gram matrix of ``_kr_gram_rows``.

    Exponents are sparse ``ExpKey`` tuples in (p, i) order.  ``key`` checks
    that every hat is a generator, which the table lookups do not;
    ``row(b)`` maps each hat to its pairing with b, summed over the hats of b
    on the hat's first read and kept, so a product reads the table once per
    (hat, b) rather than once per term pair; ``twist(a, row(b))`` sums the
    exponents of a against that map; ``join`` inserts the shorter key into
    the longer; ``text`` prints the key's hats as X[i,p]^e factors.
    """

    __slots__ = ("tc", "datum", "table", "gram_table", "_parity", "_lim")
    _interned: dict[CartanDatum, "XTorus"] = {}
    one = ()

    def __new__(cls, tc: TCartan) -> "XTorus":
        self = cls._interned.get(tc.datum)
        if self is None:
            self = super().__new__(cls)
            self.tc, self.datum = tc, tc.datum
            n = tc.datum.rank
            self._lim = lim = tc.period + 1
            self.table = [None]  # indexed by node from 1, like _parity
            for i in range(1, n + 1):
                self.table.append([None])
                for j in range(1, n + 1):
                    b = [tc.tilde_b(i, j, u) for u in range(lim + 2)]
                    f = [0] + [b[d - 1] - b[d + 1] for d in range(1, lim + 1)]
                    self.table[i].append(f + [-v for v in reversed(f[1:])])
            self.gram_table = np.array([row[1:] for row in self.table[1:]], dtype=np.int64)
            self.gram_table.setflags(write=False)
            # eps_i = d(i, 1) mod 2, as parity_function gives it; read directly, so that the first
            # torus of a datum makes no call that the perfbench tracer counts in one pass only
            self._parity = (None,) + tuple(tc.datum.dist(i, 1) % 2 for i in range(1, n + 1))
            cls._interned[tc.datum] = self
        return self

    def __reduce__(self):
        return (XTorus, (self.tc,))  # a copy or unpickled torus goes back through the interning

    def _fold(self, d: int) -> int:
        """A level gap past the table, moved by whole periods to (d - 2) mod 2h + 2 with its sign."""
        period = self._lim - 1
        return (d - 2) % period + 2 if d > 0 else -((-d - 2) % period + 2)

    def pairing(self, a: HatIndex, b: HatIndex) -> int:
        (i, p), (j, s) = a, b
        d = p - s
        return self.table[i][j][d if -self._lim <= d <= self._lim else self._fold(d)]

    def pairing_vec(self, a: ExpKey, b: ExpKey) -> int:
        """The pairing of two exponents: the sum of e_a e_b pairing(u_a, u_b) over their hats."""
        return self.twist(a, self.row(b))

    def check(self, *hats: HatIndex) -> None:
        """Raise unless each (i, p) indexes a generator: a node at a level of its parity."""
        n = self.datum.rank
        for i, p in hats:
            if not 1 <= i <= n:
                raise QGrothError(f"node {i} outside 1..{n}")
            if (p - self._parity[i]) % 2:
                raise QGrothError(f"level {p} does not match the parity of node {i}")

    def key(self, exps) -> ExpKey:
        """The ``ExpKey`` of a {(i, p): exponent} dict or of (hat, exponent) pairs, each hat checked."""
        hats = dict(exps)
        if len(hats) != len(exps):
            raise QGrothError(f"a hat appears twice in {exps!r}")
        self.check(*hats)
        return _normkey(hats)

    def row(self, b: ExpKey) -> "_Row":
        return _Row(self, b)

    @staticmethod
    def twist(a: ExpKey, rb: "_Row") -> int:
        """The pairing of a and b from row(b): the sum of e * <hat, b> over the hats of a."""
        total = 0
        for hat, e in a:
            total += e * rb[hat]
        return total

    @staticmethod
    def join(a: ExpKey, b: ExpKey) -> ExpKey:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        k = 0
        for u, e in b:
            k = bisect_left(out, (u[1], u[0]), k, key=_level_order)
            if k < len(out) and out[k][0] == u:
                e += out[k][1]
                if e:
                    out[k] = (u, e)
                else:
                    del out[k]
            else:
                out.insert(k, (u, e))
        return tuple(out)

    @staticmethod
    def text(a: ExpKey) -> str:
        """The factors X[i,p]^e of the exponent a in its order, joined by '*'; empty for the identity."""
        return "*".join(f"X[{i},{p}]" + (f"^{e}" if e != 1 else "") for (i, p), e in a)


class _Row(dict):
    """The pairing <hat, b> of one exponent b with each hat read so far; a new hat is summed on its first read."""

    __slots__ = ("torus", "b")

    def __init__(self, torus: XTorus, b: ExpKey):
        self.torus, self.b = torus, b

    def __missing__(self, hat: HatIndex) -> int:
        pairing = self.torus.pairing
        total = self[hat] = sum(e * pairing(hat, u) for u, e in self.b)
        return total


class XElement(QLaurent):
    """An (i,p)-torus element in the bar-invariant commutative-monomial basis.

    ``QLaurent`` over an ``XTorus`` (``torus``) with sparse ``ExpKey`` keys:
    the linear structure, the product, powers, bar and equality are inherited,
    and ``monomial`` takes a ``{(i, p): exponent}`` dict and checks its hats.
    """

    __mul__ = QLaurent.__mul__  # an attribute of its own, so a benchmark can trace XElement products apart

    @staticmethod
    def raw_generator(ambient: XTorus, i: int, p: int, exp: int = 1) -> "XElement":
        """The plain generator power, q^{-e d_i / 2} times the basis monomial."""
        a = ambient.key({(i, p): exp})  # checks the generator before d_i is read
        return XElement._unchecked(ambient, {a: QCoeff.q_power(-exp * ambient.datum.d(i))})

    # -- structure maps ---------------------------------------------------

    def truncate(self, xi: dict[int, int]) -> "XElement":
        out = {
            a: c
            for a, c in self.terms.items()
            if all(p <= xi[i] for (i, p), _ in a)
        }
        return XElement._unchecked(self.torus, out)

    def relabel(self, f) -> "XElement":
        out: dict[ExpKey, QCoeff] = {}
        for a, c in self.terms.items():
            key = self.torus.key({f(u): e for u, e in a})
            if key in out:
                raise QGrothError("relabelling collides")  # pragma: no cover
            out[key] = c
        return XElement._unchecked(self.torus, out)

    def tr_shift(self, r: int) -> "XElement":
        if r % 2:
            raise QGrothError("level shifts must be even")
        return self.relabel(lambda u: (u[0], u[1] + r))

    def at_q1(self) -> LaurentPoly:
        """The image at q = 1 in the variables ("X", i, p); a coefficient summing to 0 drops its term."""
        out = {}
        for a, c in self.terms.items():
            if n := c.at_q1():
                out[_key((("X",) + u, e) for u, e in a)] = n  # distinct keys: the relabelling is injective
        return LaurentPoly(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"XElement({xelement_to_text(self)})"


def _ladder(i: int, p: int, s: int) -> list[HatIndex]:
    """The hats (i, p), (i, p + 2), ..., (i, s) of a parity ladder; empty when p > s."""
    return [(i, u) for u in range(p, s + 1, 2)]


def kr_monomial(ambient: XTorus, i: int, p: int, s: int) -> XElement:
    """The commutative monomial on the parity ladder of node i from p to s."""
    ambient.check((i, p), (i, s))
    if p > s:
        raise QGrothError("empty ladder: need p <= s")
    return XElement.monomial(ambient, dict.fromkeys(_ladder(i, p, s), 1))


def z_xi(ambient: XTorus, xi: dict[int, int], i: int, p: int) -> XElement:
    validate_height_function(ambient.datum, xi)
    return kr_monomial(ambient, i, p, xi[i])


def b_monomial_exponents(datum: CartanDatum, i: int, p: int) -> dict[HatIndex, int]:
    """Exponents of the elementary ratio monomial at (i, p)."""
    exps: dict[HatIndex, int] = {(i, p - 1): 1, (i, p + 1): 1}
    for j in range(1, datum.rank + 1):
        if j != i and datum.c(j, i) < 0:
            exps[(j, p)] = datum.c(j, i)
    return exps


# ----------------------------------------------------------------------
# compatible readings and the torus comparison


def compatible_reading(datum: CartanDatum, xi: dict[int, int], count: int) -> list[HatIndex]:
    """The first ``count`` pairs (i, p) with p <= xi_i, highest levels first."""
    validate_height_function(datum, xi)
    out: list[HatIndex] = []
    level = max(xi.values())
    while len(out) < count:
        for i in sorted(range(1, datum.rank + 1)):
            if xi[i] >= level and (xi[i] - level) % 2 == 0:
                out.append((i, level))
        level -= 1
    return out[:count]


def _kr_gram_rows(ambient: XTorus, xi: dict[int, int], hats: list[HatIndex]) -> np.ndarray:
    """The Gram matrix pairing_vec(z_u, z_v) of the KR monomials z_xi at ``hats``, as int64 rows.

    Each node's entries of ``hats`` must step down by 2 from xi_i, so that the
    ladder of hats[u] is hats[u] plus the ladder of the node's entry before it.
    The pairing P on ``hats`` is one gather from ``XTorus.gram_table``, at
    each level gap's folded column; cumulative sums down each node's ladder,
    over rows (E P) and then over columns, give G = E P E^T for the 0/1
    ladder matrix E.  Raises QGrothError unless every partial sum, at most
    len(hats)^2 times the largest table entry, fits in int64.
    """
    ladders: dict[int, list[int]] = {}
    for u, (i, p) in enumerate(hats):
        ladder = ladders.setdefault(i, [])
        if p != (hats[ladder[-1]][1] - 2 if ladder else xi[i]):
            raise QGrothError(f"({i}, {p}) does not step down the ladder of node {i} from {xi[i]}")
        ladder.append(u)
    table, n = ambient.gram_table, len(hats)
    bound = max(int(table.max()), -int(table.min()))
    if n * n * bound >= 2**63:
        raise QGrothError(f"a Gram matrix of {n} KR monomials with table entries up to {bound} may exceed int64")
    levels = [p for _, p in hats]
    low, lim = min(levels, default=0), ambient._lim
    span = max(levels, default=0) - low
    # the table column of each level gap -span..span, long gaps folded
    column = np.array([d if -lim <= d <= lim else ambient._fold(d) for d in range(-span, span + 1)], dtype=np.intp)
    nodes = np.array([i - 1 for i, _ in hats], dtype=np.intp)
    rungs = np.array([p - low for p in levels], dtype=np.intp)
    gram = table[nodes[:, None], nodes[None, :], column[rungs[:, None] - rungs[None, :] + span]]
    for ladder in ladders.values():
        gram[ladder] = np.cumsum(gram[ladder], axis=0)
    for ladder in ladders.values():
        gram[:, ladder] = np.cumsum(gram[:, ladder], axis=1)
    return gram


def kappa_witness(datum: CartanDatum, xi: dict[int, int], window: int, tc: TCartan | None = None) -> tuple | None:
    """None when the torus comparison holds on a window of the reading, else its first mismatch.

    Both halves are compared.  Positions are 1-based, ``got`` is read from the
    window's seed and ``want`` from the KR monomials z_u = z_xi(pairs[u]):
    ("lam", u, v, got, want) when Lambda_uv (u < v, row-major) is not the
    pairing of z_u and z_v, or ("image", u, hat, got, want) when column u of B
    carries the z's to another monomial than the inverse b-monomial one level
    below pairs[u], at the lowest differing hat.  A ``tc`` of another datum
    raises QGrothError.
    """
    tc = tc if tc is not None else TCartan(datum)
    if tc.datum != datum:
        raise QGrothError(f"a TCartan of {tc.datum.family}{tc.datum.rank} given for {datum.family}{datum.rank}")
    pairs = compatible_reading(datum, xi, window)
    seed = build_seed(IndexSequence(datum, tuple(i for i, _ in pairs)), window)
    gram = _kr_gram_rows(XTorus(tc), xi, pairs)
    differ = np.triu(seed.lam != gram, 1)
    if differ.any():
        u, v = divmod(int(differ.argmax()), window)  # the first True in row-major order
        return ("lam", u + 1, v + 1, int(seed.lam[u, v]), int(gram[u, v]))
    for u in sorted(seed.exchangeable):
        image: dict[HatIndex, int] = {}
        for (j, s), coeff in zip(pairs, seed.b[:, u - 1].tolist()):
            if coeff:
                for hat in _ladder(j, s, xi[j]):  # the ladder of z_xi(j, s)
                    image[hat] = image.get(hat, 0) + coeff
        i, p = pairs[u - 1]
        want = {idx: -e for idx, e in b_monomial_exponents(datum, i, p - 1).items()}
        for hat in sorted(image.keys() | want.keys(), key=lambda h: (h[1], h[0])):
            if image.get(hat, 0) != want.get(hat, 0):
                return ("image", u, hat, image.get(hat, 0), want.get(hat, 0))
    return None


def check_kappa(datum: CartanDatum, xi: dict[int, int], window: int, tc: TCartan | None = None) -> bool:
    """Both halves of the torus comparison on a window of the reading; see kappa_witness."""
    return kappa_witness(datum, xi, window, tc) is None


# ----------------------------------------------------------------------
# fixture verification


def _only_extreme(x: XElement, want: ExpKey, sign: int) -> QCoeff:
    """The coefficient of ``want`` if it is the only monomial of x whose exponents all have the sign
    ``sign``, else 0: the only dominant monomial for sign 1, the only anti-dominant one for -1."""
    extreme = [a for a in x.terms if a and all(e * sign > 0 for _, e in a)]
    return x.terms[want] if extreme == [want] else QCoeff()


def verify_fq_fixture(x: XElement, i: int, p: int, s: int) -> dict[str, bool]:
    """The five structural checks of a fundamental/KR fixture.

    Unique dominant monomial at the stated ladder with coefficient one,
    unique anti-dominant partner one Coxeter number up, support range with an
    interior factor, bar-invariance and positivity.  Raises QGrothError
    unless (i, p) and (i, s) are generators with p <= s.
    """
    datum = x.torus.datum
    h = datum.coxeter_number
    (want_dom,) = kr_monomial(x.torus, i, p, s).terms
    (top,) = kr_monomial(x.torus, datum.star_of(i), p + h, s + h).terms
    want_anti = tuple((u, -e) for u, e in top)
    breaks = _q_structure_breaks(x)
    return {
        "dominant": _only_extreme(x, want_dom, 1) == QCoeff.one(),
        "antidominant": _only_extreme(x, want_anti, -1) == QCoeff.one(),
        "range": all(
            all(p <= u <= s + h for (_, u), _ in a) and any(p < u < s + h for (_, u), _ in a)
            for a in x.terms
            if a not in (want_dom, want_anti)
        ),
        "bar_invariant": not breaks["bar-invariant"],
        "positive": not breaks["positive"],
    }


def verify_truncated_fixture(
    x: XElement, dominant: dict[HatIndex, int], xi: dict[int, int]
) -> dict[str, bool]:
    """Checks applicable to a truncated simple-character fixture.

    A truncated element has no anti-dominant partner, so the applicable
    checks are: unique dominant monomial as stated (with a lead +q^k),
    support below the height function, bar-invariance up to a global q-power
    twist, and positivity.  Raises CartanError unless xi is a height function,
    and QGrothError unless each dominant hat is a generator.
    """
    validate_height_function(x.torus.datum, xi)
    want = x.torus.key(dominant)
    lead = x.terms.get(want, QCoeff())
    # the bar test reads x over its stated lead's q-power, even when that lead is not the only dominant one
    twist = -next(iter(lead.terms)) if lead.is_q_power() else 0
    breaks = _q_structure_breaks(x.scale(QCoeff.q_power(twist)))  # a shift by q^k keeps every entry's sign
    only = _only_extreme(x, want, 1)
    return {
        "dominant": only.is_q_power() and only.is_nonnegative(),  # is_q_power takes -q^k too
        "bar_invariant": not breaks["bar-invariant"],
        "support": x.truncate(xi) == x,
        "positive": not breaks["positive"],
    }


# ----------------------------------------------------------------------
# text format: "(coeff) X[i,p]^e*X[j,s]^e ..." with raw ordered products


def xelement_to_text(x: XElement) -> str:
    if x.is_zero:
        return "(0)"
    parts = []
    for a in sorted(x.terms, key=lambda k: tuple((u[1], u[0], e) for u, e in k)):
        # X^a = q^{gamma/2} * ordered raw product, gamma in half-units
        gamma = sum(e * x.torus.datum.d(u[0]) for u, e in a)
        for t1 in range(len(a)):
            for t2 in range(t1 + 1, len(a)):
                gamma -= a[t1][1] * a[t2][1] * x.torus.pairing(a[t1][0], a[t2][0])
        coeff = x.terms[a].shift(gamma)
        parts.append(f"({qcoeff_to_text(coeff)}) {x.torus.text(a)}".rstrip())
    return " + ".join(parts)


def xelement_from_text(ambient: XTorus, text: str) -> XElement:
    out = XElement.zero(ambient)
    for coeff, factors in _parse_terms(text, "X", 2):
        acc = XElement.monomial(ambient, {}, coeff)
        for (i, p), exp in factors:
            acc = acc * XElement.raw_generator(ambient, i, p, exp)
        out = out + acc
    return out


# ----------------------------------------------------------------------
# the q = 1 substitution pipeline for the rank-2 doubled-edge case


def _xvar(i: int, p: int) -> LaurentPoly:
    return LaurentPoly.var(("X", i, p))


def _kr_poly_x(xi: dict[int, int], i: int, p: int) -> LaurentPoly:
    """The ladder monomial in X-variables; an empty ladder is 1."""
    return LaurentPoly.monomial({("X",) + hat: 1 for hat in _ladder(i, p, xi[i])})


def substitute_b2(m_max: int = 1) -> dict[str, bool]:
    """Run the q=1 substitution checks for the doubled-edge rank-2 case.

    Returns a named report; every entry must be True.  Identities follow the
    fixed reference data: the mutation path along vertex triples, the four
    variable images, the two product identities and the two full reductions.
    """
    if m_max < 1:
        raise QGrothError("the reductions need m_max >= 1")
    datum = build_cartan("B", 2)
    xi = {1: 0, 2: 1}
    window = 4 * (m_max + 3)
    pairs = compatible_reading(datum, xi, window)
    position = {pair: u + 1 for u, pair in enumerate(pairs)}
    seed = build_seed(IndexSequence(datum, tuple(i for i, _ in pairs)), window)
    variables = [LaurentPoly.var(("Z",) + pair) for pair in pairs]

    def mutate_at(vertex: HatIndex) -> None:
        nonlocal seed
        u = position[vertex]
        col = seed.b[:, u - 1]
        seed = mutate_pair(seed, u)
        m_plus = LaurentPoly.const(1)
        m_minus = LaurentPoly.const(1)
        for v in range(window):
            e = int(col[v])
            if e > 0:
                m_plus = m_plus * variables[v] ** e
            elif e < 0:
                m_minus = m_minus * variables[v] ** (-e)
        variables[u - 1] = (m_plus + m_minus).divexact(variables[u - 1])

    for mm in range(m_max + 2):
        top = 1 - 4 * mm
        mutate_at((2, top))
        mutate_at((1, -4 * mm))
        mutate_at((2, top))

    xi_primed = {1: 0, 2: -1}

    def z(i: int, p: int) -> LaurentPoly:
        if p > xi[i]:
            return LaurentPoly.const(1)
        return LaurentPoly.var(("Z", i, p))

    def psi_hat(i: int, p: int) -> LaurentPoly:
        """Image of the primed initial variable at (i, p), in Z-variables."""
        if i == 1:
            return variables[position[(1, p)] - 1]
        # node 2: the primed vertex (2, p) sits at the unprimed vertex (2, p+2)
        return variables[position[(2, p + 2)] - 1]

    report: dict[str, bool] = {}

    # (a) the four displayed images of primed cluster variables
    for m in range(m_max + 1):
        t = 4 * m
        num1 = (
            z(2, 3 - t) ** 2 * z(1, -t) ** 2
            + (z(2, 3 - t) * z(1, 2 - t) * z(1, -t) * z(2, -1 - t)).scale(2)
            + z(1, 2 - t) ** 2 * z(2, -1 - t) ** 2
            + z(1, 2 - t) * z(2, 1 - t) ** 2 * z(1, -2 - t)
        )
        den1 = z(2, 1 - t) ** 2 * z(1, -t)
        report[f"psi_hat_Z1_m{m}"] = psi_hat(1, -t) * den1 == num1
        num2 = (
            z(2, 3 - t) * z(1, -t) * z(2, -1 - t)
            + z(1, 2 - t) * z(2, -1 - t) ** 2
            + z(2, 1 - t) ** 2 * z(1, -2 - t)
        )
        den2 = z(2, 1 - t) * z(1, -t)
        report[f"psi_hat_Z2_m{m}"] = psi_hat(2, -1 - t) * den2 == num2
        report[f"psi_hat_Z1low_m{m}"] = psi_hat(1, -2 - t) == z(1, -2 - t)
        report[f"psi_hat_Z2low_m{m}"] = psi_hat(2, -3 - t) == z(2, -1 - t)

    # pass to X-variables
    table = {("Z", i, p): _kr_poly_x(xi, i, p) for (i, p) in pairs}

    def psi_hat_x(i: int, p: int) -> RationalX:
        # primed variables above the primed height function are empty ladders
        if p > xi_primed[i]:
            return RationalX.from_poly(LaurentPoly.const(1))
        return RationalX.from_poly(psi_hat(i, p).substitute(table))

    def psi_x(i: int, p: int) -> RationalX:
        """Image of the primed torus generator at (i, p), as a rational function."""
        return psi_hat_x(i, p) * psi_hat_x(i, p + 2).inverse()

    def xv(i: int, p: int) -> RationalX:
        return RationalX.from_poly(_xvar(i, p))

    # (b) the four displayed substitution expressions
    def bracket_1_low(m: int) -> RationalX:  # (1, -4m-2)
        t = 4 * m
        return (
            xv(1, -2 - t).inverse() * xv(2, 1 - t).inverse() * xv(2, 1 - t).inverse()
            + (xv(2, -1 - t) * xv(2, 1 - t).inverse() * xv(1, -t).inverse() * xv(1, -2 - t).inverse()).scale_int(2)
            + xv(1, -t).inverse() * xv(1, -t).inverse() * xv(1, -2 - t).inverse() * xv(2, -1 - t) * xv(2, -1 - t)
            + xv(1, -t).inverse()
        )

    def bracket_1(m: int) -> RationalX:  # (1, -4m)
        t = 4 * m
        return (
            xv(1, -t) * xv(2, 1 - t).inverse() ** 2
            + (xv(2, -1 - t) * xv(2, 1 - t).inverse()).scale_int(2)
            + xv(1, -t).inverse() * xv(2, -1 - t) ** 2
            + xv(1, -2 - t)
        )

    def bracket_2_low(m: int) -> RationalX:  # (2, -4m-3)
        t = 4 * m
        return (
            xv(2, 1 - t).inverse()
            + xv(1, -t).inverse() * xv(2, -1 - t)
            + xv(1, -2 - t) * xv(2, -1 - t).inverse()
        )

    def bracket_2(m: int) -> RationalX:  # (2, -4m-1)
        t = 4 * m
        return (
            xv(2, -1 - t)
            + xv(1, -t).inverse() * xv(2, -1 - t) ** 2 * xv(2, 1 - t)
            + xv(1, -2 - t) * xv(2, 1 - t)
        )

    for m in range(m_max + 1):
        report[f"psi_x_1low_m{m}"] = psi_x(1, -4 * m - 2) == bracket_1_low(m).inverse()
        report[f"psi_x_2low_m{m}"] = psi_x(2, -4 * m - 3) == bracket_2_low(m).inverse()
        report[f"psi_x_1_m{m}"] = psi_x(1, -4 * m) == bracket_1(m)
        report[f"psi_x_2_m{m}"] = psi_x(2, -4 * m - 1) == bracket_2(m)

    # (c) product identities
    for m in range(m_max + 1):
        t = 4 * m
        lhs = psi_x(1, -2 - t) * psi_x(1, -t)
        report[f"product_1_m{m}"] = lhs == xv(1, -t) * xv(1, -2 - t)
        lhs2 = psi_x(2, -3 - t) * psi_x(2, -1 - t)
        report[f"product_2_m{m}"] = lhs2 == xv(2, 1 - t) * xv(2, -1 - t)

    # (d) the canonical-class image of the level -7 four-term sum
    img_d = (
        psi_x(2, -7)
        + psi_x(1, -6) * psi_x(2, -5).inverse()
        + psi_x(2, -5) * psi_x(1, -4).inverse()
        + psi_x(2, -3).inverse()
    )
    target_d = (
        xv(2, 1).inverse() + xv(1, 0).inverse() * xv(2, -1) + xv(1, -2) * xv(2, -1).inverse() + xv(2, -3)
    )
    report["reduction_L2"] = img_d == target_d

    # (e) the image of the level -4 five-term sum
    img_e = (
        psi_x(1, -4)
        + psi_x(2, -3) ** 2 * psi_x(1, -2).inverse()
        + (psi_x(2, -3) * psi_x(2, -1).inverse()).scale_int(2)
        + psi_x(1, -2) * psi_x(2, -1) ** (-2)
        + psi_x(1, 0).inverse()
    )
    target_e = (
        xv(1, -4) * xv(2, -3).inverse() ** 2
        + (xv(2, -3).inverse() * xv(2, -5)).scale_int(2)
        + xv(1, -4).inverse() * xv(2, -5) ** 2
        + xv(1, -6)
        + xv(1, -2).inverse()
    )
    report["reduction_L1"] = img_e == target_e
    return report
