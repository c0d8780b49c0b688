"""Exact arithmetic in based quantum tori and cluster-variable tracking.

Elements are stored in the basis of bar-invariant normalized monomials X^a:
the product rule is X^a * X^b = q^{(1/2) a^T P b} X^{a+b} for the ambient
skew pairing P, so the bar involution acts coefficient-wise.  Coefficients
live in Z[q^{+-1/2}], with q-exponents kept as integers counting half-units.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import add, mul, sub

import numpy as np

from .seeds import CompatiblePair, _amax, mutate_pair


class TorusError(ValueError):
    pass


class NotPointedError(TorusError):
    pass


class DivisionRemainderError(TorusError):
    """Exact division failed; with valid inputs this signals a genuine bug."""


# ----------------------------------------------------------------------
# coefficients in Z[q^{+-1/2}]


class QCoeff:
    """A Laurent polynomial in q^{1/2}; keys count half-integer exponents."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def q_power(half_units: int, coeff: int = 1) -> "QCoeff":
        return QCoeff({half_units: coeff})

    @staticmethod
    def one() -> "QCoeff":
        return QCoeff({0: 1})

    @staticmethod
    def integer(n: int) -> "QCoeff":
        return QCoeff({0: n})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QCoeff) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "QCoeff") -> "QCoeff":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return QCoeff(out)

    def __neg__(self) -> "QCoeff":
        return QCoeff({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "QCoeff") -> "QCoeff":
        return self + (-other)

    def __mul__(self, other: "QCoeff") -> "QCoeff":
        out: dict[int, int] = {}
        _convolve_into(out, self.terms.items(), other.terms.items(), 0)
        return QCoeff(out)

    def shift(self, half_units: int) -> "QCoeff":
        return QCoeff({k + half_units: v for k, v in self.terms.items()})

    def bar(self) -> "QCoeff":
        return QCoeff({-k: v for k, v in self.terms.items()})

    def is_q_power(self) -> bool:
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def is_nonnegative(self) -> bool:
        """Every entry positive: the coefficient lies in Z>=0[q^{+-1/2}]."""
        return all(v > 0 for v in self.terms.values())

    def q_power_inverse(self) -> "QCoeff":
        if not self.is_q_power():
            raise TorusError("coefficient is not a unit q-power")
        (k, v), = self.terms.items()
        return QCoeff({-k: v})

    def at_q1(self) -> int:
        return sum(self.terms.values())

    def __repr__(self) -> str:
        return f"QCoeff({qcoeff_to_text(self)!r})"


def qcoeff_to_text(c: QCoeff) -> str:
    if not c:
        return "0"
    parts = []
    for k in sorted(c.terms, reverse=True):
        v = c.terms[k]
        if k == 0:
            parts.append(f"{v}")
            continue
        if k % 2 == 0:
            e = k // 2
            qs = "q" if e == 1 else f"q^{e}"
        else:
            qs = f"q^{k}/2"
        if v == 1:
            parts.append(qs)
        elif v == -1:
            parts.append(f"-{qs}")
        else:
            parts.append(f"{v}*{qs}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def qcoeff_from_text(text: str) -> QCoeff:
    text = text.strip()
    if text == "0":
        return QCoeff()
    out: dict[int, int] = {}
    for chunk in text.replace("- ", "+ -").split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = 1
        if chunk.startswith("-"):
            coeff = -1
            chunk = chunk[1:]
        if "*" in chunk:
            num, chunk = chunk.split("*", 1)
            coeff *= _int(num, text)
        if chunk.startswith("q"):
            rest = chunk[1:]
            if not rest:
                k = 2
            elif rest.startswith("^"):
                rest = rest[1:]
                k = _int(rest[:-2], text) if rest.endswith("/2") else 2 * _int(rest, text)
            else:
                raise TorusError(f"bad coefficient chunk {chunk!r}")
        else:
            coeff *= _int(chunk, text)
            k = 0
        out[k] = out.get(k, 0) + coeff
    return QCoeff(out)


# ----------------------------------------------------------------------
# the window torus and Laurent elements


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(map(mul, u, v))


class Torus:
    """The torus protocol of ``QLaurent``, implemented by ``WindowTorus`` and ``qgroth.XTorus``.

    ``key`` normalizes an exponent, ``row(b)`` is Lambda b,
    X^a X^b = q^{twist(a, row(b))/2} X^{join(a, b)}, ``one`` is the identity
    exponent and ``text(a)`` prints an exponent's factors.
    """

    __slots__ = ()


class WindowTorus(Torus):
    """The quantum torus of a window: Lambda, its rows and order weights 1^T Lambda.

    One object per Lambda, interned by its bytes while in use, so tori compare
    by identity.
    """

    __slots__ = ("lam", "rows", "weights", "one", "__weakref__")
    _interned = weakref.WeakValueDictionary()  # (size, bytes of Lambda) -> torus

    def __new__(cls, lam: np.ndarray) -> "WindowTorus":
        lam = np.asarray(lam, dtype=np.int64)
        ident = (lam.shape[0], lam.tobytes())
        self = cls._interned.get(ident)
        if self is None:
            self = super().__new__(cls)
            self.lam = lam = lam.copy()
            lam.flags.writeable = False
            self.rows = tuple(map(tuple, lam.tolist()))
            self.weights = tuple(map(sum, zip(*self.rows)))
            self.one = (0,) * lam.shape[0]
            cls._interned[ident] = self
        return self

    def __reduce__(self):
        return (WindowTorus, (self.lam,))  # a copy or unpickled torus goes back through the interning

    @staticmethod
    def key(a) -> tuple[int, ...]:
        return tuple(int(x) for x in a)

    def row(self, b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(_dot(r, b) for r in self.rows)

    twist = staticmethod(_dot)

    @staticmethod
    def join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, a, b))

    @staticmethod
    def text(a: tuple[int, ...]) -> str:
        """The factors Z[u]^e of the exponent a, joined by '*'; empty for the identity."""
        return "*".join(f"Z[{u}]" + (f"^{e}" if e != 1 else "") for u, e in enumerate(a, start=1) if e)


@dataclass(frozen=True)
class QLaurent:
    """An element of a based quantum torus, X^a X^b = q^{<a,b>/2} X^{a+b}.

    ``torus`` is a ``Torus``: a ``WindowTorus`` with dense tuple keys here,
    an ``XTorus`` with sparse keys for ``qgroth.XElement``.  Everything below
    (sums, the product, powers, bar and equality) goes through the torus
    protocol, so it serves both.  The constructors refuse anything but a
    ``Torus`` with TorusError.
    """

    torus: Torus
    terms: dict[tuple, QCoeff] = field(default_factory=dict)

    def _same(self, other: "QLaurent") -> None:
        if self.torus is not other.torus:
            raise TorusError("mismatched ambient tori")

    @classmethod
    def zero(cls, torus: Torus) -> "QLaurent":
        if not isinstance(torus, Torus):
            raise TorusError(f"expected a torus object, got {type(torus).__name__}")
        return cls(torus, {})

    @classmethod
    def monomial(cls, torus: Torus, a, coeff: QCoeff | None = None) -> "QLaurent":
        """coeff X^a; the bar-invariant normalized monomial X^a when coeff is omitted."""
        x = cls.zero(torus)
        c = QCoeff.one() if coeff is None else coeff
        if c:
            x.terms[torus.key(a)] = c
        return x

    @classmethod
    def generator(cls, torus, u: int, exp: int = 1) -> "QLaurent":
        """X_u^exp for the window position u, counted from 1."""
        if not isinstance(torus, WindowTorus):
            raise TorusError("generator takes a window torus; use XElement.raw_generator on the (i,p) torus")
        a = list(torus.one)
        if not 1 <= u <= len(a):
            raise TorusError(f"position {u} outside the window 1..{len(a)}")
        a[u - 1] = exp
        return cls.monomial(torus, a)

    def __add__(self, other: "QLaurent") -> "QLaurent":
        self._same(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            if a not in out:
                out[a] = c  # no coefficient is written to once it is in an element
            elif s := out[a] + c:
                out[a] = s
            else:
                del out[a]
        return type(self)(self.torus, out)

    def __neg__(self) -> "QLaurent":
        return type(self)(self.torus, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + (-other)

    def scale(self, c: QCoeff) -> "QLaurent":
        if not c:
            return self.zero(self.torus)
        return type(self)(self.torus, {a: cc * c for a, cc in self.terms.items()})

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        self._same(other)
        acc = _packed_product(self, other) if _packs(self, other) else None
        if acc is None:
            acc = _dict_product(self, other)
        return type(self)(self.torus, acc)

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise TorusError("negative powers only exist for monomials")
        out = type(self)(self.torus, {self.torus.one: QCoeff.one()})
        for _ in range(n):
            out = out * self
        return out

    def bar(self) -> "QLaurent":
        return type(self)(self.torus, {a: c.bar() for a, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.torus is other.torus and self.terms == other.terms

    def __hash__(self) -> int:  # pragma: no cover
        return hash(frozenset(self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def term_rows(self) -> dict[tuple, tuple]:
        """Each exponent b of the element and its row ``torus.row(b)``, built on first use."""
        row = self.torus.row
        return {b: row(b) for b in self.terms}

    def __repr__(self) -> str:
        if isinstance(self.torus, WindowTorus):
            return f"QLaurent({qlaurent_to_text(self)})"
        from .qgroth import xelement_to_text  # the (i,p) text format builds on this module

        return f"QLaurent({xelement_to_text(self)})"


# ----------------------------------------------------------------------
# the product, on coefficient dicts or packed coefficients

# A product packs its coefficients when they average at least this many entry
# pairs per term pair; shorter coefficients are cheaper one entry pair at a time.
_PACK_RATIO = 4


def _entries(x: QLaurent) -> int:
    return sum(len(c.terms) for c in x.terms.values())


def _l1(c: QCoeff) -> int:
    return sum(map(abs, c.terms.values()))


def _packs(x: QLaurent, y: QLaurent) -> bool:
    """The size rule of the product: sum |c_a| * sum |c_b| >= _PACK_RATIO * #pairs > 0."""
    pairs = len(x.terms) * len(y.terms)
    return pairs > 0 and _entries(x) * _entries(y) >= _PACK_RATIO * pairs


def _dict_product(x: QLaurent, y: QLaurent) -> dict[tuple, QCoeff]:
    """The terms of x y, one multiply-add per pair of coefficient entries."""
    torus = x.torus
    twist, join = torus.twist, torus.join
    rows = y.term_rows
    right = [(b, rows[b], c.terms.items()) for b, c in y.terms.items()]
    acc: dict[tuple, QCoeff] = {}
    for a, c in x.terms.items():
        ca = c.terms.items()
        for b, rb, cb in right:
            key = join(a, b)
            out = acc.get(key)
            if out is None:
                out = acc[key] = QCoeff()
            _convolve_into(out.terms, ca, cb, twist(a, rb))  # X^a X^b = q^{twist/2} X^{a+b}
    # The coefficients are summed in place, so no second copy of a large
    # product is held; the few with cancelled entries are rebuilt, or dropped when zero.
    for key in [k for k, c in acc.items() if 0 in c.terms.values()]:
        if c := QCoeff(acc[key].terms):
            acc[key] = c
        else:
            del acc[key]
    return acc


def _packed_product(x: QLaurent, y: QLaurent) -> dict[tuple, QCoeff] | None:
    """The terms of x y with each coefficient packed into one integer (Kronecker substitution).

    All exponent gaps of both factors' coefficients are multiples of g, so a
    coefficient c with lowest exponent lo is the polynomial sum_j v_j t^j in
    t = q^{g/2}, packed as sum_j v_j 2^{B j}.  A term pair is then one integer
    product, and the products landing on one key are summed aligned by their
    lowest exponents.  An entry of the result is a sum of at most
    min(#terms) entry products per key, so its size is at most
    M = max l1(c_a) * max l1(c_b) * min(#terms) < 2^{B-1}: every base-2^B
    digit is a signed integer that the unpacking reads exactly (Harvey,
    "Faster polynomial multiplication via multipoint Kronecker
    substitution", 2009).

    The result is None, and the caller takes the dict path, in three
    cases.  Packing pays for every digit, empty or not, so it refuses
    coefficients with more than twice as many digits from lowest to highest
    exponent as entries, and two products on one key that lie further apart
    than all those digits.  And two products on one key whose lowest
    exponents differ by no multiple of g do not align.
    """
    coeffs = (*x.terms.values(), *y.terms.values())
    g = 0
    for c in coeffs:
        lo = min(c.terms)
        g = gcd(g, *(k - lo for k in c.terms))
    g = g or 1
    digits = sum((max(c.terms) - min(c.terms)) // g + 1 for c in coeffs)
    if digits > 2 * (_entries(x) + _entries(y)):
        return None
    bound = max(map(_l1, x.terms.values())) * max(map(_l1, y.terms.values())) * min(len(x.terms), len(y.terms))
    width = bound.bit_length() + 1

    def pack(c: QCoeff) -> tuple[int, int]:
        lo = min(c.terms)
        return lo, sum(v << (width * ((k - lo) // g)) for k, v in c.terms.items())

    torus = x.torus
    twist, join = torus.twist, torus.join
    rows = y.term_rows
    right = [(b, rows[b], *pack(c)) for b, c in y.terms.items()]
    sums: dict[tuple, list[int]] = {}  # key -> [lowest exponent, packed sum]
    for a, c in x.terms.items():
        lo_a, pa = pack(c)
        for b, rb, lo_b, pb in right:
            key = join(a, b)
            base = twist(a, rb) + lo_a + lo_b  # X^a X^b = q^{twist/2} X^{a+b}
            cur = sums.get(key)
            if cur is None:
                sums[key] = [base, pa * pb]
                continue
            steps, r = divmod(base - cur[0], g)
            if r or abs(steps) > digits:
                return None
            if steps >= 0:
                cur[1] += (pa * pb) << (width * steps)
            else:
                cur[0], cur[1] = base, (cur[1] << (width * -steps)) + pa * pb
    mask, half = (1 << width) - 1, 1 << (width - 1)
    acc: dict[tuple, QCoeff] = {}
    for key, (k, n) in sums.items():
        terms = {}
        # n has at most |n|.bit_length() // width + 1 signed digits, read from the lowest
        for _ in range(abs(n).bit_length() // width + 1):
            v = n & mask
            if v >= half:
                v -= mask + 1
            if v:
                terms[k] = v
            n = (n >> width) + (v < 0)
            k += g
        if terms:
            acc[key] = _adopt(terms)
    return acc


def _adopt(terms: dict[int, int]) -> QCoeff:
    """A QCoeff holding terms itself, for a dict built here whose entries are all nonzero."""
    c = QCoeff()
    c.terms = terms
    return c


def _convolve_into(acc: dict[int, int], ca, cb, shift: int) -> None:
    """acc += q^{shift/2} ca cb for coefficient items ca and cb (zeros are left in acc)."""
    for k1, v1 in ca:
        k1 += shift
        for k2, v2 in cb:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + v1 * v2


# ----------------------------------------------------------------------
# term orders, pointedness and exact division


def _leading_exp(terms: dict[tuple[int, ...], QCoeff], weights: tuple[int, ...]) -> tuple[int, ...]:
    """The largest exponent in the term order: weight 1^T Lambda a, then lexicographic."""
    return max(terms, key=lambda a: (_dot(weights, a), a))


def _weights(torus: Torus) -> tuple[int, ...]:
    """The order weights 1^T Lambda of a window torus; other tori have no term order."""
    if not isinstance(torus, WindowTorus):
        raise TorusError(
            f"leading terms and division need a window torus's term order; {type(torus).__name__} has none"
        )
    return torus.weights


def leading_term(x: QLaurent) -> tuple[tuple[int, ...], QCoeff]:
    weights = _weights(x.torus)
    if x.is_zero:
        raise TorusError("zero element has no leading term")
    a = _leading_exp(x.terms, weights)
    return a, x.terms[a]


def divide_right_exact(x: QLaurent, d: QLaurent, stats: dict | None = None, *, _consume: bool = False) -> QLaurent:
    """The unique y with y * d = x, by leading-term elimination.

    The divisor's leading coefficient must be a unit q-power (true for every
    pointed cluster variable).  A remainder after 4(|x| + 1)(|d| + 1) + 64 steps
    raises, which for exchange steps signals a bug, not a data condition.

    The remainder is kept as a dict of mutable coefficient dicts with a heap
    of its exponents in the term order (stale entries are skipped), so each
    step costs one pass over the divisor (Johnson 1974; Monagan & Pearce 2007).
    If ``stats`` is given, it receives ``steps``, ``remainder_peak`` (terms)
    and ``output_terms``.

    The remainder starts as a copy of x's coefficients.  ``mutate_state``,
    which owns its numerator's coefficients, passes ``_consume=True`` to
    have them worked on in place instead: x keeps its exponents, but its
    coefficients are spent, each emptied once its term is eliminated.
    """
    x._same(d)
    torus = x.torus
    weights = _weights(torus)
    if d.is_zero:
        raise TorusError("division by zero")
    ld_exp, ld_coeff = leading_term(d)
    ((ld_k, ld_v),) = ld_coeff.q_power_inverse().terms.items()
    rows = d.term_rows
    ld_row = rows[ld_exp]
    # The terms of -d below its leading one, each with Lambda b for the twist.
    tail = [
        (b, rows[b], [(k, -v) for k, v in c.terms.items()])
        for b, c in d.terms.items()
        if b != ld_exp
    ]

    def entry(a: tuple[int, ...]):  # heapq is a min-heap: negate weight and exponent
        return -_dot(weights, a), tuple(-v for v in a), a

    rem = {a: c.terms if _consume else dict(c.terms) for a, c in x.terms.items()}
    heap = [entry(a) for a in rem]
    heapq.heapify(heap)
    out: dict[tuple[int, ...], QCoeff] = {}
    steps = 0
    peak = len(rem)
    cap = 4 * (len(x.terms) + 1) * (len(d.terms) + 1) + 64
    while heap:
        m = heapq.heappop(heap)[2]
        if m not in rem:
            continue
        if steps == cap:
            break
        steps += 1
        c = rem.pop(m)
        t = tuple(map(sub, m, ld_exp))
        shift = ld_k - _dot(t, ld_row)  # X^t X^ld = q^{(t . Lambda ld)/2} X^m
        tc = {k + shift: ld_v * v for k, v in c.items()}
        c.clear()  # a consumed dividend's coefficient is freed here, not when x goes
        out[t] = _adopt(tc)  # ld_v is +-1 and the remainder keeps no zero entry
        # The leading term of X^t c d cancels m exactly; subtract the rest.
        for b, lb, cb in tail:
            key = tuple(map(add, t, b))
            acc = rem.get(key)
            if acc is None:
                acc = rem[key] = {}
                heapq.heappush(heap, entry(key))
            _convolve_into(acc, tc.items(), cb, _dot(t, lb))
            if 0 in acc.values():
                for k in [k for k, v in acc.items() if not v]:
                    del acc[k]
                if not acc:
                    del rem[key]
        if len(rem) > peak:
            peak = len(rem)
    if stats is not None:
        stats.update(steps=steps, remainder_peak=peak, output_terms=len(out))
    if rem:  # the loop stopped at the cap; m led the remainder
        raise DivisionRemainderError(
            f"right division did not terminate: nonzero remainder after {steps} steps, "
            f"leading term ({qcoeff_to_text(QCoeff(rem[m]))}) {torus.text(m) or '1'}"
        )
    return QLaurent(torus, out)


_INT64_MAX = 2**63 - 1


def _read_only(a) -> np.ndarray:
    """A read-only C-ordered int64 copy of a."""
    a = np.array(a, dtype=np.int64, order="C")
    a.setflags(write=False)
    return a


class DegreeCheck:
    """The seed data of ``degree_of_pointed`` for one pair, kept as ``pair.degree_check``.

    ``torus`` is the pair's ``WindowTorus``; ``lam_ex`` holds the exchangeable
    columns of Lambda, ``d2`` the values 2 d_u and ``b_ex_t`` the exchangeable
    columns of B as rows, all read-only int64 copies, in ascending position.
    Exponent entries up to ``exp_bound`` in absolute value keep every partial
    sum of (m - g) Lambda_ex in int64, and n entries up to ``n_bound`` keep
    those of n B_ex^T there.
    """

    __slots__ = ("torus", "lam_ex", "d2", "b_ex_t", "exp_bound", "n_bound")

    def __init__(self, pair: CompatiblePair) -> None:
        cols = [u - 1 for u in sorted(pair.exchangeable)]
        self.torus = WindowTorus(pair.lam)
        self.lam_ex = _read_only(pair.lam[:, cols])
        self.d2 = _read_only([2 * pair.diag[u] for u in cols])
        self.b_ex_t = _read_only(pair.b[:, cols].T)
        # |m - g| <= 2 exp_bound, and a row of m - g meets s entries of a column of Lambda_ex.
        self.exp_bound = _INT64_MAX // (2 * max(pair.size * _amax(self.lam_ex) if cols else 0, 1))
        self.n_bound = _INT64_MAX // max(len(cols) * _amax(self.b_ex_t) if cols else 0, 1)


def degree_of_pointed(x: QLaurent, pair: CompatiblePair) -> tuple[int, ...]:
    """The degree vector g of a pointed element, with certificate checks.

    Verifies x = q^{a/2} Z^g + sum_n p_n Z^{g + B n} over n >= 0 supported on
    the exchangeable positions, and that the lead coefficient is a q-power.
    By compatibility, (Lambda B n)_u = -2 d_u n_u at exchangeable u, which
    gives n from Lambda (m - g).  The exponents m - g of all terms are checked
    at once as int64 rows D: n = D Lambda_ex / 2d must divide exactly with
    n >= 0, and n B_ex^T must give D back.  An exponent entry beyond
    ``pair.degree_check.exp_bound``, or an n entry beyond its ``n_bound``,
    raises TorusError instead of overflowing int64.
    """
    check = pair.degree_check
    if x.torus is not check.torus:
        raise TorusError("mismatched ambient tori")
    if x.is_zero:
        raise NotPointedError("zero element is not pointed")
    g = _leading_exp(x.terms, check.torus.weights)
    if not x.terms[g].is_q_power():
        raise NotPointedError("lead coefficient is not a q-power")
    if len(x.terms) == 1:
        return g
    try:
        e = np.array(list(x.terms), dtype=np.int64)
    except OverflowError:
        e = None
    if e is None or _amax(e) > check.exp_bound:
        raise TorusError(
            f"an exponent entry is beyond {check.exp_bound} in absolute value, the int64 bound of the degree check"
        )
    d = e - g  # |d| <= 2 exp_bound < 2**63
    n, r = np.divmod(d @ check.lam_ex, check.d2)
    if r.any() or n.min(initial=0) < 0:
        raise NotPointedError("an exponent is not of the form g + B n")
    if n.max(initial=0) > check.n_bound:
        raise TorusError(f"an entry of n is beyond {check.n_bound}, the int64 bound of the degree check")
    if not (n @ check.b_ex_t == d).all():
        raise NotPointedError("an exponent is not of the form g + B n")
    return g


def _q_structure_breaks(x: QLaurent) -> dict[str, list[tuple]]:
    """The monomials of x whose coefficient is not bar-invariant, then those whose coefficient is not positive.

    Quantum cluster variables are bar-invariant in the normalized basis
    (Berenstein & Zelevinsky 2005), and quantum Laurent positivity puts their
    coefficients in Z>=0[q^{+-1/2}]: the two tests of ``q_structure_witness``
    and of the fixture checks in ``qgroth``.
    """
    return {
        "bar-invariant": [a for a, c in x.terms.items() if c.bar() != c],
        "positive": [a for a, c in x.terms.items() if not c.is_nonnegative()],
    }


def q_structure_witness(x: QLaurent) -> str | None:
    """Why x is not bar-invariant with every coefficient in Z>=0[q^{+-1/2}], or None.

    The witness names the smallest monomial that breaks the first of the two
    tests of ``_q_structure_breaks``, and its coefficient.
    """
    for broken, bad in _q_structure_breaks(x).items():
        if bad:
            a = min(bad)
            return f"not {broken}: coefficient ({qcoeff_to_text(x.terms[a])}) of {x.torus.text(a) or '1'}"
    return None


def gvector_mutate(g_prime: tuple[int, ...], k: int, col: list[int]) -> tuple[int, ...]:
    """Degree transport along one mutation; ``col`` is column k of the mutated B."""
    gk = g_prime[k - 1]
    sign = 1 if gk >= 0 else -1
    out = [g + gk * max(sign * c, 0) for g, c in zip(g_prime, col)]
    out[k - 1] = -gk
    return tuple(out)


# ----------------------------------------------------------------------
# cluster state


class _ExchangeTable:
    """The exchanges computed in one family of states, and the next free label.

    One table serves every state grown from one ``ClusterState.from_pair``
    call, its family.  ``entries`` maps an exchange key to the new variable
    and its label.  The table keeps every exchange it computed, for as long
    as any state of the family lives, and it never hands out a label twice.
    """

    __slots__ = ("entries", "next_label")

    def __init__(self, next_label: int) -> None:
        self.entries: dict[tuple, tuple[QLaurent, int]] = {}
        self.next_label = next_label


@dataclass(frozen=True)
class ClusterState:
    """A seed reached by mutations, with variables kept in the initial torus.

    Besides the variables, the history and ``pair_chain``, a state carries
    ``labels``, one int per position that names its variable within the
    states grown from one ``from_pair`` call (equal labels, identical
    variables); ``degrees``, the initial-seed degree of each variable by the
    stepwise degree rule; and ``exchanges``, the ``_ExchangeTable`` shared
    by those states, the family's memo.  The three take no part in equality.
    A family's memo keeps every exchange it computed, for as long as any of
    its states lives, so walks that meet the same exchange share it whichever
    states they keep; a long walk that keeps only its latest state still
    holds one variable per exchange it computed.  A copy or an unpickled
    state starts a memo of its own: its variables take labels 0..s-1, and
    its degrees are kept.  One made by ``dataclasses.replace`` shares the
    memo.
    """

    variables: tuple[QLaurent, ...]
    history: tuple[int, ...]
    pair_chain: tuple[CompatiblePair, ...]  # the seed before the first step and after each
    labels: tuple[int, ...] = field(compare=False)
    degrees: tuple[tuple[int, ...], ...] = field(compare=False)
    exchanges: _ExchangeTable = field(compare=False, repr=False)

    def __reduce__(self):
        s = len(self.variables)
        args = (self.variables, self.history, self.pair_chain, tuple(range(s)), self.degrees, _ExchangeTable(s))
        return (ClusterState, args)

    @property
    def initial(self) -> CompatiblePair:
        return self.pair_chain[0]

    @property
    def current(self) -> CompatiblePair:
        return self.pair_chain[-1]

    @staticmethod
    def from_pair(pair: CompatiblePair) -> "ClusterState":
        torus = WindowTorus(pair.lam)
        s = pair.size
        return ClusterState(
            tuple(QLaurent.generator(torus, u) for u in range(1, s + 1)),
            (),
            (pair,),
            tuple(range(s)),
            tuple(tuple(int(u == v) for u in range(s)) for v in range(s)),
            _ExchangeTable(s),
        )


def mutate_state(state: ClusterState, k: int, stats: dict | None = None) -> ClusterState:
    """Exchange at k; the new variable is (M' + M'') right-divided by the old.

    Z^{m - e_k} = q^{shift/2} X_1^{m_1} ... X_s^{m_s} X_k^{-1} for m = [+-b_k]_+, the current
    variables X and shift = m Lambda e_k - sum_{u<v} m_u m_v lambda_uv in the current seed.

    The new variable is a function of X_k and of the shift and the factors
    of M' and M'' alone, so the state's exchange table keys it by the label
    of X_k and, for M' then M'', the shift and the (label, exponent) pairs
    in position order.  A variable stored under that key is returned as it
    is, with its label; otherwise the exchange is computed and stored under
    a fresh label.  The memo keeps it for as long as any state of the family
    lives, so a repeated step at k returns the identical variable, and so
    does any later walk of the family that meets the exchange again.
    Mutations at j and k with b_jk = 0 commute, so walks that differ by such
    a swap share their exchanges.

    The new variable's degree is the stepwise degree rule replayed along the
    new history, back to the initial seed, on a reused step too.

    M' and M'' each start as q^{shift/2} times their first factor (the unit
    q^{shift/2} when m is 0), so only the products by the later factors are
    formed.

    If ``stats`` is given, it receives ``reused``.  A computed step also
    fills ``numerator_terms``; ``term_pairs``, the term pairs of the
    products formed for the numerator, and ``packed_pairs``, those of the
    products that the size rule packs; ``longest_coefficient``, the most
    entries of a coefficient of the new variable; and the division's
    ``steps`` and ``remainder_peak``.
    """
    cur = state.current
    if k not in cur.exchangeable:
        raise TorusError(f"position {k} is frozen or out of range")
    lam = cur.lam.tolist()
    col = cur.b[:, k - 1].tolist()
    col[k - 1] = 0
    factors = []  # (shift, the support of m, ascending) for M' then M''
    for sign in (1, -1):
        m = [(u, sign * b) for u, b in enumerate(col) if sign * b > 0]
        shift = sum(mu * lam[u][k - 1] for u, mu in m)
        shift -= sum(mu * mv * lam[u][v] for i, (u, mu) in enumerate(m) for v, mv in m[i + 1 :])
        factors.append((shift, m))
    labels = state.labels
    key = (labels[k - 1], *((shift, tuple((labels[u], mu) for u, mu in m)) for shift, m in factors))
    memo = state.exchanges
    found = memo.entries.get(key)
    if found is not None:
        new, label = found
        if stats is not None:
            stats["reused"] = True
    else:
        new = _exchange(state.variables, k, factors, stats)
        label = memo.next_label
        memo.next_label += 1
        memo.entries[key] = new, label
    history = state.history + (k,)
    pair_chain = state.pair_chain + (mutate_pair(cur, k),)
    g = tuple(int(u == k) for u in range(1, cur.size + 1))
    for t in range(len(history), 0, -1):
        j = history[t - 1]
        g = gvector_mutate(g, j, pair_chain[t].b[:, j - 1].tolist())
    variables, new_labels, degrees = list(state.variables), list(labels), list(state.degrees)
    variables[k - 1], new_labels[k - 1], degrees[k - 1] = new, label, g
    return ClusterState(tuple(variables), history, pair_chain, tuple(new_labels), tuple(degrees), state.exchanges)


def _exchange(variables: tuple[QLaurent, ...], k: int, factors: list, stats: dict | None) -> QLaurent:
    """(M' + M'') right-divided by X_k, for M' and M'' given as (shift, [(u, m_u), ...])."""
    old = variables[k - 1]
    torus = old.torus
    num = None
    pairs = packed = 0
    for shift, m in factors:
        powers = [variables[u] for u, mu in m for _ in range(mu)]
        if powers:  # q^{shift/2} times the first factor, on fresh coefficients the division may spend
            term = QLaurent(torus, {a: c.shift(shift) for a, c in powers[0].terms.items()})
        else:
            term = QLaurent(torus, {torus.one: QCoeff.q_power(shift)})
        for x in powers[1:]:
            if stats is not None:
                n = len(term.terms) * len(x.terms)
                pairs += n
                packed += n if _packs(term, x) else 0
            term = term * x
        num = term if num is None else num + term  # M' + M''
    del term  # num alone holds its coefficients, and the division spends them
    division = {} if stats is not None else None
    new = divide_right_exact(num, old, stats=division, _consume=True)
    if stats is not None:
        stats.update(
            reused=False,
            numerator_terms=len(num.terms),
            term_pairs=pairs,
            packed_pairs=packed,
            longest_coefficient=max(len(c.terms) for c in new.terms.values()),
            steps=division["steps"],
            remainder_peak=division["remainder_peak"],
        )
    return new


def predicted_degree(state: ClusterState, position: int) -> tuple[int, ...]:
    """Initial-seed degree of a current variable by the stepwise degree rule.

    ``mutate_state`` replays the rule back from each new variable's birth
    and the state carries the result, so this reads ``state.degrees``.
    """
    s = state.initial.size
    if not 1 <= position <= s:
        raise TorusError(f"position {position} outside the window 1..{s}")
    return state.degrees[position - 1]


# ----------------------------------------------------------------------
# canonical text rendering


def qlaurent_to_text(x: QLaurent) -> str:
    """The window format "(coeff) Z[u]^e*... + ..."; X factors are raw products in
    fixture text, so an (i,p) element is written by ``qgroth.xelement_to_text``
    and refused here with TorusError."""
    if not isinstance(x.torus, WindowTorus):
        raise TorusError(
            "qlaurent_to_text writes window-torus elements; "
            f"write an element over {type(x.torus).__name__} with qgroth.xelement_to_text"
        )
    if x.is_zero:
        return "(0)"
    parts = []
    for a in sorted(x.terms):
        mono = WindowTorus.text(a)
        coeff = qcoeff_to_text(x.terms[a])
        parts.append(f"({coeff}) {mono}".rstrip())
    return " + ".join(parts)


def _parse_terms(text: str, label: str, arity: int):
    """Each term of "(coeff) L[..]^e*L[..] + ..." as (coefficient, [(index, exponent), ...]).

    Every factor must be ``label[...]`` with ``arity`` integer indices;
    anything else raises TorusError.
    """
    for term in _split_terms(text):
        coeff_text, mono_text = _split_coeff(term)
        factors = mono_text.split("*") if mono_text else []
        yield qcoeff_from_text(coeff_text), [_parse_factor(f, label, arity) for f in factors]


def _split_terms(text: str) -> list[str]:
    terms, depth, cur = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text.startswith(" + ", i):
            terms.append("".join(cur))
            cur = []
            i += 3
            continue
        cur.append(ch)
        i += 1
    if cur:
        terms.append("".join(cur))
    return [t.strip() for t in terms if t.strip()]


def _split_coeff(term: str) -> tuple[str, str]:
    term = term.strip()
    if not term.startswith("("):
        return "1", term
    depth = 0
    for i, ch in enumerate(term):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return term[1:i], term[i + 1 :].strip()
    raise TorusError(f"unbalanced parentheses in {term!r}")


def _parse_factor(factor: str, label: str, arity: int) -> tuple[tuple[int, ...], int]:
    base, caret, exp_text = factor.strip().partition("^")
    inside = base[len(label) + 1 : -1].split(",")
    if not (base.startswith(label + "[") and base.endswith("]")) or len(inside) != arity:
        raise TorusError(f"bad monomial factor {factor!r}: expected {label}[{','.join('n' * arity)}]")
    return tuple(_int(t, factor) for t in inside), _int(exp_text, factor) if caret else 1


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TorusError(f"bad integer {text!r} in {where!r}") from None
