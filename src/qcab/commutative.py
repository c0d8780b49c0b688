"""Exact commutative multivariate Laurent arithmetic over the integers.

Variables are arbitrary hashable labels (window positions, (node, level)
pairs).  Monomial keys are tuples of (variable, exponent) in the repr order
of the variables, with no zero exponents.  Division is by leading-term
elimination and is exact or an error; a rational function is reduced only
when its denominator divides its numerator, and equality is decided by
cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

Monomial = tuple[tuple[object, int], ...]


class CommutativeError(ArithmeticError):
    pass


class _Reprs(dict):
    """The repr of each variable label, computed on its first read: the variable order of every key.

    Labels that compare equal share one entry, as they are one variable to any dict.
    """

    def __missing__(self, label: object) -> str:
        r = self[label] = repr(label)
        return r


_REPRS = _Reprs()


def _key(pairs) -> Monomial:
    """The canonical key of (variable, exponent) pairs: zero exponents dropped, variables in repr order."""
    return tuple(sorted(filter(itemgetter(1), pairs), key=lambda t: _REPRS[t[0]]))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    out = dict(a)
    for var, e in b:
        out[var] = out.get(var, 0) + e
    return _key(out.items())


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return _mono_mul(a, tuple((v, -e) for v, e in b))


def _mono_greater(a: Monomial, b: Monomial) -> bool:
    """Graded lexicographic comparison on full exponent vectors.

    Absent variables count as exponent zero, which keeps the order
    translation-invariant on Laurent exponent vectors.
    """
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return da > db
    av, bv = dict(a), dict(b)
    for v in sorted({*av, *bv}, key=_REPRS.__getitem__):
        ea, eb = av.get(v, 0), bv.get(v, 0)
        if ea != eb:
            return ea > eb
    return False


def _mono_max(monomials) -> Monomial:
    it = iter(monomials)
    best = next(it)
    for m in it:
        if _mono_greater(m, best):
            best = m
    return best


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    """An integer Laurent polynomial as a monomial -> coefficient map."""

    terms: dict[Monomial, int]

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def const(n: int) -> "LaurentPoly":
        return LaurentPoly({(): n} if n else {})

    @staticmethod
    def var(label: object, exp: int = 1) -> "LaurentPoly":
        return LaurentPoly({((label, exp),): 1})

    @staticmethod
    def monomial(exps: dict, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({_key(exps.items()): coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            n = out.get(m, 0) + c
            if n:
                out[m] = n
            else:
                del out[m]
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                n = out.get(m, 0) + c1 * c2
                if n:
                    out[m] = n
                else:
                    out.pop(m, None)
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.terms) != 1:
                raise CommutativeError("negative powers exist only for monomials")
            ((m, c),) = self.terms.items()
            if abs(c) != 1:
                raise CommutativeError("negative power of a non-unit coefficient")
            return LaurentPoly({_key((v, n * e) for v, e in m): c ** (n % 2 or 2)})
        out = LaurentPoly.const(1)
        base = self
        for _ in range(n):
            out = out * base
        return out

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly.zero()
        return LaurentPoly({m: n * c for m, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:  # pragma: no cover
        return hash(tuple(sorted((repr(m), c) for m, c in self.terms.items())))

    def leading(self) -> tuple[Monomial, int]:
        if self.is_zero:
            raise CommutativeError("zero polynomial has no leading term")
        m = _mono_max(self.terms)
        return m, self.terms[m]

    def monomial_content(self) -> Monomial:
        """The largest monomial dividing every term (min exponent per variable)."""
        exps = [dict(m) for m in self.terms]
        return _key((v, min(d.get(v, 0) for d in exps)) for v in {v for d in exps for v in d})

    def strip_content(self) -> tuple[Monomial, "LaurentPoly"]:
        """Factor self as monomial * polynomial-with-min-exponent-zero."""
        mc = self.monomial_content()
        if not mc:
            return (), self
        inv = tuple((v, -e) for v, e in mc)
        return mc, LaurentPoly({_mono_mul(m, inv): c for m, c in self.terms.items()})

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """The exact quotient self / divisor; raises on any remainder.

        Both sides are first reduced to honest polynomials (every variable
        exponent >= 0), where leading-term elimination under graded lex
        terminates and detects non-divisibility as soon as a leading monomial
        fails to divide.
        """
        if divisor.is_zero:
            raise CommutativeError("division by zero")
        if self.is_zero:
            return LaurentPoly.zero()
        m_x, px = self.strip_content()
        m_d, pd = divisor.strip_content()
        ld_m, ld_c = pd.leading()
        ld = dict(ld_m)
        rem = px
        out: dict[Monomial, int] = {}
        while not rem.is_zero:
            m, c = rem.leading()
            mv = dict(m)
            if c % ld_c or any(mv.get(v, 0) < e for v, e in ld.items()):
                raise CommutativeError("nonzero remainder")
            t_m = _mono_div(m, ld_m)
            t_c = c // ld_c
            out[t_m] = out.get(t_m, 0) + t_c
            rem = rem - LaurentPoly({t_m: t_c}) * pd
        shift = _mono_div(m_x, m_d)
        return LaurentPoly({_mono_mul(m, shift): c for m, c in out.items() if c})

    def substitute(self, table: dict) -> "LaurentPoly":
        """Replace each variable by a Laurent monomial (a one-term LaurentPoly)."""
        out = LaurentPoly.zero()
        for m, c in self.terms.items():
            acc = LaurentPoly.const(c)
            for v, e in m:
                acc = acc * (table[v] ** e)
            out = out + acc
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda t: (sum(e for _, e in t), repr(t)), reverse=True):
            c = self.terms[m]
            mono = "*".join(f"{v}^{e}" if e != 1 else f"{v}" for v, e in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


@dataclass(frozen=True, eq=False)
class RationalX:
    """A fraction of Laurent polynomials: the quotient over 1 when the
    denominator divides the numerator, else the fraction as given."""

    num: LaurentPoly
    den: LaurentPoly

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalX":
        return RationalX(p, LaurentPoly.const(1))

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RationalX":
        if den.is_zero:
            raise CommutativeError("zero denominator")
        try:
            quotient = num.divexact(den)
        except CommutativeError:  # den is nonzero, so this is a nonzero remainder
            return RationalX(num, den)
        return RationalX(quotient, LaurentPoly.const(1))

    def __add__(self, other: "RationalX") -> "RationalX":
        if self.den == other.den:
            return RationalX.make(self.num + other.num, self.den)
        return RationalX.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalX") -> "RationalX":
        return RationalX.make(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalX":
        if self.num.is_zero:
            raise CommutativeError("inverse of zero")
        return RationalX.make(self.den, self.num)

    def scale_int(self, n: int) -> "RationalX":
        return RationalX.make(self.num.scale(n), self.den)

    def __pow__(self, n: int) -> "RationalX":
        base = self if n >= 0 else self.inverse()
        out = RationalX.from_poly(LaurentPoly.const(1))
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalX):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:  # pragma: no cover
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.num!r}) / ({self.den!r})"
