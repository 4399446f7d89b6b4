"""Exact scalar arithmetic: Z[q, q^-1], its fraction field, truncated
formal series in z, and cyclotomic quotients for root-of-unity work.

Every value is immutable; every operation is a pure function.  These
scalars are the coefficients of all module actions downstream, so
equality and zero-tests must be exact (no floats on the main path).

Every polynomial has integer coefficients.  Exact division in Z[q^+-1]
is integer long division from the top (`LaurentPoly.divexact`); the gcd
behind `RationalQ.canonical` is the primitive pseudo-remainder sequence
(`_poly_gcd`); a `CycloElem` is inverted through its Galois norm, the
product of its conjugates under q -> q^k, k prime to N, a nonzero
rational (`CycloElem.inv`).  `Fraction` holds rational scalars only: the
`from_fraction` constructors, the coefficients given to the `CycloElem`
constructor, `scale`, the 1/m of `series_log` and `series_exp`, and
display.

An element of the cyclotomic field Q[q]/(Phi_N) (`CycloElem`) is a
tuple of integer numerators over one positive common denominator, in
lowest terms.  Phi_N is monic with integer coefficients, so reduction
modulo Phi_N stays in Z, and integral elements (every power of q) keep
denominator 1 and skip the gcd.  The cyclotomic polynomials are
computed on first use and kept in memory for the process.

Both coefficient rings of the modules, RationalQ and CycloElem, offer
three methods for residuals summed in integers.
`clear_denominators(values)` brings a list of values over one nonzero
common denominator D and returns each value * D as integer terms
((exponent, int), ...): for RationalQ, D is the product of the distinct
denominators up to units +-q^k, with no division and no gcd; for
CycloElem, D is the lcm of the integer denominators and the exponents
are those of the basis q^0 .. q^{deg Phi_N - 1}.
`mode_weight(w)` reduces the mode weight w of a numerator, the
coefficients of the mode values v in its exponent: RationalQ keeps w,
CycloElem takes each entry mod N (q^N = 1, so v . w matters mod N only).
`counts_vanish(counts)` decides whether integer counters
{(target, exponent): int} are zero: in Z[q^+-1] when every counter is,
at eps when per target the exponents folded mod N reduce to zero mod
Phi_N.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub


class ExpansionError(ValueError):
    """A series expansion was requested in a direction where the
    denominator has no invertible leading term."""


class SpecializationError(ValueError):
    """A denominator vanishes at the requested root of unity."""


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Sparse Laurent polynomial in q with integer coefficients.

    Stored as {exponent: coefficient} with no zero coefficients.
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                if c:
                    t[int(k)] = int(c)
        self.terms = t
        self._key = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(k: int) -> "LaurentPoly":
        return LaurentPoly({k: 1})

    # -- structure ----------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def degree(self):
        return max(self.terms) if self.terms else None

    def valuation(self):
        return min(self.terms) if self.terms else None

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def lowest_coeff(self) -> int:
        return self.terms[self.valuation()] if self.terms else 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k, 0) + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = t
        r._key = None
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {k: -c for k, c in self.terms.items()}
        r._key = None
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(a) == 1:
            ((k, c),) = a.items()
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = {k + j: c * d for j, d in b.items()}
            r._key = None
            return r
        if len(b) == 1:
            return other * self
        t = {}
        for k, c in a.items():
            for j, d in b.items():
                e = k + j
                s = t.get(e, 0) + c * d
                if s:
                    t[e] = s
                else:
                    del t[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = t
        r._key = None
        return r

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return ZERO
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {k: c * v for k, v in self.terms.items()}
        r._key = None
        return r

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if k == 0:
            return self
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e + k: c for e, c in self.terms.items()}
        r._key = None
        return r

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[q^+-1] by integer long division from the
        top; raises ValueError when the quotient has a remainder or a
        non-integer coefficient.  An exact quotient is read off from the
        top term by term, so each step's leading coefficient divides
        exactly, and its lowest exponent is val(self) - val(other)."""
        if other.is_zero():
            raise ZeroDivisionError("LaurentPoly division by zero")
        if self.is_zero():
            return ZERO
        va, vb = self.valuation(), other.valuation()
        rem = _dense(self)
        den = [(k - vb, c) for k, c in other.terms.items()]
        top = other.degree()
        db, lead = top - vb, other.terms[top]
        quot = {}
        for i in range(len(rem) - 1 - db, -1, -1):
            c = rem[i + db]
            if c:
                f, r = divmod(c, lead)
                if r:
                    raise ValueError("inexact LaurentPoly division")
                quot[i + va - vb] = f
                for k, d in den:
                    rem[i + k] -= f * d
        if any(rem[:db]):
            raise ValueError("inexact LaurentPoly division")
        return LaurentPoly(quot)

    # -- evaluation ---------------------------------------------------------

    def eval_at_one(self) -> int:
        return sum(self.terms.values())

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            if k == 0:
                body = str(abs(c))
            else:
                v = "q" if k == 1 else f"q^{k}"
                body = v if abs(c) == 1 else f"{abs(c)}*{v}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def _dense(p: LaurentPoly) -> list:
    """The integer coefficients of the nonzero p / q^val(p), lowest
    first."""
    v = p.valuation()
    cs = [0] * (p.degree() - v + 1)
    for k, c in p.terms.items():
        cs[k - v] = c
    return cs


def _primitive(cs: list) -> list:
    """A coefficient list divided by its content."""
    g = gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd of two nonzero integer Laurent polynomials, as a primitive
    polynomial times the gcd of contents, with valuation 0 and positive
    leading coefficient: the primitive pseudo-remainder sequence of the
    primitive parts, in integers (Gauss's lemma makes its last nonzero
    entry the primitive gcd)."""
    fa, fb = _primitive(_dense(a)), _primitive(_dense(b))
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        db, lb = len(fb) - 1, fb[-1]
        r = fa
        while len(r) > db:
            # lb * r - lr * q^top * b over their gcd cancels r's top term
            h = gcd(r[-1], lb)
            mr, mb = lb // h, r[-1] // h
            top = len(r) - 1 - db
            r = [mr * c for c in r[:-1]]
            for k, d in enumerate(fb[:-1], top):
                r[k] -= mb * d
            while r and not r[-1]:
                r.pop()
        fa, fb = fb, _primitive(r)
    if fa[-1] < 0:
        fa = [-c for c in fa]
    g = gcd(a.content(), b.content())
    return LaurentPoly({k: c * g for k, c in enumerate(fa)})


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------

def qint(l: int) -> LaurentPoly:
    """[l]_q = (q^l - q^-l)/(q - q^-1).  Odd in l."""
    if l == 0:
        return ZERO
    s = 1 if l > 0 else -1
    a = abs(l)
    p = LaurentPoly({a - 1 - 2 * t: 1 for t in range(a)})
    return p if s > 0 else -p


def qfact(r: int) -> LaurentPoly:
    if r < 0:
        raise ValueError("qfact of a negative integer")
    out = ONE
    for t in range(1, r + 1):
        out = out * qint(t)
    return out


def qbinom(m: int, k: int) -> LaurentPoly:
    """Quantum binomial coefficient; exact Laurent polynomial."""
    if not 0 <= k <= m:
        raise ValueError(f"qbinom out of range: m={m}, k={k}")
    num = ONE
    for t in range(k):
        num = num * qint(m - t)
    return num.divexact(qfact(k))


# ---------------------------------------------------------------------------
# fraction field Q(q), normalized lazily
# ---------------------------------------------------------------------------

class RationalQ:
    """Quotient of Laurent polynomials.  Arithmetic keeps fractions
    unreduced (cheap); canonical() produces the gcd-reduced form with
    denominator of valuation 0 and positive lowest coefficient."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("RationalQ with zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def from_int(c: int) -> "RationalQ":
        return RationalQ(LaurentPoly.from_int(c))

    @staticmethod
    def from_fraction(f: Fraction) -> "RationalQ":
        return RationalQ(LaurentPoly.from_int(f.numerator),
                         LaurentPoly.from_int(f.denominator))

    @staticmethod
    def q_power(k: int) -> "RationalQ":
        return RationalQ(LaurentPoly.q_power(k))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalQ") -> "RationalQ":
        if self.den is ONE and other.den is ONE:
            return RationalQ(self.num + other.num)
        if self.den == other.den:
            return RationalQ(self.num + other.num, self.den)
        return RationalQ(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __neg__(self) -> "RationalQ":
        return RationalQ(-self.num, self.den)

    def __sub__(self, other: "RationalQ") -> "RationalQ":
        return self + (-other)

    def __mul__(self, other: "RationalQ") -> "RationalQ":
        if self.den is ONE and other.den is ONE:
            return RationalQ(self.num * other.num)
        return RationalQ(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalQ") -> "RationalQ":
        if other.is_zero():
            raise ZeroDivisionError("RationalQ division by zero")
        return RationalQ(self.num * other.den, self.den * other.num)

    def mul_qpow(self, k: int) -> "RationalQ":
        return RationalQ(self.num.shifted(k), self.den)

    @staticmethod
    def clear_denominators(values) -> tuple:
        """(D, numerators): D is the product of the values' distinct
        denominators up to units +-q^k, each taken as its primitive
        associate (valuation 0, positive lowest coefficient), and
        numerators[k] the term tuple ((exponent, int), ...) of
        values[k] * D: its numerator times the unit and the other
        associates.  No division and no gcd.  Where every denominator
        is ONE itself, as on every thin module, D is ONE and the
        numerators are the values' own terms."""
        if all(v.den is ONE for v in values):
            return ONE, [tuple(v.num.terms.items()) for v in values]
        # denominator key -> (associate key, exponent shift, sign)
        den, cofactor, unit = ONE, {}, {}
        for v in values:
            d = v.den
            key = d.key()
            if key in unit:
                continue
            low = d.valuation()
            sign = 1 if d.terms[low] > 0 else -1
            p = d.shifted(-low) if sign > 0 else -d.shifted(-low)
            pkey = p.key()
            unit[key] = (pkey, -low, sign)
            if pkey not in cofactor:
                cofactor = {k: c * p for k, c in cofactor.items()}
                cofactor[pkey] = den
                den = den * p
        out = []
        for v in values:
            pkey, shift, sign = unit[v.den.key()]
            num = v.num.shifted(shift)
            if sign < 0:
                num = -num
            c = cofactor[pkey]
            out.append(tuple((num if c.is_one() else num * c).terms.items()))
        return den, out

    @staticmethod
    def mode_weight(w: tuple) -> tuple:
        """The mode weight w of a cleared numerator (the coefficients of
        the modes in its exponent), reduced as far as the ring allows:
        in Z[q^+-1] not at all."""
        return w

    @staticmethod
    def counts_vanish(counts: dict) -> bool:
        """Whether integer counters {(target, exponent): int}, the
        cleared numerators of a vector, are the zero vector."""
        return not any(counts.values())

    def __eq__(self, other):
        if not isinstance(other, RationalQ):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        c = self.canonical()
        return hash((c.num.key(), c.den.key()))

    def canonical(self) -> "RationalQ":
        num, den = self.num, self.den
        if num.is_zero():
            return RQ_ZERO
        v = den.valuation()
        if v:
            num, den = num.shifted(-v), den.shifted(-v)
        nv = min(num.valuation(), 0)
        npoly = num.shifted(-nv)
        g = _poly_gcd(npoly, den)
        if not g.is_one():
            npoly = npoly.divexact(g)
            den = den.divexact(g)
        num = npoly.shifted(nv)
        if den.lowest_coeff() < 0:
            num, den = -num, -den
        # clear negative exponents: min(val num, val den) = 0
        shift = min(num.valuation(), den.valuation())
        if shift:
            num, den = num.shifted(-shift), den.shifted(-shift)
        return RationalQ(num, den)

    def __str__(self):
        c = self.canonical()
        if c.den.is_one():
            return str(c.num)
        return f"({c.num})/({c.den})"

    def __repr__(self):
        return f"RationalQ('{self}')"


RQ_ZERO = RationalQ(ZERO)
RQ_ONE = RationalQ(ONE)
Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})


# ---------------------------------------------------------------------------
# truncated formal series in z^{+-1}
# ---------------------------------------------------------------------------

class QSeries:
    """Truncated series sum_{s=0..order} c_s z^{direction*s} with
    RationalQ coefficients."""

    __slots__ = ("direction", "coeffs", "order")

    def __init__(self, direction: int, coeffs, order: int):
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = list(coeffs)
        if len(cs) < order + 1:
            cs += [RQ_ZERO] * (order + 1 - len(cs))
        self.direction = direction
        self.coeffs = tuple(cs[: order + 1])
        self.order = order

    def coeff(self, s: int) -> RationalQ:
        return self.coeffs[s]

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.direction == other.direction
                and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __repr__(self):
        var = "z" if self.direction == 1 else "z^-1"
        return f"QSeries({var}; {[str(c) for c in self.coeffs]})"


def _series_mul(a, b, order):
    out = [RQ_ZERO] * (order + 1)
    for i, ca in enumerate(a):
        if i > order or ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            if not cb.is_zero():
                out[i + j] = out[i + j] + ca * cb
    return out


def series_of_rational(num: dict, den: dict, direction: int, order: int) -> QSeries:
    """Expand num(z)/den(z) as a truncated series in z (direction +1)
    or z^-1 (direction -1).  num/den map z-exponents to RationalQ."""
    num = {k: c for k, c in num.items() if not c.is_zero()}
    den = {k: c for k, c in den.items() if not c.is_zero()}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if direction == -1:
        dn = max(num) if num else 0
        dd = max(den)
        offset = dd - dn
        if num and offset < 0:
            raise ExpansionError("numerator degree exceeds denominator degree")
        rnum = {dn - k: c for k, c in num.items()}
        rden = {dd - k: c for k, c in den.items()}
        inner = series_of_rational(rnum, rden, 1, order)
        shifted = [RQ_ZERO] * (order + 1)
        for s in range(order + 1 - offset):
            shifted[s + offset] = inner.coeff(s)
        return QSeries(-1, shifted, order)
    c0 = den.get(0, RQ_ZERO)
    if c0.is_zero():
        raise ExpansionError("denominator has no invertible constant term")
    out = []
    for s in range(order + 1):
        acc = num.get(s, RQ_ZERO)
        for j in range(1, s + 1):
            dj = den.get(j)
            if dj is not None:
                acc = acc - dj * out[s - j]
        out.append(acc / c0)
    return QSeries(1, out, order)


def series_log(s: QSeries) -> QSeries:
    """Formal logarithm of a series with constant term 1."""
    order = s.order
    if not s.coeff(0) == RQ_ONE:
        raise ValueError("series_log requires constant term 1")
    u = [RQ_ZERO] + list(s.coeffs[1: order + 1])
    out = [RQ_ZERO] * (order + 1)
    power = u
    sign = 1
    for m in range(1, order + 1):
        inv_m = RationalQ.from_fraction(Fraction(sign, m))
        for k in range(m, order + 1):
            out[k] = out[k] + inv_m * power[k]
        power = _series_mul(power, u, order)
        sign = -sign
    return QSeries(s.direction, out, order)


def series_exp(s: QSeries) -> QSeries:
    """Formal exponential of a series with constant term 0."""
    order = s.order
    if not s.coeff(0).is_zero():
        raise ValueError("series_exp requires constant term 0")
    u = [RQ_ZERO] + list(s.coeffs[1: order + 1])
    out = [RQ_ONE] + [RQ_ZERO] * order
    power = [RQ_ONE] + [RQ_ZERO] * order
    fact = 1
    for m in range(1, order + 1):
        fact *= m
        power = _series_mul(power, u, order)
        inv = RationalQ.from_fraction(Fraction(1, fact))
        for k in range(m, order + 1):
            out[k] = out[k] + inv * power[k]
    return QSeries(s.direction, out, order)


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, by exact recursive division of
    q^n - 1 by the cyclotomic polynomials of the proper divisors."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    p = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            p = p.divexact(cyclotomic(d))
    return p


@lru_cache(maxsize=None)
def _phi_tail(N: int):
    """(deg, lower terms) of Phi_N.  Phi_N is monic with integer
    coefficients, so q^deg = -(lower terms) reduces integer vectors
    without leaving Z."""
    phi = cyclotomic(N)
    deg = phi.degree()
    return deg, tuple((k, c) for k, c in phi.terms.items() if k != deg)


def _reduce(cs: list, N: int) -> tuple:
    """Integer coefficients of q^0, q^1, ... reduced mod Phi_N, as a
    tuple of length deg Phi_N.  Consumes cs."""
    deg, tail = _phi_tail(N)
    if len(cs) < deg:
        cs += [0] * (deg - len(cs))
    for e in range(len(cs) - 1, deg - 1, -1):
        c = cs[e]
        if c:
            base = e - deg
            for k, p in tail:
                cs[base + k] -= c * p
    return tuple(cs[:deg])


def _cyclo(N: int, nums: tuple, den: int = 1) -> "CycloElem":
    """CycloElem from integer numerators already reduced mod Phi_N over
    a positive denominator; brings them to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(x // g for x in nums)
            den //= g
    r = object.__new__(CycloElem)
    r.N = N
    r.nums = nums
    r.den = den
    return r


class CycloElem:
    """Element of Q[q]/(Phi_N), i.e. the cyclotomic field Q(zeta_N).

    Stored as integer numerators `nums` of the powers q^0..q^{deg-1}
    over one positive common denominator `den`, in lowest terms
    (gcd(den, *nums) = 1, so zero is 0/1).  Equal elements therefore
    have equal fields, and `==` and `hash` are structural.  Integral
    elements, among them every power of q, have den = 1 and never
    touch a gcd.
    """

    __slots__ = ("N", "nums", "den")

    def __init__(self, N: int, coeffs):
        """`coeffs`: rational coefficients (ints or Fractions) of q^0,
        q^1, ...; a longer list is reduced mod Phi_N."""
        fs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        nums = _reduce([f.numerator * (den // f.denominator) for f in fs], N)
        g = gcd(den, *nums)
        self.N = N
        self.nums = tuple(x // g for x in nums)
        self.den = den // g

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(N: int) -> "CycloElem":
        return _cyclo(N, _reduce([], N))

    @staticmethod
    def one(N: int) -> "CycloElem":
        return _cyclo(N, _reduce([1], N))

    @staticmethod
    def q_power(N: int, k: int) -> "CycloElem":
        return CycloElem.from_laurent(N, LaurentPoly.q_power(k))

    @staticmethod
    def from_laurent(N: int, p: LaurentPoly) -> "CycloElem":
        # q^N = 1 in the quotient, so exponents reduce mod N first
        cs = [0] * N
        for k, c in p.terms.items():
            cs[k % N] += c
        return _cyclo(N, _reduce(cs, N))

    @staticmethod
    def from_fraction(N: int, f: Fraction) -> "CycloElem":
        return CycloElem(N, [f])

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CycloElem") -> "CycloElem":
        a, b = self.den, other.den
        if a == b:
            return _cyclo(self.N, tuple(map(add, self.nums, other.nums)), a)
        return _cyclo(self.N, tuple(x * b + y * a for x, y
                                    in zip(self.nums, other.nums)), a * b)

    def __neg__(self) -> "CycloElem":
        return _cyclo(self.N, tuple(map(neg, self.nums)), self.den)

    def __sub__(self, other: "CycloElem") -> "CycloElem":
        a, b = self.den, other.den
        if a == b:
            return _cyclo(self.N, tuple(map(sub, self.nums, other.nums)), a)
        return _cyclo(self.N, tuple(x * b - y * a for x, y
                                    in zip(self.nums, other.nums)), a * b)

    def __mul__(self, other: "CycloElem") -> "CycloElem":
        bs = other.nums
        conv = [0] * (2 * len(bs) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(bs, i):
                    if y:
                        conv[j] += x * y
        return _cyclo(self.N, _reduce(conv, self.N), self.den * other.den)

    def mul_qpow(self, k: int) -> "CycloElem":
        """Multiply by q^k: the numerators rotate mod N (q^N = 1) and
        reduce mod Phi_N.  q^k is a unit of Z[q]/(Phi_N), so the
        numerators stay coprime to den and need no gcd."""
        N = self.N
        k %= N
        if not k:
            return self
        cs = [0] * N
        for j, x in enumerate(self.nums, k):
            cs[j % N] = x
        r = object.__new__(CycloElem)
        r.N = N
        r.nums = _reduce(cs, N)
        r.den = self.den
        return r

    @staticmethod
    def clear_denominators(values) -> tuple:
        """(D, numerators): D is the lcm of the values' denominators,
        and numerators[k] the term tuple ((exponent, int), ...) of
        values[k] * D in the basis q^0 .. q^{deg Phi_N - 1}."""
        den = lcm(*(v.den for v in values))
        return den, [tuple((k, x * (den // v.den))
                           for k, x in enumerate(v.nums) if x)
                     for v in values]

    def mode_weight(self, w: tuple) -> tuple:
        """The mode weight w with each entry taken mod N: at eps,
        q^{v . w} depends on v . w mod N only, which v . (w mod N)
        is for every integer mode tuple v."""
        N = self.N
        return tuple(x % N for x in w)

    def counts_vanish(self, counts: dict) -> bool:
        """Whether integer counters {(target, exponent): int}, the
        cleared numerators of a vector, are zero at eps: per target the
        exponents fold mod N (q^N = 1) and reduce mod Phi_N."""
        if not any(counts.values()):
            return True
        N = self.N
        folded = {}
        for (target, e), c in counts.items():
            if c:
                cs = folded.get(target)
                if cs is None:
                    cs = folded[target] = [0] * N
                cs[e % N] += c
        for cs in folded.values():
            if any(_reduce(cs, N)):
                return False
        return True

    def scale(self, f: Fraction) -> "CycloElem":
        f = Fraction(f)
        return _cyclo(self.N, tuple(f.numerator * x for x in self.nums),
                      self.den * f.denominator)

    def inv(self) -> "CycloElem":
        """Inverse in the field Q(zeta_N) by the Galois norm.  Phi_N is
        irreducible over Q, so the maps q -> q^k, k prime to N, are the
        field automorphisms; the product P of the conjugates of the
        integral numerator a other than a itself makes a * P = norm(a),
        a nonzero integer, and (a / den)^-1 = den * P / norm(a)."""
        if self.is_zero():
            raise SpecializationError("inverse of zero in cyclotomic field")
        N = self.N
        a = _cyclo(N, self.nums)
        p = CycloElem.one(N)
        for k in range(2, N):
            if gcd(k, N) == 1:
                cs = [0] * N
                for i, x in enumerate(self.nums):
                    cs[i * k % N] = x
                p = p * _cyclo(N, _reduce(cs, N))
        norm = (a * p).nums[0]
        if norm < 0:
            norm, p = -norm, -p
        return _cyclo(N, tuple(self.den * x for x in p.nums), norm)

    def __truediv__(self, other: "CycloElem") -> "CycloElem":
        return self * other.inv()

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, CycloElem) and self.N == other.N
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.N, self.nums, self.den))

    def to_complex(self) -> complex:
        import cmath
        z = cmath.exp(2j * cmath.pi / self.N)
        return sum(complex(c / self.den) * z ** k
                   for k, c in enumerate(self.nums))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.nums):
            if c:
                c = Fraction(c, self.den)
                v = "1" if k == 0 else ("q" if k == 1 else f"q^{k}")
                parts.append(f"{c}*{v}" if k else f"{c}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycloElem(N={self.N}, '{self}')"


def eval_cyclotomic(p: RationalQ, N: int) -> CycloElem:
    """Image of p in Q(zeta_N); raises SpecializationError when the
    denominator vanishes at the primitive N-th root.  A monomial
    denominator c*q^k is divided out without a field inverse."""
    if p.den.is_monomial():
        (k, c), = p.den.terms.items()
        num = CycloElem.from_laurent(N, p.num.shifted(-k))
        return num if c == 1 else num.scale(Fraction(1, c))
    num = CycloElem.from_laurent(N, p.num)
    den = CycloElem.from_laurent(N, p.den)
    if den.is_zero():
        raise SpecializationError(
            f"denominator {p.den} vanishes at a primitive {N}-th root of unity")
    return den.inv() if p.num.is_one() else num * den.inv()
