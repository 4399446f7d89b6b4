"""Affine weight lattice of type A_n^(1) (n odd): Cartan matrix, simple
roots and coroots, fundamental and level-zero fundamental weights,
simple reflections.

Weights are stored in (values on h_0..h_n, coefficient of delta)
coordinates, i.e. lambda = sum_i lambda(h_i) Lambda_i + delta_coeff * delta.
The delta-coefficient is an int when it is integral and a Fraction
otherwise; the two compare, hash and print alike, so the choice never
shows in an output.  A RootSystem builds its Cartan matrix and simple
roots once, and the weight arithmetic builds its results directly from
operands that are already in this normal form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub


class EvenRankError(ValueError):
    """The monomial-crystal constructions require n odd."""


def _delta(d):
    """Normal form of a delta-coefficient: int when integral, else Fraction."""
    if type(d) is not int:
        d = Fraction(d)
        if d.denominator == 1:
            d = d.numerator
    return d


_setattr = object.__setattr__


@dataclass(frozen=True)
class Weight:
    h: tuple
    delta: int | Fraction

    def __post_init__(self):
        _setattr(self, "h", tuple(int(x) for x in self.h))
        _setattr(self, "delta", _delta(self.delta))

    @classmethod
    def _raw(cls, h: tuple, delta) -> "Weight":
        """A weight from an int tuple and a delta-coefficient that are
        already in normal form, without re-coercing them."""
        w = object.__new__(cls)
        _setattr(w, "h", h)
        _setattr(w, "delta", delta)
        return w

    def pair(self, i: int) -> int:
        """Value lambda(h_i)."""
        return self.h[i]

    def level(self) -> int:
        """Pairing with the canonical central element c = h_0 + ... + h_n."""
        return sum(self.h)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight._raw(tuple(map(add, self.h, other.h)),
                           _delta(self.delta + other.delta))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight._raw(tuple(map(sub, self.h, other.h)),
                           _delta(self.delta - other.delta))

    def __neg__(self) -> "Weight":
        return Weight._raw(tuple(-a for a in self.h), -self.delta)

    def scaled(self, c: int) -> "Weight":
        return Weight._raw(tuple(c * a for a in self.h), _delta(c * self.delta))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.h) and self.delta == 0

    def __str__(self):
        return f"({','.join(map(str, self.h))};{self.delta}d)"


class RootSystem:
    """Type A_n^(1) data for odd n >= 3, with a parity function s on the
    nodes satisfying s_i + s_j = 1 on every edge of the cyclic diagram.

    Both alternating parity functions occur in practice (the anchor
    monomial of each crystal decides which), so the choice is a
    constructor argument: s_i = (i + parity) mod 2.
    """

    def __init__(self, n: int, parity: int = 0):
        if n % 2 == 0:
            raise EvenRankError(f"n = {n} is even; these crystals need n odd")
        if n < 3:
            raise ValueError("n must be at least 3")
        self.n = n
        self.r = (n - 1) // 2
        self.parity = parity % 2
        self.nodes = tuple(range(n + 1))
        # C_{ij} = 2 on the diagonal, -1 on the edges of the (n+1)-cycle
        self._cartan = tuple(
            tuple(2 if i == j else -1 if (i - j) % (n + 1) in (1, n) else 0
                  for j in self.nodes)
            for i in self.nodes)
        # alpha_i(h_j) = C_{j,i}, alpha_i(d) = delta_{0,i}
        self._alpha = tuple(
            Weight(tuple(self._cartan[j][i] for j in self.nodes),
                   1 if i == 0 else 0)
            for i in self.nodes)
        # exponents of A_{i,l} by (i, l), filled by monomial.a_exponents
        self.a_exps = {}

    @classmethod
    def for_fundamental(cls, n: int, ell: int) -> "RootSystem":
        """Root system whose parity class contains e^{varpi_ell} Y_{ell,0} Y_{0,d_ell}^-1."""
        if not 1 <= ell <= n:
            raise ValueError(f"ell = {ell} out of range 1..{n}")
        return cls(n, parity=ell % 2)

    # -- index helpers -------------------------------------------------------

    def mod(self, i: int) -> int:
        return i % (self.n + 1)

    def s(self, i: int) -> int:
        return (i + self.parity) % 2

    def cartan(self, i: int, j: int) -> int:
        return self._cartan[i % (self.n + 1)][j % (self.n + 1)]

    def adjacent(self, i: int, j: int) -> bool:
        return self.cartan(i, j) == -1

    def d(self, ell: int) -> int:
        """Distance between nodes 0 and ell on the cycle."""
        if not 1 <= ell <= self.n:
            raise ValueError(f"ell = {ell} out of range")
        return min(ell, self.n + 1 - ell)

    # -- distinguished weights -------------------------------------------------

    def zero_weight(self) -> Weight:
        return Weight((0,) * (self.n + 1), 0)

    def alpha(self, i: int) -> Weight:
        """Simple root alpha_i: alpha_i(h_j) = C_{j,i}, alpha_i(d) = delta_{0,i}."""
        return self._alpha[i % (self.n + 1)]

    def delta_weight(self) -> Weight:
        return Weight((0,) * (self.n + 1), 1)

    def fundamental(self, i: int) -> Weight:
        i = self.mod(i)
        return Weight(tuple(1 if j == i else 0 for j in self.nodes), 0)

    def varpi(self, ell: int) -> Weight:
        """Level-zero fundamental weight Lambda_ell - Lambda_0."""
        if not 1 <= ell <= self.n:
            raise ValueError(f"ell = {ell} out of range 1..{self.n}")
        return self.fundamental(ell) - self.fundamental(0)

    def reflect(self, w: Weight, i: int) -> Weight:
        """Simple reflection s_i(w) = w - w(h_i) alpha_i."""
        c = w.pair(self.mod(i))
        return w - self.alpha(i).scaled(c) if c else w
