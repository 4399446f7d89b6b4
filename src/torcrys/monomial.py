"""Laurent monomials in the variables Y_{i,l} with an attached weight:
the group A of weighted monomials, the parity subgroup containing the
crystals, and the variable-level maps (projections, shifts, diagram
twists, residue reduction).

Exponent bookkeeping is done on plain dicts {(i, l): u}; a Monomial is
an immutable wrapper carrying the weight as well.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .lattice import RootSystem, Weight

_setattr = object.__setattr__


class ParityError(ValueError):
    """A spectral index fell in the forbidden parity class."""


class ValidationError(ValueError):
    """Exponents and weight are inconsistent."""


# ---------------------------------------------------------------------------
# exponent-dict helpers (no weights)
# ---------------------------------------------------------------------------

def exp_mul(a, b: dict, sign: int = 1) -> dict:
    """a * b^sign; a is an exponent dict or a Monomial's exps tuple."""
    out = dict(a)
    for k, u in b.items():
        s = out.get(k, 0) + sign * u
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def exp_row(exps: dict, i: int) -> dict:
    return {l: u for (j, l), u in exps.items() if j == i}


def a_exponents(rs: RootSystem, i: int, l: int):
    """Exponents of A_{i,l} = Y_{i,l-1} Y_{i,l+1} Y_{i-1,l}^-1 Y_{i+1,l}^-1,
    as a read-only mapping memoised on rs (`rs.a_exps`).  An illegal
    spectral parity raises ParityError on every call; it is never
    memoised."""
    try:
        return rs.a_exps[(i, l)]
    except KeyError:
        pass
    j = rs.mod(i)
    if l % 2 != (rs.s(j) + 1) % 2:
        raise ParityError(f"A_({j},{l}) has illegal spectral parity")
    # n >= 3, so the four variables are distinct
    out = rs.a_exps[(i, l)] = MappingProxyType({
        (j, l - 1): 1, (j, l + 1): 1,
        (rs.mod(j - 1), l): -1, (rs.mod(j + 1), l): -1})
    return out


def phi_exponents(rs: RootSystem, exps: dict, delta: int = 1) -> dict:
    """Promotion at the exponent level: Y_{i,l} -> Y_{i+1,l+delta}.
    delta = +1 maps B(varpi_ell) into itself for ell <= r+1, and
    delta = -1 for ell >= r+1."""
    return {(rs.mod(i + 1), l + delta): u for (i, l), u in exps.items()}


def psi_exponents(rs: RootSystem, exps: dict) -> dict:
    """Diagram flip at the exponent level: Y_{i,l} -> Y_{-i,l}."""
    return {(rs.mod(-i), l): u for (i, l), u in exps.items()}


def exp_key(exps: dict):
    return tuple(sorted(exps.items()))


# ---------------------------------------------------------------------------
# Monomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Monomial:
    """A monomial e^{weight} prod Y_{i,l}^{u_{i,l}}, in canonical form.

    Invariants: no zero exponents, column sums match the weight
    (sum_l u_{i,l} = weight(h_i)), and all spectral indices of row i lie
    in one parity class.
    """

    __slots__ = ("exps", "weight", "_hash")
    exps: tuple
    weight: Weight

    def __init__(self, exps: tuple, weight: Weight):
        _setattr(self, "exps", exps)
        _setattr(self, "weight", weight)
        # hashed once, here: a Monomial is looked up in dicts and sets
        # several times, and its fields never change
        _setattr(self, "_hash", hash((exps, weight)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # copies and unpickled instances are rebuilt, so hashed afresh
        return Monomial, (self.exps, self.weight)

    @staticmethod
    def make(rs: RootSystem, exps: dict, weight: Weight) -> "Monomial":
        exps = {k: int(u) for k, u in exps.items() if u}
        sums = [0] * (rs.n + 1)
        for (i, l), u in exps.items():
            if not 0 <= i <= rs.n:
                raise ValidationError(f"node index {i} out of range")
            if l % 2 != rs.s(i):
                raise ParityError(
                    f"Y_({i},{l}) violates the parity class s_{i}={rs.s(i)}")
            sums[i] += u
        if tuple(sums) != weight.h:
            raise ValidationError(
                f"column sums {tuple(sums)} do not match weight {weight}")
        return Monomial(exp_key(exps), weight)

    # -- accessors -----------------------------------------------------------

    def exp_dict(self) -> dict:
        return dict(self.exps)

    def u(self, i: int, l: int) -> int:
        return dict(self.exps).get((i, l), 0)

    def row(self, i: int) -> dict:
        return {l: u for (j, l), u in self.exps if j == i}

    def rows(self) -> dict:
        """{i: self.row(i)} for every row in the support, in one pass."""
        out = {}
        for (i, l), u in self.exps:
            out.setdefault(i, {})[l] = u
        return out

    def is_identity(self) -> bool:
        return not self.exps and self.weight.is_zero()

    # -- group structure ------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(exp_key(exp_mul(dict(self.exps), dict(other.exps))),
                        self.weight + other.weight)

    def inverse(self) -> "Monomial":
        return Monomial(tuple((k, -u) for k, u in self.exps), -self.weight)

    def sort_key(self):
        return (self.exps, self.weight.h, self.weight.delta)

    def __str__(self):
        if not self.exps:
            return "1"
        parts = []
        for (i, l), u in self.exps:
            parts.append(f"Y({i},{l})" + (f"^{u}" if u != 1 else ""))
        return "*".join(parts)


def identity_monomial(rs: RootSystem) -> Monomial:
    return Monomial((), rs.zero_weight())


def a_monomial(rs: RootSystem, i: int, l: int) -> Monomial:
    """A_{i,l} with its weight alpha_i."""
    return Monomial(exp_key(a_exponents(rs, i, l)), rs.alpha(i))


def from_variables(rs: RootSystem, pairs, weight: Weight) -> Monomial:
    """Monomial from a list of (i, l, u) triples."""
    exps = {}
    for i, l, u in pairs:
        exps[(rs.mod(i), l)] = exps.get((rs.mod(i), l), 0) + u
    return Monomial.make(rs, exps, weight)


# ---------------------------------------------------------------------------
# variable-level maps
# ---------------------------------------------------------------------------

def xi_keep(rs: RootSystem, m: Monomial, i: int) -> Monomial:
    """Xi_i: keep only row i; the weight drops to the induced sl2 weight."""
    row = {(i, l): u for (j, l), u in m.exps if j == i}
    h = [0] * (rs.n + 1)
    h[i] = sum(row.values())
    return Monomial(exp_key(row), Weight(tuple(h), Fraction(0)))


def xi_drop(rs: RootSystem, m: Monomial, i: int) -> Monomial:
    """Xi^i: erase row i; the weight is replaced by the classical part
    seen by the subalgebra that omits node i."""
    rest = {(j, l): u for (j, l), u in m.exps if j != i}
    h = [0] * (rs.n + 1)
    for (j, _), u in rest.items():
        h[j] += u
    return Monomial(exp_key(rest), Weight(tuple(h), Fraction(0)))


def tau(rs: RootSystem, m: Monomial, twop: int, alpha: Weight) -> Monomial:
    """Shift automorphism tau_{2p,alpha}: spectral indices move by 2p,
    the weight moves by alpha (a rational multiple of delta)."""
    if twop % 2:
        raise ParityError("tau requires an even spectral shift")
    if any(alpha.h):
        raise ValidationError("tau weight shift must be proportional to delta")
    exps = {(i, l + twop): u for (i, l), u in m.exps}
    return Monomial(exp_key(exps), m.weight + alpha)


def twist_phi(rs: RootSystem, m: Monomial):
    """Promotion map at the variable level.

    Returns (exponents of the image, cyclically permuted h-part).  The
    delta-part of the image weight is not determined by the exponents,
    so it is deliberately not produced; consumers recover full weights
    by anchored propagation in a crystal.
    """
    exps = phi_exponents(rs, dict(m.exps))
    h = tuple(m.weight.h[rs.mod(j - 1)] for j in rs.nodes)
    return exps, h


def twist_psi(rs: RootSystem, m: Monomial) -> Monomial:
    """Diagram-flip twist: node i -> -i, spectral index fixed; the
    h-part of the weight is permuted accordingly, delta is preserved."""
    exps = psi_exponents(rs, dict(m.exps))
    h = tuple(m.weight.h[rs.mod(-j)] for j in rs.nodes)
    return Monomial(exp_key(exps), Weight(h, m.weight.delta))


# ---------------------------------------------------------------------------
# residue reduction for roots of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueMonomial:
    """Monomial with spectral indices in Z/N (N even); the h-part of the
    weight is kept, the delta-part is dropped."""

    N: int
    exps: tuple
    h: tuple

    def __str__(self):
        if not self.exps:
            return "1"
        return "*".join(f"Y({i},{l}m{self.N})" + (f"^{u}" if u != 1 else "")
                        for (i, l), u in self.exps)


def gamma(rs: RootSystem, m: Monomial, N: int) -> ResidueMonomial:
    """Gamma_N: accumulate exponents on spectral residues mod N."""
    if N % 2:
        raise ParityError("Gamma_N needs N even to preserve parity classes")
    out = {}
    for (i, l), u in m.exps:
        k = (i, l % N)
        s = out.get(k, 0) + u
        if s:
            out[k] = s
        else:
            del out[k]
    return ResidueMonomial(N, tuple(sorted(out.items())), m.weight.h)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def monomial_to_json(m: Monomial) -> dict:
    return {
        "weight": {"h": list(m.weight.h), "delta": str(m.weight.delta)},
        "exp": [[i, l, u] for (i, l), u in m.exps],
    }


def monomial_from_json(data: dict) -> Monomial:
    w = Weight(tuple(data["weight"]["h"]), Fraction(data["weight"]["delta"]))
    exps = {(int(i), int(l)): int(u) for i, l, u in data["exp"]}
    return Monomial(exp_key(exps), w)


def monomial_to_json_str(m: Monomial) -> str:
    return json.dumps(monomial_to_json(m), separators=(",", ":"), sort_keys=True)


def monomial_from_json_str(s: str) -> Monomial:
    return monomial_from_json(json.loads(s))
