"""Specialization of the loop weight modules at primitive roots of
unity: finite-dimensional modules over the cyclotomic field, exact
relation checks, the submodule generated by one basis vector, and a
simplicity certificate (every basis vector generates the module).

The quantum parameter is kept symbolic in Q[q]/(Phi_N); no floats on
the verification path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .crystal import WindowError, row_stats
from .lattice import RootSystem
from .monomial import ResidueMonomial, gamma
from .qcoeff import (Q_MINUS_QINV, CycloElem, SpecializationError,
                     eval_cyclotomic, qint)
from .torep import LoopModule, build_doubled, build_thin


@dataclass
class SpecializedModule:
    """Finite module over Q(zeta_N) with basis indexed by residue
    monomials; action tables are dense per generator family."""

    rs: RootSystem
    N: int
    basis: list                              # ResidueMonomial per index
    index: dict
    minus_edges: dict = field(default_factory=dict)   # i -> [entries]
    plus_edges: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)          # representative rows per node
    _h_cache: dict = field(default_factory=dict)
    _phi_cache: dict = field(default_factory=dict)
    one: CycloElem = field(init=False, repr=False)
    _eps: tuple = field(init=False, repr=False)       # eps^0 .. eps^{N-1}

    # entries: tuple of (dst, step mod N, CycloElem coefficient)

    def __post_init__(self):
        self.one = CycloElem.one(self.N)
        self._eps = tuple(CycloElem.q_power(self.N, k) for k in range(self.N))

    def __len__(self):
        return len(self.basis)

    def eps_pow(self, k: int) -> CycloElem:
        return self._eps[k % self.N]

    def act_x(self, sign: int, i: int, r: int, vec: dict) -> dict:
        table = self.plus_edges if sign > 0 else self.minus_edges
        out = {}
        for idx, c in vec.items():
            for dst, l, c0 in table[i][idx]:
                coeff = c * c0
                if r:
                    coeff = coeff * self.eps_pow(r * l)
                s = out.get(dst)
                s = coeff if s is None else s + coeff
                if s.is_zero():
                    out.pop(dst, None)
                else:
                    out[dst] = s
        return out

    def k_eigenvalue(self, idx: int, i: int) -> CycloElem:
        st = row_stats(self.rows[idx][i])
        return self.eps_pow(st.phi - st.eps)

    def h_eigenvalue(self, idx: int, i: int, m: int) -> CycloElem:
        """h_{i,m} acts by sum_l u_{i,l} eps^{lm} [m]_eps / m."""
        key = (idx, i, m)
        out = self._h_cache.get(key)
        if out is None:
            qm = CycloElem.from_laurent(self.N, qint(m)).scale(Fraction(1, m))
            out = CycloElem.zero(self.N)
            for l, u in self.rows[idx][i].items():
                out = out + self.eps_pow(l * m).scale(Fraction(u)) * qm
            self._h_cache[key] = out
        return out

    def phi_component(self, idx: int, i: int, t: int) -> CycloElem:
        """Eigenvalue of phi^{+-}_{i,t} from the rational form of the
        representative row, expanded over the cyclotomic field."""
        key = (idx, i, 1 if t >= 0 else -1)
        coeffs = self._phi_cache.get(key)
        need = abs(t)
        if coeffs is None or len(coeffs) <= need:
            row = self.rows[idx][i]
            coeffs = _fr_series_eps(self.N, row, 1 if t >= 0 else -1,
                                    max(need, 4))
            self._phi_cache[key] = coeffs
        return coeffs[need]

    @cached_property
    def _qmq_inv(self) -> CycloElem:
        return CycloElem.from_laurent(self.N, Q_MINUS_QINV).inv()

    def pairing_value(self, idx: int, i: int, t: int) -> CycloElem:
        if t > 0:
            return self.phi_component(idx, i, t) * self._qmq_inv
        if t < 0:
            return -self.phi_component(idx, i, t) * self._qmq_inv
        st = row_stats(self.rows[idx][i])
        return CycloElem.from_laurent(self.N, qint(st.phi - st.eps))


def _fr_series_eps(N: int, row: dict, sign: int, order: int):
    """Coefficients of the rational l-weight form at eps, to `order`."""
    one = CycloElem.one(N)
    w = sum(row.values())
    num = {0: CycloElem.q_power(N, w)}
    den = {0: one}
    for l, u in sorted(row.items()):
        for _ in range(abs(u)):
            s1 = CycloElem.q_power(N, (l - 1) % N)
            s2 = CycloElem.q_power(N, (l + 1) % N)
            if u > 0:
                num = _zmul_eps(num, {0: one, 1: -s1})
                den = _zmul_eps(den, {0: one, 1: -s2})
            else:
                num = _zmul_eps(num, {0: one, 1: -s2})
                den = _zmul_eps(den, {0: one, 1: -s1})
    if sign == -1:
        dn, dd = max(num), max(den)
        if dn != dd:
            raise SpecializationError("unbalanced rational form")
        num = {dn - k: c for k, c in num.items()}
        den = {dd - k: c for k, c in den.items()}
    c0 = den.get(0)
    if c0 is None or c0.is_zero():
        raise SpecializationError("rational form not expandable at eps")
    inv0 = c0.inv()
    out = []
    for s in range(order + 1):
        acc = num.get(s, CycloElem.zero(N))
        for j in range(1, s + 1):
            dj = den.get(j)
            if dj is not None:
                acc = acc - dj * out[s - j]
        out.append(acc * inv0)
    return out


def _zmul_eps(a: dict, b: dict) -> dict:
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            cur = out.get(i + j)
            cur = c * d if cur is None else cur + c * d
            out[i + j] = cur
    return {k: v for k, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# specialization of the thin modules
# ---------------------------------------------------------------------------

def _specialize(mod: LoopModule, N: int, keep=None) -> SpecializedModule:
    """Common machinery: push a windowed generic module through
    Gamma_N.  `keep` optionally filters which generic nodes survive
    (used by the quotient construction); edges into dropped residues
    must carry coefficients that vanish at eps."""
    rs = mod.rs
    g = mod.graph
    residues = {}
    rep_of = {}
    for idx, m in enumerate(g.nodes):
        if keep is not None and not keep(m):
            continue
        rm = gamma(rs, m, N)
        residues.setdefault(rm, []).append(idx)
    basis = sorted(residues, key=lambda r: (r.exps, r.h))
    index = {r: k for k, r in enumerate(basis)}
    out = SpecializedModule(rs, N, basis, index)
    # a representative must have every module edge materialized
    def module_interior(idx):
        for i in rs.nodes:
            for table in (mod.minus_edges[i], mod.plus_edges[i]):
                if any(dst is None for dst, _, _ in table[idx]):
                    return False
        return True

    for rm in basis:
        cands = [i for i in residues[rm] if module_interior(i)]
        if not cands:
            raise WindowError(
                f"no interior representative for residue {rm}; enlarge the window")
        rep_of[rm] = cands[0]
    out.rows = []
    for rm in basis:
        rep = g.nodes[rep_of[rm]]
        out.rows.append({i: rep.row(i) for i in rs.nodes})
    dropped = object()

    def residue_target(dst_idx):
        m = g.nodes[dst_idx]
        if keep is not None and not keep(m):
            return dropped
        return index[gamma(rs, m, N)]

    for i in rs.nodes:
        for table_name in ("minus_edges", "plus_edges"):
            src_table = getattr(mod, table_name)[i]
            new_table = []
            for rm in basis:
                rep = rep_of[rm]
                entries = []
                for dst, l, c0 in src_table[rep]:
                    if dst is None:
                        raise WindowError(
                            f"representative of {rm} is not interior enough")
                    tgt = residue_target(dst)
                    if tgt is dropped:
                        # quotient projection: components in the killed
                        # submodule are set to zero
                        continue
                    coeff = eval_cyclotomic(c0, N)
                    if coeff.is_zero():
                        continue
                    entries.append((tgt, l % N, coeff))
                new_table.append(tuple(entries))
            getattr(out, table_name)[i] = new_table
    return out


def specialize_thin(n: int, ell: int, L: int) -> SpecializedModule:
    """Specialize the thin module at a primitive (p*L)-th root of
    unity, p = n+1 for ell in {1, n} and p = 2 for ell = r+1; the pair
    (p, L) = (2, 1) is excluded.  Dimension L * C(n+1, ell)."""
    rs = RootSystem.for_fundamental(n, ell)
    if ell in (1, n):
        p = n + 1
    elif ell == rs.r + 1:
        p = 2
    else:
        from .torep import ClosednessRefusal
        raise ClosednessRefusal(f"no thin module for ell={ell} (crystal not closed)")
    if p == 2 and L == 1:
        raise ValueError("the case p = 2, L = 1 is excluded")
    if L < 1:
        raise ValueError("L must be >= 1")
    N = p * L
    half = max(2 * N + 2 * (n + 1), 4 * (n + 1))
    mod = build_thin(n, ell, (-half, half))
    spec = _specialize(mod, N)
    from math import comb
    expected = L * comb(n + 1, ell)
    if len(spec) != expected:
        raise AssertionError(
            f"specialized dimension {len(spec)} != {expected}")
    return spec


def specialize_doubled(L: int) -> SpecializedModule:
    """Specialize the pasted 2*varpi_1 module (n = 3) at a primitive
    4L-th root of unity and take the quotient supported on the crystals
    with 0 <= s <= L-1.  Dimension 16 L^2."""
    if L < 1:
        raise ValueError("L must be >= 1")
    N = 4 * L
    window = (-4 * (L + 3), 4 * (L + 3))
    mod = build_doubled(L, window)

    def keep(m):
        # the component of M_s consists of the nodes with
        # delta - (number of 0-arrows applied) tracked by the anchor;
        # membership in E_s is detected through the row pattern of the
        # direction-1 letters: the s of the component satisfies
        # b - a = 2 + 4s for the anchor; we instead tag components.
        return component_s[m] < L

    # tag nodes by the anchor they were generated from
    component_s = {}
    from .torep import doubled_anchor
    from .crystal import generate
    for s in range(L + 1):
        gs = generate(mod.rs, [doubled_anchor(mod.rs, s)], window)
        for node in gs.nodes:
            component_s[node] = s
    missing = [m for m in mod.graph.nodes if m not in component_s]
    if missing:
        raise AssertionError("untagged nodes in the crystal union")
    _validate_kernel(mod, N, keep)
    spec = _specialize(mod, N, keep=keep)
    if len(spec) != 16 * L * L:
        raise AssertionError(f"specialized dimension {len(spec)} != {16 * L * L}")
    return spec


def _validate_kernel(mod: LoopModule, N: int, keep) -> None:
    """The span of the dropped nodes must be a submodule at eps: every
    action coefficient from a dropped node into a kept one has to
    specialize to zero."""
    g = mod.graph
    for i in mod.rs.nodes:
        for table in (mod.minus_edges[i], mod.plus_edges[i]):
            for src, entries in enumerate(table):
                if keep(g.nodes[src]):
                    continue
                for dst, _, c0 in entries:
                    if dst is None or not keep(g.nodes[dst]):
                        continue
                    if not eval_cyclotomic(c0, N).is_zero():
                        raise SpecializationError(
                            f"coefficient {c0} from the kernel into the "
                            f"quotient does not vanish at eps")


# ---------------------------------------------------------------------------
# relation checks at eps
# ---------------------------------------------------------------------------

def _unit(mod: SpecializedModule, idx: int) -> dict:
    return {idx: mod.one}


def _sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        s = -v if s is None else s - v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _scale(vec: dict, c: CycloElem) -> dict:
    if c.is_zero():
        return {}
    return {k: v * c for k, v in vec.items()}


def _chain(mod: SpecializedModule, ops, idx: int) -> dict:
    vec = _unit(mod, idx)
    for sign, i, r in reversed(ops):
        vec = mod.act_x(sign, i, r, vec)
        if not vec:
            return {}
    return vec


@dataclass
class EpsReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures and self.checked > 0

    def to_json(self):
        return {"checked": self.checked,
                "failures": [str(f) for f in self.failures],
                "all_residuals_zero": not self.failures}


def relation_check_eps(mod: SpecializedModule, rmax: int | None = None,
                       serre_rmax: int = 2) -> EpsReport:
    """All defining relations with eps in place of q, on the whole
    finite basis.  Exponents r only matter mod N, so r ranges over a
    window of that size by default (Serre uses a reduced range to keep
    the cubic enumeration tractable)."""
    rs = mod.rs
    N = mod.N
    if rmax is None:
        rmax = N - 1
    rr = range(0, rmax + 1)
    rser = range(0, min(serre_rmax, rmax) + 1)
    rep = EpsReport()
    eps = mod.eps_pow
    minus_one = -mod.one
    two = CycloElem.from_laurent(N, qint(2))
    h_modes = (1, -1, 2, -2)
    # (m, C_ij) -> [m C_ij]_eps / m
    hx_coeff = {(m, c): CycloElem.from_laurent(N, qint(m * c)).scale(Fraction(1, m))
                for m in h_modes
                for c in {rs.cartan(i, j) for i in rs.nodes for j in rs.nodes}}

    def record(res, label):
        rep.checked += 1
        if res:
            rep.failures.append(label)

    for idx in range(len(mod)):
        for i in rs.nodes:
            k_inv = mod.k_eigenvalue(idx, i).inv()
            for j in rs.nodes:
                cij = rs.cartan(i, j)
                # k-conjugation (diagonal, uses the k eigenvalues)
                for sign in (1, -1):
                    for r in (0, 1):
                        v = mod.act_x(sign, j, r, _unit(mod, idx))
                        lhs = {}
                        for t, c in v.items():
                            lhs[t] = c * mod.k_eigenvalue(t, i) * k_inv
                        rhs = _scale(v, eps(sign * cij))
                        record(_sub(lhs, rhs), ("k-conj", i, j, sign, r, idx))
                # [h_{i,m}, x_{j,r}] = +- [m C_ij]/m x_{j,m+r}
                for m in h_modes:
                    for sign in (1, -1):
                        for r in (0, 1):
                            xv = mod.act_x(sign, j, r, _unit(mod, idx))
                            lhs = {}
                            for t, c in xv.items():
                                lhs[t] = c * (mod.h_eigenvalue(t, i, m)
                                              - mod.h_eigenvalue(idx, i, m))
                            lhs = {t: c for t, c in lhs.items() if not c.is_zero()}
                            coeff = hx_coeff[m, cij]
                            if sign < 0:
                                coeff = -coeff
                            rhs = _scale(mod.act_x(sign, j, m + r, _unit(mod, idx)), coeff)
                            record(_sub(lhs, rhs), ("h-x", i, j, m, sign, r, idx))
                # [x+_{i,r}, x-_{j,rp}]
                for r in rr:
                    for rp in rr:
                        lhs = _sub(_chain(mod, [(1, i, r), (-1, j, rp)], idx),
                                   _chain(mod, [(-1, j, rp), (1, i, r)], idx))
                        if i == j:
                            lhs = _sub(lhs, _scale(_unit(mod, idx),
                                                   mod.pairing_value(idx, i, r + rp)))
                        record(lhs, ("x+-", i, j, r, rp, idx))
                # quadratic
                for sign in (1, -1):
                    for r in rr:
                        for rp in rr:
                            qc = eps(sign * cij)
                            lhs = _sub(_chain(mod, [(sign, i, r + 1), (sign, j, rp)], idx),
                                       _scale(_chain(mod, [(sign, j, rp), (sign, i, r + 1)], idx), qc))
                            rhs = _sub(_scale(_chain(mod, [(sign, i, r), (sign, j, rp + 1)], idx), qc),
                                       _chain(mod, [(sign, j, rp + 1), (sign, i, r)], idx))
                            record(_sub(lhs, rhs), ("quad", sign, i, j, r, rp, idx))
                # distant commutation
                if cij == 0 and i != j:
                    for sign in (1, -1):
                        for r1 in rr:
                            for r2 in rr:
                                record(_sub(_chain(mod, [(sign, i, r1), (sign, j, r2)], idx),
                                            _chain(mod, [(sign, j, r2), (sign, i, r1)], idx)),
                                       ("commute", sign, i, j, r1, r2, idx))
            # Serre, j = i +- 1
            for j in (rs.mod(i - 1), rs.mod(i + 1)):
                for sign in (1, -1):
                    for r1 in rser:
                        for r2 in rser:
                            if r2 < r1:
                                continue
                            for rp in rser:
                                acc = {}
                                for a, b in ((r1, r2), (r2, r1)):
                                    acc = _sub(acc, _scale(_chain(mod, [(sign, i, a), (sign, i, b), (sign, j, rp)], idx), minus_one))
                                    acc = _sub(acc, _scale(_chain(mod, [(sign, i, a), (sign, j, rp), (sign, i, b)], idx), two))
                                    acc = _sub(acc, _scale(_chain(mod, [(sign, j, rp), (sign, i, a), (sign, i, b)], idx), minus_one))
                                record(acc, ("serre", sign, i, j, r1, r2, rp, idx))
    return rep


# ---------------------------------------------------------------------------
# generated submodules, simplicity and thinness
# ---------------------------------------------------------------------------

def joint_spectrum_simple(mod: SpecializedModule, order: int | None = None) -> bool:
    """True iff the diagonal loop-Cartan data separates the basis."""
    if order is None:
        order = mod.N + 2
    seen = set()
    for idx in range(len(mod)):
        sig = tuple(
            tuple(mod.phi_component(idx, i, sign * s) for s in range(order + 1))
            for i in mod.rs.nodes for sign in (1, -1))
        if sig in seen:
            return False
        seen.add(sig)
    return True


def generated_submodule(mod: SpecializedModule, idx: int) -> set:
    """Indices of the basis vectors spanning the submodule generated by
    basis vector `idx` under the x generators (r in 0..N-1).

    Valid when the joint spectrum is simple (`joint_spectrum_simple`):
    every submodule is then spanned by basis vectors, so the generated
    submodule is the set reachable from `idx` in the nonzero-entry
    digraph."""
    adj = [set() for _ in range(len(mod))]
    for i in mod.rs.nodes:
        for table in (mod.minus_edges[i], mod.plus_edges[i]):
            for src, entries in enumerate(table):
                for dst, _, coeff in entries:
                    if not coeff.is_zero():
                        adj[src].add(dst)
    seen = {idx}
    stack = [idx]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def cyclic_generation_check(mod: SpecializedModule) -> bool:
    """Simplicity certificate: True iff every basis vector generates the
    whole module under the x generators (r in 0..N-1), i.e. the
    nonzero-entry digraph is strongly connected.

    The joint spectrum must be simple (asserted), so that every
    submodule is spanned by basis vectors.  A module generated by one
    vector but not by every one (cyclic, not simple) gives False."""
    if not joint_spectrum_simple(mod):
        raise AssertionError("joint spectrum not simple; graph reduction invalid")
    n = len(mod)
    return all(len(generated_submodule(mod, k)) == n for k in range(n))


def specialized_qcharacter(mod: SpecializedModule) -> dict:
    return {rm: 1 for rm in mod.basis}
