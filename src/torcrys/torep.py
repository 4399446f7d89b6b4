"""Loop weight modules over the rational-function field in q: the thin
modules attached to closed fundamental crystals, the pasted module for
twice the first fundamental level-zero weight (n = 3), q-characters,
and exact verification of the quantum toroidal defining relations on
windows.

Scalars are RationalQ throughout; every residual test is exact.

One builder makes both module types (`build_module`): on a windowed
crystal, x^{+-}_i acts along the poles of row i of each basis vector's
rational l-weight, with one coefficient factor per other same-sign
variable of the row (`row_edges`).

Each defining relation is written once, as a term table: a tuple of
(scalar, word) terms whose sum must act by zero (`relation_terms`).
`relation_residual`, `run_relation_suite` and the root-of-unity check
`unity.relation_check_eps` evaluate the same tables through one
mode-factored evaluator; the last maps their scalars into the
cyclotomic field first.

On both module types x^{+-}_{i,r} acts on an edge by c0 q^{r step}
(eps^{r step} at a root of unity).  So do the diagonal operators, by
edges back to the vector itself with constant steps:
("pair", i, t) = (phi^+_{i,t} - phi^-_{i,t})/(q - q^-1) of the
x-plus-minus relation acts by sum_p B_p q^{t s_p}, one edge per simple
pole of row i of the l-weight (`pole_residues`); ("h", i, m) = m h_{i,m}
by sum_l u_{i,l} (q^{m(l+1)} - q^{m(l-1)})/(q - q^-1), the closed form
on a rational l-weight (`h_residues`); ("k", hvec, m) = k_h^m by one
edge of step <h, wt>; and the scalar ("q", a, m) = q^{am} by one edge
of step a.  So the paths a word takes through the basis do not depend
on the mode indices.  The relations come as runs
(`relation_runs`): a key, the relation id with its non-mode
parameters, and the mode tuples v of its instances; an instance
becomes a RelationSpec only to name a failure.  The runner tables each
run's relation once (`MODE_PARAMS` names the modes), passing its modes
to `relation_terms` as affine symbols (`Mode`), so that each
operator's mode is a form const + c . v in the mode values v.  On each
basis vector every word shape (the word with its modes removed) is
expanded once into paths (target, coefficient, steps), suffixes shared
(`_paths`).  A path's exponent sum_k step_k mode_k is a constant,
folded into its numerator, plus v . w for a weight vector w.  Each
template's terms scalar * coefficient are brought over one nonzero
common denominator D per basis vector (the ring's
`clear_denominators`), so that each becomes an integer term tuple
((exponent, int), ...), and summed per (target, w) (`_node_terms`).
An instance does no ring arithmetic: it adds those ints into counters
{(target, exponent): int}, the exponent shifted by v . w, and the ring
decides whether the counters vanish (`counts_vanish`).  As D is
nonzero, a residual is zero exactly when its cleared form is.  Where
no (target, w) sum is left, the relation holds at every v, and the
runner counts the run's instances without evaluating them one by one.

Window rule: where a path reaches a node whose edge for the next x
operator leaves the window, the paths into that node form a hazard,
and an instance is inconclusive iff some hazard's sum at its modes is
nonzero.  This is exactly when applying the word operator by
operator (`act_x`, which drops cancelled entries before reading their
edges) raises WindowError.

Both module types share one operator rule (`XAction`): x_entries,
k_entries, q_entries, pair_entries and h_entries, with act_x and act_k
for applying operators one by one, are written once on two hooks of
each module, row(idx, i) and hpart(idx).  The generic ring keeps steps
and coefficients as they are; the root-of-unity module takes steps mod
N and maps coefficients to Q(zeta_N).  Ring elements offer mul_qpow,
clear_denominators and counts_vanish.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, mul

from .closedness import fundamental_anchor
from .crystal import CrystalGraph, WindowError, generate, row_stats
from .lattice import RootSystem, Weight
from .monomial import (Monomial, a_exponents, a_monomial, exp_key, exp_mul,
                       from_variables)
from .qcoeff import (Q_MINUS_QINV, RQ_ONE, RQ_ZERO, LaurentPoly, QSeries,
                     RationalQ, qfact, qint, series_log, series_of_rational)
from .tableaux import tab_monomial


class ClosednessRefusal(ValueError):
    """Module construction refused: the crystal is not closed."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class ConstructionError(ValueError):
    """A row of a node's l-weight has a pole of order above one, so the
    pole rule (`row_edges`) gives no action; or an l-weight repeats."""


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class XAction:
    """The operator entries of a loop weight module, written once for
    both coefficient rings.  An entry (dst, step, c0) of an operator
    with mode r acts by c0 q^{r step}; dst is None where an x edge
    leaves the window.

    A module supplies its x edge tables (`minus_edges`, `plus_edges`),
    its unit `one`, `_h_cache`, `_residue_memo`, `phi_component` and two
    hooks: row(idx, i), row i of the basis vector's l-weight, and
    hpart(idx), the h-values of its weight.  The defaults below are the
    generic ring's: no twist, and steps and RationalQ coefficients kept
    as they are; a module over another ring reduces steps (`_step`) and
    maps coefficients into its ring (`_scalar`, which raises
    SpecializationError where a coefficient has no value there)."""

    twist = 0

    def _step(self, s: int) -> int:
        return s

    def _scalar(self, c: RationalQ):
        return c

    def x_entries(self, sign: int, i: int, idx: int) -> tuple:
        """Edge entries (dst, step, c0) of x^{sign}_{i,r} at a basis
        vector: step is l + twist for the step position l."""
        entries = (self.plus_edges if sign > 0 else self.minus_edges)[i][idx]
        if self.twist:
            return tuple((dst, l + self.twist, c0) for dst, l, c0 in entries)
        return entries

    def act_x(self, sign: int, i: int, r: int, vec: dict) -> dict:
        out = {}
        for idx, c in vec.items():
            entries = self.x_entries(sign, i, idx)
            if any(dst is None for dst, _, _ in entries):
                raise WindowError(
                    f"x action leaves the window at node {self.node(idx)}")
            for dst, step, c0 in entries:
                v = c * (c0.mul_qpow(r * step) if r else c0)
                s = out.get(dst)
                s = v if s is None else s + v
                if s.is_zero():
                    out.pop(dst, None)
                else:
                    out[dst] = s
        return out

    def act_k(self, hvec, vec: dict) -> dict:
        """k_h for h = sum hvec[i] h_i, by q^{<h, wt>} on each basis
        vector: the k operator of a reference that does not go through
        `k_entries`."""
        return {idx: c.mul_qpow(sum(map(mul, hvec, self.hpart(idx))))
                for idx, c in vec.items()}

    def k_entries(self, hvec, idx: int) -> tuple:
        """The one entry (idx, <h, wt>, 1) on which ("k", hvec, m) =
        k_h^m acts by q^{m <h, wt>}."""
        return ((idx, self._step(sum(map(mul, hvec, self.hpart(idx)))),
                 self.one),)

    def q_entries(self, a: int, idx: int) -> tuple:
        """The one entry (idx, a, 1) on which ("q", a, m) acts by q^{am}."""
        return ((idx, self._step(a), self.one),)

    def pair_entries(self, i: int, idx: int) -> tuple:
        """Entries (idx, s_p, B_p) on which ("pair", i, t) acts on the
        basis vector by sum_p B_p q^{t s_p}: the `pole_residues` of row
        i, steps twisted."""
        return tuple((idx, self._step(s), self._scalar(b))
                     for s, b in pole_residues(self.row(idx, i), self.twist,
                                               self._residue_memo))

    def h_entries(self, i: int, idx: int) -> tuple:
        """Entries (idx, step, c) on which ("h", i, m) = m h_{i,m} acts
        on the basis vector by sum c q^{m step}: the `h_residues` of row
        i, steps twisted."""
        key = (idx, i)
        got = self._h_cache.get(key)
        if got is None:
            got = self._h_cache[key] = tuple(
                (idx, self._step(s), self._scalar(c))
                for s, c in h_residues(self.row(idx, i), self.twist))
        return got

    def pairing_value(self, idx: int, i: int, t: int):
        """(phi^+_{i,t} - phi^-_{i,t})/(q - q^-1) as needed by the
        [x^+, x^-] relation, from the module's own `phi_component`: the
        oracle of `pair_entries`.  At t = 0 it is [k_i], k_i = <h_i, wt>."""
        if t == 0:
            return self._scalar(RationalQ(qint(self.hpart(idx)[i])))
        num = self.phi_component(idx, i, t)
        return (num if t > 0 else -num) * self._scalar(_RQ_INV_QMQ)


@dataclass
class LoopModule(XAction):
    rs: RootSystem
    graph: CrystalGraph
    flavor: str                 # "thin" | "doubled"
    minus_edges: dict = field(default_factory=dict)  # i -> [entries per node]
    plus_edges: dict = field(default_factory=dict)
    twist: int = 0              # spectral twist t_b with b = q^twist
    _h_cache: dict = field(default_factory=dict)
    _residue_memo: dict = field(default_factory=dict)   # of pole_residues
    one = RQ_ONE                # unit of the coefficient ring

    # edge entry: (dst_index_or_None, step_position, base_coefficient)

    def __len__(self):
        return len(self.graph.nodes)

    def node(self, idx: int) -> Monomial:
        return self.graph.nodes[idx]

    def row(self, idx: int, i: int) -> dict:
        return self.graph.nodes[idx].row(i)

    def hpart(self, idx: int) -> tuple:
        return self.graph.nodes[idx].weight.h

    def twisted(self, k: int) -> "LoopModule":
        """Twist by the spectral automorphism sending x_{i,r} to q^{kr} x_{i,r}."""
        return LoopModule(self.rs, self.graph, self.flavor,
                          self.minus_edges, self.plus_edges, self.twist + k)

    def divided_power_x(self, sign: int, i: int, k: int, vec: dict) -> dict:
        for _ in range(k):
            vec = self.act_x(sign, i, 0, vec)
        if k >= 2:
            inv = RationalQ(LaurentPoly.from_int(1), qfact(k))
            vec = {idx: c * inv for idx, c in vec.items()}
        return vec

    # -- diagonal loop-Cartan data ----------------------------------------------

    def phi_series(self, idx: int, i: int, sign: int, order: int) -> QSeries:
        """Eigenvalue series of phi_i^{+-}(z) on the basis vector.

        Thin flavor: the crystal-statistics formula.  Section-5 flavor:
        the rational form read from the node's own row.
        """
        if self.flavor == "thin":
            return QSeries(sign, self._phi_actmod(idx, i, sign, order), order)
        return fr_phi_series(self.row(idx, i), sign, order, twist=self.twist)

    def _phi_actmod(self, idx, i, sign, order):
        st = row_stats(self.row(idx, i))
        w = st.phi - st.eps
        coeffs = [RationalQ.q_power(sign * w)]
        qmq = RationalQ(Q_MINUS_QINV)
        for s in range(1, order + 1):
            val = RQ_ZERO
            if st.phi:
                val = val + RationalQ.from_int(st.phi).mul_qpow(
                    sign * s * (st.qq + 1 + self.twist))
            if st.eps:
                val = val - RationalQ.from_int(st.eps).mul_qpow(
                    sign * s * (st.p - 1 + self.twist))
            if sign > 0:
                coeffs.append(qmq * val)
            else:
                coeffs.append(-(qmq * val))
        return coeffs

    def phi_component(self, idx: int, i: int, t: int) -> RationalQ:
        """Eigenvalue of phi^+_{i,t} (t >= 0) or phi^-_{i,t} (t <= 0)."""
        s = self.phi_series(idx, i, 1 if t >= 0 else -1, abs(t))
        return s.coeff(abs(t))

    def h_eigenvalue(self, idx: int, i: int, m: int) -> RationalQ:
        """Eigenvalue of h_{i,m} (m != 0), extracted from the formal
        logarithm of the module's own phi-series (`series_h`): the
        independent check of `h_entries`."""
        if m == 0:
            raise ValueError("h_{i,0} is not a generator")
        return series_h(self.phi_series(idx, i, 1 if m > 0 else -1, abs(m)))

    # -- q-character --------------------------------------------------------------

    def qcharacter(self) -> dict:
        """Multiplicity map of l-weights; multiplicity one throughout."""
        out = {}
        for m in self.graph.nodes:
            if m in out:
                raise AssertionError("duplicate l-weight in module basis")
            out[m] = 1
        return out


# ---------------------------------------------------------------------------
# Frenkel-Reshetikhin rational form of an l-weight
# ---------------------------------------------------------------------------

def fr_phi_series(row: dict, sign: int, order: int, twist: int = 0) -> QSeries:
    """Series of q^{deg Q - deg R} Q(zq^-1) R(zq) / (Q(zq) R(zq^-1))
    where Q collects the positive and R the negative exponents of the
    row.  This is the l-weight attached to the monomial by the
    classical correspondence."""
    w = sum(row.values())
    num = {0: RationalQ.q_power(w)}
    den = {0: RQ_ONE}
    for l, u in sorted(row.items()):
        ls = l + twist
        for _ in range(abs(u)):
            if u > 0:
                num = _zpoly_mul(num, {0: RQ_ONE, 1: -RationalQ.q_power(ls - 1)})
                den = _zpoly_mul(den, {0: RQ_ONE, 1: -RationalQ.q_power(ls + 1)})
            else:
                num = _zpoly_mul(num, {0: RQ_ONE, 1: -RationalQ.q_power(ls + 1)})
                den = _zpoly_mul(den, {0: RQ_ONE, 1: -RationalQ.q_power(ls - 1)})
    return series_of_rational(num, den, sign, order)


def series_h(s: QSeries) -> RationalQ:
    """h_{i,m}, m = direction * order, from the phi-series s of one row
    taken to order |m| in the direction of m: as phi^{+-}(z) =
    phi_0 exp(+-(q - q^-1) sum_{k>0} h_{i,+-k} z^{+-k}), it is the
    degree-|m| coefficient of log(s / phi_0) over +-(q - q^-1)."""
    c0 = s.coeff(0)
    lg = series_log(QSeries(s.direction, [c / c0 for c in s.coeffs], s.order))
    out = lg.coeff(s.order) / RationalQ(Q_MINUS_QINV)
    return out if s.direction > 0 else -out


def _zpoly_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, c in a.items():
        for j, d in b.items():
            cur = out.get(i + j)
            cur = c * d if cur is None else cur + c * d
            out[i + j] = cur
    return {k: v for k, v in out.items() if not v.is_zero()}


def fr_consistency_report(mod: LoopModule, order: int = 6, nodes=None):
    """Compare the module's own phi-series against the rational form on
    every (node, direction, sign); returns the list of discrepancies.

    Only the thin flavor has an independent phi-series (the crystal
    statistics of `_phi_actmod`).  On the other flavors `phi_series` is
    the rational form itself, so this compares that form with itself;
    there only the x-plus-minus relation ties the action to the
    l-weights."""
    bad = []
    idxs = nodes if nodes is not None else range(len(mod))
    for idx in idxs:
        m = mod.node(idx)
        for i in mod.rs.nodes:
            row = m.row(i)
            for sign in (1, -1):
                lhs = mod.phi_series(idx, i, sign, order)
                rhs = fr_phi_series(row, sign, order, twist=mod.twist)
                if lhs != rhs:
                    bad.append((m, i, sign))
    return bad


# ---------------------------------------------------------------------------
# the module builder: action coefficients from the poles of the l-weights
# ---------------------------------------------------------------------------

def row_edges(row: dict):
    """The edges that row i of an l-weight gives x^-_i and x^+_i: two
    tuples of (step, coefficient), lowering by ascending and raising by
    descending step.

    In the rational form (`fr_phi_series`) Y_{i,l} has a pole at
    w = q^{l+1}, a lowering edge at step p = l+1 (to m A_{i,p}^-1), and
    Y_{i,l}^-1 one at w = q^{l-1}, a raising edge at p = l-1 (to
    m A_{i,p}).  A same-sign variable at l+2 (l-2 for Y_{i,l}^-1) puts a
    zero on the pole: no edge.  An opposite-sign one there (a double
    pole) or an exponent beyond +-1 raises ConstructionError.  The
    coefficient is the product over the row's other same-sign variables
    at k of (q^{k-1} - q^p)/(q^k - q^{p-1}) on a lowering and
    (q^{k-1} - q^{p-2})/(q^{k-2} - q^{p-1}) on a raising edge, each
    written with the higher power first in its denominator."""
    lower, upper = [], []
    for l, u in row.items():
        if abs(u) != 1:
            raise ConstructionError(f"row {row}: a pole of order {abs(u)}")
        near = row.get(l + 2 * u)
        if near == u:
            continue
        if near == -u:
            raise ConstructionError(f"row {row}: a double pole at q^{l + u}")
        p = l + u
        num = den = None
        for k, v in row.items():
            if v != u or k == l:
                continue
            a, b, c, d = ((k - 1, p, k, p - 1) if u > 0
                          else (k - 1, p - 2, k - 2, p - 1))
            if c < d:
                a, b, c, d = b, a, d, c
            fn, fd = LaurentPoly({a: 1, b: -1}), LaurentPoly({c: 1, d: -1})
            num, den = (fn, fd) if num is None else (num * fn, den * fd)
        (lower if u > 0 else upper).append(
            (p, RQ_ONE if num is None else RationalQ(num, den)))
    lower.sort(key=lambda e: e[0])
    upper.sort(key=lambda e: -e[0])
    return tuple(lower), tuple(upper)


def pole_residues(row: dict, twist: int = 0, memo=None) -> tuple:
    """The partial fractions of row i's l-weight, a row that `row_edges`
    accepts: (s_p, B_p) for each simple pole, so that for every t in Z

        (phi^+_{i,t} - phi^-_{i,t})/(q - q^-1) = sum_p B_p q^{t s_p}.

    The rational form of `fr_phi_series` is q^w prod_a (1 - q^a z) /
    prod_p (1 - q^{s_p} z), w the sum of the row's exponents: Y_{i,l}
    gives the zero a = l-1 and the pole s = l+1, Y_{i,l}^-1 the zero
    l+1 and the pole l-1, all shifted by the twist, and a zero cancels
    an equal pole, the rule of `row_edges`.  Its expansions at z = 0
    and at z = infinity differ by sum_p c_p q^{t s_p} in degree t, with
    c_p = q^w prod_a (1 - q^{a - s_p}) / prod_{p' != p}
    (1 - q^{s_p' - s_p}); B_p = c_p/(q - q^-1), in lowest terms, and
    RQ_ONE where it is one.

    w and every a - s_p and s_p' - s_p are invariant under translating
    the row, so the B_p depend only on the row shifted to start at 0: a
    module passes its own dict as memo to compute them once per such
    translation class."""
    if memo is None:
        memo = {}
    base = min(row, default=0)
    key = tuple((l - base, u) for l, u in row.items())
    got = memo.get(key)
    if got is None:
        got = memo[key] = _residues_at_zero(dict(key))
    return tuple((s + base + twist, b) for s, b in got)


def _residues_at_zero(row: dict) -> tuple:
    """`pole_residues` of a row without twist, computed afresh."""
    poles = [l + u for l, u in row.items() if row.get(l + 2 * u) != u]
    zeros = [l - u for l, u in row.items() if row.get(l - 2 * u) != u]
    out = []
    for s in poles:
        num = LaurentPoly.q_power(sum(row.values()))
        for a in zeros:
            num = num * LaurentPoly({0: 1, a - s: -1})
        den = Q_MINUS_QINV
        for p in poles:
            if p != s:
                den = den * LaurentPoly({0: 1, p - s: -1})
        b = RationalQ(num, den).canonical()
        if b.den.is_one():
            b = RQ_ONE if b.num.is_one() else RationalQ(b.num)
        out.append((s, b))
    return tuple(out)


def h_residues(row: dict, twist: int = 0) -> tuple:
    """The closed form of h on row i of a rational l-weight: (step, c)
    pairs such that m h_{i,m} = sum c q^{m step} for every m != 0.

    With q^{m(l+1)} - q^{m(l-1)} over q - q^-1 for each Y_{i,l}^u
    (Frenkel-Reshetikhin), Y_{i,l}^u gives +u/(q - q^-1) at step
    l+1+twist and -u/(q - q^-1) at l-1+twist; equal steps are summed
    and zeros dropped."""
    acc = {}
    for l, u in row.items():
        for s, c in ((l + 1, u), (l - 1, -u)):
            acc[s + twist] = acc.get(s + twist, 0) + c
    return tuple((s, RationalQ(LaurentPoly.from_int(c), Q_MINUS_QINV))
                 for s, c in acc.items() if c)


def build_module(rs: RootSystem, anchors, window, flavor: str) -> LoopModule:
    """The loop weight module on the crystal of the anchors in the
    window, x^{+-}_i acting along the edges of each row i (`row_edges`);
    the l-weights must be pairwise distinct.  A Kashiwara operator's
    target is read from the graph, every other one looked up by its
    l-weight; dst is None where the target is not in the graph."""
    g = generate(rs, anchors, window)
    if len({m.exps for m in g.nodes}) != len(g.nodes):
        raise ConstructionError("an l-weight occurs twice in the crystal")
    mod = LoopModule(rs, g, flavor, {i: [] for i in rs.nodes},
                     {i: [] for i in rs.nodes})
    memo = {}               # row items -> (lower, upper, f~ step, e~ step)
    for idx, m in enumerate(g.nodes):
        rows = m.rows()
        for i in rs.nodes:
            row = rows.get(i, {})
            key = tuple(row.items())
            got = memo.get(key)
            if got is None:
                try:
                    lower, upper = row_edges(row)
                except ConstructionError as exc:
                    raise ConstructionError(f"node {m}, row {i}: {exc}") from None
                st = row_stats(row)
                got = memo[key] = (lower, upper, st.qq + 1 if st.phi else None,
                                   st.p - 1 if st.eps else None)
            lower, upper, fstep, estep = got
            mod.minus_edges[i].append(tuple(
                (g.f_edges.get((idx, i)) if p == fstep
                 else _target(rs, g, m, i, p, -1), p, c) for p, c in lower))
            mod.plus_edges[i].append(tuple(
                (g.e_edges.get((idx, i)) if p == estep
                 else _target(rs, g, m, i, p, 1), p, c) for p, c in upper))
    return mod


def _target(rs: RootSystem, g: CrystalGraph, m: Monomial, i: int, p: int,
            sign: int):
    """Index of m A_{i,p}^{sign} in the graph, None when it is absent."""
    exps = exp_mul(m.exps, a_exponents(rs, i, p), sign=sign)
    return g.index.get(Monomial(exp_key(exps),
                                m.weight + rs.alpha(i).scaled(sign)))


def build_thin(n: int, ell: int, window=None) -> LoopModule:
    """The extremal fundamental loop weight module for ell in
    {1, r+1, n}; other ell are refused with a closedness witness."""
    rs = RootSystem.for_fundamental(n, ell)
    if ell not in (1, rs.r + 1, n):
        ellp = ell if ell <= rs.r + 1 else n + 1 - ell
        wit = tab_monomial(RootSystem.for_fundamental(n, ellp), ellp,
                           tuple(range(1, ellp + 1)), 1)
        wit = wit * a_monomial(RootSystem.for_fundamental(n, ellp), 1, ellp)
        raise ClosednessRefusal(
            f"the fundamental crystal for n={n}, ell={ell} is not closed; "
            f"a required monomial such as {wit} is missing", witness=wit)
    if window is None:
        window = (-4 * (n + 1), 4 * (n + 1))
    return build_module(rs, [fundamental_anchor(rs, ell)], window, "thin")


# ---------------------------------------------------------------------------
# the pasted module for 2*varpi_1
# ---------------------------------------------------------------------------

def doubled_anchor(rs: RootSystem, s: int) -> Monomial:
    """e^{2 varpi_1 + s delta} Y_{1,1} Y_{1,-1-Ps} Y_{0,2}^-1 Y_{0,-Ps}^-1
    with period P = n + 1."""
    period = rs.n + 1
    return from_variables(
        rs, [(1, 1, 1), (1, -1 - period * s, 1), (0, 2, -1),
             (0, -period * s, -1)],
        Weight((-2, 2) + (0,) * (rs.n - 1), Fraction(s)))


def build_doubled(smax: int, window=None) -> LoopModule:
    """The module whose q-character is the union of the crystals of the
    anchors e^{2 varpi_1 + s delta} Y_{1,1} Y_{1,-1-4s} Y_{0,2}^-1 Y_{0,-4s}^-1
    for 0 <= s <= smax (n = 3), built by the pole rule (`build_module`):
    a row Y_{i,a} Y_{i,b} (a < b) gets lowering edges at steps a+1 and
    b+1, the first with coefficient (q^{b-1} - q^{a+1})/(q^b - q^a),
    zero for the string b = a+2, and the second with
    (q^{b+1} - q^{a-1})/(q^b - q^a)."""
    rs = RootSystem(3, parity=0)
    if smax < 0:
        raise ValueError("smax must be >= 0")
    if window is None:
        window = (-4 * (smax + 2), 4 * (smax + 2))
    anchors = [doubled_anchor(rs, s) for s in range(smax + 1)]
    return build_module(rs, anchors, window, "doubled")


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationSpec:
    rid: str
    params: tuple

    def as_dict(self):
        return {"relation": self.rid, "params": dict(self.params)}


def _unit(idx):
    return {idx: RQ_ONE}


_RQ_MONE = -RQ_ONE
_RQ_MINUS_QINT2 = -RationalQ(qint(2))
_RQ_INV_QMQ = RationalQ(LaurentPoly.from_int(1), Q_MINUS_QINV)


def relation_terms(rs: RootSystem, spec: RelationSpec) -> tuple:
    """One defining relation as a tuple of (scalar, word) terms; the
    relation holds on a vector when the sum of scalar * word vanishes.

    A word is a tuple of operators applied rightmost first:
    ("x", sign, i, r) for x^{sign}_{i,r}, ("h", i, m) for m h_{i,m},
    ("q", a, m) for the scalar q^{am}, ("k", hvec, m) for k_h^m with
    h = sum hvec[i] h_i, and ("pair", i, t) for the diagonal
    (phi^+_{i,t} - phi^-_{i,t})/(q - q^-1).

    The h-x table is [h_{i,m}, x^{sign}_{j,r}] = sign [m a_ij]/m
    x^{sign}_{j,m+r} multiplied by m != 0, with [m a_ij] written as
    (q^{m a_ij} - q^{-m a_ij})/(q - q^-1): it holds exactly where the
    relation does, and `relation_residual` of an h-x spec is m times
    the residual of the relation as written."""
    p = dict(spec.params)
    rid = spec.rid
    one, mone = RQ_ONE, _RQ_MONE
    if rid == "k-conjugation":
        i, j, r, sign = p["i"], p["j"], p["r"], p["sign"]
        hvec = tuple(int(k == i) for k in range(rs.n + 1))
        x = ("x", sign, j, r)
        return ((one, (("k", hvec, 1), x, ("k", hvec, -1))),
                (-RationalQ.q_power(sign * rs.cartan(i, j)), (x,)))
    if rid == "h-h":
        a, b = ("h", p["i"], p["m1"]), ("h", p["j"], p["m2"])
        return ((one, (a, b)), (mone, (b, a)))
    if rid == "h-x":
        i, j, m, r, sign = p["i"], p["j"], p["m"], p["r"], p["sign"]
        h, x, y = ("h", i, m), ("x", sign, j, r), ("x", sign, j, m + r)
        a = rs.cartan(i, j)
        c = _RQ_INV_QMQ if sign > 0 else -_RQ_INV_QMQ
        return ((one, (h, x)), (mone, (x, h)),
                (-c, (("q", a, m), y)), (c, (("q", -a, m), y)))
    if rid == "x-plus-minus":
        i, j, r, rp = p["i"], p["j"], p["r"], p["rp"]
        xp, xm = ("x", 1, i, r), ("x", -1, j, rp)
        terms = ((one, (xp, xm)), (mone, (xm, xp)))
        if i == j:
            terms += ((mone, (("pair", i, r + rp),)),)
        return terms
    if rid == "x-quadratic":
        i, j, r, rp, sign = p["i"], p["j"], p["r"], p["rp"], p["sign"]
        qc = RationalQ.q_power(sign * rs.cartan(i, j))
        a, b = ("x", sign, i, r + 1), ("x", sign, j, rp)
        c, d = ("x", sign, i, r), ("x", sign, j, rp + 1)
        return ((one, (a, b)), (-qc, (b, a)), (-qc, (c, d)), (one, (d, c)))
    if rid == "serre-cubic":
        i, j, r1, r2, rp, sign = (p["i"], p["j"], p["r1"], p["r2"], p["rp"],
                                  p["sign"])
        if not rs.adjacent(i, j):
            raise ValueError("serre-cubic needs adjacent nodes")
        mtwo = _RQ_MINUS_QINT2
        y = ("x", sign, j, rp)
        terms = ()
        for a, b in ((r1, r2), (r2, r1)):
            xa, xb = ("x", sign, i, a), ("x", sign, i, b)
            terms += ((one, (xa, xb, y)), (mtwo, (xa, y, xb)),
                      (one, (y, xa, xb)))
        return terms
    if rid == "x-commute-distant":
        i, j, r1, r2, sign = p["i"], p["j"], p["r1"], p["r2"], p["sign"]
        if rs.cartan(i, j) != 0:
            raise ValueError("x-commute-distant needs distant nodes")
        a, b = ("x", sign, i, r1), ("x", sign, j, r2)
        return ((one, (a, b)), (mone, (b, a)))
    raise ValueError(f"unknown relation id {rid}")


# The mode parameters of each relation: the indices of its x and h
# operators, which `_run_suite` passes to `relation_terms` as Modes.
MODE_PARAMS = {
    "k-conjugation": ("r",),
    "h-h": (),
    "h-x": ("m", "r"),
    "x-plus-minus": ("r", "rp"),
    "x-quadratic": ("r", "rp"),
    "serre-cubic": ("r1", "r2", "rp"),
    "x-commute-distant": ("r1", "r2"),
}


class Mode:
    """An affine form const + sum_k coeffs[k] v_k in a spec's mode values
    v: what `relation_terms` receives in place of each mode parameter
    (`MODE_PARAMS`), so that one table serves every mode tuple.  Only
    sums with ints and other forms are defined; any other use, such as
    a mode in a scalar, a comparison or a truth test, raises TypeError."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: int, coeffs: tuple):
        self.const = const
        self.coeffs = coeffs

    def __add__(self, other):
        if isinstance(other, Mode):
            return Mode(self.const + other.const,
                        tuple(map(add, self.coeffs, other.coeffs)))
        if isinstance(other, int):
            return Mode(self.const + other, self.coeffs)
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other):
        raise TypeError("a mode index is symbolic in a relation table")

    def __bool__(self):
        raise TypeError("a mode index is symbolic in a relation table")

    __hash__ = None


def _split(spec: RelationSpec):
    """(key, v): key is the relation id followed by the spec's parameters,
    each mode parameter by its bare name; v holds the mode values in
    parameter order."""
    modes = MODE_PARAMS.get(spec.rid, ())
    key, v = [spec.rid], []
    for name, val in spec.params:
        if name in modes:
            key.append(name)
            v.append(val)
        else:
            key.append((name, val))
    return tuple(key), tuple(v)


def _join(key: tuple, v) -> RelationSpec:
    """The RelationSpec of a key (`_split`) at the mode values v."""
    vals = iter(v)
    return RelationSpec(key[0], tuple((p, next(vals)) if isinstance(p, str)
                                      else p for p in key[1:]))


def _table(rs: RootSystem, key: tuple, scalar) -> tuple:
    """The runner's template (`_shapes`) of the key's relation:
    `relation_terms` with the k-th mode parameter passed as the symbol
    v_k and its scalars mapped by `scalar`."""
    n = sum(isinstance(p, str) for p in key[1:])
    symbols = [Mode(0, tuple(int(j == k) for j in range(n)))
               for k in range(n)]
    terms = relation_terms(rs, _join(key, symbols))
    return _shapes(tuple((scalar(s), word) for s, word in terms), n)


def _shapes(terms: tuple, n: int) -> tuple:
    """The runner's template of a table's terms, whose modes are affine
    forms in n mode values v: per term (scalar, shape, consts, cols).  A
    shape is the word with the mode of each operator removed:
    ("x", sign, i), ("pair", i), ("h", i), ("k", hvec) and ("q", a).
    The removed modes, in application order (rightmost operator first),
    are affine forms: consts[k] is the k-th one's constant, and
    cols[j][k] its coefficient of v_j."""
    out = []
    for scalar, word in terms:
        shape, forms = [], []
        for op in word:
            shape.append(op[:-1])
            m = op[-1]
            forms.append(m if isinstance(m, Mode) else Mode(m, (0,) * n))
        forms.reverse()
        out.append((scalar, tuple(shape), tuple(f.const for f in forms),
                    tuple(zip(*(f.coeffs for f in forms))) or ((),) * n))
    return tuple(out)


def _paths(mod, shape: tuple, memo: dict):
    """(paths, hazards) of a word shape on one basis vector.

    paths maps (target, steps) to the summed coefficient of the paths
    ending at target through the edge steps `steps` (application
    order); such paths share the factor q^{sum r_k step_k} at every mode
    tuple, so a zero sum is dropped.  Every operator moves a path along
    its entries (`x_entries`, `pair_entries`, `h_entries`, `k_entries`,
    `q_entries`; all but the first return to their own node, so they
    never leave the window).  hazards holds (node, ((steps, coeff),
    ...)): the paths that reached a node whose edge for the next x
    operator leaves the window; they go no further (where their sum
    vanishes, so would their continuations).

    memo maps shapes to these values for this one vector and starts as
    {(): ({(idx, ()): unit}, ())}; a shape is expanded from shape[1:]."""
    got = memo.get(shape)
    if got is not None:
        return got
    paths, hazards = _paths(mod, shape[1:], memo)
    op = shape[0]
    new = {}
    entries_of = getattr(mod, op[0] + "_entries")
    leaving = {}
    for (node, steps), c in paths.items():
        entries = entries_of(*op[1:], node)
        if any(dst is None for dst, _, _ in entries):
            leaving.setdefault(node, []).append((steps, c))
            continue
        for dst, step, c0 in entries:
            key = (dst, steps + (step,))
            cc = c if c0 is mod.one else c * c0
            s = new.get(key)
            new[key] = cc if s is None else s + cc
    hazards += tuple((node, tuple(group)) for node, group in leaving.items())
    got = memo[shape] = ({k: c for k, c in new.items() if not c.is_zero()},
                         hazards)
    return got


def _node_terms(mod, template: tuple, memo: dict):
    """One template (`_shapes`) on the memo's basis vector, over one
    common denominator D (the ring's `clear_denominators`): returns (D,
    terms, hazards).  A path through steps s_k contributes q^e with
    e = sum s_k (consts[k] + cols[.][k] . v) at the modes v: the
    constant part is folded into the integer numerator of scalar *
    coefficient * D, and the rest is v . w with w_j = sum s_k cols[j][k].
    terms holds (target, numerator, w), numerator a term tuple
    ((exponent, int), ...), summed over the paths with equal (target, w)
    and dropped where zero; hazards holds (node, entries), entries in
    the same form with node as target, or None for a single path, which
    never cancels, and leaves out the hazards whose paths cancel at all
    modes.  A term with scalar zero keeps its hazards."""
    slots, values, hazard_slots, hazard_values = [], [], [], []
    for scalar, shape, consts, cols in template:
        paths, hz = _paths(mod, shape, memo)
        for node, group in hz:
            if len(group) == 1:
                hazard_slots.append((node, None))
            else:
                hazard_slots.append((node, [_affine(consts, cols, steps)
                                            for steps, _ in group]))
                hazard_values.extend(c for _, c in group)
        if not scalar.is_zero():
            for (target, steps), c in paths.items():
                slots.append((target, _affine(consts, cols, steps)))
                values.append(c if scalar is mod.one else scalar * c)
    den, nums = mod.one.clear_denominators(values + hazard_values)
    nums = iter(nums)
    terms = _collect((target, next(nums), form) for target, form in slots)
    hazards = []
    for node, group in hazard_slots:
        if group is not None:
            group = _collect((node, next(nums), form) for form in group)
            if not group:
                continue
        hazards.append((node, group))
    return den, terms, hazards


def _affine(consts: tuple, cols: tuple, steps: tuple):
    """(shift, w): the exponent sum_k steps[k] * mode_k of a path as its
    constant and its coefficients of the modes."""
    return (sum(map(mul, consts, steps)),
            tuple(sum(map(mul, col, steps)) for col in cols))


def _collect(items) -> list:
    """(target, numerator, (shift, w)) items as (target, numerator, w):
    numerators shifted by q^shift and summed per (target, w), zeros
    dropped."""
    acc = {}
    for target, num, (shift, w) in items:
        cs = acc.get((target, w))
        if cs is None:
            cs = acc[(target, w)] = {}
        for k, c in num:
            k += shift
            cs[k] = cs.get(k, 0) + c
    out = []
    for (target, w), cs in acc.items():
        num = tuple((k, c) for k, c in cs.items() if c)
        if num:
            out.append((target, num, w))
    return out


def _residual(terms: list, v: tuple) -> dict:
    """The cleared residual of one spec as integer counters
    {(target, exponent): int}: each term's numerator exponents shifted
    by v . w."""
    counts = {}
    get = counts.get
    for target, num, w in terms:
        e = sum(map(mul, v, w))
        for k, c in num:
            key = (target, k + e)
            counts[key] = get(key, 0) + c
    return counts


def _window_exit(hazards: list, v: tuple, ring):
    """The first hazard node whose paths have a nonzero sum at the modes
    v, or None: the spec leaves the window there."""
    for node, entries in hazards:
        if entries is None or not ring.counts_vanish(_residual(entries, v)):
            return node
    return None


def relation_residual(mod: LoopModule, spec: RelationSpec, idx: int) -> dict:
    """Left side minus right side of one defining relation applied to a
    basis vector; the contract is the empty (zero) vector.  Raises
    WindowError when an intermediate leaves the window.  The relation is
    its table in `relation_terms`: for h-x, m times the relation as
    written."""
    key, v = _split(spec)
    memo = {(): ({(idx, ()): mod.one}, ())}
    den, terms, hazards = _node_terms(mod, _table(mod.rs, key, mod._scalar),
                                      memo)
    node = _window_exit(hazards, v, mod.one)
    if node is not None:
        raise WindowError(
            f"x action leaves the window at node {mod.node(node)}")
    nums = {}
    for (target, e), c in _residual(terms, v).items():
        if c:
            nums.setdefault(target, {})[e] = c
    return {target: RationalQ(LaurentPoly(cs), den)
            for target, cs in nums.items()}


RELATION_IDS = ("k-conjugation", "h-h", "h-x", "x-plus-minus", "x-quadratic",
                "serre-cubic", "x-commute-distant")


def relation_runs(rs: RootSystem, rmax: int = 3, hmax: int = 2,
                  include=None):
    """All relation instances in the declared parameter ranges, as runs
    (key, modes): key is the relation id followed by its parameters,
    each mode parameter by its bare name (as `_split` forms it), and
    modes the tuple of the mode-value tuples of the run's instances.
    h-x has one run per (i, j, sign), its modes (m, r) m-major, so its
    instances come in the order (i, j, sign, m, r).  An id outside
    RELATION_IDS raises ValueError."""
    ids = RELATION_IDS if include is None else tuple(include)
    unknown = [r for r in ids if r not in RELATION_IDS]
    if unknown:
        raise ValueError(f"unknown relation id {unknown[0]!r}; "
                         f"expected one of {', '.join(RELATION_IDS)}")
    rr = range(-rmax, rmax + 1)
    mm = [m for m in range(-hmax, hmax + 1) if m]
    I, signs = rs.nodes, (1, -1)
    pairs = tuple(product(rr, rr))
    if "k-conjugation" in ids:
        for i, j, sign in product(I, I, signs):
            yield (("k-conjugation", ("i", i), ("j", j), "r", ("sign", sign)),
                   ((-1,), (0,), (1,)))
    if "h-h" in ids:
        for i, j in product(I, I):
            if j >= i:
                yield ("h-h", ("i", i), ("j", j), ("m1", 1), ("m2", -1)), ((),)
    if "h-x" in ids:
        modes = tuple(product(mm, rr))
        for i, j, sign in product(I, I, signs):
            yield ("h-x", ("i", i), ("j", j), "m", "r", ("sign", sign)), modes
    if "x-plus-minus" in ids:
        for i, j in product(I, I):
            yield ("x-plus-minus", ("i", i), ("j", j), "r", "rp"), pairs
    if "x-quadratic" in ids:
        for sign, i, j in product(signs, I, I):
            yield (("x-quadratic", ("i", i), ("j", j), "r", "rp",
                    ("sign", sign)), pairs)
    if "serre-cubic" in ids:
        triples = tuple(v for v in product(rr, rr, rr) if v[0] <= v[1])
        for sign, i in product(signs, I):
            for j in (rs.mod(i - 1), rs.mod(i + 1)):
                yield (("serre-cubic", ("i", i), ("j", j), "r1", "r2", "rp",
                        ("sign", sign)), triples)
    if "x-commute-distant" in ids:
        for sign, i, j in product(signs, I, I):
            if j > i and rs.cartan(i, j) == 0:
                yield (("x-commute-distant", ("i", i), ("j", j), "r1", "r2",
                        ("sign", sign)), pairs)


def relation_instances(rs: RootSystem, rmax: int = 3, hmax: int = 2,
                       include=None):
    """All relation instances in the declared parameter ranges, one
    RelationSpec per instance of `relation_runs`."""
    return _specs(relation_runs(rs, rmax, hmax, include))


def _specs(runs):
    """The RelationSpecs of runs (key, modes), in order."""
    for key, modes in runs:
        for v in modes:
            yield _join(key, v)


@dataclass
class SuiteReport:
    checked: int = 0
    inconclusive: int = 0
    failures: list = field(default_factory=list)
    by_relation: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and self.checked > 0

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "inconclusive": self.inconclusive,
            "by_relation": dict(sorted(self.by_relation.items())),
            "failures": [
                {**spec.as_dict(), "vector": str(node),
                 "residual_is_zero": False}
                for spec, node in self.failures],
            "all_residuals_zero": not self.failures,
        }


def _run_suite(mod, runs, idxs) -> SuiteReport:
    """Evaluate every instance of the runs (key, modes) on every basis
    vector in idxs; any nonzero residual is recorded as a failure,
    instances leaving the window count as inconclusive.  The module's
    `_scalar` maps the tables' RationalQ scalars into its ring.

    Each run's relation is tabled once, modes as affine symbols
    (`_table`).  On each node every shape of the run is expanded into
    paths once (`_paths`), every operator moving along its entries,
    and the terms are cleared of denominators and summed per
    target and mode weight w (`_node_terms`).  An instance with modes v
    then only adds integers into counters keyed by target and
    q-exponent, shifted by v . w (`_residual`); where nothing is left
    to add, the whole run is zero on that node.  No RelationSpec is
    built per instance: `_join` makes one per run, with symbolic modes,
    and one per failure, to name it.  Failures are listed instance by
    instance, nodes in the given order."""
    report = SuiteReport()
    failures = []
    ring = mod.one
    for rpos, (key, modes) in enumerate(runs):
        template = _table(mod.rs, key, mod._scalar)
        checked = 0
        for npos, idx in enumerate(idxs):
            memo = {(): ({(idx, ()): ring}, ())}
            _, terms, hazards = _node_terms(mod, template, memo)
            if not terms and not hazards:
                checked += len(modes)
                continue
            for k, v in enumerate(modes):
                if hazards and _window_exit(hazards, v, ring) is not None:
                    report.inconclusive += 1
                    continue
                checked += 1
                if not ring.counts_vanish(_residual(terms, v)):
                    failures.append((rpos, k, npos, key, v, idx))
        if checked:
            rid = key[0]
            report.checked += checked
            report.by_relation[rid] = report.by_relation.get(rid, 0) + checked
    failures.sort(key=lambda f: f[:3])
    report.failures = [(_join(key, v), mod.node(idx))
                       for *_, key, v, idx in failures]
    return report


def run_relation_suite(mod: LoopModule, rmax: int = 3, hmax: int = 2,
                       nodes=None, include=None) -> SuiteReport:
    """Evaluate every relation instance on every (interior) basis
    vector; any nonzero residual is recorded as a failure, instances
    leaving the window count as inconclusive, and failures are listed
    spec by spec, nodes in the given order."""
    idxs = list(nodes) if nodes is not None else range(len(mod))
    runs = relation_runs(mod.rs, rmax=rmax, hmax=hmax, include=include)
    return _run_suite(mod, runs, idxs)


# ---------------------------------------------------------------------------
# extremal vectors at the module level
# ---------------------------------------------------------------------------

@dataclass
class ExtremalVectorReport:
    verdict: str
    orbit: list
    failing_direction: int | None = None


def verify_extremal_vector(mod: LoopModule, m: Monomial, depth: int) -> ExtremalVectorReport:
    """Run the reflection strings with divided powers on v_m and check
    the extremal-vector equations along the orbit."""
    idx0 = mod.graph.node_index(m)
    if idx0 is None:
        raise ValueError(f"{m} is not a basis monomial")
    seen = {idx0}
    layer = [idx0]
    orbit = [m]
    try:
        for _ in range(depth):
            nxt = []
            for idx in layer:
                w = mod.node(idx).weight
                for i in mod.rs.nodes:
                    c = w.pair(i)
                    up = mod.act_x(1, i, 0, _unit(idx))
                    dn = mod.act_x(-1, i, 0, _unit(idx))
                    if c >= 0 and up:
                        return ExtremalVectorReport("not-extremal", orbit, i)
                    if c <= 0 and dn:
                        return ExtremalVectorReport("not-extremal", orbit, i)
                    if c == 0:
                        continue
                    vec = mod.divided_power_x(-1 if c > 0 else 1, i, abs(c), _unit(idx))
                    if len(vec) != 1:
                        return ExtremalVectorReport("not-extremal", orbit, i)
                    (tgt, coeff), = vec.items()
                    if not coeff == RQ_ONE:
                        return ExtremalVectorReport("not-extremal", orbit, i)
                    if tgt not in seen:
                        seen.add(tgt)
                        orbit.append(mod.node(tgt))
                        nxt.append(tgt)
            layer = nxt
            if not layer:
                break
    except WindowError:
        return ExtremalVectorReport("inconclusive-window", orbit)
    return ExtremalVectorReport("extremal", orbit)
