"""Loop weight modules over the rational-function field in q: the thin
modules attached to closed fundamental crystals, the pasted module for
twice the first fundamental level-zero weight (n = 3), their
l-weights and q-characters, and extremal vectors.  The defining
relations are checked on them by `relations.run_suite`
(`run_relation_suite`).

Coefficients are RationalQ throughout, so every check is exact.

One builder makes both module types (`build_module`): on a windowed
crystal, x^{+-}_i acts along the poles of row i of each basis vector's
rational l-weight, with one coefficient factor per other same-sign
variable of the row (`row_edges`).  The diagonal operators the relation
tables name act by edges back to the vector itself: the pair operator
of the x-plus-minus relation by the pole residues of the row
(`pole_residues`), (q - q^-1) m h_{i,m} by its closed form on a
rational l-weight (`h_residues`).

Both module types share one operator rule (`XAction`): x_entries,
k_entries, q_entries, pair_entries and h_entries, with act_x and act_k
for applying operators one by one, are written once on two hooks of
each module, row(idx, i) and hpart(idx).  The generic ring keeps steps
and coefficients as they are; the root-of-unity module takes steps mod
N and maps coefficients to Q(zeta_N).  Ring elements offer mul_qpow,
clear_denominators, mode_weight and counts_vanish.  Extremal vectors
are checked by the reflection-orbit walk of `crystal.is_extremal`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .closedness import closed_report, fundamental_anchor
from .crystal import (CrystalGraph, ExtremalityReport, WindowError,
                      generate, reflection_walk, row_stats)
from .lattice import RootSystem, Weight
from .monomial import Monomial, a_exponents, exp_key, exp_mul, from_variables
from .qcoeff import (Q_MINUS_QINV, RQ_ONE, RQ_ZERO, LaurentPoly, QSeries,
                     RationalQ, qfact, qint, series_log, series_of_rational)
from .relations import SuiteReport, relation_runs, run_suite
# bench/workloads.py and bench/record_golden.py import these two from
# torcrys.torep
from .relations import RELATION_IDS, relation_instances


class ClosednessRefusal(ValueError):
    """Module construction refused: the crystal is not closed."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class ConstructionError(ValueError):
    """A row of a node's l-weight has a pole of order above one, so the
    pole rule (`row_edges`) gives no action; or an l-weight repeats."""


_RQ_INV_QMQ = RationalQ(LaurentPoly.from_int(1), Q_MINUS_QINV)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class XAction:
    """The operator entries of a loop weight module, written once for
    both coefficient rings.  An entry (dst, step, c0) of an operator
    with mode r acts by c0 q^{r step}; dst is None where an x edge
    leaves the window.

    A module supplies its x edge tables (`minus_edges`, `plus_edges`),
    its unit `one`, `_residue_memo`, `phi_component` and two
    hooks: row(idx, i), row i of the basis vector's l-weight, and
    hpart(idx), the h-values of its weight.  The defaults below are the
    generic ring's: steps and RationalQ coefficients kept as they are; a
    module over another ring reduces steps (`_step`) and maps
    coefficients into its ring (`_scalar`, which raises
    SpecializationError where a coefficient has no value there)."""

    def _step(self, s: int) -> int:
        return s

    def _scalar(self, c: RationalQ):
        return c

    def x_entries(self, sign: int, i: int, idx: int) -> tuple:
        """Edge entries (dst, step, c0) of x^{sign}_{i,r} at a basis
        vector."""
        return (self.plus_edges if sign > 0 else self.minus_edges)[i][idx]

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
        basis vector by sum_p B_p q^{t s_p}: the `pole_residues` of row i."""
        return tuple((idx, self._step(s), self._scalar(b))
                     for s, b in pole_residues(self.row(idx, i),
                                               self._residue_memo))

    def h_entries(self, i: int, idx: int) -> tuple:
        """Entries (idx, step, c) on which ("h", i, m) =
        (q - q^-1) m h_{i,m} acts on the basis vector by sum c q^{m step}:
        the `h_residues` of row i, each c an integer."""
        return tuple((idx, self._step(s), self._scalar(c))
                     for s, c in h_residues(self.row(idx, i)))

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
    _residue_memo: dict = field(default_factory=dict)   # of pole_residues
    one = RQ_ONE                # unit of the coefficient ring

    # edge entry: (dst_index_or_None, step_position, base_coefficient)

    def __len__(self):
        return len(self.graph.nodes)

    def node(self, idx: int) -> Monomial:
        return self.graph.nodes[idx]

    def row(self, idx: int, i: int) -> dict:
        """Row i of the basis vector's l-weight, translated by the twist."""
        row = self.graph.nodes[idx].row(i)
        if self.twist:
            return {l + self.twist: u for l, u in row.items()}
        return row

    def hpart(self, idx: int) -> tuple:
        return self.graph.nodes[idx].weight.h

    def x_entries(self, sign: int, i: int, idx: int) -> tuple:
        """`XAction.x_entries` with each step translated by the twist."""
        entries = (self.plus_edges if sign > 0 else self.minus_edges)[i][idx]
        if self.twist:
            return tuple((dst, l + self.twist, c0) for dst, l, c0 in entries)
        return entries

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
        return fr_phi_series(self.row(idx, i), sign, order)

    def _phi_actmod(self, idx, i, sign, order):
        st = row_stats(self.row(idx, i))
        w = st.phi - st.eps
        coeffs = [RationalQ.q_power(sign * w)]
        qmq = RationalQ(Q_MINUS_QINV)
        for s in range(1, order + 1):
            val = RQ_ZERO
            if st.phi:
                val = val + RationalQ.from_int(st.phi).mul_qpow(
                    sign * s * (st.qq + 1))
            if st.eps:
                val = val - RationalQ.from_int(st.eps).mul_qpow(
                    sign * s * (st.p - 1))
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
        independent check of `h_entries`, which sum to (q - q^-1) m
        times it."""
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

def fr_phi_series(row: dict, sign: int, order: int) -> QSeries:
    """Series of q^{deg Q - deg R} Q(zq^-1) R(zq) / (Q(zq) R(zq^-1))
    where Q collects the positive and R the negative exponents of the
    row.  This is the l-weight attached to the monomial by the
    classical correspondence."""
    w = sum(row.values())
    num = {0: RationalQ.q_power(w)}
    den = {0: RQ_ONE}
    for l, u in sorted(row.items()):
        for _ in range(abs(u)):
            if u > 0:
                num = _zpoly_mul(num, {0: RQ_ONE, 1: -RationalQ.q_power(l - 1)})
                den = _zpoly_mul(den, {0: RQ_ONE, 1: -RationalQ.q_power(l + 1)})
            else:
                num = _zpoly_mul(num, {0: RQ_ONE, 1: -RationalQ.q_power(l + 1)})
                den = _zpoly_mul(den, {0: RQ_ONE, 1: -RationalQ.q_power(l - 1)})
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
            row = mod.row(idx, i)
            for sign in (1, -1):
                lhs = mod.phi_series(idx, i, sign, order)
                rhs = fr_phi_series(row, sign, order)
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


def pole_residues(row: dict, memo=None) -> tuple:
    """The partial fractions of row i's l-weight, a row that `row_edges`
    accepts: (s_p, B_p) for each simple pole, so that for every t in Z

        (phi^+_{i,t} - phi^-_{i,t})/(q - q^-1) = sum_p B_p q^{t s_p}.

    The rational form of `fr_phi_series` is q^w prod_a (1 - q^a z) /
    prod_p (1 - q^{s_p} z), w the sum of the row's exponents: Y_{i,l}
    gives the zero a = l-1 and the pole s = l+1, Y_{i,l}^-1 the zero
    l+1 and the pole l-1, and a zero cancels an equal pole, the rule of
    `row_edges`.  Its expansions at z = 0 and at z = infinity differ by
    sum_p c_p q^{t s_p} in degree t, with c_p = q^w prod_a (1 - q^{a - s_p})
    / prod_{p' != p} (1 - q^{s_p' - s_p}); B_p = c_p/(q - q^-1), in lowest
    terms, and RQ_ONE where it is one.

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
    return tuple((s + base, b) for s, b in got)


def _residues_at_zero(row: dict) -> tuple:
    """`pole_residues` of a row starting at 0, computed afresh."""
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


def h_residues(row: dict) -> tuple:
    """The closed form of h on row i of a rational l-weight: (step, c)
    pairs such that (q - q^-1) m h_{i,m} = sum c q^{m step} for every
    m != 0, each c an integer, and RQ_ONE itself where it is one, so
    that the runner skips its products.

    With u (q^{m(l+1)} - q^{m(l-1)}) for each Y_{i,l}^u
    (Frenkel-Reshetikhin), Y_{i,l}^u gives +u at step l+1 and -u at
    l-1; equal steps are summed and zeros dropped."""
    acc = {}
    for l, u in row.items():
        for s, c in ((l + 1, u), (l - 1, -u)):
            acc[s] = acc.get(s, 0) + c
    return tuple((s, RQ_ONE if c == 1 else RationalQ.from_int(c))
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
    {1, r+1, n}, whose crystals are closed.  Any other ell raises
    ClosednessRefusal carrying `closed_report(n, ell)`'s first witness:
    a monomial its crystal needs in that direction and lacks."""
    rs = RootSystem.for_fundamental(n, ell)
    if ell not in (1, rs.r + 1, n):
        i, wit = closed_report(n, ell).first_witness()
        raise ClosednessRefusal(
            f"the fundamental crystal for n={n}, ell={ell} is not closed; "
            f"direction {i} needs the missing monomial {wit}", witness=wit)
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

def run_relation_suite(mod: LoopModule, rmax: int = 3, hmax: int = 2,
                       nodes=None, include=None) -> SuiteReport:
    """Evaluate every relation instance on every (interior) basis
    vector; any nonzero residual is recorded as a failure, instances
    leaving the window count as inconclusive, and failures are listed
    spec by spec, nodes in the given order."""
    idxs = list(nodes) if nodes is not None else range(len(mod))
    runs = relation_runs(mod.rs, rmax=rmax, hmax=hmax, include=include)
    return run_suite(mod, runs, idxs)


# ---------------------------------------------------------------------------
# extremal vectors at the module level
# ---------------------------------------------------------------------------

def _unit(idx):
    return {idx: RQ_ONE}


def verify_extremal_vector(mod: LoopModule, m: Monomial,
                           depth: int) -> ExtremalityReport:
    """Run the reflection strings with divided powers on v_m and check
    the extremal-vector equations along the orbit (the walk of
    `crystal.is_extremal`): x^{+-}_{i,0} kills the vector where
    +-<h_i, wt> >= 0, and the divided power of order |<h_i, wt>| maps it
    to one basis vector with coefficient 1."""
    if mod.graph.node_index(m) is None:
        raise ValueError(f"{m} is not a basis monomial")

    def step(x, i):
        unit = _unit(mod.graph.node_index(x))
        c = x.weight.pair(i)
        up = mod.act_x(1, i, 0, unit)
        dn = mod.act_x(-1, i, 0, unit)
        if (c >= 0 and up) or (c <= 0 and dn):
            return None
        if c == 0:
            return x
        vec = mod.divided_power_x(-1 if c > 0 else 1, i, abs(c), unit)
        if len(vec) != 1:
            return None
        (tgt, coeff), = vec.items()
        return mod.node(tgt) if coeff == RQ_ONE else None
    return reflection_walk(mod.rs, m, depth, step)
