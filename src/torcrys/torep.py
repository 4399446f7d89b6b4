"""Loop weight modules over the rational-function field in q: the thin
modules attached to closed fundamental crystals, the pasted module for
twice the first fundamental level-zero weight (n = 3), q-characters,
and exact verification of the quantum toroidal defining relations on
windows.

Coefficients are RationalQ throughout, and the relation scalars the
runner reads are integer Laurent polynomials; every residual test is
exact.

One builder makes both module types (`build_module`): on a windowed
crystal, x^{+-}_i acts along the poles of row i of each basis vector's
rational l-weight, with one coefficient factor per other same-sign
variable of the row (`row_edges`).

Each defining relation is written once, as a term table: a tuple of
(scalar, word) terms whose sum must act by zero (`relation_terms`).
`relation_residual`, `run_relation_suite` and the root-of-unity check
`unity.relation_check_eps` evaluate the same tables through one
mode-factored evaluator.  Every scalar of a table is a Laurent
polynomial with integer coefficients, so the runner keeps it as its
integer term tuple, whatever the module's ring; a table depends only
on the rank and the relation key, and is built once per pair
(`_table`).

On both module types x^{+-}_{i,r} acts on an edge by c0 q^{r step}
(eps^{r step} at a root of unity).  So do the diagonal operators, by
edges back to the vector itself with constant steps:
("pair", i, t) = (phi^+_{i,t} - phi^-_{i,t})/(q - q^-1) of the
x-plus-minus relation acts by sum_p B_p q^{t s_p}, one edge per simple
pole of row i of the l-weight (`pole_residues`); ("h", i, m) =
(q - q^-1) m h_{i,m} by sum_l u_{i,l} (q^{m(l+1)} - q^{m(l-1)}), the
closed form on a rational l-weight, with integer coefficients
(`h_residues`); ("k", hvec, m) = k_h^m by one
edge of step <h, wt>; and the scalar ("q", a, m) = q^{am} by one edge
of step a.  So the paths a word takes through the basis do not depend
on the mode indices.  The relations come as runs from one run
generator (`_runs`), fed the generic mode table by `relation_runs` and
the one at a root of unity by `unity._eps_runs`: a key, the relation
id with its non-mode parameters, and the mode tuples v of its
instances; an instance becomes a RelationSpec only to name a failure.
The runner tables each run's relation once (`MODE_PARAMS` names the modes), passing its modes
to `relation_terms` as affine symbols (`Mode`), so that each
operator's mode is a form const + c . v in the mode values v.  A word
shape (the word with its modes removed) is interned as an integer id in
an append-only registry (`_intern`), and on each basis vector every
shape is expanded once into paths (target, coefficient, steps), in a
memo indexed by id, suffixes shared (`_paths`).  A path's exponent
sum_k step_k mode_k is a constant, folded into its numerator, plus
v . w for a weight vector w.  The
path coefficients of a template are brought over one nonzero common
denominator D per basis vector (the ring's `clear_denominators`), so
that each becomes an integer term tuple ((exponent, int), ...); each is
multiplied by its term's integer scalar as exponent shifts and integer
factors, and summed per (target, w), w reduced by the ring
(`mode_weight`: kept in Q(q), taken mod N at a root of unity, where
q^{v . w} only depends on v . w mod N); a sum the ring says vanishes
(`counts_vanish`) is dropped (`_node_terms`, `_collect`).  An instance
does no ring arithmetic: it adds those ints into counters
{(target, exponent): int}, the exponent shifted by v . w, and the ring
decides whether the counters vanish.  As D is nonzero, a residual is
zero exactly when its cleared form is.  Where
no (target, w) sum is left, the relation holds at every v, and the
runner counts the run's instances without evaluating them one by one;
where no word shape of the run has a path or a hazard on the vector,
it does so before building any term, and where no first applied x
operator of the run's shapes has an entry at the vector, before
looking at a shape (`_run_suite`).

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
clear_denominators, mode_weight and counts_vanish.  Extremal vectors
are checked by the reflection-orbit walk of `crystal.is_extremal`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, lt, mul

from .closedness import closed_report, fundamental_anchor
from .crystal import (CrystalGraph, ExtremalityReport, WindowError,
                      _reflection_walk, generate, row_stats)
from .lattice import RootSystem, Weight
from .monomial import Monomial, a_exponents, exp_key, exp_mul, from_variables
from .qcoeff import (Q_MINUS_QINV, RQ_ONE, RQ_ZERO, LaurentPoly, QSeries,
                     RationalQ, qfact, qint, series_log, series_of_rational)


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
    ("x", sign, i, r) for x^{sign}_{i,r}, ("h", i, m) for
    (q - q^-1) m h_{i,m},
    ("q", a, m) for the scalar q^{am}, ("k", hvec, m) for k_h^m with
    h = sum hvec[i] h_i, and ("pair", i, t) for the diagonal
    (phi^+_{i,t} - phi^-_{i,t})/(q - q^-1).

    The h-x table is [h_{i,m}, x^{sign}_{j,r}] = sign [m a_ij]/m
    x^{sign}_{j,m+r} multiplied by (q - q^-1) m, nonzero for m != 0:
    sign (q^{m a_ij} - q^{-m a_ij}) x^{sign}_{j,m+r} on the right.  It
    holds exactly where the relation does, and `relation_residual` of
    an h-x spec is (q - q^-1) m times the residual of the relation as
    written; of an h-h spec, (q - q^-1)^2 m1 m2 times."""
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
        c = one if sign > 0 else mone
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
    "h-h": ("m1", "m2"),
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


# (rank, key) -> the key's template, filled by `_table`.  One suite
# tables each of its keys once anyway; the memo pays where one process
# runs several suites of one rank (a sweep over modules or relation
# families, or the generic and root-of-unity checks of one rank).
_TEMPLATES = {}


def _table(rs: RootSystem, key: tuple) -> tuple:
    """The runner's template (`_shapes`) of the key's relation:
    `relation_terms` with the k-th mode parameter passed as the symbol
    v_k, each scalar as its integer term tuple (`_int_terms`) and each
    word shape as its id in the shape registry (`_intern`).  The
    table reads only the Cartan data of the rank, never the parity or a
    module's ring, so it is built once per (rank, key) and shared by
    every module of that rank, generic or at a root of unity."""
    got = _TEMPLATES.get((rs.n, key))
    if got is None:
        n = sum(isinstance(p, str) for p in key[1:])
        symbols = [Mode(0, tuple(int(j == k) for j in range(n)))
                   for k in range(n)]
        terms = relation_terms(rs, _join(key, symbols))
        got = _TEMPLATES[(rs.n, key)] = _shapes(
            tuple((_int_terms(s), word) for s, word in terms), n)
    return got


def _int_terms(s: RationalQ) -> tuple:
    """The scalar s of a relation table as the term tuple ((exponent,
    int), ...) of a Laurent polynomial with integer coefficients; a
    denominator that is not a unit +-q^k raises ValueError."""
    if not s.den.is_monomial() or abs(s.den.lowest_coeff()) != 1:
        raise ValueError(f"relation scalar {s} is not in Z[q, q^-1]")
    (k, c), = s.den.terms.items()
    return tuple((e - k, a * c) for e, a in s.num.key())


def _shapes(terms: tuple, n: int) -> tuple:
    """The runner's template of a table's terms, whose modes are affine
    forms in n mode values v: per term (scalar, shape, consts, cols),
    scalar as it was given (an integer term tuple in `_table`).  A
    shape is the word with the mode of each operator removed, ("x",
    sign, i), ("pair", i), ("h", i), ("k", hvec) and ("q", a), interned
    as an integer id (`_intern`).  The removed modes, in application
    order (rightmost operator first), are affine forms: consts[k] is the
    k-th one's constant, and cols[j][k] its coefficient of v_j."""
    out = []
    for scalar, word in terms:
        shape, forms = [], []
        for op in word:
            shape.append(op[:-1])
            m = op[-1]
            forms.append(m if isinstance(m, Mode) else Mode(m, (0,) * n))
        forms.reverse()
        out.append((scalar, _intern(tuple(shape)),
                    tuple(f.const for f in forms),
                    tuple(zip(*(f.coeffs for f in forms))) or ((),) * n))
    return tuple(out)


# The interned word shapes, append-only, so that an id names one shape
# for the life of the process: _SHAPE_IDS maps a shape to its id, 0 for
# the empty shape, and _SHAPE_OPS[id] holds its leftmost (last applied)
# operator as (entries method, arguments, windowed), windowed for an x
# operator, then the id of the shape without that operator and the
# first applied x operator of the shape as (sign, i), None if it has
# none.
_SHAPE_IDS = {(): 0}
_SHAPE_OPS = [(None, (), False, 0, None)]


def _intern(shape: tuple) -> int:
    """The id of a word shape in the registry, its suffixes interned
    first."""
    sid = _SHAPE_IDS.get(shape)
    if sid is None:
        suffix = _intern(shape[1:])
        op = shape[0]
        windowed = op[0] == "x"
        first_x = _SHAPE_OPS[suffix][4]
        if first_x is None and windowed:
            first_x = op[1:]
        sid = _SHAPE_IDS[shape] = len(_SHAPE_OPS)
        _SHAPE_OPS.append((op[0] + "_entries", op[1:], windowed, suffix,
                           first_x))
    return sid


def _vector_memo(idx: int, one) -> list:
    """A fresh `_paths` memo for one basis vector: a slot per interned
    shape, the empty shape's holding the vector itself."""
    memo = [None] * len(_SHAPE_OPS)
    memo[0] = ({(idx, ()): one}, ())
    return memo


def _paths(mod, sid: int, memo: list):
    """(paths, hazards) of the word shape with id sid (`_intern`) on one
    basis vector.

    paths maps (target, steps) to the summed coefficient of the paths
    ending at target through the edge steps `steps` (application
    order); such paths share the factor q^{sum r_k step_k} at every mode
    tuple, so a zero sum is dropped.  Every operator moves a path along
    its entries (`x_entries`, `pair_entries`, `h_entries`, `k_entries`,
    `q_entries`; all but the first return to their own node, so they
    never leave the window).  hazards holds (node, ((steps, coeff),
    ...)): the paths that reached a node whose edge for the next x
    operator leaves the window; they go no further (where their sum
    vanishes, so would their continuations).  A shape whose suffix (the
    shape without its leftmost operator) has no path shares its
    suffix's value: it has no path either, and the suffix's hazards.

    memo is the vector's list of these values indexed by shape id
    (`_vector_memo`), made after the shape was interned; a shape is
    expanded from its suffix."""
    got = memo[sid]
    if got is not None:
        return got
    method, args, windowed, suffix, _ = _SHAPE_OPS[sid]
    got = memo[suffix] or _paths(mod, suffix, memo)
    paths, hazards = got
    if not paths:
        memo[sid] = got
        return got
    one = mod.one
    entries_of = getattr(mod, method)
    new = {}
    leaving = {}
    for (node, steps), c in paths.items():
        entries = entries_of(*args, node)
        if windowed and any(dst is None for dst, _, _ in entries):
            leaving.setdefault(node, []).append((steps, c))
            continue
        for dst, step, c0 in entries:
            key = (dst, steps + (step,))
            cc = c if c0 is one else c0 if c is one else c * c0
            s = new.get(key)
            new[key] = cc if s is None else s + cc
    hazards += tuple((node, tuple(group)) for node, group in leaving.items())
    got = memo[sid] = ({k: c for k, c in new.items() if not c.is_zero()},
                       hazards)
    return got


def _node_terms(mod, template: tuple, memo: list):
    """One template (`_shapes` of `_table`) on the memo's basis vector,
    over one common denominator D (the ring's `clear_denominators`):
    returns (D, terms, hazards).  Only the path coefficients are
    cleared, no ring product is formed: each cleared numerator is
    multiplied by its term's integer scalar in `_collect`.  A path
    through steps s_k contributes q^e with e = sum s_k (consts[k] +
    cols[.][k] . v) at the modes v: the constant part is folded into the
    integer numerator of scalar * coefficient * D, and the rest is v . w
    with w_j = sum s_k cols[j][k], w reduced by the ring (`mode_weight`:
    mod N at a root of unity).  terms holds (target, numerator, w),
    numerator a term tuple ((exponent, int), ...), summed over the paths
    with equal (target, w) and dropped where the ring says the sum
    vanishes (`_collect`); hazards holds (node, entries), entries in the
    same form with node as target, or None for a single path, which
    never cancels, and leaves out the hazards whose paths cancel at all
    modes.  A term with scalar zero keeps its hazards."""
    slots, values, hazard_slots, hazard_values = [], [], [], []
    for scalar, sid, consts, cols in template:
        paths, hz = _paths(mod, sid, memo)
        for node, group in hz:
            if len(group) == 1:
                hazard_slots.append((node, None))
            else:
                hazard_slots.append((node, [_affine(consts, cols, steps)
                                            for steps, _ in group]))
                hazard_values.extend(c for _, c in group)
        if scalar:
            for (target, steps), c in paths.items():
                slots.append((target, scalar, _affine(consts, cols, steps)))
                values.append(c)
    den, nums = mod.one.clear_denominators(values + hazard_values)
    nums = iter(nums)
    terms = _collect(((target, scalar, next(nums), form)
                      for target, scalar, form in slots), mod.one)
    hazards = []
    for node, group in hazard_slots:
        if group is not None:
            group = _collect(((node, _UNIT, next(nums), form)
                              for form in group), mod.one)
            if not group:
                continue
        hazards.append((node, group))
    return den, terms, hazards


def _affine(consts: tuple, cols: tuple, steps: tuple):
    """(shift, w): the exponent sum_k steps[k] * mode_k of a path as its
    constant and its coefficients of the modes."""
    return (sum(map(mul, consts, steps)),
            tuple(sum(map(mul, col, steps)) for col in cols))


_UNIT = ((0, 1),)       # the integer term tuple of the scalar 1


def _collect(items, ring) -> list:
    """(target, scalar, numerator, (shift, w)) items as (target,
    numerator, w), scalar and numerator integer term tuples: w reduced
    by the ring (`mode_weight`), numerators multiplied by the scalar and
    by q^shift, exponent by exponent, and summed per (target, w), and a
    sum dropped where the ring says it vanishes (`counts_vanish`).  The
    products are exact in either ring: at a root of unity the counters'
    exponents fold mod N and reduce mod Phi_N (`counts_vanish`), so a
    scalar that vanishes there drops out in the fold.  At any modes v
    the items of one group share the power q^{v . w} in the ring, so a
    dropped group adds zero to every instance's residual."""
    acc = {}
    reduce = ring.mode_weight
    for target, scalar, num, (shift, w) in items:
        key = (target, reduce(w))
        cs = acc.get(key)
        if cs is None:
            cs = acc[key] = {}
        for s, a in scalar:
            s += shift
            for k, c in num:
                k += s
                cs[k] = cs.get(k, 0) + a * c
    out = []
    vanish = ring.counts_vanish
    for (target, w), cs in acc.items():
        num = tuple((k, c) for k, c in cs.items() if c)
        if num and not vanish({(target, k): c for k, c in num}):
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
    its table in `relation_terms`: for h-x, (q - q^-1) m times the
    relation as written, and for h-h (q - q^-1)^2 m1 m2 times.  Generic
    modules only: a module at a root of unity raises TypeError (check it
    with `unity.relation_check_eps`)."""
    if not isinstance(mod, LoopModule):
        raise TypeError(f"relation_residual needs a generic LoopModule, not "
                        f"{type(mod).__name__}; use unity.relation_check_eps")
    key, v = _split(spec)
    template = _table(mod.rs, key)
    den, terms, hazards = _node_terms(mod, template,
                                      _vector_memo(idx, mod.one))
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
    (key, modes) of the one run generator `_runs`, fed the generic mode
    table: key is the relation id followed by its parameters, each mode
    parameter by its bare name (as `_split` forms it), and modes the
    tuple of the mode-value tuples of the run's instances.  h-x has one
    run per (i, j, sign), its modes (m, r) m-major, so its instances
    come in the order (i, j, sign, m, r); h-h has one run per
    (i, j >= i), with the one mode tuple (m1, m2) = (1, -1);
    x-commute-distant has one run per distant pair j > i.  An id
    outside RELATION_IDS, rmax < 0 or hmax < 1 raises ValueError at the
    call, before any run is asked for."""
    ids = RELATION_IDS if include is None else tuple(include)
    unknown = [r for r in ids if r not in RELATION_IDS]
    if unknown:
        raise ValueError(f"unknown relation id {unknown[0]!r}; "
                         f"expected one of {', '.join(RELATION_IDS)}")
    if rmax < 0 or hmax < 1:
        raise ValueError(f"need rmax >= 0 and hmax >= 1, not rmax={rmax}, "
                         f"hmax={hmax}")
    rr = range(-rmax, rmax + 1)
    mm = [m for m in range(-hmax, hmax + 1) if m]
    pairs = tuple(product(rr, rr))
    modes = {"k-conjugation": ((-1,), (0,), (1,)),
             "h-h": ((1, -1),),
             "h-x": tuple(product(mm, rr)),
             "x-plus-minus": pairs,
             "x-quadratic": pairs,
             "serre-cubic": tuple(v for v in product(rr, rr, rr)
                                  if v[0] <= v[1]),
             "x-commute-distant": pairs}
    return _runs(rs, {rid: modes[rid] for rid in ids}, lt)


def _runs(rs: RootSystem, modes: dict, distant):
    """The one loop nest over relation families, shared by the generic
    suite (`relation_runs`) and the checks at eps (`unity._eps_runs`):
    for each id of RELATION_IDS that `modes` maps to its mode tuples, in
    that order, one run (key, modes[id]) per node pair and sign.
    x-commute-distant takes the ordered pairs (i, j) with a_ij = 0 that
    distant(i, j) picks."""
    I, signs = rs.nodes, (1, -1)
    nodes = {  # id -> its (i, j, sign) triples, sign None where it has none
        "k-conjugation": product(I, I, signs),
        "h-h": ((i, j, None) for i, j in product(I, I) if j >= i),
        "h-x": product(I, I, signs),
        "x-plus-minus": ((i, j, None) for i, j in product(I, I)),
        "x-quadratic": ((i, j, sign) for sign, i, j in product(signs, I, I)),
        "serre-cubic": ((i, j, sign) for sign, i in product(signs, I)
                        for j in (rs.mod(i - 1), rs.mod(i + 1))),
        "x-commute-distant": ((i, j, sign)
                              for sign, i, j in product(signs, I, I)
                              if distant(i, j) and rs.cartan(i, j) == 0),
    }
    for rid in RELATION_IDS:
        if rid in modes:
            for i, j, sign in nodes[rid]:
                tail = () if sign is None else (("sign", sign),)
                yield ((rid, ("i", i), ("j", j), *MODE_PARAMS[rid], *tail),
                       modes[rid])


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
    """The verdicts of one relation run.  proved counts the (run,
    vector) pairs proved at every mode without evaluating an instance
    (the runner's dead and nothing-left pairs); it stays out of
    `to_json`, whose payload is the command-line contract."""
    checked: int = 0
    inconclusive: int = 0
    failures: list = field(default_factory=list)
    by_relation: dict = field(default_factory=dict)
    proved: int = 0

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
    instances leaving the window count as inconclusive.

    Each run's relation is tabled with its modes as affine symbols and
    its scalars as integer term tuples (`_table`), a table built once
    per (rank, key) and shared by every module and ring of that rank.
    A run keeps its distinct word shapes as ids (`_intern`) and its
    gate: the set of the shapes' first applied x operators, or None
    when some shape has no x operator.
    The loop is node-major: each basis vector gets one memo, a list
    indexed by shape id and shared by every run, so a word shape is
    expanded into paths (`_paths`) once per vector however many runs
    contain it, every operator moving along its entries; a memo entry
    depends only on the vector and the shape, never on the run.  Per
    vector the live x operators are those with any entry there, one
    leaving the window included.  A run whose gate holds no live
    operator is dead on the vector: the diagonal operators applied
    before a shape's first x operator stay on the vector and make no
    hazard, so no shape has a path or a hazard.  A (run, vector) pair
    the gate lets through is dead too where none of its shapes has a
    path or a hazard.  A dead run is zero on the vector at every mode,
    so its instances are counted as checked without building its terms.
    Otherwise the path coefficients are cleared of denominators,
    multiplied by the integer scalars and summed per target and mode
    weight w, w reduced by the ring (mod N at a root of unity), and the
    sums that vanish in the ring are dropped (`_node_terms`).  Where
    nothing is left, the whole run is zero on that vector too, at every
    mode.  Dead and nothing-left pairs are counted in `proved`.
    Otherwise an instance with modes v only adds integers into counters
    keyed by target and q-exponent, shifted by v . w (`_residual`).  No
    RelationSpec is built per instance: `_join` makes one per run, with
    symbolic modes, and one per failure, to name it.  Failures are
    listed instance by instance (run order, then mode order), nodes in
    the given order."""
    ring = mod.one
    tabled = []
    for key, modes in runs:
        template = _table(mod.rs, key)
        sids = tuple(dict.fromkeys(sid for _, sid, _, _ in template))
        firsts = {_SHAPE_OPS[sid][4] for sid in sids}
        tabled.append((key, modes, template, sids,
                       None if None in firsts else firsts))
    xops = [(sign, i) for sign in (1, -1) for i in mod.rs.nodes]
    checked = [0] * len(tabled)
    report = SuiteReport()
    failures = []
    for npos, idx in enumerate(idxs):
        live = {op for op in xops if mod.x_entries(*op, idx)}
        memo = _vector_memo(idx, ring)
        for rpos, (key, modes, template, sids, gate) in enumerate(tabled):
            terms = hazards = ()
            if gate is None or not live.isdisjoint(gate):
                for sid in sids:
                    paths, hazards = memo[sid] or _paths(mod, sid, memo)
                    if paths or hazards:
                        _, terms, hazards = _node_terms(mod, template, memo)
                        break
            if not terms and not hazards:
                checked[rpos] += len(modes)
                report.proved += 1
                continue
            for k, v in enumerate(modes):
                if hazards and _window_exit(hazards, v, ring) is not None:
                    report.inconclusive += 1
                    continue
                checked[rpos] += 1
                if not ring.counts_vanish(_residual(terms, v)):
                    failures.append((rpos, k, npos, key, v, idx))
    for (key, *_), count in zip(tabled, checked):
        if count:
            rid = key[0]
            report.checked += count
            report.by_relation[rid] = report.by_relation.get(rid, 0) + count
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
    return _reflection_walk(mod.rs, m, depth, step)
