"""The quantum toroidal defining relations and their one checker, for
the loop weight modules over Q(q) (`torep`) and their specializations
at a root of unity (`unity`).

Each defining relation is written once, as a term table: a tuple of
(scalar, word) terms whose sum must act by zero (`relation_terms`).
Every scalar of a table is a Laurent polynomial with integer
coefficients, kept as its integer term tuple whatever the module's
ring, and a table depends only on the rank and the relation key, so it
is built once per pair (`_table`) for every module and ring of that
rank.  The instances come as runs from one run generator (`_runs`), fed
the generic mode table (`relation_runs`) or the one at a root of unity
(`eps_runs`): a key, the relation id with its non-mode parameters, and
the mode tuples v of its instances; an instance becomes a RelationSpec
only to name a failure.  `relation_residual` and the runner `run_suite`
evaluate the tables through one mode-factored evaluator.

A module offers the operator entries of `torep.XAction`: x^{+-}_{i,r}
acts on an edge by c0 q^{r step} (eps^{r step} at a root of unity), and
so do the diagonal operators ("pair", "h", "k" and the scalar "q"), by
edges back to the vector itself with constant steps.  So the paths a
word takes through the basis do not depend on the mode indices.

The diagonal operators commute: on an l-weight basis each acts on a
basis vector by a scalar, and `_paths` refuses an entry of one that
leaves its vector.  So each table is put in normal form once
(`_commute_diagonal`): every maximal run of adjacent diagonal operators
in a word is sorted, the scalars of words then equal are summed, and
zero sums are dropped.  Every h-h table is empty, so [h_{i,m1},
h_{j,m2}] = 0 is proved by its table without reading the module, and
at a_ij = 0 the two q^0 terms of h-x cancel; no other table changes.

The runner tables each run's relation once, passing its modes
(`MODE_PARAMS`) to `relation_terms` as affine symbols (`Mode`), so that
each operator's mode is a form const + c . v in the mode values v.  A
word shape (the word with its modes removed) is interned as an integer
id (`_intern`).  The loop is node-major: each basis vector gets one
memo, indexed by shape id and shared by every run, in which each shape
is expanded once into paths (target, coefficient, steps), suffixes
shared (`_paths`).  A path's exponent sum_k step_k mode_k is a
constant, folded into its numerator, plus v . w for a weight vector w.
The path coefficients of a template are brought over one nonzero common
denominator D per basis vector (the ring's `clear_denominators`),
multiplied by the integer scalars and summed per (target, w), w reduced
by the ring (`mode_weight`: kept in Q(q), taken mod N at a root of
unity, where q^{v . w} only depends on v . w mod N); a sum the ring
says vanishes (`counts_vanish`) is dropped (`_node_terms`, `_collect`).
An instance does no ring arithmetic: it adds those ints into counters
{(target, exponent): int}, the exponent shifted by v . w (`_residual`),
and the ring decides whether the counters vanish.  As D is nonzero, a
residual is zero exactly when its cleared form is.

Where no (target, w) sum is left, the relation holds at every v, and the
runner counts the run's instances without evaluating them one by one.
Where no word shape of the run has a path or a hazard on the vector, it
does so before building any term, and where no first applied x operator
of the run's shapes has an entry at the vector (one leaving the window
included), before looking at a shape: the diagonal operators applied
before a shape's first x operator stay on the vector and make no
hazard.  `SuiteReport.proved` counts these (run, vector) pairs.

Window rule: where a path reaches a node whose edge for the next x
operator leaves the window, the paths into that node form a hazard, and
an instance is inconclusive iff some hazard's sum at its modes is
nonzero.  This is exactly when applying the word operator by operator
(`act_x`, which drops cancelled entries before reading their edges)
raises WindowError.  A module at a root of unity has no window edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import add, lt, mul, ne

from .crystal import WindowError
from .lattice import RootSystem
from .qcoeff import RQ_ONE, LaurentPoly, RationalQ, qint


@dataclass(frozen=True)
class RelationSpec:
    rid: str
    params: tuple

    def as_dict(self):
        return {"relation": self.rid, "params": dict(self.params)}


_RQ_MONE = -RQ_ONE
_RQ_MINUS_QINT2 = -RationalQ(qint(2))


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
# operators, which `run_suite` passes to `relation_terms` as Modes.
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
    v_k, each scalar as its integer term tuple (`_int_terms`), the
    diagonal operators commuted (`_commute_diagonal`) and each word
    shape as its id in the shape registry (`_intern`).  The
    table reads only the Cartan data of the rank, never the parity or a
    module's ring."""
    got = _TEMPLATES.get((rs.n, key))
    if got is None:
        n = sum(isinstance(p, str) for p in key[1:])
        symbols = [Mode(0, tuple(int(j == k) for j in range(n)))
                   for k in range(n)]
        terms = relation_terms(rs, _join(key, symbols))
        got = _TEMPLATES[(rs.n, key)] = _shapes(_commute_diagonal(
            ((_int_terms(s), word) for s, word in terms), n), n)
    return got


def _commute_diagonal(terms, n: int) -> tuple:
    """A table's terms (scalar, word), scalars integer term tuples and
    modes affine in n mode values, in normal form: each maximal run of
    adjacent diagonal operators (all but x, as in `_paths`) sorted on
    the operator without its mode, then the mode's (const, coeffs); the
    scalars of words now equal summed; zero sums dropped;
    first-occurrence order kept (the module docstring says why this is
    sound)."""
    def form(op):
        m = op[-1]
        return op[:-1], ((m.const, m.coeffs) if isinstance(m, Mode)
                         else (m, (0,) * n))

    merged = {}
    for scalar, word in terms:
        out, run = [], []
        for op in word:
            if op[0] != "x":
                run.append(op)
            else:
                out += sorted(run, key=form)
                out.append(op)
                run = []
        word = (*out, *sorted(run, key=form))
        slot = merged.setdefault(tuple(map(form, word)), (word, {}))[1]
        for e, c in scalar:
            slot[e] = slot.get(e, 0) + c
    return tuple((tuple(sorted((e, c) for e, c in acc.items() if c)), word)
                 for word, acc in merged.values() if any(acc.values()))


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
    never leave the window, and an entry of one of these diagonal
    operators to another node raises ValueError: the tables commute
    them, `_commute_diagonal`).  hazards holds (node, ((steps, coeff),
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
        if windowed:
            if any(dst is None for dst, _, _ in entries):
                leaving.setdefault(node, []).append((steps, c))
                continue
        elif any(dst != node for dst, _, _ in entries):
            raise ValueError(
                f"diagonal operator {(method[:-len('_entries')], *args)} "
                f"has an entry leaving node {mod.node(node)}")
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
    modes."""
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


def relation_residual(mod, spec: RelationSpec, idx: int) -> dict:
    """Left side minus right side of one defining relation applied to a
    basis vector; the contract is the empty (zero) vector.  Raises
    WindowError when an intermediate leaves the window.  The relation is
    its table in `relation_terms`: for h-x, (q - q^-1) m times the
    relation as written, and for h-h (q - q^-1)^2 m1 m2 times, zero by
    its empty table (`_commute_diagonal`).  Generic
    modules only: a module at a root of unity raises TypeError (check it
    with `unity.relation_check_eps`)."""
    if not isinstance(mod.one, RationalQ):
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


def eps_runs(rs: RootSystem, rmax: int, serre_rmax: int):
    """The relation instances checked at a root of unity
    (`unity.relation_check_eps`) as runs (key, modes), keys and
    parameters as in `relation_runs`: the eps mode table, run through
    `_runs` with both orders of each distant pair.  h-h is not in the
    table."""
    rr = range(rmax + 1)
    rser = range(min(serre_rmax, rmax) + 1)
    pairs = tuple(product(rr, rr))
    return _runs(rs, {
        "k-conjugation": ((0,), (1,)),
        "h-x": tuple(product((1, -1, 2, -2), (0, 1))),
        "x-plus-minus": pairs,
        "x-quadratic": pairs,
        "serre-cubic": tuple(v for v in product(rser, rser, rser)
                             if v[0] <= v[1]),
        "x-commute-distant": pairs}, ne)


def _runs(rs: RootSystem, modes: dict, distant):
    """The one loop nest over relation families, shared by the generic
    suite (`relation_runs`) and the checks at eps (`eps_runs`):
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


def run_suite(mod, runs, idxs) -> SuiteReport:
    """Evaluate every instance of the runs (key, modes) on every basis
    vector in idxs, as the module docstring describes: any nonzero
    residual is recorded as a failure, instances leaving the window
    count as inconclusive.  Failures are listed instance by instance
    (run order, then mode order), nodes in the given order."""
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
