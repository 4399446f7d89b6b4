from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb

import pytest

from torcrys import torep
from torcrys.closedness import fundamental_anchor
from torcrys.crystal import WindowError, sub_crystal
from torcrys.lattice import RootSystem
from torcrys.qcoeff import (RQ_ONE, CycloElem, LaurentPoly, RationalQ,
                            eval_cyclotomic, qint, series_of_rational)
from torcrys.torep import (ClosednessRefusal, LoopModule, RelationSpec,
                           SuiteReport, build_doubled, build_thin,
                           fr_consistency_report, fr_phi_series,
                           relation_instances, relation_residual,
                           relation_terms, run_relation_suite,
                           verify_extremal_vector)
from torcrys.torep import _specs
from torcrys.unity import (SpecializedModule, _eps_runs, relation_check_eps,
                           specialize_doubled, specialize_thin)


def unit(mod, name):
    idx = next(k for k, m in enumerate(mod.graph.nodes) if str(m) == name)
    return idx, {idx: RQ_ONE}


def test_build_thin_refusal():
    with pytest.raises(ClosednessRefusal) as exc:
        build_thin(5, 2, (-12, 12))
    assert exc.value.witness is not None
    with pytest.raises(ClosednessRefusal):
        build_thin(7, 5, (-16, 16))


def test_qcharacter_periods(thin_3_1, thin_3_2):
    per0 = sorted(str(m) for m in thin_3_1.qcharacter() if m.weight.delta == 0)
    assert per0 == ["Y(0,1)^-1*Y(1,0)", "Y(0,3)*Y(3,4)^-1",
                    "Y(1,2)^-1*Y(2,1)", "Y(2,3)^-1*Y(3,2)"]
    per2 = sorted(str(m) for m in thin_3_2.qcharacter() if m.weight.delta == 0)
    assert per2 == ["Y(0,2)*Y(1,3)^-1*Y(2,2)*Y(3,3)^-1", "Y(0,2)*Y(2,4)^-1",
                    "Y(0,2)^-1*Y(1,1)*Y(2,2)^-1*Y(3,1)", "Y(0,2)^-1*Y(2,0)",
                    "Y(1,1)*Y(3,3)^-1", "Y(1,3)^-1*Y(3,1)"]


def test_act_x_examples(thin_3_1):
    mod = thin_3_1
    i0, v0 = unit(mod, "Y(0,1)^-1*Y(1,0)")
    out = mod.act_x(-1, 1, 0, v0)
    assert {str(mod.node(k)): str(c) for k, c in out.items()} == \
        {"Y(1,2)^-1*Y(2,1)": "1"}
    i1, v1 = unit(mod, "Y(1,2)^-1*Y(2,1)")
    out = mod.act_x(1, 1, 1, v1)
    assert {str(mod.node(k)): str(c) for k, c in out.items()} == \
        {"Y(0,1)^-1*Y(1,0)": "q"}
    # zero when eps vanishes
    assert mod.act_x(1, 1, 0, v0) == {}


def test_act_phi_series_examples(thin_3_1):
    mod = thin_3_1
    i0, _ = unit(mod, "Y(0,1)^-1*Y(1,0)")
    s = mod.phi_series(i0, 1, 1, 4)
    # q + (q - q^-1) sum_s q^s z^s, i.e. the expansion of q(1-zq^-1)/(1-zq)
    closed = series_of_rational(
        {0: RationalQ.q_power(1), 1: -RQ_ONE},
        {0: RQ_ONE, 1: -RationalQ.q_power(1)}, 1, 4)
    assert s == closed
    # trivial row: the series is 1
    assert all(
        mod.phi_series(i0, 2, 1, 3).coeff(k) == (RQ_ONE if k == 0 else RationalQ.from_int(0))
        for k in range(4))
    i1, _ = unit(mod, "Y(1,2)^-1*Y(2,1)")
    s = mod.phi_series(i1, 1, 1, 3)
    assert s.coeff(0) == RationalQ.q_power(-1)
    for k in (1, 2, 3):
        assert s.coeff(k) == -RationalQ(LaurentPoly({k + 1: 1, k - 1: -1}))


def _h_on(mod, i, m, vec):
    """h_{i,m} applied to vec by the series_log oracle `h_eigenvalue`."""
    return _diagonal(vec, lambda idx: mod.h_eigenvalue(idx, i, m))


def _h_sum(mod, i, idx, m):
    """sum c q^{m step} over the h entries of (i, idx): m h_{i,m}."""
    out = RationalQ.from_int(0)
    for _, step, c in mod.h_entries(i, idx):
        out = out + c.mul_qpow(m * step)
    return out


def test_act_h_examples(thin_3_1):
    mod = thin_3_1
    i0, v0 = unit(mod, "Y(0,1)^-1*Y(1,0)")
    assert mod.h_eigenvalue(i0, 1, 1) == RQ_ONE
    assert mod.h_eigenvalue(i0, 2, 1).is_zero()
    assert _h_on(mod, 1, 1, v0) == {i0: RQ_ONE}
    # h_{1,1} = q^2/(q - q^-1) - 1/(q - q^-1) over the edges of Y(1,0),
    # back to the vector itself; row 2 is empty, so h_{2,m} has none
    assert [(dst, step) for dst, step, _ in mod.h_entries(1, i0)] == \
        [(i0, 1), (i0, -1)]
    assert _h_sum(mod, 1, i0, 1) == RQ_ONE
    assert mod.h_entries(2, i0) == ()
    # commutator [h_{1,1}, x+_{1,0}] = [2]_q x+_{1,1} on the chain node
    i1, v1 = unit(mod, "Y(1,2)^-1*Y(2,1)")
    lhs1 = _h_on(mod, 1, 1, mod.act_x(1, 1, 0, v1))
    lhs2 = mod.act_x(1, 1, 0, _h_on(mod, 1, 1, v1))
    rhs = mod.act_x(1, 1, 1, v1)
    (k1, a), = lhs1.items()
    b = lhs2.get(k1, RationalQ.from_int(0))
    (k2, c), = rhs.items()
    assert k1 == k2
    assert a - b == RationalQ(qint(2)) * c


def test_divided_power(thin_3_1):
    mod = thin_3_1
    i0, v0 = unit(mod, "Y(0,1)^-1*Y(1,0)")
    assert mod.divided_power_x(-1, 1, 0, v0) == v0
    assert mod.divided_power_x(-1, 1, 1, v0) == mod.act_x(-1, 1, 0, v0)


def test_relation_residual_examples(thin_3_1):
    mod = thin_3_1
    i0, v0 = unit(mod, "Y(0,1)^-1*Y(1,0)")
    # [x+_{1,1}, x-_{1,0}] acts by q = phi+_{1,1}/(q-q^-1) on v_{M_0}
    spec = RelationSpec("x-plus-minus", (("i", 1), ("j", 1), ("r", 1), ("rp", 0)))
    assert relation_residual(mod, spec, i0) == {}
    assert mod.pairing_value(i0, 1, 1) == RationalQ.q_power(1)
    # distant commutation [x+_{1,r}, x-_{3,rp}] = 0
    spec = RelationSpec("x-plus-minus", (("i", 1), ("j", 3), ("r", 2), ("rp", -1)))
    assert relation_residual(mod, spec, i0) == {}


def test_window_error_on_boundary(thin_3_1):
    mod = thin_3_1
    # a boundary node cannot evaluate a full relation neighborhood
    boundary = [k for k, f in enumerate(mod.graph.interior) if not f][0]
    with pytest.raises(WindowError):
        for i in mod.rs.nodes:
            mod.act_x(-1, i, 0, {boundary: RQ_ONE})
            mod.act_x(1, i, 0, {boundary: RQ_ONE})


def test_fr_consistency(thin_3_1, thin_3_2):
    assert fr_consistency_report(thin_3_1, order=6) == []
    assert fr_consistency_report(thin_3_2, order=6) == []


def test_fr_phi_series_standalone():
    # Y_{1,0}: q(1-zq^-1)/(1-zq) in both directions
    plus = fr_phi_series({0: 1}, 1, 3)
    assert plus.coeff(0) == RationalQ.q_power(1)
    minus = fr_phi_series({0: 1}, -1, 3)
    assert minus.coeff(0) == RationalQ.q_power(-1)


def test_vertical_decomposition(thin_3_1, thin_3_2):
    # restriction to each direction j splits the node set into components
    # of size C(n+1, ell) (windowed: interior components only)
    for mod, ell in ((thin_3_1, 1), (thin_3_2, 2)):
        rs = mod.rs
        g = mod.graph
        for j in rs.nodes:
            J = [i for i in rs.nodes if i != j]
            seen = set()
            for m in g.nodes:
                if m in seen:
                    continue
                sc = sub_crystal(g, m, J)
                if all(sc.interior):
                    assert len(sc) == comb(4, ell), (ell, j)
                seen.update(sc.nodes)


def test_weight_spaces_dimension_one(thin_3_1, thin_3_2):
    for mod in (thin_3_1, thin_3_2):
        weights = [m.weight for m in mod.graph.nodes]
        assert len(set(weights)) == len(weights)


def test_extremal_vector(thin_3_1):
    mod = thin_3_1
    anchor = fundamental_anchor(mod.rs, 1)
    rep = verify_extremal_vector(mod, anchor, 5)
    assert rep.verdict == "extremal"
    assert mod.rs.varpi(1) in [m.weight for m in rep.orbit]


def test_spectral_twist(thin_3_1):
    mod = thin_3_1
    tw = mod.twisted(2)
    i0, v0 = unit(mod, "Y(0,1)^-1*Y(1,0)")
    base = mod.act_x(-1, 1, 1, v0)
    twisted = tw.act_x(-1, 1, 1, v0)
    (k1, a), = base.items()
    (k2, b), = twisted.items()
    assert k1 == k2 and b == a.mul_qpow(2)
    # relations are stable under the twist
    r = run_relation_suite(tw, rmax=1, hmax=1,
                           nodes=tw.graph.interior_indices()[:6])
    assert r.ok


def test_suite_smoke_n5():
    mod = build_thin(5, 3, (-14, 14))
    interior = mod.graph.interior_indices()
    r = run_relation_suite(mod, rmax=1, hmax=1, nodes=interior[:10])
    assert r.ok and not r.failures
    assert fr_consistency_report(mod, order=4, nodes=interior[:10]) == []


def test_suite_report_json(thin_3_1):
    r = run_relation_suite(thin_3_1, rmax=1, hmax=1,
                           nodes=thin_3_1.graph.interior_indices()[:4])
    data = r.to_json()
    assert data["all_residuals_zero"] is True
    assert data["checked"] == r.checked
    assert set(data["by_relation"]) <= {
        "k-conjugation", "h-h", "h-x", "x-plus-minus", "x-quadratic",
        "serre-cubic", "x-commute-distant"}


def test_unknown_relation_id_is_rejected(thin_3_1):
    with pytest.raises(ValueError, match="unknown relation id 'foo'"):
        run_relation_suite(thin_3_1, rmax=1, hmax=1, include=["h-h", "foo"])


# ---------------------------------------------------------------------------
# run_relation_suite against a memo-free reference
# ---------------------------------------------------------------------------

def _h_oracle(mod, idx, i, m):
    """h_{i,m} on a basis vector by the formal logarithm (`series_h`):
    `h_eigenvalue` on a generic module; at eps, the same on the rational
    form of the representative row, mapped by eval_cyclotomic."""
    if isinstance(mod, LoopModule):
        return mod.h_eigenvalue(idx, i, m)
    series = fr_phi_series(mod.rows[idx][i], 1 if m > 0 else -1, abs(m))
    return eval_cyclotomic(torep.series_h(series), mod.N)


def _m_h_values(mod):
    """(idx, i, m) -> m h_{i,m} on the basis vector by `_h_oracle`,
    memoised for this one module: the operator ("h", i, m)."""
    @lru_cache(maxsize=None)
    def value(idx, i, m):
        val = _h_oracle(mod, idx, i, m)
        out = val
        for _ in range(abs(m) - 1):
            out = out + val
        return out if m > 0 else -out
    return value


def _diagonal(vec, value):
    out = {}
    for idx, c in vec.items():
        val = value(idx)
        if not val.is_zero():
            out[idx] = c * val
    return out


def _apply(mod, op, vec, m_h):
    kind, *args = op
    if kind == "x":
        return mod.act_x(*args, vec)
    if kind == "h":
        i, m = args
        return _diagonal(vec, lambda idx: m_h(idx, i, m))
    if kind == "q":
        a, m = args
        return {idx: c.mul_qpow(a * m) for idx, c in vec.items()}
    if kind == "k":
        hvec, m = args
        return mod.act_k(tuple(m * h for h in hvec), vec)
    if kind == "pair":
        i, t = args
        return _diagonal(vec, lambda idx: mod.pairing_value(idx, i, t))
    raise ValueError(f"unknown operator {op}")


def reference_residual(mod, terms, idx, one, m_h):
    """Sum of scalar * word on one basis vector, each word applied
    operator by operator to the unit vector `one`, with no word memo;
    m_h gives the values of the h operators (`_m_h_values`).  Raises
    WindowError when some word leaves the window."""
    res = {}
    for s, word in terms:
        vec = {idx: one}
        for op in reversed(word):
            if not vec:
                break
            vec = _apply(mod, op, vec, m_h)
        for k, v in vec.items():
            v = s * v
            res[k] = res[k] + v if k in res else v
    return res


def reference_suite(mod, specs, scalar=lambda s: s):
    """Every spec on every node, spec-major, through
    `reference_residual`; `scalar` maps the tables' RationalQ scalars
    into the module's ring."""
    report = SuiteReport()
    m_h = _m_h_values(mod)
    for spec in specs:
        terms = [(scalar(s), word) for s, word in relation_terms(mod.rs, spec)]
        for idx in range(len(mod)):
            try:
                res = reference_residual(mod, terms, idx, scalar(RQ_ONE), m_h)
            except WindowError:
                report.inconclusive += 1
                continue
            report.checked += 1
            report.by_relation[spec.rid] = report.by_relation.get(spec.rid, 0) + 1
            if any(not v.is_zero() for v in res.values()):
                report.failures.append((spec, mod.node(idx)))
    return report


def _summary(r):
    return r.checked, r.inconclusive, r.by_relation, r.failures


def _step_shifted(mod):
    """Copy with one interior edge's step position shifted by 2."""
    i = 1
    src = next(idx for idx in mod.graph.interior_indices()
               if mod.minus_edges[i][idx])
    table = list(mod.minus_edges[i])
    (dst, l, c0), *rest = table[src]
    table[src] = ((dst, l + 2, c0), *rest)
    return LoopModule(mod.rs, mod.graph, mod.flavor,
                      {**mod.minus_edges, i: table}, dict(mod.plus_edges),
                      mod.twist)


def _branch_perturbed(mod):
    """Copy with one branch coefficient of a two-entry action multiplied
    by q."""
    i = 1
    src = next(idx for idx in mod.graph.interior_indices()
               if len(mod.minus_edges[i][idx]) == 2)
    table = list(mod.minus_edges[i])
    (dst, l, c0), *rest = table[src]
    table[src] = ((dst, l, c0.mul_qpow(1)), *rest)
    return LoopModule(mod.rs, mod.graph, mod.flavor,
                      {**mod.minus_edges, i: table}, dict(mod.plus_edges),
                      mod.twist)


def _leaves_window(mod, idx):
    return any(dst is None for table in (mod.minus_edges, mod.plus_edges)
               for entries in table.values() for dst, _, _ in entries[idx])


def _hazard_cancelling(mod):
    """Copy in which an interior node src has two x^-_i edges whose
    continuations x^-_i x^-_i meet at one node X through different
    steps, with the two paths' coefficients made opposite, and X's
    x^-_{i+1} edges leaving the window.  X is then reached at some mode
    tuples and not at others.  Returns (module, (i, src, X))."""
    for i in mod.rs.nodes:
        table = mod.minus_edges[i]
        for src in mod.graph.interior_indices():
            if len(table[src]) != 2:
                continue
            (d1, l1, a1), (d2, l2, a2) = table[src]
            if len(table[d1]) != 1 or len(table[d2]) != 1:
                continue
            ((x, m1, b1),), ((x2, m2, b2),) = table[d1], table[d2]
            if x is None or x != x2 or (l1, m1) == (l2, m2):
                continue
            rows = list(table)
            rows[src] = ((d1, l1, -(a2 * b2) / b1), (d2, l2, a2))
            j = mod.rs.mod(i + 1)
            leaving = list(mod.minus_edges[j])
            leaving[x] = (tuple((None, l, c) for _, l, c in leaving[x])
                          or ((None, 0, RQ_ONE),))
            broken = LoopModule(mod.rs, mod.graph, mod.flavor,
                                {**mod.minus_edges, i: rows, j: leaving},
                                dict(mod.plus_edges), mod.twist)
            return broken, (i, src, x)
    raise AssertionError("no node with two x^-_i x^-_i paths to one node")


@pytest.fixture(scope="module")
def broken_modules(thin_3_1, s5_small, coefficient_doubled):
    """name -> (module, the suite under test, reference report): every
    node, boundary nodes included; the specialized modules run the
    root-of-unity check against a reference mapped by eval_cyclotomic."""
    out = {}
    for name, mod, rmax, hmax, include in (
            ("thin_3_1_step_shift", _step_shifted(thin_3_1), 2, 2, None),
            ("doubled_1_branch", _branch_perturbed(s5_small), 1, 1, None),
            ("doubled_1_hazard_cancelling", _hazard_cancelling(s5_small)[0],
             1, 1, ("serre-cubic",))):
        out[name] = (mod, partial(run_relation_suite, mod, rmax=rmax,
                                  hmax=hmax, include=include),
                     reference_suite(mod, relation_instances(
                         mod.rs, rmax=rmax, hmax=hmax, include=include)))
    for name, spec, serre_rmax in (
            ("eps_thin_3_1_1_doubled_coefficient", specialize_thin(3, 1, 1), 2),
            ("eps_doubled_1_doubled_coefficient", specialize_doubled(1), 2)):
        mod = coefficient_doubled(spec)
        rmax = min(mod.N - 1, 3)
        out[name] = (mod, partial(relation_check_eps, mod, rmax, serre_rmax),
                     reference_suite(mod, _specs(_eps_runs(mod.rs, rmax,
                                                           serre_rmax)),
                                     partial(eval_cyclotomic, N=mod.N)))
    return out


def test_suite_matches_memo_free_reference(broken_modules):
    for name, (mod, suite, ref) in broken_modules.items():
        got = suite()
        # only the generic modules have a window to leave
        assert ref.failures, name
        assert ref.inconclusive or not isinstance(mod, LoopModule), name
        assert _summary(got) == _summary(ref), name


def test_hazard_case_cancels_for_some_modes(s5_small):
    # the window-edge node X is left out at equal modes, where the two
    # paths cancel, and reached otherwise: whether a Serre instance
    # leaves the window depends on its modes, not only on its words
    mod, (i, src, x) = _hazard_cancelling(s5_small)
    assert _leaves_window(mod, x)

    def twice(r1, r2):
        return mod.act_x(-1, i, r1, mod.act_x(-1, i, r2, {src: RQ_ONE}))

    assert all(x not in twice(r, r) for r in (-1, 0, 1))
    assert all(x in twice(r1, r2) for r1, r2 in ((0, 1), (1, 0), (-1, 1)))


def test_relation_residual_matches_reference(broken_modules):
    # each spec that fails somewhere on a generic perturbed module, at
    # every node: the same residual under RationalQ ==, or WindowError
    for name in ("thin_3_1_step_shift", "doubled_1_branch",
                 "doubled_1_hazard_cancelling"):
        mod, _, ref = broken_modules[name]
        failing = {(spec, mod.graph.node_index(m)) for spec, m in ref.failures}
        m_h = _m_h_values(mod)
        compared = 0
        for spec in {spec for spec, _ in failing}:
            terms = relation_terms(mod.rs, spec)
            for idx in range(len(mod)):
                try:
                    want = reference_residual(mod, terms, idx, RQ_ONE, m_h)
                except WindowError:
                    with pytest.raises(WindowError):
                        relation_residual(mod, spec, idx)
                    continue
                got = relation_residual(mod, spec, idx)
                want = {k: v for k, v in want.items() if not v.is_zero()}
                assert got.keys() == want.keys(), (name, spec, idx)
                assert all(got[k] == want[k] for k in got), (name, spec, idx)
                compared += bool(got)
        assert compared == len(failing), name


def test_reference_comparison_catches_perturbed_scalar(broken_modules,
                                                       monkeypatch):
    # the runner tables each relation once for all its modes, so the
    # perturbation hits the target's whole (rid, i, j, sign) group
    _, suite, ref = broken_modules["thin_3_1_step_shift"]
    target = RelationSpec("k-conjugation",
                          (("i", 1), ("j", 1), ("r", 0), ("sign", -1)))
    fixed = {"i": 1, "j": 1, "sign": -1}

    def perturbed_terms(rs, spec):
        terms = relation_terms(rs, spec)
        p = dict(spec.params)
        if spec.rid != target.rid or any(p[k] != v for k, v in fixed.items()):
            return terms
        (scalar, word), *rest = terms
        return ((scalar.mul_qpow(1), word), *rest)

    monkeypatch.setattr(torep, "relation_terms", perturbed_terms)
    got = suite()
    assert (got.checked, got.inconclusive, got.by_relation) == \
        (ref.checked, ref.inconclusive, ref.by_relation)
    assert got.failures != ref.failures
    assert any(spec == target for spec, _ in got.failures)


def _template_at(rs, spec):
    """The runner's template for the spec (`_shapes` of its relation's
    symbolic table), each operator's affine mode evaluated at the spec's
    mode values and put back into its word."""
    key, v = torep._split(spec)
    out = []
    for scalar, shape, consts, cols in torep._table(rs, key, lambda s: s):
        modes = [c + sum(col[k] * x for col, x in zip(cols, v))
                 for k, c in enumerate(consts)]
        word = [op + (modes.pop(0),) for op in reversed(shape)]
        out.append((scalar, tuple(reversed(word))))
    return out


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("parity", [0, 1])
def test_symbolic_table_matches_relation_terms(n, parity):
    rs = RootSystem(n, parity=parity)
    specs = [*relation_instances(rs, 3, 2), *_specs(_eps_runs(rs, 7, 7))]
    for spec in specs:
        got, want = _template_at(rs, spec), relation_terms(rs, spec)
        assert len(got) == len(want), spec
        for (s, word), (t, w) in zip(got, want):
            assert s == t and word == w, spec


def test_mode_in_a_scalar_raises(thin_3_1, monkeypatch):
    # a mode is an affine symbol: a scalar built from one cannot pass
    # silently as the value of one spec
    def q_power_r(rs, spec):
        (scalar, word), *rest = relation_terms(rs, spec)
        return ((scalar.mul_qpow(dict(spec.params)["r"]), word), *rest)

    def branch_on_r(rs, spec):
        (scalar, word), *rest = relation_terms(rs, spec)
        r = dict(spec.params)["r"]
        return ((scalar if r == 0 else -scalar, word), *rest)

    spec = RelationSpec("k-conjugation",
                        (("i", 1), ("j", 1), ("r", 0), ("sign", 1)))
    for patched in (q_power_r, branch_on_r):
        monkeypatch.setattr(torep, "relation_terms", patched)
        with pytest.raises(TypeError):
            run_relation_suite(thin_3_1, rmax=1, hmax=1, nodes=[0],
                               include=["k-conjugation"])
        with pytest.raises(TypeError):
            relation_residual(thin_3_1, spec, 0)


# ---------------------------------------------------------------------------
# cleared denominators: integer counters per (target, exponent)
# ---------------------------------------------------------------------------

class _FanModule:
    """x^-_1 maps basis vector 0 along the given entries (dst, step, c0)
    and kills every other vector: the smallest module `_node_terms`
    evaluates."""

    def __init__(self, one, entries):
        self.one = one
        self.entries = tuple(entries)

    def x_entries(self, sign, i, idx):
        return self.entries if idx == 0 else ()


def _fan_counts(mod, r):
    """Cleared counters of x^-_{1,r} on vector 0, with the template's
    common denominator."""
    word = (("x", -1, 1, torep.Mode(0, (1,))),)
    template = torep._shapes(((mod.one, word),), 1)
    den, terms, hazards = torep._node_terms(
        mod, template, {(): ({(0, ()): mod.one}, ())})
    assert not hazards
    return den, torep._residual(terms, (r,))


def _one_minus(k):
    return LaurentPoly({0: 1, k: -1})


def test_cleared_residual_cancels_over_common_denominator():
    # 1/(1-q) - (1+q)/(1-q^2) + (1+q+q^2)/(1-q^3) - 1/(1-q) = 0, which
    # only the common denominator (1-q)(1-q^2)(1-q^3) shows term by term
    coeffs = (RationalQ(LaurentPoly.from_int(1), _one_minus(1)),
              RationalQ(LaurentPoly({0: -1, 1: -1}), _one_minus(2)),
              RationalQ(LaurentPoly({0: 1, 1: 1, 2: 1}), _one_minus(3)),
              RationalQ(LaurentPoly.from_int(-1), _one_minus(1)))
    mod = _FanModule(RQ_ONE, ((1, step, c) for step, c in enumerate(coeffs)))
    den, counts = _fan_counts(mod, 0)
    assert den == _one_minus(1) * _one_minus(2) * _one_minus(3)
    assert all(isinstance(c, int) for c in counts.values())
    assert RQ_ONE.counts_vanish(counts)
    # modes move the paths apart: q^0, q^1, q^2, q^3 no longer cancel
    assert not RQ_ONE.counts_vanish(_fan_counts(mod, 1)[1])
    for k in range(len(coeffs)):
        shifted = list(coeffs)
        shifted[k] = shifted[k].mul_qpow(1)
        mod = _FanModule(RQ_ONE, ((1, step, c)
                                  for step, c in enumerate(shifted)))
        assert not RQ_ONE.counts_vanish(_fan_counts(mod, 0)[1]), k


def test_cleared_residual_vanishes_mod_phi_at_eps():
    # 1 + q^r + q^2r + q^3r = 0 at a primitive 4th root unless 4 | r:
    # the counters stay nonzero, the reduction mod Phi_4 kills them
    N = 4
    one = CycloElem.one(N)
    mod = _FanModule(one, ((1, step, one) for step in range(4)))
    for r in (1, 2, 3, 5, 6, 15, -1, -3, -6):
        den, counts = _fan_counts(mod, r)
        assert den == 1 and any(counts.values())
        assert one.counts_vanish(counts), r
    for r in (0, 4, -8):
        assert not one.counts_vanish(_fan_counts(mod, r)[1]), r
    # q^r - q vanishes exactly for r = 1 mod N, negative r included
    mod = _FanModule(one, ((1, 1, one), (1, 0, -CycloElem.q_power(N, 1))))
    for r in range(-7, 8):
        assert one.counts_vanish(_fan_counts(mod, r)[1]) == (r % N == 1), r
    # rational coefficients 1/2 + 1/3 - 5/6 over their lcm 6, at steps
    # that are multiples of N
    thirds = [CycloElem.from_fraction(N, Fraction(a, b))
              for a, b in ((1, 2), (1, 3), (-5, 6))]
    mod = _FanModule(one, ((1, N * k, c) for k, c in enumerate(thirds)))
    for r in (0, 1, -3, 7):
        den, counts = _fan_counts(mod, r)
        assert den == 6
        assert one.counts_vanish(counts), r
    mod = _FanModule(one, ((1, N * k, c) for k, c in enumerate(thirds[:2])))
    assert not one.counts_vanish(_fan_counts(mod, 1)[1])


# ---------------------------------------------------------------------------
# the pair operator as pole-residue edges
# ---------------------------------------------------------------------------

def _pair_closed_form_misses(mod, idxs, ts):
    """(idx, i, t) where pairing_value differs from the sum of the
    vector's pair entries B_p q^{t s_p}, t None where an entry leaves
    the vector."""
    bad = []
    for idx in idxs:
        for i in mod.rs.nodes:
            entries = mod.pair_entries(i, idx)
            if any(dst != idx for dst, _, _ in entries):
                bad.append((idx, i, None))
            for t in ts:
                rest = mod.pairing_value(idx, i, t)
                for _, s, b in entries:
                    rest = rest - b.mul_qpow(t * s)
                if not rest.is_zero():
                    bad.append((idx, i, t))
    return bad


def test_pair_entries_closed_form(thin_3_1, thin_3_2):
    # the series oracle: phi^{+-} expanded from the crystal statistics
    # (thin) or the rational form (doubled, and every module at eps)
    for mod in (thin_3_1, thin_3_2, build_thin(3, 3, (-12, 16)),
                build_doubled(2, (-14, 14)), thin_3_1.twisted(1)):
        interior = mod.graph.interior_indices()
        assert _pair_closed_form_misses(mod, interior, range(-6, 7)) == []
    for mod in (specialize_thin(3, 1, 2), specialize_thin(3, 2, 2),
                specialize_doubled(1)):
        assert _pair_closed_form_misses(mod, range(len(mod)),
                                        range(-9, 10)) == []


def test_pole_residues_of_a_two_pole_row():
    # Y_{1,0} Y_{1,4}: poles at steps 1 and 5, zeros at -1 and 3, so
    # B_1 = q^2 (1 - q^-2)(1 - q^2) / ((1 - q^4)(q - q^-1)) = q/(1 + q^2)
    # and B_5 = (1 + q^2 + q^4)/(q + q^3), which sum to [2] = q + q^-1
    (s1, b1), (s5, b5) = torep.pole_residues({0: 1, 4: 1}, twist=1)
    assert (s1, s5) == (2, 6)
    assert b1 == RationalQ(LaurentPoly({1: 1}), LaurentPoly({0: 1, 2: 1}))
    assert b5 == RationalQ(LaurentPoly({0: 1, 2: 1, 4: 1}),
                           LaurentPoly({1: 1, 3: 1}))
    # a zero on a pole cancels it: Y_{1,0} Y_{1,2} has the one pole 3
    assert [s for s, _ in torep.pole_residues({0: 1, 2: 1})] == [3]
    # the unit is RQ_ONE itself, so the runner skips its products
    assert torep.pole_residues({0: 1})[0][1] is RQ_ONE


def _first_entry_times_q(mod, kind, i, idx):
    """Multiply the coefficient of the first of mod's `kind` entries
    ("pair", "h" or "k") at (i, idx) by q; for "k", i is the hvec."""
    name = kind + "_entries"
    entries_of = getattr(mod, name)

    def entries(j, k):
        got = entries_of(j, k)
        if (j, k) != (i, idx):
            return got
        (dst, s, c), *rest = got
        return ((dst, s, c.mul_qpow(1)), *rest)
    setattr(mod, name, entries)


def _mutation_case(thin_3_1, ring, family):
    """(module, its basis indices under test, suite): a private copy of
    thin (3,1) with `family`'s generic suite on 12 interior nodes, or of
    specialize_thin(3, 1, 1) with relation_check_eps at rmax 1."""
    if ring == "generic":
        mod = thin_3_1.twisted(0)
        idxs = thin_3_1.graph.interior_indices()[:12]
        return mod, idxs, partial(run_relation_suite, mod, rmax=1, hmax=1,
                                  nodes=idxs, include=[family])
    spec = specialize_thin(3, 1, 1)
    mod = SpecializedModule(spec.rs, spec.N, spec.basis, spec.index,
                            spec.minus_edges, spec.plus_edges, spec.rows)
    return mod, range(len(mod)), partial(relation_check_eps, mod, 1)


@pytest.mark.parametrize("ring", ["generic", "eps"])
def test_scaled_pair_residue_is_reported(thin_3_1, ring):
    i = 1
    mod, idxs, suite = _mutation_case(thin_3_1, ring, "x-plus-minus")
    assert suite().failures == []
    idx = next(k for k in idxs if mod.pair_entries(i, k))
    _first_entry_times_q(mod, "pair", i, idx)
    failures = suite().failures
    assert failures
    for spec, node in failures:
        p = dict(spec.params)
        assert (spec.rid, p["i"], p["j"], node) == \
            ("x-plus-minus", i, i, mod.node(idx))


def _x_predecessors(mod, idxs, idx):
    """The vectors among idxs with an x entry into idx."""
    return {src for src in idxs for sign in (1, -1) for j in mod.rs.nodes
            if any(dst == idx for dst, _, _ in mod.x_entries(sign, j, src))}


@pytest.mark.parametrize("ring", ["generic", "eps"])
def test_scaled_k_entry_is_reported(thin_3_1, ring):
    # k_h at idx enters k-conjugation at idx, and at every vector with an
    # x edge into idx; no other relation holds a k
    i = 1
    mod, idxs, suite = _mutation_case(thin_3_1, ring, "k-conjugation")
    assert suite().failures == []
    hvec = tuple(int(k == i) for k in mod.rs.nodes)
    idx = next(k for k in idxs if _x_predecessors(mod, idxs, k))
    _first_entry_times_q(mod, "k", hvec, idx)
    failures = suite().failures
    assert {node for _, node in failures} == \
        {mod.node(k) for k in _x_predecessors(mod, idxs, idx) | {idx}}
    for spec, _ in failures:
        assert (spec.rid, dict(spec.params)["i"]) == ("k-conjugation", i)


# ---------------------------------------------------------------------------
# h as diagonal edges: the closed form of m h_{i,m}
# ---------------------------------------------------------------------------

def _h_closed_form_misses(mod, idxs, ms):
    """(idx, i, m) where m h_{i,m} by the series_log oracle
    (`_m_h_values`) differs from the sum of the vector's h entries
    c q^{m step}, m None where an entry leaves the vector."""
    m_h = _m_h_values(mod)
    bad = []
    for idx in idxs:
        for i in mod.rs.nodes:
            entries = mod.h_entries(i, idx)
            if any(dst != idx for dst, _, _ in entries):
                bad.append((idx, i, None))
            for m in ms:
                rest = m_h(idx, i, m)
                for _, s, c in entries:
                    rest = rest - c.mul_qpow(m * s)
                if not rest.is_zero():
                    bad.append((idx, i, m))
    return bad


def test_h_entries_closed_form(thin_3_1, thin_3_2):
    # the oracle: phi^{+-} expanded from the crystal statistics (thin) or
    # the rational form (doubled, and the representative rows at eps)
    ms = (1, -1, 2, -2, 3, -3, 4, -4)
    for mod in (thin_3_1, thin_3_2, build_thin(3, 3, (-12, 16)),
                build_doubled(2, (-14, 14)), thin_3_1.twisted(1)):
        interior = mod.graph.interior_indices()
        assert _h_closed_form_misses(mod, interior, ms) == []
    for mod in (specialize_thin(3, 1, 2), specialize_thin(3, 2, 2),
                specialize_doubled(1)):
        assert _h_closed_form_misses(mod, range(len(mod)), ms) == []


@pytest.mark.parametrize("ring", ["generic", "eps"])
def test_scaled_h_entry_is_reported(thin_3_1, ring):
    # h_{i,m} at idx enters h-x at idx and at every vector with an x edge
    # into idx; no other relation holds an h
    i = 1
    mod, idxs, suite = _mutation_case(thin_3_1, ring, "h-x")
    assert suite().failures == []
    idx = next(k for k in idxs if mod.h_entries(i, k))
    _first_entry_times_q(mod, "h", i, idx)
    failures = suite().failures
    assert mod.node(idx) in [node for _, node in failures]
    for spec, _ in failures:
        assert (spec.rid, dict(spec.params)["i"]) == ("h-x", i)


# ---------------------------------------------------------------------------
# relation runs: the instance sequences as keys and mode tuples
# ---------------------------------------------------------------------------

def _spec(rid, **params):
    return RelationSpec(rid, tuple(params.items()))


def _reference_instances(rs, rmax, hmax, include):
    """The generic relation instances, one loop nest per relation."""
    rr = range(-rmax, rmax + 1)
    mm = [m for m in range(-hmax, hmax + 1) if m]
    I, signs, js = rs.nodes, (1, -1), lambda i: (rs.mod(i - 1), rs.mod(i + 1))
    out = [_spec("k-conjugation", i=i, j=j, r=r, sign=sign)
           for i, j, sign, r in product(I, I, signs, (-1, 0, 1))]
    out += [_spec("h-h", i=i, j=j, m1=1, m2=-1)
            for i, j in product(I, I) if j >= i]
    out += [_spec("h-x", i=i, j=j, m=m, r=r, sign=sign)
            for i, j, sign, m, r in product(I, I, signs, mm, rr)]
    out += [_spec("x-plus-minus", i=i, j=j, r=r, rp=rp)
            for i, j, r, rp in product(I, I, rr, rr)]
    out += [_spec("x-quadratic", i=i, j=j, r=r, rp=rp, sign=sign)
            for sign, i, j, r, rp in product(signs, I, I, rr, rr)]
    out += [_spec("serre-cubic", i=i, j=j, r1=r1, r2=r2, rp=rp, sign=sign)
            for sign, i in product(signs, I)
            for j, r1, r2, rp in product(js(i), rr, rr, rr) if r1 <= r2]
    out += [_spec("x-commute-distant", i=i, j=j, r1=r1, r2=r2, sign=sign)
            for sign, i, j, r1, r2 in product(signs, I, I, rr, rr)
            if j > i and rs.cartan(i, j) == 0]
    return [s for s in out if include is None or s.rid in include]


def _reference_eps_instances(rs, rmax, serre_rmax):
    """The relation instances checked at eps, one loop nest per
    relation."""
    I, signs, js = rs.nodes, (1, -1), lambda i: (rs.mod(i - 1), rs.mod(i + 1))
    rr = range(rmax + 1)
    rser = range(min(serre_rmax, rmax) + 1)
    out = [_spec("k-conjugation", i=i, j=j, r=r, sign=sign)
           for i, j, sign, r in product(I, I, signs, (0, 1))]
    out += [_spec("h-x", i=i, j=j, m=m, r=r, sign=sign)
            for i, j, sign, m, r in product(I, I, signs, (1, -1, 2, -2),
                                            (0, 1))]
    out += [_spec("x-plus-minus", i=i, j=j, r=r, rp=rp)
            for i, j, r, rp in product(I, I, rr, rr)]
    out += [_spec("x-quadratic", i=i, j=j, r=r, rp=rp, sign=sign)
            for sign, i, j, r, rp in product(signs, I, I, rr, rr)]
    out += [_spec("serre-cubic", i=i, j=j, r1=r1, r2=r2, rp=rp, sign=sign)
            for sign, i in product(signs, I)
            for j, r1, r2, rp in product(js(i), rser, rser, rser) if r1 <= r2]
    out += [_spec("x-commute-distant", i=i, j=j, r1=r1, r2=r2, sign=sign)
            for sign, i, j, r1, r2 in product(signs, I, I, rr, rr)
            if i != j and rs.cartan(i, j) == 0]
    return out


def _flatten_checked(runs):
    """The instances of runs (key, modes), each checked to split back
    into its run's key and modes."""
    out = []
    for key, modes in runs:
        for v in modes:
            spec = torep._join(key, v)
            assert torep._split(spec) == (key, v), spec
            out.append(spec)
    return out


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("parity", [0, 1])
def test_relation_runs_flatten_to_the_instances(n, parity):
    rs = RootSystem(n, parity=parity)
    for rmax, hmax, include in ((0, 1, None), (1, 1, None), (3, 2, None),
                                (2, 3, ("serre-cubic", "h-h"))):
        want = _reference_instances(rs, rmax, hmax, include)
        assert _flatten_checked(
            torep.relation_runs(rs, rmax, hmax, include)) == want
        assert list(relation_instances(rs, rmax, hmax, include)) == want
    for rmax, serre_rmax in ((1, 1), (3, 2), (7, 7)):
        want = _reference_eps_instances(rs, rmax, serre_rmax)
        assert _flatten_checked(_eps_runs(rs, rmax, serre_rmax)) == want
        assert list(_specs(_eps_runs(rs, rmax, serre_rmax))) == want
