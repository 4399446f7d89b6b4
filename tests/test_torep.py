from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb

import pytest

from torcrys import relations, torep
from torcrys.closedness import closed_report, fundamental_anchor
from torcrys.crystal import WindowError, generate, is_extremal, sub_crystal
from torcrys.lattice import RootSystem
from torcrys.qcoeff import (Q_MINUS_QINV, RQ_ONE, CycloElem, LaurentPoly,
                            RationalQ, eval_cyclotomic, qint,
                            series_of_rational)
from torcrys.relations import (RelationSpec, SuiteReport, _specs, eps_runs,
                               relation_instances, relation_residual,
                               relation_terms)
from torcrys.torep import (ClosednessRefusal, LoopModule, build_doubled,
                           build_thin, fr_consistency_report, fr_phi_series,
                           run_relation_suite, verify_extremal_vector)
from torcrys.unity import (SpecializedModule, relation_check_eps,
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


@pytest.mark.parametrize("n, ell", [(n, ell) for n in (5, 7)
                                    for ell in range(2, n) if ell != (n + 1) // 2])
def test_refusal_carries_a_closedness_witness(n, ell):
    # both constructions refuse with a monomial the crystal lacks, one of
    # closed_report's own not-closed witnesses (also for ell > r+1)
    rep = closed_report(n, ell)
    wits = {c.witness for d in rep.directions for c in d.classes
            if c.verdict == "not-closed"}
    rs = RootSystem.for_fundamental(n, ell)
    nodes = set(generate(rs, [fundamental_anchor(rs, ell)], rep.window).nodes)
    for build in (lambda: build_thin(n, ell), lambda: specialize_thin(n, ell, 2)):
        with pytest.raises(ClosednessRefusal) as exc:
            build()
        wit = exc.value.witness
        assert wit in wits and wit not in nodes, (n, ell, wit)
        assert str(wit) in str(exc.value)


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
    """sum c q^{m step} over the h entries of (i, idx):
    (q - q^-1) m h_{i,m}."""
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
    # (q - q^-1) h_{1,1} = q - q^-1 over the edges of Y(1,0), back to
    # the vector itself; row 2 is empty, so h_{2,m} has none
    assert [(dst, step) for dst, step, _ in mod.h_entries(1, i0)] == \
        [(i0, 1), (i0, -1)]
    assert _h_sum(mod, 1, i0, 1) == RationalQ(Q_MINUS_QINV)
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


def test_relation_residual_rejects_a_root_of_unity_module():
    # the generic residual of a module at eps would keep its int
    # denominator and unfolded exponents; the check there is another one
    spec = RelationSpec("h-x", (("i", 1), ("j", 1), ("m", 3), ("r", 1),
                                ("sign", 1)))
    with pytest.raises(TypeError, match="relation_check_eps"):
        relation_residual(specialize_thin(3, 1, 2), spec, 5)


def test_window_error_on_boundary(thin_3_1):
    mod = thin_3_1
    # a boundary node cannot evaluate a full relation neighborhood
    boundary = [k for k, f in enumerate(mod.graph.interior) if not f][0]
    with pytest.raises(WindowError):
        for i in mod.rs.nodes:
            mod.act_x(-1, i, 0, {boundary: RQ_ONE})
            mod.act_x(1, i, 0, {boundary: RQ_ONE})


def test_fr_consistency(thin_3_1, thin_3_2):
    # the twisted module's phi-series and rational form both read the
    # twisted rows
    for mod in (thin_3_1, thin_3_2, thin_3_1.twisted(1)):
        assert fr_consistency_report(mod, order=6) == []


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


@pytest.mark.parametrize("build, census", [
    (lambda: build_thin(3, 1, (-16, 16)),
     {("extremal", "extremal"): 26,
      ("inconclusive-window", "inconclusive-window"): 4}),
    (lambda: build_doubled(2, (-14, 14)),
     {("extremal", "extremal"): 48,
      ("not-extremal", "not-extremal"): 137,
      ("inconclusive-window", "inconclusive-window"): 18,
      ("inconclusive-window", "not-extremal"): 25})])
def test_extremality_census_on_the_interior(build, census):
    # (module verdict, crystal verdict) of every interior node at depth 3:
    # verify_extremal_vector on the module and is_extremal on its window.
    # An x edge of the module leaves the window before the crystal's
    # reflection image does on 25 doubled nodes, which the crystal check
    # finds not extremal
    mod = build()
    got = Counter()
    for m in map(mod.node, mod.graph.interior_indices()):
        module = verify_extremal_vector(mod, m, 3)
        crystal = is_extremal(mod.rs, m, 3, mod.graph.window)
        got[module.verdict, crystal.verdict] += 1
        for rep in (module, crystal):
            assert rep.depth == 3 and rep.orbit[0] == m
            failed = rep.verdict == "not-extremal"
            assert (rep.witness in rep.orbit) == failed
            assert (rep.witness_direction in mod.rs.nodes) == failed
        if module.verdict == crystal.verdict == "extremal":
            assert module.orbit == crystal.orbit
    assert got == census


def test_spectral_twist(thin_3_1):
    mod = thin_3_1
    tw = mod.twisted(2)
    i0, v0 = unit(mod, "Y(0,1)^-1*Y(1,0)")
    # the twist translates every row of the l-weight by 2
    for idx in (i0, *tw.graph.interior_indices()[:6]):
        for i in mod.rs.nodes:
            assert tw.row(idx, i) == {l + 2: u for l, u
                                      in mod.node(idx).row(i).items()}
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


@pytest.mark.parametrize("rmax, hmax", [(-1, 2), (1, 0), (0, -1)])
def test_empty_ranges_are_rejected(thin_3_1, rmax, hmax):
    # rmax < 0 empties every x family and hmax < 1 h-x: a suite that
    # drops them must not report success
    with pytest.raises(ValueError, match="rmax >= 0 and hmax >= 1"):
        list(relations.relation_runs(thin_3_1.rs, rmax, hmax))
    with pytest.raises(ValueError, match="rmax >= 0 and hmax >= 1"):
        run_relation_suite(thin_3_1, rmax=rmax, hmax=hmax, nodes=[0])


@pytest.mark.parametrize("rmax, hmax, include, match", [
    (-1, 2, None, "rmax >= 0 and hmax >= 1"),
    (1, 0, None, "rmax >= 0 and hmax >= 1"),
    (1, 1, ["h-h", "foo"], "unknown relation id 'foo'")])
def test_relation_runs_checks_at_the_call(thin_3_1, rmax, hmax, include,
                                          match):
    # the call itself raises: no run has to be asked for
    with pytest.raises(ValueError, match=match):
        relations.relation_runs(thin_3_1.rs, rmax, hmax, include)


@pytest.mark.parametrize("ring", [CycloElem.one(8), RQ_ONE])
def test_collect_folds_mode_weights_in_the_ring(ring):
    # at eps = zeta_8, weights 0 and 8 give one power q^{8r} = 1 at
    # every mode r, and q^8 - 1 = 0; in Q(q) neither sum vanishes.
    # Weights 0 and 11 differ mod 8 and stay apart in both rings.
    one = relations._UNIT
    by_weight = [(0, one, ((0, 1),), (0, (0,))),
                 (0, one, ((0, -1),), (0, (8,)))]
    by_exponent = [(0, one, ((0, 1),), (0, (3,))),
                   (0, one, ((8, -1),), (0, (3,)))]
    apart = [(0, one, ((0, 1),), (0, (0,))),
             (0, one, ((0, -1),), (0, (11,)))]
    if isinstance(ring, CycloElem):
        assert relations._collect(by_weight, ring) == []
        assert relations._collect(by_exponent, ring) == []
        assert relations._collect(apart, ring) == [(0, ((0, 1),), (0,)),
                                               (0, ((0, -1),), (3,))]
    else:
        assert relations._collect(apart, ring) == [(0, ((0, 1),), (0,)),
                                               (0, ((0, -1),), (11,))]
        assert relations._collect(by_weight, ring) == [(0, ((0, 1),), (0,)),
                                                   (0, ((0, -1),), (8,))]
        assert relations._collect(by_exponent, ring) == [
            (0, ((0, 1), (8, -1)), (3,))]


@pytest.mark.parametrize("N", [4, 8])
def test_collect_multiplies_by_integer_scalars(N):
    # a scalar multiplies a numerator exponent by exponent, shifted by
    # the path's constant: q^2 * q^1 * (1 - q) and -q^3 * (1 - q) * q^0
    # cancel in every ring; -[2] = -q - q^-1 survives in Q(q) and at
    # zeta_8, and is dropped by the fold mod N at zeta_4, where it is 0
    cancel = [(0, ((2, 1),), ((0, 1), (1, -1)), (1, (0,))),
              (0, ((3, -1),), ((0, 1), (1, -1)), (0, (0,)))]
    minus_two = [(0, ((-1, -1), (1, -1)), ((0, 1),), (0, (1,)))]
    for ring in (RQ_ONE, CycloElem.one(N)):
        assert relations._collect(cancel, ring) == []
        got = relations._collect(minus_two, ring)
        if ring is RQ_ONE or N == 8:
            assert got == [(0, ((-1, -1), (1, -1)), (1,))]
        else:
            assert got == []


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
    """(idx, i, m) -> (q - q^-1) m h_{i,m} on the basis vector by
    `_h_oracle`, q - q^-1 mapped by eval_cyclotomic at eps, memoised for
    this one module: the operator ("h", i, m)."""
    qmq = RationalQ(Q_MINUS_QINV)
    if not isinstance(mod, LoopModule):
        qmq = eval_cyclotomic(qmq, mod.N)

    @lru_cache(maxsize=None)
    def value(idx, i, m):
        val = _h_oracle(mod, idx, i, m) * qmq
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


def reference_suite(mod, specs, scalar=lambda s: s, nodes=None):
    """Every spec on every node in nodes (default all), spec-major,
    through `reference_residual`; `scalar` maps the tables' RationalQ
    scalars into the module's ring."""
    report = SuiteReport()
    m_h = _m_h_values(mod)
    for spec in specs:
        terms = [(scalar(s), word) for s, word in relation_terms(mod.rs, spec)]
        for idx in range(len(mod)) if nodes is None else nodes:
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
                     reference_suite(mod, _specs(eps_runs(mod.rs, rmax,
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


def test_eps_instances_are_evaluated_where_the_fold_leaves_a_sum(
        coefficient_doubled, monkeypatch):
    # a doubled coefficient leaves (target, w mod N) sums that do not
    # vanish at eps; their instances are evaluated one by one and fail
    # exactly where the memo-free reference does
    calls = []
    residual = relations._residual

    def recording(terms, v):
        calls.append(v)
        return residual(terms, v)

    mod = coefficient_doubled(specialize_thin(3, 1, 2))
    ref = reference_suite(mod, _specs(eps_runs(mod.rs, 3, 2)),
                          partial(eval_cyclotomic, N=mod.N))
    monkeypatch.setattr(relations, "_residual", recording)
    got = relation_check_eps(mod, 3, 2)
    assert calls and ref.failures
    assert _summary(got) == _summary(ref)


def test_dead_pairs_keep_the_verdicts(thin_3_1, monkeypatch):
    # every node of thin (3,1): the interior ones and the two boundary
    # ones, whose x edges leave the window; the runner proves the pairs
    # without a path or hazard before building terms, and must count
    # exactly what the memo-free reference counts, also where a dropped
    # x entry kills words and makes instances fail
    entered = []
    node_terms = relations._node_terms

    def recording(mod, template, memo):
        entered.append(template)
        return node_terms(mod, template, memo)

    monkeypatch.setattr(relations, "_node_terms", recording)
    nodes = range(len(thin_3_1))
    boundary = set(nodes) - set(thin_3_1.graph.interior_indices())
    assert len(boundary) == 2
    broken = thin_3_1.twisted(0)
    idx = next(k for k in thin_3_1.graph.interior_indices()
               if len(broken.x_entries(-1, 1, k)) == 1)
    _drop_first_x_entry(broken, -1, 1, idx)
    specs = list(relation_instances(thin_3_1.rs, rmax=1, hmax=1))
    for mod in (thin_3_1, broken):
        entered.clear()
        got = run_relation_suite(mod, rmax=1, hmax=1, nodes=nodes)
        pairs = len(list(relations.relation_runs(mod.rs, 1, 1))) * len(nodes)
        assert 0 < len(entered) < pairs
        ref = reference_suite(mod, specs, nodes=nodes)
        assert _summary(got) == _summary(ref)
        assert ref.inconclusive
    assert ref.failures and not got.ok


def _gate_dead(mod, template, idx):
    """Whether the live-operator gate may call the template's run dead
    on the vector, read off the shapes themselves: every shape has an x
    operator, and the first applied one has no entry there, an entry
    leaving the window included."""
    shapes = {sid: shape for shape, sid in relations._SHAPE_IDS.items()}
    firsts = [next((op[1:] for op in reversed(shapes[sid]) if op[0] == "x"),
                   None) for _, sid, _, _ in template]
    return None not in firsts and not any(mod.x_entries(*op, idx)
                                          for op in firsts)


def _pair_census(mod, runs, idxs):
    """(dead, proved): the (run, vector) pairs the gate calls dead, each
    checked to have no path and no hazard for any shape, and those whose
    terms and hazards are empty, each pair on a fresh memo."""
    dead = proved = 0
    for key, _ in runs:
        template = relations._table(mod.rs, key)
        for idx in idxs:
            if _gate_dead(mod, template, idx):
                dead += 1
                memo = relations._vector_memo(idx, mod.one)
                for _, sid, _, _ in template:
                    assert relations._paths(mod, sid, memo) == ({}, ()), \
                        (key, idx)
            _, terms, hazards = relations._node_terms(
                mod, template, relations._vector_memo(idx, mod.one))
            proved += not terms and not hazards
    return dead, proved


def _first_x_entry_leaves(mod, sign, i, idx):
    """Make the first of mod's x^{sign}_i entries at idx leave the
    window: its target becomes None."""
    entries_of = mod.x_entries

    def entries(s, j, k):
        got = entries_of(s, j, k)
        if (s, j, k) == (sign, i, idx):
            (_, step, c0), *rest = got
            return ((None, step, c0), *rest)
        return got
    mod.x_entries = entries


@pytest.mark.parametrize("case", ["thin_3_1", "thin_3_1_leaving",
                                  "doubled_1", "eps_thin_3_1_2",
                                  "eps_doubled_1"])
def test_live_gate_keeps_the_verdicts(case, thin_3_1, s5_small):
    # a run whose shapes' first applied x operators have no entry at a
    # vector is dead there without a look at its shapes; the reports
    # must equal the memo-free reference and count as proved exactly
    # the pairs left with no terms and no hazards.  In the leaving case
    # one x entry of an interior vector leaves the window: that operator
    # stays live there, so the runs it starts count as inconclusive, as
    # they do in the reference, and a gate that skips such entries
    # calls them dead and fails
    if case.startswith("eps"):
        mod = specialize_thin(3, 1, 2) if case == "eps_thin_3_1_2" \
            else specialize_doubled(1)
        runs = list(eps_runs(mod.rs, mod.N - 1, 2))
        idxs = range(len(mod))
        got = relation_check_eps(mod)
        ref = reference_suite(mod, _specs(runs),
                              partial(eval_cyclotomic, N=mod.N))
    else:
        if case == "doubled_1":
            mod, idxs = s5_small, s5_small.graph.interior_indices()
        else:
            mod, idxs = thin_3_1.twisted(0), range(len(thin_3_1))
        if case == "thin_3_1_leaving":
            sign, i = -1, 1
            idx = next(k for k in thin_3_1.graph.interior_indices()
                       if len(mod.x_entries(sign, i, k)) == 1)
            before = run_relation_suite(mod, rmax=1, hmax=1, nodes=idxs)
            _first_x_entry_leaves(mod, sign, i, idx)
            assert mod.x_entries(sign, i, idx)[0][0] is None
        runs = list(relations.relation_runs(mod.rs, 1, 1))
        got = run_relation_suite(mod, rmax=1, hmax=1, nodes=idxs)
        ref = reference_suite(mod, _specs(runs), nodes=idxs)
    assert _summary(got) == _summary(ref)
    dead, proved = _pair_census(mod, runs, idxs)
    assert 0 < dead <= proved == got.proved <= len(runs) * len(idxs)
    if case == "thin_3_1_leaving":
        assert got.inconclusive > before.inconclusive
        assert got.proved < before.proved


def test_runs_share_one_memo_per_vector(thin_3_1, broken_modules,
                                        monkeypatch):
    # the runner is node-major: a (vector, shape) pair is expanded into
    # paths once, however many runs contain the shape
    expanded = []
    paths = relations._paths

    def recording(mod, sid, memo):
        if memo[sid] is None:
            (idx, _), = memo[0][0]
            expanded.append((idx, sid))
        return paths(mod, sid, memo)

    monkeypatch.setattr(relations, "_paths", recording)
    nodes = thin_3_1.graph.interior_indices()[:3]
    assert run_relation_suite(thin_3_1, rmax=2, hmax=2, nodes=nodes).ok
    assert {idx for idx, _ in expanded} == set(nodes)
    assert len(expanded) == len(set(expanded))
    # the failures the reference comparison re-sorts into spec-major
    # order span several runs and several nodes
    _, _, ref = broken_modules["thin_3_1_step_shift"]
    assert len({relations._split(spec)[0] for spec, _ in ref.failures}) >= 2
    assert len({node for _, node in ref.failures}) >= 2


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

    # the template memo starts empty (conftest.py), so the perturbed
    # tables are the ones built
    monkeypatch.setattr(relations, "relation_terms", perturbed_terms)
    got = suite()
    assert (got.checked, got.inconclusive, got.by_relation) == \
        (ref.checked, ref.inconclusive, ref.by_relation)
    assert got.failures != ref.failures
    assert any(spec == target for spec, _ in got.failures)


def _template_at(rs, spec):
    """The runner's template for the spec (`_shapes` of its relation's
    symbolic table), each shape id read back as its shape, each
    operator's affine mode evaluated at the spec's mode values and put
    back into its word, and each integer scalar read back as a
    RationalQ."""
    key, v = relations._split(spec)
    shapes = {sid: shape for shape, sid in relations._SHAPE_IDS.items()}
    out = []
    for scalar, sid, consts, cols in relations._table(rs, key):
        shape = shapes[sid]
        modes = [c + sum(col[k] * x for col, x in zip(cols, v))
                 for k, c in enumerate(consts)]
        word = [op + (modes.pop(0),) for op in reversed(shape)]
        assert all(type(e) is int and type(c) is int and c
                   for e, c in scalar), scalar
        out.append((RationalQ(LaurentPoly(dict(scalar))),
                    tuple(reversed(word))))
    return out


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("parity", [0, 1])
def test_symbolic_table_matches_relation_terms(n, parity):
    # the template memo is keyed by rank alone: whichever parity built a
    # table first, it must match relation_terms at this parity
    rs = RootSystem(n, parity=parity)
    specs = [*relation_instances(rs, 3, 2), *_specs(eps_runs(rs, 7, 7))]
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
        # a cold template memo for each patch, so that its tables are
        # built
        monkeypatch.setattr(relations, "_TEMPLATES", {})
        monkeypatch.setattr(relations, "relation_terms", patched)
        with pytest.raises(TypeError):
            run_relation_suite(thin_3_1, rmax=1, hmax=1, nodes=[0],
                               include=["k-conjugation"])
        with pytest.raises(TypeError):
            relation_residual(thin_3_1, spec, 0)


def test_int_terms_reads_scalars_in_z_q():
    # +-q^a, -[2] and a unit denominator +-q^k are integer term tuples;
    # a denominator that is no unit has none
    assert relations._int_terms(RationalQ.q_power(-2)) == ((-2, 1),)
    assert relations._int_terms(-RationalQ(qint(2))) == ((-1, -1), (1, -1))
    assert relations._int_terms(RationalQ(LaurentPoly({1: 3}),
                                      LaurentPoly({2: -1}))) == ((-1, -3),)
    assert relations._int_terms(RationalQ(LaurentPoly())) == ()
    with pytest.raises(ValueError, match="not in Z"):
        relations._int_terms(RationalQ(LaurentPoly.from_int(1),
                                   LaurentPoly.from_int(2)))
    with pytest.raises(ValueError, match="not in Z"):
        relations._int_terms(RationalQ(LaurentPoly.from_int(1), Q_MINUS_QINV))


def test_relation_terms_run_once_per_rank_and_key(thin_3_1, monkeypatch):
    # the generic suite and the check at eps on modules of one rank share
    # the templates: each (rank, key) is tabled once in the process
    calls = []
    terms = relations.relation_terms

    def recording(rs, spec):
        calls.append((rs.n, relations._split(spec)[0]))
        return terms(rs, spec)

    monkeypatch.setattr(relations, "relation_terms", recording)
    rep = run_relation_suite(thin_3_1, nodes=thin_3_1.graph.interior_indices())
    assert rep.ok
    generic = {(3, key) for key, _ in relations.relation_runs(thin_3_1.rs)}
    assert len(calls) == len(generic) == 142
    spec = specialize_thin(3, 1, 2)
    assert relation_check_eps(spec).ok
    assert len(calls) == len(set(calls))
    assert set(calls) == generic | {(3, key) for key, _ in
                                    eps_runs(spec.rs, spec.N - 1, 2)}
    assert len(calls) == 146


def test_rank_5_suite_after_rank_3_gets_rank_5_tables(thin_3_1):
    # the same key names other relations at another rank: nodes 0 and 3
    # are adjacent at n = 3 and distant at n = 5.  Counts are those of a
    # runner that tables every run afresh.
    nodes = thin_3_1.graph.interior_indices()
    rep = run_relation_suite(thin_3_1, rmax=1, hmax=1, nodes=nodes)
    assert (rep.checked, rep.inconclusive, rep.failures) == (27296, 108, [])
    # all but 8 of the 142 runs x 26 vectors are proved at every mode;
    # those 8 pairs hold a hazard, where the 108 inconclusive instances are
    assert rep.proved == 3684 == 142 * len(nodes) - 8
    mod = build_thin(5, 3, (-12, 12))
    rep = run_relation_suite(mod, rmax=1, hmax=1,
                             nodes=mod.graph.interior_indices()[:8])
    assert (rep.checked, rep.inconclusive, rep.failures) == (17772, 108, [])
    assert rep.by_relation == {
        "h-h": 168, "h-x": 3456, "k-conjugation": 1728, "serre-cubic": 3384,
        "x-commute-distant": 1296, "x-plus-minus": 2592, "x-quadratic": 5148}
    assert {rank for rank, _ in relations._TEMPLATES} == {3, 5}


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
    word = (("x", -1, 1, relations.Mode(0, (1,))),)
    template = relations._shapes(((relations._UNIT, word),), 1)
    den, terms, hazards = relations._node_terms(
        mod, template, relations._vector_memo(0, mod.one))
    assert not hazards
    return den, relations._residual(terms, (r,))


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
    # Y_{1,1} Y_{1,5}: poles at steps 2 and 6, zeros at 0 and 4, so
    # B_2 = q^2 (1 - q^-2)(1 - q^2) / ((1 - q^4)(q - q^-1)) = q/(1 + q^2)
    # and B_6 = (1 + q^2 + q^4)/(q + q^3), which sum to [2] = q + q^-1
    (s2, b2), (s6, b6) = torep.pole_residues({1: 1, 5: 1})
    assert (s2, s6) == (2, 6)
    assert b2 == RationalQ(LaurentPoly({1: 1}), LaurentPoly({0: 1, 2: 1}))
    assert b6 == RationalQ(LaurentPoly({0: 1, 2: 1, 4: 1}),
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


def _drop_first_x_entry(mod, sign, i, idx):
    """Remove the first of mod's x^{sign}_i entries at idx."""
    entries_of = mod.x_entries

    def entries(s, j, k):
        got = entries_of(s, j, k)
        return got[1:] if (s, j, k) == (sign, i, idx) else got
    mod.x_entries = entries


@pytest.mark.parametrize("ring", ["generic", "eps"])
def test_dropped_x_entry_is_reported(thin_3_1, ring):
    # with its one x^-_i entry gone, every word whose first operator is
    # x^-_i has no path from idx, so those (run, idx) pairs look dead;
    # the pair term of x-plus-minus at i = j stays live at idx, so the
    # run is not skipped and the missing edge shows there
    i = 1
    mod, idxs, suite = _mutation_case(thin_3_1, ring, "x-plus-minus")
    assert suite().failures == []
    idx = next(k for k in idxs if len(mod.x_entries(-1, i, k)) == 1
               and mod.pair_entries(i, k))
    _drop_first_x_entry(mod, -1, i, idx)
    assert mod.x_entries(-1, i, idx) == ()
    sid = relations._intern((("x", 1, i), ("x", -1, i)))
    memo = relations._vector_memo(idx, mod.one)
    assert relations._paths(mod, sid, memo) == ({}, ())
    failures = suite().failures
    at_idx = [spec for spec, node in failures
              if spec.rid == "x-plus-minus" and node == mod.node(idx)]
    assert at_idx
    for spec in at_idx:
        p = dict(spec.params)
        assert (p["i"], p["j"]) == (i, i)


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
# h as diagonal edges: the closed form of (q - q^-1) m h_{i,m}
# ---------------------------------------------------------------------------

def _h_closed_form_misses(mod, idxs, ms):
    """(idx, i, m) where (q - q^-1) m h_{i,m} by the series_log oracle
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


def test_h_entries_are_integers(thin_3_1, thin_3_2):
    # (q - q^-1) m h_{i,m} has integer coefficients: no h entry carries
    # a denominator into a path product or a clearing; the unit is
    # RQ_ONE itself, so the runner skips its products
    assert torep.h_residues({0: 1}) == ((1, RQ_ONE), (-1, -RQ_ONE))
    assert torep.h_residues({0: 1})[0][1] is RQ_ONE
    for mod in (thin_3_1, thin_3_2, build_doubled(2, (-14, 14))):
        for idx, i in product(range(len(mod)), mod.rs.nodes):
            assert all(c.den.is_one() for _, _, c in mod.h_entries(i, idx))
    for mod in (specialize_thin(3, 1, 2), specialize_doubled(1)):
        for idx, i in product(range(len(mod)), mod.rs.nodes):
            assert all(c.den == 1 for _, _, c in mod.h_entries(i, idx))


def test_symbolic_h_h_cancels_at_every_mode(thin_3_1, s5_small):
    # with m1 and m2 symbolic, both words of each h-h table reach the
    # vector through the same steps with the same integer coefficient,
    # so nothing is left: (q - q^-1)^2 m1 m2 [h_{i,m1}, h_{j,m2}] = 0
    # for every (m1, m2)
    for mod in (thin_3_1, s5_small):
        tables = [relations._table(mod.rs, key) for key, _ in
                  relations.relation_runs(mod.rs, 0, 1, include=["h-h"])]
        assert tables
        for idx in mod.graph.interior_indices():
            memo = relations._vector_memo(idx, mod.one)
            for template in tables:
                _, terms, hazards = relations._node_terms(mod, template, memo)
                assert (terms, hazards) == ([], []), (idx, template)


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
            spec = relations._join(key, v)
            assert relations._split(spec) == (key, v), spec
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
            relations.relation_runs(rs, rmax, hmax, include)) == want
        assert list(relation_instances(rs, rmax, hmax, include)) == want
    for rmax, serre_rmax in ((1, 1), (3, 2), (7, 7)):
        want = _reference_eps_instances(rs, rmax, serre_rmax)
        assert _flatten_checked(eps_runs(rs, rmax, serre_rmax)) == want
        assert list(_specs(eps_runs(rs, rmax, serre_rmax))) == want
