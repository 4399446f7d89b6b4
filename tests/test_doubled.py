from fractions import Fraction

import pytest

from torcrys.crystal import generate
from torcrys.lattice import RootSystem, Weight
from torcrys.qcoeff import RQ_ONE, RQ_ZERO, LaurentPoly, RationalQ, qint
from torcrys.torep import (ConstructionError, LoopModule, build_module,
                           fr_consistency_report, run_relation_suite,
                           doubled_anchor, row_edges, verify_extremal_vector)

RS = RootSystem(3, parity=0)


def node_index(mod, name):
    for k, m in enumerate(mod.graph.nodes):
        if str(m) == name:
            return k
    raise KeyError(name)


# ---------------------------------------------------------------------------
# the four-dimensional tensor block as an explicit matrix oracle
# ---------------------------------------------------------------------------

def matmul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), RQ_ZERO)
             for j in range(n)] for i in range(n)]


def matsub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def is_zero_matrix(A):
    return all(c.is_zero() for row in A for c in row)


def tensor_coeffs(a, b):
    """Branching coefficients of the four-dimensional tensor block with
    letters (a, b): c_a = (q^{b-1}-q^{a+1})/(q^b-q^a) and
    c_b = (q^{b+1}-q^{a-1})/(q^b-q^a)."""
    den = LaurentPoly({b: 1}) - LaurentPoly({a: 1})
    ca = RationalQ(LaurentPoly({b - 1: 1}) - LaurentPoly({a + 1: 1}), den)
    cb = RationalQ(LaurentPoly({b + 1: 1}) - LaurentPoly({a - 1: 1}), den)
    return ca, cb


def tensor_block_matrices(a, b, r):
    """x^+_r and x^-_r on the ordered basis (top, mid_a, mid_b, bottom)."""
    ca, cb = tensor_coeffs(a, b)
    qa = RationalQ.q_power(r * (a + 1))
    qb = RationalQ.q_power(r * (b + 1))
    Z = RQ_ZERO
    xm = [[Z, Z, Z, Z],
          [ca * qa, Z, Z, Z],
          [cb * qb, Z, Z, Z],
          [Z, qb, qa, Z]]
    xp = [[Z, qa, qb, Z],
          [Z, Z, Z, ca * qb],
          [Z, Z, Z, cb * qa],
          [Z, Z, Z, Z]]
    return xp, xm


def test_tensor_block_relations_matrix_oracle():
    a, b = -5, 1
    # [x+_r, x-_rp] must be diagonal with the l-weight eigenvalues
    from torcrys.torep import fr_phi_series
    rows = [{a: 1, b: 1}, {a + 2: -1, b: 1}, {a: 1, b + 2: -1},
            {a + 2: -1, b + 2: -1}]
    for r in (-1, 0, 2):
        for rp in (-2, 0, 1):
            xp, _ = tensor_block_matrices(a, b, r)
            _, xm = tensor_block_matrices(a, b, rp)
            comm = matsub(matmul(xp, xm), matmul(xm, xp))
            t = r + rp
            for k, row in enumerate(rows):
                if t > 0:
                    val = fr_phi_series(row, 1, t).coeff(t) / RationalQ(LaurentPoly({1: 1, -1: -1}))
                elif t < 0:
                    val = -(fr_phi_series(row, -1, -t).coeff(-t)) / RationalQ(LaurentPoly({1: 1, -1: -1}))
                else:
                    val = RationalQ(qint(sum(row.values())))
                assert comm[k][k] == val, (r, rp, k)
                assert all(comm[k][j].is_zero() for j in range(4) if j != k)
    # quadratic relation in the single direction (C_ii = 2)
    for sign in (1, -1):
        for r in (-1, 0, 1):
            for rp in (-1, 0, 1):
                def X(t):
                    xp, xm = tensor_block_matrices(a, b, t)
                    return xp if sign > 0 else xm
                qc = RationalQ.q_power(sign * 2)
                lhs = matsub(matmul(X(r + 1), X(rp)),
                             [[qc * c for c in row] for row in matmul(X(rp), X(r + 1))])
                rhs = matsub([[qc * c for c in row] for row in matmul(X(r), X(rp + 1))],
                             matmul(X(rp + 1), X(r)))
                assert is_zero_matrix(matsub(lhs, rhs))


def test_module_matches_matrix_oracle(s5_small):
    # the module's action on the tensor block through M_1 agrees with the
    # explicit 4x4 matrices entry by entry
    mod = s5_small
    a, b = -5, 1
    names = ["Y(0,-4)^-1*Y(0,2)^-1*Y(1,-5)*Y(1,1)",        # top (M_1)
             "Y(0,2)^-1*Y(1,-3)^-1*Y(1,1)*Y(2,-4)",        # mid_a (M_1^2)
             "Y(0,-4)^-1*Y(1,-5)*Y(1,3)^-1*Y(2,2)",        # mid_b (M_1^1)
             "Y(1,-3)^-1*Y(1,3)^-1*Y(2,-4)*Y(2,2)"]        # bottom
    idxs = [node_index(mod, s) for s in names]
    for r in (-2, 0, 1):
        xp, xm = tensor_block_matrices(a, b, r)
        for col, src in enumerate(idxs):
            out = mod.act_x(-1, 1, r, {src: RQ_ONE})
            got = [out.get(dst, RQ_ZERO) for dst in idxs]
            assert got == [xm[rowi][col] for rowi in range(4)]
            out = mod.act_x(1, 1, r, {src: RQ_ONE})
            got = [out.get(dst, RQ_ZERO) for dst in idxs]
            assert got == [xp[rowi][col] for rowi in range(4)]


# ---------------------------------------------------------------------------
# structure of the pasted module
# ---------------------------------------------------------------------------

def test_branching_coefficients(s5_small):
    mod = s5_small
    # s = 0: the string case, a single branch with coefficient [2]_q
    i0 = node_index(mod, "Y(0,0)^-1*Y(0,2)^-1*Y(1,-1)*Y(1,1)")
    out = mod.act_x(-1, 1, 0, {i0: RQ_ONE})
    (k, c), = out.items()
    assert c == RationalQ(qint(2))
    # s = 1: two branches whose sum is [2]_q (the divided square is clean)
    i1 = node_index(mod, "Y(0,-4)^-1*Y(0,2)^-1*Y(1,-5)*Y(1,1)")
    out = mod.act_x(-1, 1, 0, {i1: RQ_ONE})
    assert len(out) == 2
    total = RQ_ZERO
    for c in out.values():
        total = total + c
    assert total == RationalQ(qint(2))
    ca, cb = tensor_coeffs(-5, 1)
    assert sorted(str(c.canonical()) for c in out.values()) == \
        sorted([str(ca.canonical()), str(cb.canonical())])


def test_divided_power_promotion_chain(s5_small):
    mod = s5_small
    idx = node_index(mod, "Y(0,0)^-1*Y(0,2)^-1*Y(1,-1)*Y(1,1)")
    v = {idx: RQ_ONE}
    seen = []
    for i in (1, 2, 3):
        v = mod.divided_power_x(-1, i, 2, v)
        assert len(v) == 1
        (k, c), = v.items()
        assert c == RQ_ONE
        seen.append(str(mod.node(k)))
    assert seen == ["Y(1,1)^-1*Y(1,3)^-1*Y(2,0)*Y(2,2)",
                    "Y(2,2)^-1*Y(2,4)^-1*Y(3,1)*Y(3,3)",
                    "Y(0,2)*Y(0,4)*Y(3,3)^-1*Y(3,5)^-1"]


def test_extremal_vectors(s5_small):
    mod = s5_small
    for s in (0, 1):
        rep = verify_extremal_vector(mod, doubled_anchor(mod.rs, s), 4)
        assert rep.verdict == "extremal"
        anchor = doubled_anchor(mod.rs, s)
        assert anchor.weight == Weight((-2, 2, 0, 0), Fraction(s))


def test_qcharacter_multiplicity_one(s5_small):
    char = s5_small.qcharacter()
    assert all(v == 1 for v in char.values())
    assert len(char) == len(s5_small)


def test_component_interiors_disjoint(s5_small):
    mod = s5_small
    comps = [set(generate(mod.rs, [doubled_anchor(mod.rs, s)], mod.graph.window).nodes)
             for s in (0, 1)]
    assert not (comps[0] & comps[1])
    assert comps[0] | comps[1] == set(mod.graph.nodes)


def test_relation_suite_small(s5_small):
    r = run_relation_suite(s5_small, rmax=1, hmax=1,
                           nodes=s5_small.graph.interior_indices())
    assert r.ok and not r.failures


def test_fr_consistency(s5_small):
    assert fr_consistency_report(s5_small, order=6) == []


def test_row_rule_poles():
    # Y_0 Y_2^-1: both variables have their pole at q^1, a double pole
    with pytest.raises(ConstructionError):
        row_edges({0: 1, 2: -1})
    # Y_0^2: a pole of order two
    with pytest.raises(ConstructionError):
        row_edges({0: 2})
    # Y_-1 Y_1: the zero of Y_1 cancels the pole of Y_-1 at step 0, so one
    # lowering edge remains, at step 2, with coefficient [2]_q
    lower, upper = row_edges({-1: 1, 1: 1})
    assert upper == ()
    (step, c), = lower
    assert step == 2 and c == RationalQ(qint(2))


def test_anchor_restricted_subcrystal_is_ten_nodes(s5_small):
    from torcrys.crystal import sub_crystal
    from torcrys.torep import doubled_anchor
    sc = sub_crystal(s5_small.graph, doubled_anchor(s5_small.rs, 0), [1, 2, 3])
    assert len(sc) == 10


# ---------------------------------------------------------------------------
# 2 varpi_1 at n = 5: a module the pole rule builds beyond n = 3
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def doubled_n5():
    rs = RootSystem(5, parity=0)
    return build_module(rs, [doubled_anchor(rs, s) for s in (0, 1)],
                        (-16, 16), "doubled")


def test_doubled_n5_relations(doubled_n5):
    """A finding, not a claim of the paper: the union of the crystals of
    the s = 0, 1 anchors is multiplicity-free, and the defining
    relations hold on its interior."""
    mod = doubled_n5
    assert len(mod) == 294
    assert len({m.exps for m in mod.graph.nodes}) == 294
    rep = run_relation_suite(mod, rmax=1, hmax=1,
                             nodes=mod.graph.interior_indices())
    assert (rep.checked, rep.inconclusive, len(rep.failures)) == \
        (597135, 15255, 0)


def test_doubled_n5_detects_mutated_coefficient(doubled_n5):
    # multiply by q the first coefficient of the first interior node with
    # two lowering edges
    mod = doubled_n5
    interior = mod.graph.interior_indices()
    i, idx = next((i, idx) for i in mod.rs.nodes for idx in interior
                  if len(mod.minus_edges[i][idx]) == 2)
    table = list(mod.minus_edges[i])
    (dst, step, c), *rest = table[idx]
    table[idx] = ((dst, step, c.mul_qpow(1)), *rest)
    broken = LoopModule(mod.rs, mod.graph, mod.flavor,
                        {**mod.minus_edges, i: table}, mod.plus_edges)
    rep = run_relation_suite(broken, rmax=1, hmax=1, nodes=interior)
    assert len(rep.failures) == 135
    assert mod.node(idx) in {node for _, node in rep.failures}
