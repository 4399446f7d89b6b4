"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass/fail line each.

Criterion 11 is split.  11a covers the root-of-unity dimensions, the
specialized relations, and simplicity of the specialized thin modules.
11b covers the specialized doubled-weight module: it is cyclic,
generated by one l-weight basis vector, but it is not simple.  At
L = 1 the factor [2]_q vanishes at the primitive 4th root of unity and
every generator kills the top residue vector, which spans an invariant
line (pinned in test_unity.test_doubled_generation_obstruction).
"""

from fractions import Fraction
from math import comb

import pytest

from torcrys.closedness import (closed_report, fundamental_anchor,
                                sl2_qclosed, sl2_simple_qchar)
from torcrys.crystal import (check_shift_automorphism, check_twist, generate,
                             sub_crystal)
from torcrys.lattice import RootSystem, Weight
from torcrys.monomial import (Monomial, a_monomial, exp_key,
                              phi_exponents)
from torcrys.tableaux import all_tableaux, tab_exponents, tab_monomial, tab_promotion
from torcrys.torep import (build_doubled, build_thin, fr_consistency_report,
                           run_relation_suite)
from torcrys.unity import (cyclic_generation_check, generated_submodule,
                           joint_spectrum_simple, relation_check_eps,
                           specialize_doubled, specialize_thin)


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def mono(rs, spec, delta):
    exps = {}
    for part in spec.split():
        il, u = part.split("^") if "^" in part else (part, "1")
        i, l = il.split(",")
        exps[(int(i), int(l))] = exps.get((int(i), int(l)), 0) + int(u)
    h = [0] * (rs.n + 1)
    for (i, _), u in exps.items():
        h[i] += u
    return Monomial(exp_key(exps), Weight(tuple(h), Fraction(delta)))


def test_criterion_1_subcrystal_counts():
    ok = True
    for n in (3, 5, 7):
        for ell in range(1, n + 1):
            rs = RootSystem.for_fundamental(n, ell)
            g = generate(rs, [fundamental_anchor(rs, ell)],
                         (-2 * (n + 1), 2 * (n + 1)))
            sc = sub_crystal(g, fundamental_anchor(rs, ell), range(1, n + 1))
            ok = ok and len(sc) == comb(n + 1, ell)
    assert report(1, ok, "|I_0-subcrystal of the anchor| = C(n+1, ell) "
                         "for n in {3,5,7}, all ell")


def test_criterion_2_qcharacter_ell1():
    mod = build_thin(3, 1, (-16, 20))
    rs = mod.rs
    by_k = {}
    for m in mod.qcharacter():
        by_k.setdefault(-int(m.weight.delta), set()).add(m)
    ok = True
    for k in range(-3, 4):
        expected = {
            mono(rs, f"1,{4*k} 0,{1+4*k}^-1", -k),
            mono(rs, f"2,{1+4*k} 1,{2+4*k}^-1", -k),
            mono(rs, f"3,{2+4*k} 2,{3+4*k}^-1", -k),
            mono(rs, f"0,{3+4*k} 3,{4+4*k}^-1", -k),
        }
        ok = ok and by_k.get(k) == expected
    assert report(2, ok, "ell=1, n=3 q-character: the four stated summands "
                         "per period, exactly")


def test_criterion_3_qcharacter_ell2():
    # The shift period here is 2 and the classical restriction has
    # dimension C(4,2) = 6, so each period carries exactly six l-weights
    # (two of them products of four variables).
    mod = build_thin(3, 2, (-16, 20))
    rs = mod.rs
    by_k = {}
    for m in mod.qcharacter():
        by_k.setdefault(-int(m.weight.delta), set()).add(m)
    ok = True
    for k in range(-4, 5):
        t = 2 * k
        expected = {
            mono(rs, f"2,{t} 0,{2+t}^-1", -k),
            mono(rs, f"1,{1+t} 2,{2+t}^-1 3,{1+t} 0,{2+t}^-1", -k),
            mono(rs, f"1,{1+t} 3,{3+t}^-1", -k),
            mono(rs, f"3,{1+t} 1,{3+t}^-1", -k),
            mono(rs, f"1,{3+t}^-1 2,{2+t} 3,{3+t}^-1 0,{2+t}", -k),
            mono(rs, f"2,{4+t}^-1 0,{2+t}", -k),
        }
        ok = ok and by_k.get(k) == expected
    assert report(3, ok, "ell=2, n=3 q-character: the six-monomial period "
                         "of the explicit display, exactly")


def test_criterion_4_closedness_theorem():
    expected = {3: {1, 2, 3}, 5: {1, 3, 5}, 7: {1, 4, 7}}
    ok = True
    for n, closed_set in expected.items():
        for ell in range(1, n + 1):
            rep = closed_report(n, ell)
            ok = ok and rep.closed == (ell in closed_set)
    rep = closed_report(5, 2)
    rs = RootSystem.for_fundamental(5, 2)
    witnessed = False
    for j in range(1, 2):
        d = rep.directions[j]
        wits = {c.witness for c in d.classes if c.verdict == "not-closed"}
        Mj = tab_monomial(rs, 2, (1, 2), j)
        witnessed = d.qclosed is False and (Mj * a_monomial(rs, j, 2 + j - 1) in wits)
    ok = ok and witnessed
    assert report(4, ok, "closed iff ell in {1, r+1, n} for n in {3,5,7}; "
                         "n=5 ell=2 witness of the form M_j A_{j,ell+j-1}")


def test_criterion_5_sl2_example():
    S = [{4: 1, 0: 1}, {6: -1, 0: 1}, {6: -1, 2: -1}]
    res = sl2_qclosed(S)
    ok = res.verdict == "not-closed" and dict(res.witness) == {4: 1, 2: -1}
    char = sl2_simple_qchar({4: 1, 0: 1})
    ok = ok and sorted(tuple(sorted(r.items())) for r, _ in char) == sorted([
        ((0, 1), (4, 1)), ((0, 1), (6, -1)), ((2, -1), (4, 1)),
        ((2, -1), (6, -1))])
    assert report(5, ok, "rank-one crystal of Y_{1,4}Y_{1,0} fails "
                         "q-closedness with witness Y_{1,4}Y_{1,2}^{-1}; "
                         "four-term character reproduced")


@pytest.fixture(scope="module")
def criterion6_modules():
    mods = {(3, ell): build_thin(3, ell, (-24, 24)) for ell in (1, 2, 3)}
    mods["s5"] = build_doubled(2, (-14, 14))
    return mods


# (checked, inconclusive, by_relation) of the criterion-6 sweep
_THIN_6 = (306576, 980, {
    "h-h": 460, "h-x": 41216, "k-conjugation": 4416, "serre-cubic": 143472,
    "x-commute-distant": 9016, "x-plus-minus": 36064, "x-quadratic": 71932})
CRITERION_6_COUNTS = {
    (3, 1): _THIN_6,
    (3, 2): (932120, 3920, {
        "h-h": 1400, "h-x": 125440, "k-conjugation": 13440,
        "serre-cubic": 435904, "x-commute-distant": 27440,
        "x-plus-minus": 109760, "x-quadratic": 218736}),
    (3, 3): _THIN_6,
    "s5": (1450073, 74335, {
        "h-h": 2280, "h-x": 200480, "k-conjugation": 21480,
        "serre-cubic": 669536, "x-commute-distant": 43022,
        "x-plus-minus": 172137, "x-quadratic": 341138}),
}


def test_criterion_6_relation_suite(criterion6_modules):
    ok = True
    failed = []
    counts = {}
    for key, mod in criterion6_modules.items():
        r = run_relation_suite(mod, rmax=3, hmax=2,
                               nodes=mod.graph.interior_indices())
        ok = ok and r.ok
        if r.failures:
            failed.append((key, len(r.failures)))
        counts[key] = (r.checked, r.inconclusive, r.by_relation)
    assert report(6, ok, "all defining relations with |r| <= 3, m in "
                         "{+-1,+-2}: zero residuals on every interior "
                         f"vector (failures: {failed})")
    assert counts == CRITERION_6_COUNTS


def test_criterion_7_fr_agreement(criterion6_modules):
    bad = []
    for key, mod in criterion6_modules.items():
        bad.extend(fr_consistency_report(mod, order=6,
                                         nodes=mod.graph.interior_indices()))
    assert report(7, not bad, "loop-Cartan series agree with the rational "
                              f"l-weight form to order 6 ({len(bad)} "
                              "discrepancies)")


def test_criterion_8_promotion():
    ok = True
    for (n, ell) in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)):
        rs = RootSystem.for_fundamental(n, ell)
        g = generate(rs, [fundamental_anchor(rs, ell)],
                     (-2 * (n + 1), 2 * (n + 1) + n))
        # Y_{i,l} -> Y_{i+1,l+1} leaves B(varpi_ell) for ell > r+1, so
        # B(varpi_n) takes Y_{i,l} -> Y_{i+1,l-1}
        delta = 1 if ell <= rs.r + 1 else -1
        bad = check_twist(g, lambda e, rs=rs, d=delta: phi_exponents(rs, e, d),
                          lambda i: i + 1)
        ok = ok and not bad
    # tableau promotion agrees with the monomial map node-wise
    for (n, ell) in ((3, 1), (3, 2), (5, 2), (5, 3)):
        rs = RootSystem.for_fundamental(n, ell)
        for T in all_tableaux(rs, ell):
            for j in range(-1, ell + 1):
                lhs = phi_exponents(rs, tab_exponents(rs, ell, T, j))
                T2, j2 = tab_promotion(rs, T, j)
                ok = ok and exp_key(lhs) == exp_key(tab_exponents(rs, ell, T2, j2))
    assert report(8, ok, "promotion intertwines the operators with the "
                         "label rotation; tableau and monomial promotion "
                         "agree node-wise")


def test_criterion_9_shift_automorphisms():
    ok = True
    for (n, ell, p) in ((3, 1, 4), (3, 2, 2), (3, 3, 4),
                        (5, 1, 6), (5, 3, 2), (5, 5, 6)):
        rs = RootSystem.for_fundamental(n, ell)
        g = generate(rs, [fundamental_anchor(rs, ell)],
                     (-3 * (n + 1), 3 * (n + 1)))
        ok = ok and check_shift_automorphism(g, -p) == []
        ok = ok and check_shift_automorphism(g, p) == []
    assert report(9, ok, "the stated shift maps act as label-preserving "
                         "graph automorphisms for ell in {1, r+1, n}")


APPENDIX_1 = {
    "M": ("1,1 1,-1 0,2^-1 0,0^-1", 0),
    "A": ("1,3^-1 1,-1 2,2 0,0^-1", 0),
    "B": ("1,3^-1 1,1^-1 2,2 2,0", 0),
    "C": ("1,-1 2,4^-1 3,3 0,0^-1", 0),
    "D": ("1,1^-1 2,4^-1 2,0 3,3", 0),
    "E": ("1,-1 3,5^-1 0,4 0,0^-1", 0),
    "F": ("2,4^-1 2,2^-1 3,3 3,1", 0),
    "G": ("1,1^-1 2,0 3,5^-1 0,4", 0),
    "H": ("2,2^-1 3,5^-1 3,1 0,4", 0),
    "J": ("3,5^-1 3,3^-1 0,4 0,2", 0),
    "R1": ("1,5 1,1^-1 2,0 0,6^-1", -1),
    "R2": ("1,5 2,2^-1 3,1 0,6^-1", -1),
    "R3": ("1,5 3,3^-1 0,6^-1 0,2", -1),
    "R4": ("1,7^-1 2,6 2,2^-1 3,1", -1),
    "R5": ("1,7^-1 2,6 3,3^-1 0,2", -1),
    "R6": ("2,8^-1 3,7 3,3^-1 0,2", -1),
    "X": ("1,5 1,3 0,6^-1 0,4^-1", -2),
}
APPENDIX_2 = {
    "M": ("1,1 1,-5 0,2^-1 0,-4^-1", 1),
    "A": ("1,3^-1 1,-5 2,2 0,-4^-1", 1),
    "B": ("1,3^-1 1,-3^-1 2,2 2,-4", 1),
    "C": ("1,-5 2,4^-1 3,3 0,-4^-1", 1),
    "D": ("1,-3^-1 2,4^-1 2,-4 3,3", 1),
    "E": ("1,-5 3,5^-1 0,4 0,-4^-1", 1),
    "F": ("2,4^-1 2,-2^-1 3,3 3,-3", 1),
    "G": ("1,-3^-1 2,-4 3,5^-1 0,4", 1),
    "H": ("2,-2^-1 3,5^-1 3,-3 0,4", 1),
    "J": ("3,5^-1 3,-1^-1 0,4 0,-2", 1),
    "R1": ("1,5 1,-3^-1 2,-4 0,6^-1", 0),
    "R2": ("1,5 2,-2^-1 3,-3 0,6^-1", 0),
    "R3": ("1,5 3,-1^-1 0,6^-1 0,-2", 0),
    "R4": ("1,7^-1 2,6 2,-2^-1 3,-3", 0),
    "R5": ("1,7^-1 2,6 3,-1^-1 0,-2", 0),
    "R6": ("2,8^-1 3,7 3,-1^-1 0,-2", 0),
    "X": ("1,5 1,-1 0,6^-1 0,0^-1", -1),
}
APPENDIX_EDGES = [
    ("M", 1, "A"), ("A", 1, "B"), ("A", 2, "C"), ("B", 2, "D"), ("C", 1, "D"),
    ("C", 3, "E"), ("D", 2, "F"), ("D", 3, "G"), ("E", 1, "G"), ("F", 3, "H"),
    ("G", 2, "H"), ("G", 0, "R1"), ("H", 3, "J"), ("H", 0, "R2"),
    ("R1", 2, "R2"), ("J", 0, "R3"), ("R2", 3, "R3"), ("R2", 1, "R4"),
    ("R3", 0, "X"), ("R3", 1, "R5"), ("R4", 3, "R5"), ("R5", 2, "R6"),
]


def test_criterion_10_appendix_fragments():
    rs = RootSystem(3, parity=0)
    ok = True
    for golden in (APPENDIX_1, APPENDIX_2):
        nodes = {k: mono(rs, s, d) for k, (s, d) in golden.items()}
        g = generate(rs, [nodes["M"]], (-8, 10))
        if any(m not in g.index for m in nodes.values()):
            ok = False
            continue
        name_of = {g.index[m]: k for k, m in nodes.items()}
        induced = sorted((name_of[s], i, name_of[d]) for (s, i, d) in g.edges()
                         if s in name_of and d in name_of)
        ok = ok and induced == sorted(APPENDIX_EDGES)
    assert report(10, ok, "both displayed crystal fragments reproduced "
                          "node-for-node and edge-for-edge (including the "
                          "dashed 0-arrow inside the window)")


def test_criterion_11a_unity_dimensions_and_relations():
    ok = True
    for (n, ell, L, dim) in ((3, 1, 1, 4), (3, 1, 2, 8), (3, 2, 2, 12),
                             (5, 3, 2, 40)):
        spec = specialize_thin(n, ell, L)
        ok = ok and len(spec) == dim == L * comb(n + 1, ell)
        rep = relation_check_eps(spec, rmax=min(spec.N - 1, 3),
                                 serre_rmax=2 if n == 3 else 1)
        ok = ok and rep.ok
        ok = ok and cyclic_generation_check(spec)
    for L in (1, 2):
        spec = specialize_doubled(L)
        ok = ok and len(spec) == 16 * L * L
        rep = relation_check_eps(spec, rmax=3, serre_rmax=2 if L == 1 else 1)
        ok = ok and rep.ok
    assert report("11a", ok, "root-of-unity dimensions L*C(n+1,ell) and "
                             "16L^2; all specialized relations residual "
                             "zero; thin modules simple (hence cyclic)")


def test_criterion_11b_doubled_cyclic_generation():
    """Cyclic generation of the specialized doubled-weight module: for
    L = 1, 2 one l-weight basis vector generates it.  The module is not
    simple, so not every basis vector does.

    The joint spectrum is simple (asserted), so every submodule is
    spanned by basis vectors, and a basis vector generates the module
    iff it reaches every basis vector in the nonzero-entry digraph.
    Generation by the l-extremal vector is not asserted: in this basis
    the anchor residue generates a proper submodule.
    """
    generators = {}
    for L in (1, 2):
        spec = specialize_doubled(L)
        assert joint_spectrum_simple(spec)
        n = len(spec)
        gens = [k for k in range(n) if len(generated_submodule(spec, k)) == n]
        generators[L] = (f"{spec.basis[gens[0]]} ({len(gens)} of {n} "
                         f"basis vectors generate)" if gens else None)
    ok = all(generators.values())
    assert report("11b", ok, "specialized doubled-weight module generated "
                             "by one l-weight vector for L = 1, 2 "
                             f"(generators: {generators})")


def test_criterion_12_property_suites():
    import test_properties as props
    props.test_laurent_ring_axioms()
    props.test_rational_field_axioms()
    props.test_crystal_local_inverse_and_weight_identity()
    props.test_weight_column_sum_consistency()
    props.test_serialization_round_trip()
    assert report(12, True, "ring axioms, crystal local inverses, weight "
                            "identities, serialization round-trips: 500+ "
                            "randomized cases each, 0 failures")
