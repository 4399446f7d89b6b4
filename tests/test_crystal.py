import json
from fractions import Fraction

import pytest

from torcrys.crystal import (ValidationErrorForGraph, WindowError,
                             check_shift_automorphism, check_twist, e_tilde,
                             f_tilde, generate, is_extremal, row_stats, stats,
                             sub_crystal)
from torcrys.lattice import RootSystem, Weight
from torcrys.monomial import (Monomial, ParityError, a_exponents,
                              from_variables, monomial_from_json,
                              phi_exponents, psi_exponents, twist_psi)


def rs1():
    return RootSystem.for_fundamental(3, 1)


def M0(rs):
    return from_variables(rs, [(1, 0, 1), (0, 1, -1)], rs.varpi(1))


def brute_stats(row, lo=-50, hi=50):
    # direct scan over an explicit L-range, straight from the defining sums
    phis = {L: sum(u for l, u in row.items() if l <= L) for L in range(lo, hi)}
    epss = {L: -sum(u for l, u in row.items() if l >= L) for L in range(lo, hi)}
    phi = max(0, max(phis.values()))
    eps = max(0, max(epss.values()))
    p = max((L for L, v in epss.items() if v == eps), default=None) if eps else None
    qq = min((L for L, v in phis.items() if v == phi), default=None) if phi else None
    return eps, phi, p, qq


def test_stats_examples():
    rs = rs1()
    st = stats(rs, M0(rs), 1)
    assert (st.eps, st.phi, st.p, st.qq) == (0, 1, None, 0)
    m2 = from_variables(rs, [(2, 1, 1), (1, 2, -1)], rs.varpi(1) - rs.alpha(1))
    st = stats(rs, m2, 1)
    assert (st.eps, st.phi, st.p) == (1, 0, 2)
    from torcrys.monomial import identity_monomial
    st = stats(rs, identity_monomial(rs), 2)
    assert (st.eps, st.phi) == (0, 0)


def test_stats_against_scan_oracle():
    import random
    rng = random.Random(7)
    for _ in range(200):
        row = {}
        for _ in range(rng.randint(0, 5)):
            row[2 * rng.randint(-6, 6)] = rng.randint(-3, 3)
        row = {l: u for l, u in row.items() if u}
        st = row_stats(row)
        assert (st.eps, st.phi, st.p, st.qq) == brute_stats(row)


def test_a_exponents_memo_matches_formula():
    # every legal (i, l) in the window, labels given unreduced too: the
    # memoised value is the four-term formula, read-only and reused;
    # illegal parity raises on every call and is never memoised
    for n, parity in ((3, 0), (3, 1), (5, 0), (7, 1)):
        rs = RootSystem(n, parity=parity)
        for i in range(-1, n + 2):
            j = rs.mod(i)
            for l in range(-3 * (n + 1), 3 * (n + 1) + 1):
                if l % 2 == rs.s(j):
                    for _ in range(2):
                        with pytest.raises(ParityError):
                            a_exponents(rs, i, l)
                    assert (i, l) not in rs.a_exps
                    continue
                got = a_exponents(rs, i, l)
                assert got == {(j, l - 1): 1, (j, l + 1): 1,
                               (rs.mod(j - 1), l): -1, (rs.mod(j + 1), l): -1}
                assert a_exponents(rs, i, l) is got
                with pytest.raises(TypeError):
                    got[(j, l)] = 1


def test_kashiwara_operators_paper_chain():
    rs = rs1()
    m = M0(rs)
    f1 = f_tilde(rs, m, 1)
    assert str(f1) == "Y(1,2)^-1*Y(2,1)"
    assert e_tilde(rs, f1, 1) == m
    assert e_tilde(rs, m, 1) is None
    rs2 = RootSystem.for_fundamental(3, 2)
    mb = from_variables(rs2, [(2, 0, 1), (0, 2, -1)], rs2.varpi(2))
    assert str(f_tilde(rs2, mb, 2)) == "Y(0,2)^-1*Y(1,1)*Y(2,2)^-1*Y(3,1)"


def test_generate_fundamental_window():
    rs = rs1()
    g = generate(rs, [M0(rs)], (-8, 12))
    assert len(g) == 20  # five shift periods of the four-element cycle
    base = {"Y(0,1)^-1*Y(1,0)", "Y(1,2)^-1*Y(2,1)", "Y(2,3)^-1*Y(3,2)",
            "Y(0,3)*Y(3,4)^-1"}
    names = {str(m) for m in g.nodes}
    assert base <= names
    # tau_{4,-delta} translates of the period are present
    per0 = sorted(str(m) for m in g.nodes if m.weight.delta == 0)
    per1 = sorted(str(m) for m in g.nodes if m.weight.delta == -1)
    assert len(per0) == 4 and len(per1) == 4


def test_generate_single_node_window():
    rs = rs1()
    m = M0(rs)
    g = generate(rs, [m], (0, 1))
    assert len(g) == 1 and not g.f_edges and not g.e_edges
    assert g.interior == [False]


def test_generate_refuses_inconsistent_weights():
    rs = rs1()
    m = M0(rs)
    up = rs.delta_weight()
    # equal exponents, different delta
    with pytest.raises(ValidationErrorForGraph):
        generate(rs, [m, Monomial(m.exps, m.weight + up)], (-8, 12))
    # f~_1 m reached from m with a delta other than its own
    fm = f_tilde(rs, m, 1)
    with pytest.raises(ValidationErrorForGraph):
        generate(rs, [m, Monomial(fm.exps, fm.weight + up)], (-8, 12))
    # column sums that differ from the h-part
    with pytest.raises(ValidationErrorForGraph):
        generate(rs, [Monomial(m.exps, rs.varpi(2))], (-8, 12))
    # consistent anchors on one crystal are fine
    assert len(generate(rs, [m, fm], (-8, 12))) == 20


def test_generate_rejects_bad_anchor():
    rs = rs1()
    with pytest.raises(WindowError):
        generate(rs, [M0(rs)], (5, 9))


def test_sub_crystal_counts():
    from math import comb
    rs = RootSystem.for_fundamental(5, 2)
    m = from_variables(rs, [(2, 0, 1), (0, 2, -1)], rs.varpi(2))
    g = generate(rs, [m], (-10, 12))
    sc = sub_crystal(g, m, range(1, 6))
    assert len(sc) == comb(6, 2)
    empty = sub_crystal(g, m, [])
    assert len(empty) == 1


def test_extremality():
    rs = rs1()
    g = generate(rs, [M0(rs)], (-16, 16))
    rep = is_extremal(rs, M0(rs), 4, (-30, 30))
    assert rep.verdict == "extremal"
    # a node with both eps and phi positive in one direction (a row with a
    # positive power below a negative one) is not extremal at step 0
    rs5 = RootSystem(3, parity=0)
    mid = from_variables(rs5, [(0, -2, 1), (0, 2, -1), (1, 1, 1), (3, -1, -1)],
                         Weight((0, 1, 0, -1), Fraction(0)))
    rep2 = is_extremal(rs5, mid, 3, (-30, 30))
    assert rep2.verdict == "not-extremal"
    assert rep2.witness_direction == 0
    # extremal anchor of the doubled-weight family at s = 1
    rs5 = RootSystem(3, parity=0)
    ms = from_variables(rs5, [(1, 1, 1), (1, -5, 1), (0, 2, -1), (0, -4, -1)],
                        Weight((-2, 2, 0, 0), Fraction(1)))
    assert is_extremal(rs5, ms, 4, (-40, 40)).verdict == "extremal"


def test_extremality_window_inconclusive():
    rs = rs1()
    rep = is_extremal(rs, M0(rs), 4, (-2, 3))
    assert rep.verdict == "inconclusive-window"


def test_check_twist_promotion():
    rs = rs1()
    g = generate(rs, [M0(rs)], (-10, 14))
    bad = check_twist(g, lambda e: phi_exponents(rs, e), lambda i: i + 1)
    assert bad == []
    # identity map with shifted labels must violate on a nontrivial crystal
    bad2 = check_twist(g, lambda e: dict(e), lambda i: i + 1)
    assert bad2


def test_check_twist_psi():
    # psi exchanges B(varpi_1) and B(varpi_3), so the graph holds both
    rs = rs1()
    g = generate(rs, [M0(rs), twist_psi(rs, M0(rs))], (-10, 14))
    bad = check_twist(g, lambda e: psi_exponents(rs, e), lambda i: -i)
    assert bad == []
    # on B(varpi_1) alone the operators still commute, but every
    # interior image is missing from the crystal
    g1 = generate(rs, [M0(rs)], (-10, 14))
    bad1 = check_twist(g1, lambda e: psi_exponents(rs, e), lambda i: -i)
    assert bad1 and all(kind == "missing" for kind, _, _ in bad1)
    assert len(bad1) == sum(g1.interior)


def test_local_inverses_and_weight_identity():
    rs = RootSystem.for_fundamental(3, 2)
    m = from_variables(rs, [(2, 0, 1), (0, 2, -1)], rs.varpi(2))
    g = generate(rs, [m], (-8, 10))
    for idx in g.interior_indices():
        node = g.nodes[idx]
        for i in rs.nodes:
            st = stats(rs, node, i)
            assert st.phi - st.eps == node.weight.pair(i)
            fm = f_tilde(rs, node, i)
            if fm is not None:
                assert e_tilde(rs, fm, i) == node
            em = e_tilde(rs, node, i)
            if em is not None:
                assert f_tilde(rs, em, i) == node


def test_shift_equivariance_and_z_ell():
    rs = rs1()
    g = generate(rs, [M0(rs)], (-12, 16))
    assert check_shift_automorphism(g, -(rs.n + 1)) == []
    rs2 = RootSystem.for_fundamental(3, 2)
    g2 = generate(rs2, [from_variables(rs2, [(2, 0, 1), (0, 2, -1)], rs2.varpi(2))],
                  (-12, 16))
    assert check_shift_automorphism(g2, -2) == []


def test_shift_automorphism_reports_missing_images():
    # on B(varpi_1) for n = 3 only shifts by multiples of n + 1 map the
    # crystal into itself; every other shift sends each interior node
    # that still fits in the window to a non-node
    from torcrys.closedness import fundamental_anchor
    rs = rs1()
    g = generate(rs, [fundamental_anchor(rs, 1)], (-12, 12))
    for twop, misses in ((1, 22), (2, 21), (6, 17)):
        bad = check_shift_automorphism(g, twop)
        assert len(bad) == misses
        assert all(i is None and d not in {m.exps for m in g.nodes}
                   for _, i, d in bad)
    for twop in (4, 8):
        assert check_shift_automorphism(g, twop) == []


@pytest.mark.parametrize("n,ell,nodes,interior", [
    (7, 1, 39, 37), (7, 4, 1307, 1281), (7, 7, 39, 37),
    (9, 1, 49, 47), (9, 5, 5914, 5822), (9, 9, 49, 47)])
def test_promotion_and_shift_past_n5(n, ell, nodes, interior):
    # the acceptance suite's promotion and shift checks at n = 7 and 9
    # for the closed ell in {1, r+1, n}: on the promotion window,
    # phi_delta intertwines the operators with the label rotation
    # (delta = +1 for ell <= r+1, -1 otherwise); on closed_report's
    # window, the shift by p (n + 1 for ell in {1, n}, 2 for ell = r+1)
    # is a graph automorphism both ways
    from torcrys.closedness import fundamental_anchor
    rs = RootSystem.for_fundamental(n, ell)
    anchor = fundamental_anchor(rs, ell)
    g = generate(rs, [anchor], (-2 * (n + 1), 2 * (n + 1) + n))
    assert (len(g.nodes), sum(g.interior)) == (nodes, interior)
    delta = 1 if ell <= rs.r + 1 else -1
    assert check_twist(g, lambda e: phi_exponents(rs, e, delta),
                       lambda i: i + 1) == []
    p = 2 if ell == rs.r + 1 else n + 1
    g = generate(rs, [anchor], (-3 * (n + 1), 3 * (n + 1)))
    assert check_shift_automorphism(g, p) == []
    assert check_shift_automorphism(g, -p) == []


@pytest.mark.parametrize("n,misses", [(3, 17), (5, 27)])
def test_check_twist_reports_missing_promotion_images(n, misses):
    # criterion 8's window: phi_{+1} sends every interior node of
    # B(varpi_n) out of the crystal, phi_{-1} into it
    from torcrys.closedness import fundamental_anchor
    rs = RootSystem.for_fundamental(n, n)
    g = generate(rs, [fundamental_anchor(rs, n)],
                 (-2 * (n + 1), 2 * (n + 1) + n))
    bad = check_twist(g, lambda e: phi_exponents(rs, e, 1), lambda i: i + 1)
    assert len(bad) == misses == sum(g.interior)
    assert all(kind == "missing" for kind, _, _ in bad)
    assert check_twist(g, lambda e: phi_exponents(rs, e, -1),
                       lambda i: i + 1) == []


def test_graph_exports():
    rs = rs1()
    g = generate(rs, [M0(rs)], (-4, 8))
    dot = g.to_dot()
    assert dot.startswith("digraph") and 'label="1"' in dot
    data = g.to_json()
    assert len(data["nodes"]) == len(g)
    assert all(len(e) == 3 for e in data["edges"])
    # bit-exact round trip of the node list
    again = [monomial_from_json(d) for d in json.loads(json.dumps(data))["nodes"]]
    assert again == g.nodes


def reference_bfs(rs, anchors, window, labels=None):
    """Memo-free closure straight from the public f~/e~ with labels in
    `labels` (all of them by default): the node set, the f~ and e~
    edges keyed by (monomial, label), and the nodes that some operator
    leads out of the window."""
    lmin, lmax = window
    labels = rs.nodes if labels is None else labels

    def inside(m):
        return all(lmin <= l <= lmax for (_, l), _ in m.exps)

    seen, todo = set(anchors), list(anchors)
    edges = {"f": {}, "e": {}}
    clipped = set()
    while todo:
        m = todo.pop()
        for i in labels:
            for kind, op in (("f", f_tilde), ("e", e_tilde)):
                img = op(rs, m, i)
                if img is None:
                    continue
                if not inside(img):
                    clipped.add(m)
                    continue
                edges[kind][(m, i)] = img
                if img not in seen:
                    seen.add(img)
                    todo.append(img)
    return seen, edges["f"], edges["e"], clipped


def assert_matches_reference(g, ref):
    nodes, f_ref, e_ref, clipped = ref
    assert set(g.nodes) == nodes and len(g.nodes) == len(nodes)
    assert g.nodes == sorted(nodes, key=lambda m: m.sort_key())
    assert all(g.index[m] == k for k, m in enumerate(g.nodes))
    assert {(g.nodes[s], i): g.nodes[d] for (s, i), d in g.f_edges.items()} == f_ref
    assert {(g.nodes[s], i): g.nodes[d] for (s, i), d in g.e_edges.items()} == e_ref
    assert {m for k, m in enumerate(g.nodes) if not g.interior[k]} == clipped


def _bfs_cases():
    from torcrys.closedness import fundamental_anchor
    from torcrys.torep import doubled_anchor
    for n in (3, 5, 7):
        for ell in range(1, n + 1):
            rs = RootSystem.for_fundamental(n, ell)
            yield pytest.param(rs, [fundamental_anchor(rs, ell)],
                               (-2 * (n + 1), 2 * (n + 1)), id=f"n{n}_ell{ell}")
    rs = RootSystem(3, parity=0)
    yield pytest.param(rs, [doubled_anchor(rs, s) for s in (0, 1)], (-14, 14),
                       id="doubled_s01")
    # the middle of a 1-string of length 2: the first node has both an
    # f~_1 and an e~_1 image to compute, from one row triple
    yield pytest.param(rs, [f_tilde(rs, doubled_anchor(rs, 0), 1)], (-14, 14),
                       id="doubled_mid")


@pytest.mark.parametrize("rs,anchors,window", list(_bfs_cases()))
def test_generate_matches_reference_bfs(rs, anchors, window):
    g = generate(rs, anchors, window)
    ref = reference_bfs(rs, anchors, window)
    assert_matches_reference(g, ref)
    assert any(g.interior) and ref[1] and ref[2]


@pytest.mark.parametrize("rs,anchors,window", list(_bfs_cases()))
def test_sub_crystal_matches_reference_bfs(rs, anchors, window):
    # from a node in the middle of the graph: the classical labels
    # 1..n, and the two labels 0 and 1
    g = generate(rs, anchors, window)
    m = g.nodes[len(g) // 2]
    for J in (range(1, rs.n + 1), (0, 1)):
        sc = sub_crystal(g, m, J)
        assert_matches_reference(sc, reference_bfs(rs, [m], window, J))
        assert sc.anchors == [m] and len(sc) < len(g)


def assert_row_table(g):
    """Each node's rows by number in g's row table are its rows."""
    assert len(g.node_rows) == len(g.nodes)
    assert len(set(g.rows)) == len(g.rows)
    for m, numbers in zip(g.nodes, g.node_rows):
        assert len(numbers) == g.rs.n + 1
        for j, r in enumerate(numbers):
            assert dict(g.rows[r]) == m.row(j), (m, j)
            assert [l for l, _ in g.rows[r]] == sorted(m.row(j)), (m, j)


@pytest.mark.parametrize("rs,anchors,window", list(_bfs_cases()))
def test_row_table_matches_the_rows(rs, anchors, window):
    # the row table of the graph and of two subcrystals
    g = generate(rs, anchors, window)
    assert_row_table(g)
    m = g.nodes[len(g) // 2]
    for J in (range(1, rs.n + 1), (0, 1)):
        assert_row_table(sub_crystal(g, m, J))


def test_row_table_of_the_criterion_6_modules():
    from torcrys.torep import build_doubled, build_thin
    for mod in [build_thin(3, ell, (-24, 24)) for ell in (1, 2, 3)] + \
            [build_doubled(2, (-14, 14))]:
        assert_row_table(mod.graph)


@pytest.mark.parametrize("i, l", [(1, 1), (0, 0), (2, -2)])
def test_generate_refuses_an_anchor_of_the_wrong_parity(i, l):
    # the anchor Y_{1,0} Y_{0,1}^-1 with one more variable Y_{i,l}^{+-1}
    # outside the parity class of row i (and a weight that matches its
    # column sums), alone and beside a legal anchor
    rs = rs1()
    good = M0(rs)
    for u in (1, -1):
        h = list(good.weight.h)
        h[i] += u
        bad = Monomial(tuple(sorted(good.exps + (((i, l), u),))),
                       Weight(tuple(h), 0))
        for anchors in ([bad], [good, bad]):
            with pytest.raises(ParityError):
                generate(rs, anchors, (-8, 8))


def test_kashiwara_closed_misses_dropped_f_image():
    from torcrys.closedness import fundamental_anchor, kashiwara_closed
    rs = RootSystem.for_fundamental(5, 3)
    g = generate(rs, [fundamental_anchor(rs, 3)], (-12, 12))
    assert kashiwara_closed(rs, g.nodes, rs.nodes, interior=g.interior) == (True, None)
    k, i, img = next((k, i, f_tilde(rs, m, i))
                     for k, m in enumerate(g.nodes) if g.interior[k]
                     for i in rs.nodes if f_tilde(rs, m, i) is not None)
    pool = [m for m in g.nodes if m != img]
    # only the chosen node is checked, so only its f~_i-image can be missed
    only = [m == g.nodes[k] for m in pool]
    assert kashiwara_closed(rs, pool, rs.nodes, interior=only) == (False, img)
