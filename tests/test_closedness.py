import pytest

from torcrys.closedness import (closed_report, fundamental_anchor,
                                kashiwara_closed, qclosed_direction,
                                sl2_qclosed, sl2_row_e, sl2_row_f,
                                sl2_simple_qchar)
from torcrys.crystal import generate, sub_crystal
from torcrys.lattice import RootSystem
from torcrys.closedness import qclosed_direction_classical
from torcrys.monomial import a_monomial, xi_drop
from torcrys.tableaux import tab_monomial


def test_sl2_simple_qchar_fundamental():
    assert sl2_simple_qchar({0: 1}) == [({0: 1}, 1), ({2: -1}, 1)]


def test_sl2_simple_qchar_tensor():
    char = sl2_simple_qchar({4: 1, 0: 1})
    assert ({4: 1, 0: 1}, 1) in char and ({4: 1, 2: -1}, 1) in char
    assert ({6: -1, 0: 1}, 1) in char and ({6: -1, 2: -1}, 1) in char
    assert len(char) == 4


def test_sl2_simple_qchar_string():
    char = sl2_simple_qchar({0: 1, 2: 1})
    assert char == sorted([({0: 1, 2: 1}, 1), ({0: 1, 4: -1}, 1),
                           ({2: -1, 4: -1}, 1)], key=lambda t: sorted(t[0].items()))


def test_string_position_rules():
    from torcrys.closedness import _general_position, _peel_strings
    # adjacent or overlapping-not-nested pairs are special
    assert not _general_position((0, 2), (4, 1))     # {0,2} next to {4}
    assert not _general_position((0, 2), (2, 2))     # {0,2} and {2,4} overlap
    assert _general_position((0, 3), (2, 1))         # nested
    assert _general_position((0, 1), (0, 1))         # equal
    assert _general_position((0, 1), (6, 2))         # far apart
    # maximal-first peeling produces the canonical nested decomposition
    assert _peel_strings({0: 1, 2: 2, 4: 1}) == [(0, 3), (2, 1)]
    with pytest.raises(ValueError):
        sl2_simple_qchar({0: -1})


def test_sl2_multiplicity():
    # two equal strings: character of V(Y_0)^{x2} with a multiplicity
    char = dict((tuple(sorted(r.items())), m) for r, m in sl2_simple_qchar({0: 2}))
    assert char[((0, 2),)] == 1
    assert char[((0, 1), (2, -1))] == 2
    assert char[((2, -2),)] == 1


def test_sl2_example_not_qclosed():
    S = [{4: 1, 0: 1}, {6: -1, 0: 1}, {6: -1, 2: -1}]
    res = sl2_qclosed(S)
    assert res.verdict == "not-closed"
    assert dict(res.witness) == {4: 1, 2: -1}
    # yet closed under the rank-one Kashiwara operators
    pool = {tuple(sorted(r.items())) for r in S}
    for r in S:
        for img in (sl2_row_f(r), sl2_row_e(r)):
            assert img is None or tuple(sorted(img.items())) in pool


def test_sl2_closed_example():
    S = [{0: 1}, {2: -1}]
    assert sl2_qclosed(S).verdict == "closed"


def test_xi0_image_of_subcrystal_is_closed():
    # the projected I_0-subcrystal is q-closed in every finite direction
    for (n, ell) in ((3, 1), (3, 2), (5, 1), (5, 2), (5, 3)):
        rs = RootSystem.for_fundamental(n, ell)
        g = generate(rs, [fundamental_anchor(rs, ell)],
                     (-2 * (n + 1), 2 * (n + 1)))
        sc = sub_crystal(g, fundamental_anchor(rs, ell), range(1, n + 1))
        proj = [xi_drop(rs, m, 0).exp_dict() for m in sc.nodes]
        for i in range(1, n + 1):
            rep = qclosed_direction_classical(n, proj, i)
            assert rep.qclosed is True, (n, ell, i)


def test_kashiwara_closed_drop_one():
    rs = RootSystem.for_fundamental(3, 1)
    g = generate(rs, [fundamental_anchor(rs, 1)], (-8, 12))
    ok, wit = kashiwara_closed(rs, g.nodes, rs.nodes, interior=g.interior)
    assert ok
    victim = next(m for k, m in enumerate(g.nodes)
                  if g.interior[k] and m != fundamental_anchor(rs, 1))
    rest = [m for m in g.nodes if m != victim]
    interior = [g.interior[g.index[m]] for m in rest]
    ok2, wit2 = kashiwara_closed(rs, rest, rs.nodes, interior=interior)
    assert not ok2 and wit2 == victim


def test_closed_report_theorem():
    expected = {3: {1, 2, 3}, 5: {1, 3, 5}}
    for n, closed_set in expected.items():
        for ell in range(1, n + 1):
            rep = closed_report(n, ell)
            assert rep.closed == (ell in closed_set), (n, ell)


def test_closed_report_witness_form_n5_ell2():
    rep = closed_report(5, 2)
    rs = RootSystem.for_fundamental(5, 2)
    d1 = rep.directions[1]
    assert d1.qclosed is False
    wits = {c.witness for c in d1.classes if c.verdict == "not-closed"}
    M1 = tab_monomial(rs, 2, (1, 2), 1)
    assert M1 * a_monomial(rs, 1, 2) in wits


def test_closed_report_window_guard():
    with pytest.raises(ValueError):
        closed_report(3, 1, window=(-3, 3))


def test_greedy_soundness_readd():
    # when a class closes, re-adding the emitted characters reproduces the
    # class content exactly (multiplicity bookkeeping is conservative)
    rs = RootSystem.for_fundamental(3, 1)
    g = generate(rs, [fundamental_anchor(rs, 1)], (-10, 14))
    for i in rs.nodes:
        rep = qclosed_direction(rs, g.nodes, i, window=(-10, 14))
        for cls in rep.classes:
            if cls.verdict != "closed":
                continue
            raw = {}
            for m in cls.members:
                key = tuple(sorted(m.row(i).items()))
                raw[key] = raw.get(key, 0) + 1
            rebuilt = {}
            seen = set()
            for m in cls.members:
                row = m.row(i)
                if not all(u >= 0 for u in row.values()):
                    continue
                key = tuple(sorted(row.items()))
                if key in seen:
                    continue
                seen.add(key)
                for piece, mult in sl2_simple_qchar(row):
                    k2 = tuple(sorted(piece.items()))
                    rebuilt[k2] = rebuilt.get(k2, 0) + mult
            # every singleton class rebuilt from its dominant member
            if len(seen) == 1 and sum(raw.values()) == sum(rebuilt.values()):
                assert raw == rebuilt


def test_projected_subcrystals_closed_in_every_direction():
    # the I_j-subcrystal through the rotated anchor, projected by erasing
    # row j and relabeled so that j plays the role of node 0, is q-closed
    from torcrys.monomial import phi_exponents
    for (n, ell) in ((3, 1), (3, 2), (5, 3)):
        rs = RootSystem.for_fundamental(n, ell)
        g = generate(rs, [fundamental_anchor(rs, ell)],
                     (-2 * (n + 1), 2 * (n + 1) + n + 1))
        for j in range(min(n, 3) + 1):
            anchor = fundamental_anchor(rs, ell)
            exps = anchor.exp_dict()
            for _ in range(j):
                exps = phi_exponents(rs, exps)
            node = next(m for m in g.nodes if m.exp_dict() == exps)
            J = [i for i in rs.nodes if i != j]
            sc = sub_crystal(g, node, J)
            proj = []
            for m in sc.nodes:
                proj.append({(rs.mod(i - j), l): u
                             for (i, l), u in m.exps if i != j})
            for i in range(1, n + 1):
                rep = qclosed_direction_classical(n, proj, i)
                assert rep.qclosed is True, (n, ell, j, i)


def test_witnesses_absent_from_the_set():
    rep = closed_report(5, 2)
    nodes = None
    for d in rep.directions:
        for cls in d.classes:
            if cls.verdict == "not-closed":
                if nodes is None:
                    rs = RootSystem.for_fundamental(5, 2)
                    g = generate(rs, [fundamental_anchor(rs, 2)], rep.window)
                    nodes = set(g.nodes)
                assert cls.witness not in nodes


def _partner_by_repeated_products(rs, m, i, target_row):
    """The class element with row i equal to target_row, reached by
    multiplying m by one A_{i,l}^{+-1} at a time."""
    from torcrys.closedness import _solve_a_exponents
    diff = dict(target_row)
    for l, u in m.row(i).items():
        diff[l] = diff.get(l, 0) - u
    c = _solve_a_exponents(rs, i, diff)
    out = m
    for l, v in sorted(c.items()):
        a = a_monomial(rs, i, l)
        if v < 0:
            a, v = a.inverse(), -v
        for _ in range(v):
            out = out * a
    return out


@pytest.mark.parametrize("n", [3, 5, 7])
def test_partner_matches_repeated_products(n):
    # every class of every direction of the closedness-sweep crystals:
    # the partners of its first member at the rows of all its members,
    # and at the rows of the first member's sl2 character when dominant
    from torcrys.closedness import (UnsupportedConfigError, _class_key_and_row,
                                    _partner)
    window = (-3 * (n + 1), 3 * (n + 1))
    compared = 0
    for ell in range(1, n + 1):
        rs = RootSystem.for_fundamental(n, ell)
        nodes = generate(rs, [fundamental_anchor(rs, ell)], window).nodes
        for i in rs.nodes:
            classes = {}
            for m in nodes:
                key = _class_key_and_row(rs, m, i)[0]
                classes.setdefault(key, []).append(m)
            for members in classes.values():
                base = members[0]
                targets = [m.row(i) for m in members]
                try:
                    targets += [row for row, _ in
                                sl2_simple_qchar(base.row(i))]
                except (UnsupportedConfigError, ValueError):
                    pass
                for row in targets:
                    got = _partner(rs, base, i, row)
                    assert got == _partner_by_repeated_products(
                        rs, base, i, row)
                    assert got.row(i) == row
                    compared += 1
                for m in members:
                    assert _partner(rs, base, i, m.row(i)) == m
    assert compared > len(nodes)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_row_keyed_check_matches_monomial_route(n):
    # every class of every direction of the closedness-sweep crystals,
    # window-boundary classes included: deciding a class on its row-i
    # tuples gives the verdict, witness and reason of the route that
    # keys the class by Monomials and builds every character partner
    from torcrys.closedness import (_check_class_general, _check_class_rows,
                                    _class_key_and_row, _partner)
    from torcrys.monomial import Monomial
    window = (-3 * (n + 1), 3 * (n + 1))
    verdicts = set()
    for ell in range(1, n + 1):
        rs = RootSystem.for_fundamental(n, ell)
        nodes = generate(rs, [fundamental_anchor(rs, ell)], window).nodes
        for i in rs.nodes:
            classes = {}
            for m in nodes:
                key = _class_key_and_row(rs, m, i)[0]
                classes.setdefault(key, []).append(m)
            chars = {}
            for key in sorted(classes):
                members = sorted(classes[key], key=Monomial.sort_key)
                rows = [tuple(sorted(m.row(i).items())) for m in members]
                got = _check_class_rows(rs, i, members, rows, chars)
                want = _check_class_general(
                    members,
                    row_of=lambda m: m.row(i),
                    raise_partner=lambda m, l: m * a_monomial(rs, i, l),
                    char_partner=lambda m, row: _partner(rs, m, i, row))
                assert got.members == want.members
                assert (got.verdict, got.witness, got.reason) == \
                    (want.verdict, want.witness, want.reason), (ell, i, key)
                verdicts.add((want.verdict, want.reason))
    assert verdicts >= {("closed", ""),
                        ("not-closed", "maximal element not dominant"),
                        ("not-closed", "required monomial absent")}


def test_qclosed_direction_fails_on_a_deleted_member():
    # deleting either member of a closed two-member class breaks
    # q-closedness, with the deleted monomial as the witness: once as a
    # required monomial that is absent, once as the raising partner of
    # a maximal element that is not dominant
    rs = RootSystem.for_fundamental(3, 1)
    window = (-12, 12)
    nodes = generate(rs, [fundamental_anchor(rs, 1)], window).nodes
    rep = qclosed_direction(rs, nodes, 1, window=window)
    assert rep.qclosed is True
    pair = next(c.members for c in rep.classes
                if c.verdict == "closed" and len(c.members) == 2)
    reasons = set()
    for victim in pair:
        rest = [m for m in nodes if m != victim]
        mutated = qclosed_direction(rs, rest, 1, window=window)
        assert mutated.qclosed is False
        assert mutated.witness == victim
        reasons.add(next(c.reason for c in mutated.classes
                         if c.verdict == "not-closed"))
    assert reasons == {"maximal element not dominant",
                       "required monomial absent"}
