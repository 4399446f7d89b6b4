import gc
import hashlib
from itertools import product

import pytest

from torcrys.closedness import (closed_report, fundamental_anchor,
                                kashiwara_closed, qclosed_direction,
                                sl2_qclosed, sl2_row_e, sl2_row_f,
                                sl2_simple_qchar)
from torcrys.crystal import generate, sub_crystal
from torcrys.lattice import RootSystem, Weight
from torcrys.closedness import qclosed_direction_classical
from torcrys.monomial import (Monomial, a_exponents, a_monomial, exp_key,
                              exp_mul, xi_drop)
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
    assert _general_position((0, 2), (1, 1))         # different parity
    assert _general_position((0, 1), (3, 1))
    # maximal-first peeling produces the canonical nested decomposition
    assert _peel_strings({0: 1, 2: 2, 4: 1}) == [(0, 3), (2, 1)]
    with pytest.raises(ValueError):
        sl2_simple_qchar({0: -1})


def test_peeled_strings_are_in_general_position():
    # every dominant row on the positions 0, 2, ..., 12 with exponents at
    # most 3, and on the positions 0, 1, ..., 6 with exponents at most 2:
    # the maximal-first peeling never leaves two strings in special
    # position, so sl2_simple_qchar never refuses a dominant row
    from torcrys.closedness import _general_position, _peel_strings
    rows = 0
    for step, top in ((2, 4), (1, 3)):
        for exps in product(range(top), repeat=7):
            row = {step * k: u for k, u in enumerate(exps) if u}
            if not row:
                continue
            strings = _peel_strings(row)
            assert all(_general_position(s, t) for x, s in enumerate(strings)
                       for t in strings[x + 1:]), row
            rows += 1
    assert rows == 16383 + 2186


def test_special_position_memo_keeps_no_reference_cycle(monkeypatch):
    # a row the sl2 oracle refuses (no dominant row is refused, so the
    # refusal is patched in): the memo keeps the refusal's message, not
    # the error, whose traceback would hold the memo in a reference cycle
    from torcrys import closedness
    from torcrys.closedness import UnsupportedConfigError, _check_class_rows

    def refuse(row):
        raise UnsupportedConfigError("q-strings (0, 1) and (2, 1) in "
                                     "special position")

    monkeypatch.setattr(closedness, "sl2_simple_qchar", refuse)
    row = ((0, 1), (2, 1))
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        chars = {}
        res = _check_class_rows(None, 1, ["m"], [row], chars)
        assert (res.verdict, chars[row]) == ("inconclusive", res.reason)
        assert "special position" in res.reason
        again = _check_class_rows(None, 1, ["m"], [row], chars)
        assert (again.verdict, again.reason) == (res.verdict, res.reason)
        del chars, res, again
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_sl2_mixed_parity_row_is_a_tensor_product():
    # q-strings of different parity are in general position: the
    # character of Y_0 Y_1 is the product of those of Y_0 and Y_1, and
    # the row gets a verdict
    assert sl2_simple_qchar({0: 1, 1: 1}) == sorted(
        [({0: 1, 1: 1}, 1), ({0: 1, 3: -1}, 1), ({1: 1, 2: -1}, 1),
         ({2: -1, 3: -1}, 1)], key=lambda t: sorted(t[0].items()))
    full = [{0: 1, 1: 1}, {0: 1, 3: -1}, {1: 1, 2: -1}, {2: -1, 3: -1}]
    assert sl2_qclosed(full).verdict == "closed"
    res = sl2_qclosed(full[:3])
    assert (res.verdict, dict(res.witness)) == ("not-closed", {2: -1, 3: -1})


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


def _times_a_products(rs, m, i, c):
    """m * prod_l A_{i,l}^{c_l}, multiplying by one A_{i,l}^{+-1} at a
    time."""
    out = m
    for l, v in sorted(c.items()):
        a = a_monomial(rs, i, l)
        if v < 0:
            a, v = a.inverse(), -v
        for _ in range(v):
            out = out * a
    return out


def _partner_by_repeated_products(rs, m, i, target_row):
    """The class element with row i equal to target_row, reached by
    multiplying m by one A_{i,l}^{+-1} at a time."""
    from torcrys.closedness import _solve_a_exponents
    diff = dict(target_row)
    for l, u in m.row(i).items():
        diff[l] = diff.get(l, 0) - u
    return _times_a_products(rs, m, i, _solve_a_exponents(rs, i, diff))


def _class_tables(rs, g, near_edge):
    """(i, class table, row table) for every direction i of the graph g,
    each on its own copy of g's row table."""
    from torcrys.closedness import _class_table
    for i in rs.nodes:
        rows = list(g.rows)
        numbers = {row: k for k, row in enumerate(rows)}
        yield i, _class_table(rs, g.nodes, g.node_rows, rows, numbers, i,
                              near_edge), rows


def _sweep_class_tables(n):
    """(ell, rs, nodes, i, class table, row table) for every direction i
    of the closedness-sweep crystals of rank n, no class at the window
    edge."""
    window = (-3 * (n + 1), 3 * (n + 1))
    for ell in range(1, n + 1):
        rs = RootSystem.for_fundamental(n, ell)
        g = generate(rs, [fundamental_anchor(rs, ell)], window)
        for i, table, rows in _class_tables(rs, g, [False] * len(g)):
            yield ell, rs, g.nodes, i, table, rows


@pytest.mark.parametrize("n", [3, 5, 7])
def test_class_keys_match_normalized_monomials(n):
    # every node and direction of the closedness-sweep crystals: the
    # class key is read off the Monomial m * prod_l A_{i,l}^{c_l}, c =
    # row i-1 of m, built from A_{i,l} products, as the numbers of its
    # rows in the row table (rows i-1, i and i+1 left out of the first
    # part) and its delta-coefficient, and in exponents by
    # _exponent_key; two nodes share a class exactly when these
    # normalized Monomials agree
    from torcrys.closedness import _exponent_key
    shortcut = normalized = 0
    for ell, rs, nodes, i, table, row_table in _sweep_class_tables(n):
        im, ip = rs.mod(i - 1), rs.mod(i + 1)
        number = {row: k for k, row in enumerate(row_table)}
        assert len(number) == len(row_table)
        key_of = {}
        position = {m: k for k, m in enumerate(nodes)}
        for key, (members, rows, _) in table.items():
            for m in members:
                c = m.row(im)
                norm = _times_a_products(rs, m, i, c)
                assert not norm.row(im)
                assert key == (
                    tuple(number[tuple(norm.row(j).items())]
                          for j in rs.nodes if j not in (im, i, ip)),
                    number[tuple(norm.row(i).items())],
                    number[tuple(norm.row(ip).items())],
                    norm.weight.delta), (ell, i, m)
                assert _exponent_key(rs, i, row_table, key) == (
                    tuple(((j, l), u) for (j, l), u in norm.exps
                          if j not in (im, i, ip)),
                    tuple(norm.row(i).items()), tuple(norm.row(ip).items()),
                    norm.weight.delta), (ell, i, m)
                assert key_of.setdefault(norm, key) == key
                assert rows[number[tuple(m.row(i).items())]] == position[m]
                shortcut += not c
                normalized += bool(c)
        assert len(key_of) == len(table), (ell, i)
    assert shortcut and normalized


@pytest.mark.parametrize("n", [3, 5, 7])
def test_partner_matches_repeated_products(n):
    # every class of every direction of the closedness-sweep crystals:
    # the partners of its first member at the rows of all its members,
    # and at the rows of the first member's sl2 character when dominant
    from torcrys.closedness import UnsupportedConfigError, _partner
    compared = 0
    for _, rs, nodes, i, table, _ in _sweep_class_tables(n):
        for members, _, _ in table.values():
            base = members[0]
            targets = [m.row(i) for m in members]
            try:
                targets += [row for row, _ in sl2_simple_qchar(base.row(i))]
            except (UnsupportedConfigError, ValueError):
                pass
            for row in targets:
                got = _partner(rs, base, i, row)
                assert got == _partner_by_repeated_products(rs, base, i, row)
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
                                    _partner)
    verdicts = set()
    for ell, rs, _, i, table, _ in _sweep_class_tables(n):
        chars = {}
        for key in sorted(table):
            members = sorted(table[key][0], key=Monomial.sort_key)
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


@pytest.mark.parametrize("n", [3, 5, 7])
def test_decided_classes_match_fresh_decisions(n, monkeypatch):
    # every class of every direction of the closedness-sweep crystals:
    # _decide_classes, which lends a closed or inconclusive verdict to
    # later classes with the same column of row-i numbers, gives the
    # members, verdict, witness and reason of a fresh decision with
    # empty memos; the greedy subtraction runs exactly on the classes
    # whose column is new or not closed, and fewer times than there are
    # classes
    from torcrys import closedness
    fresh = closedness._check_class_rows
    runs = 0

    def counted(*args):
        nonlocal runs
        runs += 1
        return fresh(*args)

    monkeypatch.setattr(closedness, "_check_class_rows", counted)
    classes = expected_runs = 0
    for ell, rs, _, i, table, row_table in _sweep_class_tables(n):
        got = closedness._decide_classes(rs, i, table, row_table).classes
        assert len(got) == len(table)
        kept = set()
        for res, (key, (members, rows, _)) in zip(got, table.items()):
            want = fresh(rs, i, members, [row_table[r] for r in rows], {})
            assert (res.members, res.verdict, res.witness, res.reason) == \
                (want.members, want.verdict, want.witness, want.reason), \
                (ell, i, key)
            column = tuple(rows)
            expected_runs += column not in kept
            if want.verdict != "not-closed":
                kept.add(column)
        classes += len(got)
    assert runs == expected_runs < classes


def test_qclosed_direction_decides_a_repeated_column_afresh_after_a_deletion():
    # in direction 0 of thin (3,2), a closed two-member class can repeat
    # the row-0 column of an earlier closed class; deleting its lower
    # member leaves a class whose highest row was decided closed before,
    # and that class must turn not-closed with the deleted monomial as
    # witness
    rs = RootSystem.for_fundamental(3, 2)
    window = (-12, 12)
    nodes = generate(rs, [fundamental_anchor(rs, 2)], window).nodes
    rep = qclosed_direction(rs, nodes, 0, window=window)
    assert rep.qclosed is True
    seen = set()
    for cls in rep.classes:
        column = tuple(tuple(m.row(0).items()) for m in cls.members)
        if cls.verdict == "closed" and len(cls.members) == 2 \
                and column in seen:
            break
        if cls.verdict == "closed":
            seen.add(column)
    else:
        pytest.fail("no closed two-member class repeats an earlier column")
    victim, kept = sorted(cls.members, key=lambda m: sum(m.row(0).values()))
    mutated = qclosed_direction(rs, [m for m in nodes if m != victim], 0,
                                window=window)
    assert mutated.qclosed is False
    assert mutated.witness == victim
    (res,) = [c for c in mutated.classes if kept in c.members]
    assert (res.members, res.verdict, res.witness, res.reason) == \
        ([kept], "not-closed", victim, "required monomial absent")


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


def test_qclosed_direction_fails_on_a_moved_delta():
    # moving the delta-coefficient of either member of a closed
    # two-member class up by one takes it out of the class, which breaks
    # q-closedness with the member as it was before the move as witness
    rs = RootSystem.for_fundamental(3, 1)
    window = (-12, 12)
    nodes = generate(rs, [fundamental_anchor(rs, 1)], window).nodes
    rep = qclosed_direction(rs, nodes, 1, window=window)
    pair = next(c.members for c in rep.classes
                if c.verdict == "closed" and len(c.members) == 2)
    for victim in pair:
        moved = Monomial(victim.exps,
                         Weight(victim.weight.h, victim.weight.delta + 1))
        mutated = [moved if m == victim else m for m in nodes]
        rep = qclosed_direction(rs, mutated, 1, window=window)
        assert rep.qclosed is False
        assert rep.witness == victim


@pytest.mark.parametrize("i", [-1, 4])
def test_qclosed_direction_refuses_a_direction_out_of_range(i):
    rs = RootSystem.for_fundamental(3, 1)
    window = (-12, 12)
    nodes = generate(rs, [fundamental_anchor(rs, 1)], window).nodes
    with pytest.raises(ValueError, match="out of range"):
        qclosed_direction(rs, nodes, i, window=window)


@pytest.fixture(scope="module")
def sweep_reports():
    """closed_report(n, ell) of the closedness sweep, by (n, ell)."""
    return {(n, ell): closed_report(n, ell)
            for n in (3, 5, 7) for ell in range(1, n + 1)}


def _interior_image_crystals():
    """The fifteen fundamental crystals of the closedness sweep, then the
    doubled-weight crystal, whose i-strings are long enough for a node
    to have both an e~_i- and an f~_i-image: (rs, anchor, window, ell),
    ell None for the doubled one."""
    from torcrys.torep import doubled_anchor
    out = []
    for n in (3, 5, 7):
        for ell in range(1, n + 1):
            rs = RootSystem.for_fundamental(n, ell)
            out.append(pytest.param(rs, fundamental_anchor(rs, ell),
                                    (-3 * (n + 1), 3 * (n + 1)), ell,
                                    id=f"n{n}_ell{ell}"))
    rs = RootSystem(3, parity=0)
    out.append(pytest.param(rs, doubled_anchor(rs, 0), (-14, 14), None,
                            id="doubled"))
    return out


@pytest.mark.parametrize("rs, anchor, window, ell", _interior_image_crystals())
def test_generate_keeps_every_interior_image(rs, anchor, window, ell,
                                             sweep_reports):
    # closed_report's Kashiwara verdict rests on this guarantee of
    # generate: every e~_i and f~_i image of an interior node is a node
    g = generate(rs, [anchor], window)
    assert kashiwara_closed(rs, g.nodes, rs.nodes,
                            interior=g.interior) == (True, None)
    if ell is not None:
        assert sweep_reports[rs.n, ell].kashiwara


def _missing_in_window_targets(n, ell, window):
    """The in-window targets m A_{i,p}^{-+1} of the thin module's x^-+_i
    entries that are not nodes of its crystal (dst None), recomputed as
    `torep._target` looks them up."""
    from torcrys.torep import build_module
    rs = RootSystem.for_fundamental(n, ell)
    mod = build_module(rs, [fundamental_anchor(rs, ell)], window, "thin")
    lo, hi = window
    out = set()
    for i in rs.nodes:
        for sign, table in ((-1, mod.minus_edges[i]), (1, mod.plus_edges[i])):
            for m, entries in zip(mod.graph.nodes, table):
                for dst, p, _ in entries:
                    if dst is not None:
                        continue
                    exps = exp_mul(m.exps, a_exponents(rs, i, p), sign=sign)
                    if all(lo <= l <= hi for _, l in exps):
                        out.add(Monomial(exp_key(exps),
                                         m.weight + rs.alpha(i).scaled(sign)))
    return out


# (missing in-window targets, distinct not-closed witnesses) of the
# crystals that are not closed, on closed_report's default window
_NOT_CLOSED_COUNTS = {(5, 2): (32, 25), (5, 4): (32, 25), (7, 2): (42, 35),
                      (7, 6): (42, 35), (7, 3): (306, 220), (7, 5): (306, 220)}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_closed_report_matches_the_builder(n, sweep_reports):
    # a crystal is closed exactly when the module built on it has no
    # x-entry whose target lies in the window but is not a node, and
    # every not-closed witness is such a target
    for ell in range(1, n + 1):
        rep = sweep_reports[n, ell]
        missing = _missing_in_window_targets(n, ell, rep.window)
        assert rep.closed == (not missing), (n, ell, len(missing))
        witnesses = {c.witness for d in rep.directions for c in d.classes
                     if c.verdict == "not-closed"}
        assert witnesses <= missing, (n, ell)
        assert (len(missing), len(witnesses)) == \
            _NOT_CLOSED_COUNTS.get((n, ell), (0, 0)), (n, ell)


# per ell = 1..n, the largest spread max l - min l over the variables of
# the members of a class decided closed or not closed, on
# closed_report's default window
_DECIDED_SPREAD = {3: [2, 2, 2], 5: [2, 4, 3, 4, 2],
                   7: [2, 6, 5, 4, 5, 6, 2]}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_decided_classes_are_small(n, sweep_reports):
    # every class that is not inconclusive has at most two members, and
    # its members' variables lie within the pinned spectral spread
    spreads = []
    for ell in range(1, n + 1):
        spread = 0
        for d in sweep_reports[n, ell].directions:
            for c in d.classes:
                if c.verdict == "inconclusive":
                    continue
                assert len(c.members) <= 2, (n, ell, d.i)
                ls = [l for m in c.members for (_, l), _ in m.exps]
                spread = max(spread, max(ls) - min(ls))
        spreads.append(spread)
    assert spreads == _DECIDED_SPREAD[n]


@pytest.mark.parametrize("n", [3, 5, 7])
def test_first_witness(n, sweep_reports):
    for ell in range(1, n + 1):
        rep = sweep_reports[n, ell]
        assert rep.closed == (ell in (1, (n + 1) // 2, n)), (n, ell)
        if rep.closed:
            assert rep.first_witness() == (None, None), (n, ell)
            continue
        d = next(d for d in rep.directions if d.qclosed is False)
        assert rep.first_witness() == (d.i, d.witness), (n, ell)
        assert d.witness is not None


@pytest.mark.parametrize("n", [3, 5, 7])
def test_classes_in_first_member_order_with_the_least_key_witness(
        n, sweep_reports):
    # every direction of the closedness-sweep reports: the classes come
    # in the order of their first members among the nodes, and the
    # direction's witness is that of the not-closed class with the least
    # class key in exponents
    from torcrys.closedness import _exponent_key, _near_edge
    with_witness = reordered = 0
    for ell in range(1, n + 1):
        rep = sweep_reports[n, ell]
        rs = RootSystem.for_fundamental(n, ell)
        g = generate(rs, [fundamental_anchor(rs, ell)], rep.window)
        position = {m: k for k, m in enumerate(g.nodes)}
        tables = _class_tables(rs, g, _near_edge(g.nodes, rep.window))
        for d, (i, table, rows) in zip(rep.directions, tables):
            assert d.i == i
            assert [c.members for c in d.classes] == \
                [members for members, _, _ in table.values()], (ell, d.i)
            firsts = [position[c.members[0]] for c in d.classes]
            assert all(a < b for a, b in zip(firsts, firsts[1:])), (ell, d.i)
            by_key = dict(zip(table, d.classes))
            failed = [by_key[key].witness
                      for key in sorted(table, key=lambda key: _exponent_key(
                          rs, i, rows, key))
                      if by_key[key].verdict == "not-closed"]
            assert d.witness == (failed[0] if failed else None), (ell, d.i)
            with_witness += bool(failed)
            reordered += failed[:1] != [c.witness for c in d.classes
                                        if c.verdict == "not-closed"][:1]
    # directions with a witness, and those where the first not-closed
    # class in first-member order is not the one with the least key
    assert (with_witness, reordered) == {3: (0, 0), 5: (12, 0),
                                         7: (32, 3)}[n]


def test_sweep_reports_are_pinned(sweep_reports):
    # the digest of every class of the fifteen sweep reports (members,
    # verdict, reason and witness, in report order) and of every
    # direction's witness, recorded from the nested-tuple class keys
    # before the kernel moved to row numbers
    def mono(m):
        return None if m is None else (m.exps, m.weight.h, m.weight.delta)

    digest = hashlib.sha256()
    for (n, ell), rep in sorted(sweep_reports.items()):
        for d in rep.directions:
            digest.update(repr((n, ell, d.i, mono(d.witness))).encode())
            for c in d.classes:
                digest.update(repr(([mono(m) for m in c.members], c.verdict,
                                    c.reason, mono(c.witness))).encode())
    assert digest.hexdigest() == \
        "556c20e545473c77238f686a64d62d4b212f9e290252b16e92e165bb2b32d5e3"


def test_closedness_restores_the_collector_setting(monkeypatch):
    # closed_report and qclosed_direction run with the cyclic collector
    # paused and leave it as they found it, enabled or disabled, also
    # when the kernel raises
    from torcrys import closedness
    rs = RootSystem.for_fundamental(3, 1)
    window = (-12, 12)
    nodes = generate(rs, [fundamental_anchor(rs, 1)], window).nodes
    calls = [lambda: closed_report(3, 1),
             lambda: qclosed_direction(rs, nodes, 1, window=window)]
    table = closedness._class_table

    def paused_table(*args):
        assert not gc.isenabled()
        return table(*args)

    def broken_table(*args):
        raise RuntimeError("class table")

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(closedness, "_class_table", paused_table)
            for call in calls:
                call()
                assert gc.isenabled() == enabled
            monkeypatch.setattr(closedness, "_class_table", broken_table)
            for call in calls:
                with pytest.raises(RuntimeError, match="class table"):
                    call()
                assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("n, ell", [(7, 4), (9, 5)])
def test_closed_report_leaves_no_cyclic_garbage(n, ell):
    # the premise of pausing the collector: building and dropping a
    # report leaves nothing that only the cyclic collector could free
    gc.collect()
    assert closed_report(n, ell).closed
    assert gc.collect() == 0
