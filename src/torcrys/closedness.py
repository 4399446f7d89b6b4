"""Deciding whether a monomial set is q-closed in each direction,
closed under the Kashiwara operators, and fully closed; witnesses are
produced for every failure.

The q-closedness test works one direction i at a time: the set is
partitioned into classes modulo multiplication by the A_{i,*}, and each
class must assemble, with positive multiplicities, into q-characters of
sl2 loop modules read off through the row-i projection.  We certify the
stronger sum-of-simple-characters condition, which covers every case
occurring here.  A class whose support comes near the window edge is
reported inconclusive, never given a verdict a truncation could fake.
The sl2 oracle refuses q-strings in special position, but its own
peeling never produces them from a row whose positions share one parity
(see `sl2_simple_qchar`), which every row of these crystals does; a
class it refused would also be reported inconclusive.

`closed_report` decides q-closedness from one class table per
direction, built one at a time.  Each node's exponents are split into
rows once (`_row_split`), and every direction's class keys are made
from that split: slices of the exponent tuple at the row offsets, and
row tuples shared by all directions, each with a number.  Each piece
of work is done once per distinct input within a direction: the
normalized rows of a class key once per triple of row numbers
(`_class_table`), and the greedy sl2 subtraction once per ordered
column of row-i tuples that is closed or inconclusive
(`_decide_classes`); a class that is not closed is always decided on
its own members, which its witness is built from.  Classes are decided
in the order the table first met them, and a direction's witness is
that of the not-closed class with the least key, found by one `min`
over those keys rather than a sort of every key.

The kernel allocates many small tuples, lists and dicts and keeps most
of them alive to the end, and none of them forms a reference cycle: the
cyclic garbage collector's passes over them free nothing but cost a
growing share of the time (a third of (11,6), mostly full passes).
`closed_report` and `qclosed_direction` therefore run with the
collector paused (`_collector_paused`); reference counting frees
everything as before, and the first young-generation pass after the
pause visits what the report keeps.

Closedness under e~_i and f~_i needs no decision there: `generate`
records every image of an interior node as a node.  `kashiwara_closed`
recomputes every image as a Monomial; it is the independent check of
that guarantee and of hand-made sets.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

from .crystal import e_tilde, f_tilde, generate
from .lattice import RootSystem
from .monomial import Monomial, a_monomial, exp_key, from_variables


class UnsupportedConfigError(ValueError):
    """The sl2 string decomposition has strings in special position."""


# ---------------------------------------------------------------------------
# sl2 q-characters of simple modules
# ---------------------------------------------------------------------------

def _string_char(a: int, k: int):
    """Character of the simple sl2 loop module of the q-string
    {a, a+2, ..., a+2(k-1)}: k+1 monomials, multiplicity one."""
    out = []
    for i in range(k + 1):
        row = {}
        for t in range(k - i):
            row[a + 2 * t] = row.get(a + 2 * t, 0) + 1
        for t in range(k - i + 1, k + 1):
            row[a + 2 * t] = row.get(a + 2 * t, 0) - 1
        out.append({l: u for l, u in row.items() if u})
    return out


def _peel_strings(row: dict):
    """Write a dominant single-row monomial as a product of maximal
    q-strings (peeling one copy of each maximal run at a time)."""
    work = dict(row)
    strings = []
    while work:
        ls = sorted(work)
        start = ls[0]
        end = start
        while end + 2 in work:
            end += 2
        for l in range(start, end + 1, 2):
            work[l] -= 1
            if not work[l]:
                del work[l]
        strings.append((start, (end - start) // 2 + 1))
    return strings


def _general_position(s1, s2) -> bool:
    a1, k1 = s1
    a2, k2 = s2
    b1, b2 = a1 + 2 * (k1 - 1), a2 + 2 * (k2 - 1)
    if a1 <= a2 and b1 >= b2:
        return True
    if a2 <= a1 and b2 >= b1:
        return True
    return b1 + 2 < a2 or b2 + 2 < a1


def sl2_simple_qchar(row: dict):
    """q-character of the simple sl2 loop module with dominant highest
    row-monomial `row`, as a list of (row, multiplicity) pairs.

    Requires the q-strings of `row` to be pairwise in general position
    (then the module is the tensor product of the string modules and
    the character is the product of string characters); otherwise
    raises UnsupportedConfigError.  That never happens when the
    positions of `row` share one parity: each string `_peel_strings`
    takes is a maximal run from the least remaining position a to some
    b, so b + 2 is absent then and later, and every later string starts
    at a or above, so it lies inside [a, b] or starts at b + 4 or
    above; either way the two are in general position."""
    if any(u < 0 for u in row.values()):
        raise ValueError("sl2_simple_qchar needs a dominant monomial")
    strings = _peel_strings(row)
    for x in range(len(strings)):
        for y in range(x + 1, len(strings)):
            if not _general_position(strings[x], strings[y]):
                raise UnsupportedConfigError(
                    f"q-strings {strings[x]} and {strings[y]} in special position")
    out = {(): 1}
    for a, k in strings:
        nxt = {}
        for key, mult in out.items():
            base = dict(key)
            for piece in _string_char(a, k):
                merged = dict(base)
                for l, u in piece.items():
                    s = merged.get(l, 0) + u
                    if s:
                        merged[l] = s
                    else:
                        del merged[l]
                k2 = tuple(sorted(merged.items()))
                nxt[k2] = nxt.get(k2, 0) + mult
        out = nxt
    return [(dict(k), mult) for k, mult in sorted(out.items())]


# ---------------------------------------------------------------------------
# A_{i,*}-classes
# ---------------------------------------------------------------------------

def _solve_a_exponents(rs: RootSystem, i: int, diff: dict):
    """Finitely supported c with c_{l-1} + c_{l+1} = diff_l, or None."""
    diff = {l: u for l, u in diff.items() if u}
    if not diff:
        return {}
    lo, hi = min(diff), max(diff)
    c = {}
    prev = 0  # c at position l-1 entering the iteration for l
    for l in range(lo, hi + 1, 2):
        val = diff.get(l, 0) - prev
        if val:
            c[l + 1] = val
        prev = c.get(l + 1, 0)
    if prev:
        return None  # a nonzero tail cannot have finite support
    check = {}
    for g, v in c.items():
        for e in (g - 1, g + 1):
            s = check.get(e, 0) + v
            if s:
                check[e] = s
            else:
                check.pop(e, None)
    if check != diff:
        return None
    return c


def _partner(rs: RootSystem, m: Monomial, i: int, target_row: dict) -> Monomial:
    """The unique element of m * prod A_{i,l}^Z whose row-i image is
    target_row (Xi_i is injective on the class).

    With the exponents c of the A_{i,l}, row i becomes target_row, rows
    i-1 and i+1 lose c, and the weight gains alpha_i * sum(c)."""
    diff = dict(target_row)
    for l, u in m.row(i).items():
        s = diff.get(l, 0) - u
        if s:
            diff[l] = s
        else:
            diff.pop(l, None)
    c = _solve_a_exponents(rs, i, diff)
    if c is None:
        raise ValueError("target row is not reachable by A_{i,*} products")
    if not c:
        return m
    exps = {k: u for k, u in m.exps if k[0] != i}
    exps.update(((i, l), u) for l, u in target_row.items() if u)
    for j in (rs.mod(i - 1), rs.mod(i + 1)):
        for l, v in c.items():
            s = exps.get((j, l), 0) - v
            if s:
                exps[(j, l)] = s
            else:
                exps.pop((j, l), None)
    total = sum(c.values())
    weight = m.weight + rs.alpha(i).scaled(total) if total else m.weight
    return Monomial(exp_key(exps), weight)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class ClassResult:
    members: list
    verdict: str                  # "closed" | "not-closed" | "inconclusive"
    witness: Monomial | None = None
    reason: str = ""


@dataclass
class DirectionReport:
    """The classes of direction i with their verdicts, and `witness`:
    the witness of the not-closed class with the least class key (None
    if every class is closed or inconclusive).  From `qclosed_direction`
    and `closed_report` the classes come in first-member order, the
    order of the nodes; from `qclosed_direction_classical`, in key
    order."""
    i: int
    classes: list = field(default_factory=list)
    witness: Monomial | None = None

    @property
    def qclosed(self) -> bool | None:
        """False if some class is not closed, None if every class is
        inconclusive (or there is none), True otherwise."""
        verdicts = {c.verdict for c in self.classes}
        if "not-closed" in verdicts:
            return False
        return None if verdicts <= {"inconclusive"} else True

    @property
    def n_inconclusive(self):
        return sum(1 for c in self.classes if c.verdict == "inconclusive")


def _is_dominant_row(row: dict) -> bool:
    return all(u >= 0 for u in row.values())


def _check_class_general(members, row_of, raise_partner, char_partner) -> ClassResult:
    """Greedy subtraction of simple sl2 characters from a class.

    row_of(m) gives the direction-i projection of a member;
    raise_partner(m, l) the missing monomial one A-step above m at
    spectral position l; char_partner(base, row) the unique class
    element with the given projection."""
    counter = {m: 1 for m in members}
    # each member's rank, once: the maximum of the remaining members is
    # the first of them in rank order (distinct members have distinct
    # sort keys, so ranks never tie)
    ranked = []
    for m in counter:
        row = row_of(m)
        ranked.append(((sum(row.values()), _is_dominant_row(row),
                        _sort_key_of(m)), m, row))
    ranked.sort(key=itemgetter(0), reverse=True)
    pos = 0
    while counter:
        while ranked[pos][1] not in counter:
            pos += 1
        _, best, row = ranked[pos]
        if not _is_dominant_row(row):
            # a maximal element of a q-character must be dominant; the
            # required raising partner at the first negative position is
            # the missing monomial
            a = min(l for l, u in row.items() if u < 0)
            return ClassResult(list(members), "not-closed",
                               raise_partner(best, a - 1),
                               reason="maximal element not dominant")
        try:
            char = sl2_simple_qchar(row)
        except UnsupportedConfigError as exc:
            return ClassResult(list(members), "inconclusive", None, str(exc))
        for target_row, mult in char:
            partner = char_partner(best, target_row)
            have = counter.get(partner, 0)
            if have < mult:
                return ClassResult(list(members), "not-closed", partner,
                                   reason="required monomial absent")
            if have == mult:
                del counter[partner]
            else:
                counter[partner] = have - mult
    return ClassResult(list(members), "closed")


def _sort_key_of(m):
    return m.sort_key() if isinstance(m, Monomial) else m


def _check_class_rows(rs: RootSystem, i: int, members, rows,
                      chars: dict) -> ClassResult:
    """_check_class_general for an A_{i,*}-class of Monomials, given in
    Monomial.sort_key order, decided on their row-i tuples `rows` (in
    member order: a list, or a dict keyed by them): the projection is
    injective on a class, so a member is found by its row and a Monomial
    is built only as a witness.  `chars` memoizes the sl2 character of
    each highest row, or the message of the UnsupportedConfigError it
    raised (not the error, whose traceback holds this frame and so
    `chars`: a reference cycle).  The result holds `members` itself,
    not a copy."""
    if len(members) == 1 and () in rows:
        # a lone member with an empty row i is its own sl2 character
        return ClassResult(members, "closed")
    counter = dict.fromkeys(rows, 1)
    # rank by (row sum, dominance, sort-key position): the rows alone
    # fix the ranking, so a closed or inconclusive verdict depends on
    # the rows in member order and nothing else (the row sum is the
    # weight's value on h_i)
    ranked = sorted(
        (((sum(u for _, u in row), all(u >= 0 for _, u in row), k), m, row)
         for k, (m, row) in enumerate(zip(members, rows))),
        key=itemgetter(0), reverse=True)
    pos = 0
    while counter:
        while ranked[pos][2] not in counter:
            pos += 1
        (_, dominant, _), best, row = ranked[pos]
        if not dominant:
            a = min(l for l, u in row if u < 0)
            return ClassResult(members, "not-closed",
                               best * a_monomial(rs, i, a - 1),
                               reason="maximal element not dominant")
        char = chars.get(row)
        if char is None:
            try:
                char = [(tuple(r.items()), mult)
                        for r, mult in sl2_simple_qchar(dict(row))]
            except UnsupportedConfigError as exc:
                char = str(exc)
            chars[row] = char
        if isinstance(char, str):
            return ClassResult(members, "inconclusive", None, char)
        for target, mult in char:
            have = counter.get(target, 0)
            if have < mult:
                return ClassResult(members, "not-closed",
                                   _partner(rs, best, i, dict(target)),
                                   reason="required monomial absent")
            if have == mult:
                del counter[target]
            else:
                counter[target] = have - mult
    return ClassResult(members, "closed")


EDGE_MARGIN = 3


def _near_edge(nodes, window) -> list:
    """Per node, whether its support comes within EDGE_MARGIN of the
    window edge; the same in every direction."""
    lo, hi = window[0] + EDGE_MARGIN, window[1] - EDGE_MARGIN
    return [any(l <= lo or l >= hi for (_, l), _ in m.exps) for m in nodes]


def _row_split(rs: RootSystem, nodes) -> list:
    """Per node, (offsets, rows, ids): each row j = 0..n of m as a tuple
    of (l, u) pairs, the offsets in m.exps at which the rows start, with
    len(m.exps) last, and the number of each row.  Rows are interned
    within the call and numbered in order of first appearance, so equal
    rows of different nodes share one tuple and one number."""
    numbers = {}
    interned = []
    split = []
    for m in nodes:
        rows = [[] for _ in rs.nodes]
        for (j, l), u in m.exps:
            rows[j].append((l, u))
        ids = []
        for row in map(tuple, rows):
            k = numbers.get(row)
            if k is None:
                k = numbers[row] = len(interned)
                interned.append(row)
            ids.append(k)
        split.append((tuple(accumulate(map(len, rows), initial=0)),
                      tuple([interned[k] for k in ids]), tuple(ids)))
    return split


def _class_table(rs: RootSystem, nodes, split, i: int, near_edge) -> dict:
    """The A_{i,*}-classes of `nodes` (distinct, in Monomial.sort_key
    order), from the row split of `_row_split` and one lookup per node:
    key -> [members, {row i: node position}, touches the window edge].
    Members and rows are in node order.

    The key is the canonical invariant of the class m * prod_l
    A_{i,l}^Z: the rows away from i-1, i, i+1 verbatim (one or two
    slices of m.exps at the split's offsets), the triple of nearby rows
    normalized by clearing row i-1, and the correspondingly adjusted
    delta-coefficient.  Where row i-1 is already empty the key is made
    of the split's rows as they are.  Otherwise the normalized rows i
    and i+1 and the delta shift depend on the three rows alone, so they
    are computed once per distinct triple of row numbers and shared by
    every node with that triple.  The h-part of the weight is left out:
    it is the column sums of the normalized exponents, so two keys that
    agree on those agree on it."""
    n = rs.n
    im, ip = rs.mod(i - 1), rs.mod(i + 1)
    # the weight gains alpha_i * sum(c); alpha_i has a delta-coefficient
    # only at i = 0
    alpha_delta = rs.alpha(i).delta
    normalized = {}
    table = {}
    for k, (m, (offs, rows, ids)) in enumerate(zip(nodes, split)):
        exps = m.exps
        # the rows other than i-1, i and i+1 (indices mod n+1)
        if i == 0:
            other = exps[offs[2]:offs[n]]
        elif i == n:
            other = exps[offs[1]:offs[n - 1]]
        else:
            other = exps[:offs[im]] + exps[offs[i + 2]:]
        row = rows[i]
        if not rows[im]:
            key = (other, row, rows[ip], m.weight.delta)
        else:
            triple = (ids[im], ids[i], ids[ip])
            norm = normalized.get(triple)
            if norm is None:
                norm = normalized[triple] = _normalize_triple(
                    rows[im], row, rows[ip], alpha_delta)
            row_i, row_p, shift = norm
            key = (other, row_i, row_p, m.weight.delta + shift)
        entry = table.get(key)
        if entry is None:
            table[key] = [[m], {row: k}, near_edge[k]]
        else:
            entry[0].append(m)
            entry[1][row] = k
            if near_edge[k]:
                entry[2] = True
    return table


def _normalize_triple(c, row, row_p, alpha_delta):
    """Rows i and i+1 of m * prod_l A_{i,l}^{c_l}, c = row i-1 of m, as
    (l, u) tuples, and the gain alpha_delta * sum(c) of its
    delta-coefficient; row i-1 of the product is empty."""
    row_i, row_p = dict(row), dict(row_p)
    total = 0
    for l, v in c:
        total += v
        for e in (l - 1, l + 1):
            s = row_i.get(e, 0) + v
            if s:
                row_i[e] = s
            else:
                row_i.pop(e, None)
        s = row_p.get(l, 0) - v
        if s:
            row_p[l] = s
        else:
            row_p.pop(l, None)
    return (tuple(sorted(row_i.items())), tuple(sorted(row_p.items())),
            total * alpha_delta)


def _decide_classes(rs: RootSystem, i: int, table: dict) -> DirectionReport:
    """q-closedness in direction i from its class table, class by class
    in the table's order, which is first-member order; classes at the
    window edge are inconclusive.  The report's witness is that of the
    not-closed class with the least key.

    A class that is closed, or that the sl2 oracle refuses, owes its
    verdict and reason to its column alone: its row-i tuples in member
    order.  Those are kept for the call, and a later class with the same
    column takes them without a greedy run.  A class that is not closed
    is always decided afresh, because its witness is built from its own
    members."""
    chars = {}
    decided = {}
    witnesses = {}
    report = DirectionReport(i)
    for key, (members, rows, edge) in table.items():
        if edge:
            res = ClassResult(members, "inconclusive", None, "window boundary")
        else:
            column = tuple(rows)
            known = decided.get(column)
            if known is not None:
                res = ClassResult(members, known[0], None, known[1])
            else:
                res = _check_class_rows(rs, i, members, rows, chars)
                if res.verdict != "not-closed":
                    decided[column] = (res.verdict, res.reason)
                else:
                    witnesses[key] = res.witness
        report.classes.append(res)
    if witnesses:
        report.witness = witnesses[min(witnesses)]
    return report


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector disabled, and
    restore the caller's setting on exit, also on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def qclosed_direction(rs: RootSystem, monomials, i: int,
                      window) -> DirectionReport:
    """Decide q-closedness in direction i of the finite set generated on
    `window`.

    Classes whose support touches the window edge (within EDGE_MARGIN)
    are reported inconclusive rather than risking a truncation artifact.
    A direction outside 0..n raises ValueError.
    """
    if i not in rs.nodes:
        raise ValueError(f"direction {i} out of range 0..{rs.n}")
    with _collector_paused():
        nodes = sorted(set(monomials), key=Monomial.sort_key)
        return _decide_classes(rs, i, _class_table(
            rs, nodes, _row_split(rs, nodes), i, _near_edge(nodes, window)))


def classical_a_exponents(n: int, i: int, l: int) -> dict:
    """A_{i,l} of the finite type-A world on rows 1..n (no wrap; border
    nodes lose the missing neighbor factor)."""
    out = {(i, l - 1): 1, (i, l + 1): 1}
    for j in (i - 1, i + 1):
        if 1 <= j <= n:
            out[(j, l)] = out.get((j, l), 0) - 1
    return {k: u for k, u in out.items() if u}


def qclosed_direction_classical(n: int, exps_list, i: int) -> DirectionReport:
    """q-closedness in direction i for monomials of the finite-type
    world (rows 1..n, e.g. images of a crystal under the projection
    that erases row 0).  Input: exponent dicts {(j, l): u}."""
    if not 1 <= i <= n:
        raise ValueError("classical direction out of range")

    def norm(exps):
        return tuple(sorted((k, u) for k, u in exps.items() if u))

    def row_of(key, j=i):
        return {l: u for (jj, l), u in key if jj == j}

    def mul_a(key, l, power):
        exps = dict(key)
        for kk, u in classical_a_exponents(n, i, l).items():
            s = exps.get(kk, 0) + power * u
            if s:
                exps[kk] = s
            else:
                exps.pop(kk, None)
        return norm(exps)

    def class_key(key):
        other = tuple(sorted((k, u) for k, u in key
                             if k[0] not in (i - 1, i, i + 1)))
        if i - 1 >= 1:
            c = row_of(key, i - 1)
        elif i + 1 <= n:
            c = row_of(key, i + 1)
        else:
            c = {}
        cur = key
        for l, v in c.items():
            cur = mul_a(cur, l, v)
        triple = tuple(sorted((k, u) for k, u in cur
                              if k[0] in (i - 1, i, i + 1)))
        return (other, triple)

    def char_partner(base, target_row):
        diff = dict(target_row)
        for l, u in row_of(base).items():
            s = diff.get(l, 0) - u
            if s:
                diff[l] = s
            else:
                diff.pop(l, None)
        c = _solve_a_exponents(None, i, diff)
        if c is None:
            raise ValueError("target row unreachable in the classical class")
        cur = base
        for l, v in sorted(c.items()):
            cur = mul_a(cur, l, v)
        return cur

    classes = {}
    for exps in exps_list:
        key = norm(exps if isinstance(exps, dict) else dict(exps))
        classes.setdefault(class_key(key), []).append(key)
    results = [_check_class_general(sorted(classes[ck]), row_of,
                                    raise_partner=lambda m, l: mul_a(m, l, 1),
                                    char_partner=char_partner)
               for ck in sorted(classes)]
    return DirectionReport(i, results, next(
        (c.witness for c in results if c.verdict == "not-closed"), None))


def sl2_qclosed(rows) -> ClassResult:
    """q-closedness for a finite set of single-row (rank-one) monomials
    under the rank-one A-products, where A_l = Y_{l-1} Y_{l+1}.

    Rows are dicts {l: u}; the witness, if any, is returned as a row.
    """
    def norm(row):
        return tuple(sorted((l, u) for l, u in row.items() if u))

    def raise_partner(key, l):
        row = dict(key)
        for e in (l - 1, l + 1):
            s = row.get(e, 0) + 1
            if s:
                row[e] = s
            else:
                del row[e]
        return norm(row)

    members = [norm(r) for r in rows]
    return _check_class_general(
        members,
        row_of=lambda key: dict(key),
        raise_partner=raise_partner,
        char_partner=lambda base, row: norm(row))


def sl2_row_f(row: dict) -> dict | None:
    """Rank-one lowering operator on a single row."""
    from .crystal import row_stats
    st = row_stats(row)
    if st.phi == 0:
        return None
    out = dict(row)
    for e in (st.qq, st.qq + 2):
        s = out.get(e, 0) - 1
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def sl2_row_e(row: dict) -> dict | None:
    """Rank-one raising operator on a single row."""
    from .crystal import row_stats
    st = row_stats(row)
    if st.eps == 0:
        return None
    out = dict(row)
    for e in (st.p - 2, st.p):
        s = out.get(e, 0) + 1
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def kashiwara_closed(rs: RootSystem, monomials, J, interior=None):
    """(True, None) iff the operators with labels in J map every
    (interior) element back into the set; otherwise (False, witness),
    the first missing image in element order, then label order, e~
    before f~.  Every image is recomputed here as a Monomial,
    independent of any recorded crystal edges: the reference for the
    guarantee of `generate` that `closed_report` relies on."""
    pool = set(monomials)
    items = list(monomials) if interior is None else \
        [m for m, flag in zip(monomials, interior) if flag]
    for m in items:
        for i in J:
            for img in (e_tilde(rs, m, i), f_tilde(rs, m, i)):
                if img is not None and img not in pool:
                    return False, img
    return True, None


# ---------------------------------------------------------------------------
# top-level report for the fundamental crystals
# ---------------------------------------------------------------------------

@dataclass
class ClosednessReport:
    """q-closedness of a generated crystal in every direction."""
    n: int
    ell: int
    window: tuple
    directions: list
    # closedness of the interior under every Kashiwara operator holds
    # by construction: `crystal._closure` records every image of an
    # interior node as a node (pinned against `kashiwara_closed`)
    kashiwara = True

    @property
    def closed(self) -> bool:
        return all(d.qclosed is not False for d in self.directions) \
            and any(d.qclosed for d in self.directions)

    def first_witness(self):
        """(direction, witness) of the first direction that is not
        q-closed, or (None, None)."""
        for d in self.directions:
            if d.qclosed is False:
                return d.i, d.witness
        return None, None


def fundamental_anchor(rs: RootSystem, ell: int) -> Monomial:
    """M_0 = e^{varpi_ell} Y_{ell,0} Y_{0,d_ell}^{-1}."""
    return from_variables(rs, [(ell, 0, 1), (0, rs.d(ell), -1)], rs.varpi(ell))


def closed_report(n: int, ell: int, window=None) -> ClosednessReport:
    """Generate the fundamental crystal in a window and decide
    q-closedness in every direction, with the verdicts and witnesses of
    `qclosed_direction`.  The window must cover at least two shift
    periods around the anchor."""
    rs = RootSystem.for_fundamental(n, ell)
    if window is None:
        window = (-3 * (n + 1), 3 * (n + 1))
    lmin, lmax = window
    if lmax - lmin < 2 * (n + 1) + 2 * rs.d(ell):
        raise ValueError("window too small: need at least two shift periods")
    with _collector_paused():
        nodes = generate(rs, [fundamental_anchor(rs, ell)], window).nodes
        near_edge = _near_edge(nodes, window)
        split = _row_split(rs, nodes)
        # each table is freed before the next is built: keeping every
        # direction's table alive raises the peak memory
        return ClosednessReport(n, ell, window, [
            _decide_classes(rs, i, _class_table(rs, nodes, split, i,
                                                near_edge))
            for i in rs.nodes])
