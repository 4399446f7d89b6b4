"""Kashiwara operators on weighted monomials, windowed BFS generation
of connected crystals, subcrystals, extremality certificates, and
twisted-automorphism verification.  One reflection-orbit walk serves
the extremality checks of crystals and of loop weight modules.

Crystals here are infinite; every consumer declares a spectral window
[lmin, lmax] and only *interior* nodes (whose full operator
neighborhood stays inside the window) participate in assertions.

The BFS runs on integer node ids: a node's exponent tuple is hashed
once per lookup of an image, and the edges, the queue and the clipped
set hold ids.  Each edge is computed once: an edge f~_i x = y found
from either end is recorded with its inverse e~_i y = x.  Weights are
propagated along the edges and checked where a node is found again;
the nodes are sorted by exponents and made Monomials once, at the end.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .lattice import RootSystem
from .monomial import Monomial, a_exponents, exp_key, exp_mul, exp_row


class WindowError(ValueError):
    """A required monomial or image falls outside the declared window."""


# ---------------------------------------------------------------------------
# Kashiwara statistics
# ---------------------------------------------------------------------------

class KashiwaraStats(NamedTuple):
    eps: int
    phi: int
    p: int | None
    qq: int | None


_NO_STATS = KashiwaraStats(0, 0, None, None)


def row_stats(row: dict) -> KashiwaraStats:
    """Statistics of one row of exponents, from one pass over its prefix
    sums P_0 = 0, P_1, ..., P_k (P_k the total): phi is their maximum
    and qq the smallest position whose prefix attains it; eps, the
    largest negated suffix sum, is phi - P_k, and p is the largest
    position whose preceding prefix attains phi."""
    if not row:
        return _NO_STATS
    acc = phi = 0
    p = qq = None
    for l in sorted(row):
        if acc == phi:
            p = l
        acc += row[l]
        if acc > phi:
            phi, qq = acc, l
    eps = phi - acc
    return KashiwaraStats(eps, phi, p if eps else None, qq)


def stats(rs: RootSystem, m: Monomial, i: int) -> KashiwaraStats:
    return row_stats(m.row(i))


# exponent-level operators ---------------------------------------------------

def e_tilde_exp(rs: RootSystem, exps: dict, i: int) -> dict | None:
    st = row_stats(exp_row(exps, i))
    if st.eps == 0:
        return None
    return exp_mul(exps, a_exponents(rs, i, st.p - 1))


def f_tilde_exp(rs: RootSystem, exps: dict, i: int) -> dict | None:
    st = row_stats(exp_row(exps, i))
    if st.phi == 0:
        return None
    return exp_mul(exps, a_exponents(rs, i, st.qq + 1), sign=-1)


# weighted operators ----------------------------------------------------------

def e_tilde(rs: RootSystem, m: Monomial, i: int) -> Monomial | None:
    out = e_tilde_exp(rs, m.exp_dict(), i)
    if out is None:
        return None
    return Monomial(exp_key(out), m.weight + rs.alpha(i))


def f_tilde(rs: RootSystem, m: Monomial, i: int) -> Monomial | None:
    out = f_tilde_exp(rs, m.exp_dict(), i)
    if out is None:
        return None
    return Monomial(exp_key(out), m.weight - rs.alpha(i))


# ---------------------------------------------------------------------------
# windowed crystal graphs
# ---------------------------------------------------------------------------

@dataclass
class CrystalGraph:
    rs: RootSystem
    window: tuple
    nodes: list
    index: dict
    f_edges: dict          # (src_idx, i) -> dst_idx
    e_edges: dict          # (src_idx, i) -> dst_idx
    interior: list
    anchors: list = field(default_factory=list)

    def __len__(self):
        return len(self.nodes)

    def node_index(self, m: Monomial):
        return self.index.get(m)

    def __contains__(self, m: Monomial):
        return m in self.index

    def edges(self):
        """Sorted list of (src, label, dst) for the lowering operators."""
        return sorted((s, i, d) for (s, i), d in self.f_edges.items())

    def interior_indices(self):
        return [k for k, flag in enumerate(self.interior) if flag]

    # -- exports --------------------------------------------------------------

    def to_json(self) -> dict:
        from .monomial import monomial_to_json
        return {
            "window": list(self.window),
            "nodes": [monomial_to_json(m) for m in self.nodes],
            "edges": [[s, i, d] for (s, i, d) in self.edges()],
            "interior": list(self.interior),
        }

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for k, m in enumerate(self.nodes):
            lines.append(f'  n{k} [label="{m}"];')
        for s, i, d in self.edges():
            lines.append(f'  n{s} -> n{d} [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)


def _in_window(exps: dict, window) -> bool:
    """Whether every spectral index of an exponent dict lies in the
    window."""
    lmin, lmax = window
    return all(lmin <= l <= lmax for _, l in exps)


def _closure(rs: RootSystem, starts, labels, window):
    """BFS closure of the start monomials under the Kashiwara operators
    with labels in `labels`, restricted to the spectral window.  Returns
    (nodes, index, f_edges, e_edges, interior) with nodes sorted; a node
    is interior when no operator leads it out of the window, so every
    image of an interior node is a node.

    The search runs on integer ids: the exponent tuples sit in a list
    in discovery order, which is also the FIFO queue, with their weights
    in a parallel list, and `ids` maps a tuple to its id.  An image's
    tuple is hashed once, by the lookup that finds or assigns its id;
    edges are keyed by (id, label) and the clipped nodes are a set of
    ids.  A weight is propagated along each edge it crosses, and a node
    found again must arrive with the weight it already has
    (ValidationErrorForGraph otherwise).  Each edge is computed once:
    f~_i x = y inside the window records e~_i y = x as well, and the
    other way round (Kashiwara's axiom), so a (node, label) image
    already known is never recomputed, and a label whose row is empty
    has none.  The nodes start in the window, so an image lies in it
    exactly when the four variables of its A_{i,l}^{-+1}, at l-1, l and
    l+1, do.  The statistics of a node's rows (those of `row_stats`)
    come from one pass over its exponent tuple, in increasing label
    order.  The nodes are sorted by exponents at the end, and one
    Monomial is built per node."""
    lmin, lmax = window
    keys, weights, ids = [], [], {}
    for m in starts:
        k = ids.setdefault(m.exps, len(keys))
        if k == len(keys):
            keys.append(m.exps)
            weights.append(m.weight)
        elif weights[k] != m.weight:
            raise ValidationErrorForGraph(m)
    moves = {(i, sign): rs.alpha(i).scaled(sign)
             for i in labels for sign in (-1, 1)}
    # a node found again has the h-part of its exponents' column sums,
    # so only its delta-part can disagree
    delta_moves = {key: w.delta for key, w in moves.items()}
    labelset = set(labels)
    f_raw, e_raw = {}, {}
    clipped = set()
    x = 0
    while x < len(keys):
        xt, wx = keys[x], weights[x]
        xd = dict(xt)
        # the row_stats of every nonempty row, in one pass over the
        # sorted exponents: (label, p, qq), p None where eps = 0 and qq
        # None where phi = 0
        found = []
        cur = None
        for (i, l), u in xt:
            if i != cur:
                if cur is not None:
                    found.append((cur, p if phi != acc else None, qq))
                cur, acc, phi, p, qq = i, 0, 0, None, None
            if acc == phi:
                p = l
            acc += u
            if acc > phi:
                phi, qq = acc, l
        if cur is not None:
            found.append((cur, p if phi != acc else None, qq))
        for i, p, qq in found:
            if i not in labelset:
                continue
            # f~_i divides by A_{i,qq+1}, e~_i multiplies by A_{i,p-1}
            for l, sign, known, back in ((qq, -1, f_raw, e_raw),
                                         (p, 1, e_raw, f_raw)):
                if l is None or (x, i) in known:
                    continue
                l -= sign
                if not lmin < l < lmax:
                    clipped.add(x)
                    continue
                y = exp_key(exp_mul(xd, a_exponents(rs, i, l), sign))
                yid = ids.setdefault(y, len(keys))
                known[(x, i)] = yid
                back[(yid, i)] = x
                if yid == len(keys):
                    keys.append(y)
                    weights.append(wx + moves[i, sign])
                elif weights[yid].delta != wx.delta + delta_moves[i, sign]:
                    raise ValidationErrorForGraph(
                        Monomial(y, wx + moves[i, sign]))
        x += 1
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pos = [0] * len(keys)
    for k, x in enumerate(order):
        pos[x] = k
    nodes = [Monomial(keys[x], weights[x]) for x in order]
    index = {m: k for k, m in enumerate(nodes)}
    f_edges = {(pos[x], i): pos[y] for (x, i), y in f_raw.items()}
    e_edges = {(pos[x], i): pos[y] for (x, i), y in e_raw.items()}
    return nodes, index, f_edges, e_edges, [x not in clipped for x in order]


def generate(rs: RootSystem, anchors, window) -> CrystalGraph:
    """BFS closure of the anchors under the Kashiwara operators,
    restricted to the spectral window, on exponent tuples with each edge
    computed once and its inverse recorded with it (see `_closure`).
    Every e~_i and f~_i image of an interior node is a node.
    Anchors carry full weights; weights of discovered nodes are
    propagated along edges and checked for consistency on rediscovery,
    so two anchors with equal exponents and different weights raise
    ValidationErrorForGraph, as does an anchor whose column sums differ
    from its weight's h-part."""
    lmin, lmax = window
    if lmin > lmax:
        raise WindowError("empty window")
    anchors = sorted(anchors, key=Monomial.sort_key)
    if not anchors:
        raise ValueError("at least one anchor is required")
    for a in anchors:
        if not _in_window(a.exp_dict(), window):
            raise WindowError(f"anchor {a} does not fit in window {window}")
        # A_{i,l} has the column sums of alpha_i, so every node
        # inherits its anchor's agreement of column sums and h-part
        sums = [0] * (rs.n + 1)
        for (i, _), u in a.exps:
            sums[i] += u
        if tuple(sums) != a.weight.h:
            raise ValidationErrorForGraph(a)
    nodes, index, f_edges, e_edges, interior = _closure(rs, anchors, rs.nodes,
                                                        window)
    return CrystalGraph(rs, (lmin, lmax), nodes, index, f_edges, e_edges,
                        interior, anchors=list(anchors))


class ValidationErrorForGraph(ValueError):
    def __init__(self, m):
        super().__init__(f"weight/column-sum mismatch at node {m}")


def sub_crystal(g: CrystalGraph, m: Monomial, J) -> CrystalGraph:
    """Connected closure of m under operators with labels in J only,
    within the same window."""
    if m not in g:
        raise ValueError(f"{m} is not a node of the graph")
    J = sorted(set(g.rs.mod(j) for j in J))
    return CrystalGraph(g.rs, g.window, *_closure(g.rs, [m], J, g.window),
                        anchors=[m])


# ---------------------------------------------------------------------------
# extremality
# ---------------------------------------------------------------------------

@dataclass
class ExtremalityReport:
    verdict: str              # "extremal" | "not-extremal" | "inconclusive-window"
    depth: int
    orbit: list
    witness: Monomial | None = None
    witness_direction: int | None = None


def reflection_walk(rs: RootSystem, m: Monomial, depth: int,
                    step) -> ExtremalityReport:
    """The reflection-orbit walk of `is_extremal` and
    `torep.verify_extremal_vector`: depth layers of simple reflections
    from m.  step(x, i) is the image of x under s_i (x itself where
    <h_i, wt> = 0), or None where x fails the check in direction i; a
    WindowError from it makes the verdict inconclusive."""
    seen, layer, orbit = {m}, [m], [m]
    try:
        for _ in range(depth):
            nxt = []
            for x in layer:
                for i in rs.nodes:
                    y = step(x, i)
                    if y is None:
                        return ExtremalityReport("not-extremal", depth, orbit,
                                                 x, i)
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
                        nxt.append(y)
            layer = nxt
    except WindowError:
        return ExtremalityReport("inconclusive-window", depth, orbit)
    return ExtremalityReport("extremal", depth, orbit)


def is_extremal(rs: RootSystem, m: Monomial, depth: int, window) -> ExtremalityReport:
    """Bounded extremality certificate: explore all S_i-strings of
    length <= depth and check i-extremality of every element reached
    (`reflection_walk`); an image outside the window is inconclusive.

    The Weyl group is infinite, so the verdict is a certificate up to
    the given depth, never the full quantified statement.
    """
    def step(x, i):
        st = stats(rs, x, i)
        if st.eps > 0 and st.phi > 0:
            return None
        c = x.weight.pair(i)
        if c == 0:
            return x
        move = f_tilde if c > 0 else e_tilde
        y = x
        for _ in range(abs(c)):
            y = move(rs, y, i)
            if y is None:
                raise AssertionError("string shorter than weight pairing")
        if not _in_window(y.exp_dict(), window):
            raise WindowError(f"reflection image {y} leaves window {window}")
        return y
    return reflection_walk(rs, m, depth, step)


# ---------------------------------------------------------------------------
# twisted automorphisms
# ---------------------------------------------------------------------------

def check_twist(g: CrystalGraph, exp_map, label_map) -> list:
    """Verify f~_{label_map(i)}(map(m)) = map(f~_i(m)) and the raising
    analogue on every interior node, at the exponent level, and that
    the image of every interior node is a node wherever it fits in the
    window.

    exp_map: dict -> dict on exponent tables; label_map: node -> node.
    Returns the list of violations (empty when the map is a twisted
    morphism on the window interior): ("f", m, i) or ("e", m, i) for an
    operator that does not commute, ("missing", m, image) for an image
    exponent tuple that fits in the window but is not a node.
    """
    rs = g.rs
    node_exps = {m.exps for m in g.nodes}
    bad = []
    for idx in g.interior_indices():
        m = g.nodes[idx]
        exps = m.exp_dict()
        image = exp_map(exps)
        key = exp_key(image)
        if key not in node_exps and _in_window(image, g.window):
            bad.append(("missing", m, key))
        for i in rs.nodes:
            j = rs.mod(label_map(i))
            lhs = f_tilde_exp(rs, image, j)
            rhs = f_tilde_exp(rs, exps, i)
            rhs = exp_map(rhs) if rhs is not None else None
            if (lhs is None) != (rhs is None) or (lhs is not None and exp_key(lhs) != exp_key(rhs)):
                bad.append(("f", m, i))
            lhs = e_tilde_exp(rs, image, j)
            rhs = e_tilde_exp(rs, exps, i)
            rhs = exp_map(rhs) if rhs is not None else None
            if (lhs is None) != (rhs is None) or (lhs is not None and exp_key(lhs) != exp_key(rhs)):
                bad.append(("e", m, i))
    return bad


def check_shift_automorphism(g: CrystalGraph, twop: int) -> list:
    """Check that the spectral shift by 2p maps edges to equally
    labeled edges wherever both endpoints stay in the window, and that
    it maps every interior node to a node wherever its shifted
    exponents fit in the window.  Returns the violations: (src, i, dst)
    for an edge whose image is not an edge, (m, None, image) for an
    interior node whose image exponent tuple is not a node."""
    by_exps = {m.exps: k for k, m in enumerate(g.nodes)}
    bad = []
    shift = {}
    for k, m in enumerate(g.nodes):
        exps = {(i, l + twop): u for (i, l), u in m.exps}
        shift[k] = exp_key(exps)
        if (g.interior[k] and shift[k] not in by_exps
                and _in_window(exps, g.window)):
            bad.append((m, None, shift[k]))
    for (s, i), d in g.f_edges.items():
        ss, dd = shift[s], shift[d]
        if ss in by_exps and dd in by_exps:
            if g.f_edges.get((by_exps[ss], i)) != by_exps[dd]:
                bad.append((g.nodes[s], i, g.nodes[d]))
    return bad
