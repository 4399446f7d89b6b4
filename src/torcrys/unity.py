"""Specialization of the loop weight modules at primitive roots of
unity: finite-dimensional modules over the cyclotomic field, exact
relation checks, the submodule generated by one basis vector, and a
simplicity certificate (every basis vector generates the module).

The quantum parameter is kept symbolic in Q[q]/(Phi_N); no floats on
the verification path.  The relation checks at eps evaluate the same
term tables (`torep.relation_terms`) through the same runner as the
generic suite, with each RationalQ scalar mapped to Q(zeta_N) by
`eval_cyclotomic`.  The operator entries are the generic ones of
`torep.XAction`, read from each basis vector's representative row and
weight, with steps taken mod N and coefficients under the same map;
the joint spectrum of the loop-Cartan operators is read from the pole
residues of the pair entries.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

from .crystal import WindowError
from .lattice import RootSystem
from .monomial import ResidueMonomial, gamma
from .qcoeff import CycloElem, SpecializationError, eval_cyclotomic
from .torep import (ClosednessRefusal, LoopModule, SuiteReport, XAction,
                    _run_suite, build_doubled, build_thin, doubled_anchor,
                    fr_phi_series)


@dataclass
class SpecializedModule(XAction):
    """Finite module over Q(zeta_N) with basis indexed by residue
    monomials; action tables are dense per generator family.  Its
    operator entries are those of `XAction` on the representative rows,
    steps taken mod N and coefficients mapped to Q(zeta_N)."""

    rs: RootSystem
    N: int
    basis: list                              # ResidueMonomial per index
    index: dict
    minus_edges: dict = field(default_factory=dict)   # i -> [entries]
    plus_edges: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)          # representative rows per node
    _h_cache: dict = field(default_factory=dict)
    _residue_memo: dict = field(default_factory=dict)  # of pole_residues
    one: CycloElem = field(init=False, repr=False)
    _scalar: object = field(init=False, repr=False)   # `_eps_images`

    # entries: tuple of (dst, step mod N, CycloElem coefficient)

    def __post_init__(self):
        self.one = CycloElem.one(self.N)
        self._scalar = _eps_images(self.N)

    def __len__(self):
        return len(self.basis)

    def node(self, idx: int) -> ResidueMonomial:
        return self.basis[idx]

    def row(self, idx: int, i: int) -> dict:
        return self.rows[idx][i]

    def hpart(self, idx: int) -> tuple:
        return self.basis[idx].h

    def _step(self, s: int) -> int:
        return s % self.N

    def phi_component(self, idx: int, i: int, t: int) -> CycloElem:
        """Eigenvalue of phi^{+-}_{i,t}: the rational form of the
        representative row (`fr_phi_series`) expanded to order |t| and
        mapped to Q(zeta_N), the oracle of `pair_entries`."""
        series = fr_phi_series(self.row(idx, i), 1 if t >= 0 else -1, abs(t))
        return eval_cyclotomic(series.coeff(abs(t)), self.N)


# ---------------------------------------------------------------------------
# specialization of the thin modules
# ---------------------------------------------------------------------------

def _eps_images(N: int):
    """`eval_cyclotomic` at N, memoised on each value's structural key
    (RationalQ's own hash reduces by a gcd)."""
    images = {}

    def at_eps(c):
        key = (c.num.key(), c.den.key())
        val = images.get(key)
        if val is None:
            val = images[key] = eval_cyclotomic(c, N)
        return val
    return at_eps


def _specialize(mod: LoopModule, N: int, keep=None) -> SpecializedModule:
    """Common machinery: push a windowed generic module through
    Gamma_N.  `keep` optionally filters which generic nodes survive
    (used by the quotient construction); edges into dropped residues
    must carry coefficients that vanish at eps (`_validate_kernel`).
    Each distinct coefficient is evaluated at eps once."""
    at_eps = _eps_images(N)
    if keep is not None:
        _validate_kernel(mod, at_eps, keep)
    rs = mod.rs
    g = mod.graph
    residues = {}
    rep_of = {}
    for idx, m in enumerate(g.nodes):
        if keep is not None and not keep(m):
            continue
        rm = gamma(rs, m, N)
        residues.setdefault(rm, []).append(idx)
    basis = sorted(residues, key=lambda r: (r.exps, r.h))
    index = {r: k for k, r in enumerate(basis)}
    out = SpecializedModule(rs, N, basis, index)
    # a representative must have every module edge materialized
    def module_interior(idx):
        for i in rs.nodes:
            for table in (mod.minus_edges[i], mod.plus_edges[i]):
                if any(dst is None for dst, _, _ in table[idx]):
                    return False
        return True

    for rm in basis:
        cands = [i for i in residues[rm] if module_interior(i)]
        if not cands:
            raise WindowError(
                f"no interior representative for residue {rm}; enlarge the window")
        rep_of[rm] = cands[0]
    out.rows = []
    for rm in basis:
        rep = g.nodes[rep_of[rm]]
        out.rows.append({i: rep.row(i) for i in rs.nodes})
    dropped = object()

    def residue_target(dst_idx):
        m = g.nodes[dst_idx]
        if keep is not None and not keep(m):
            return dropped
        return index[gamma(rs, m, N)]

    for i in rs.nodes:
        for table_name in ("minus_edges", "plus_edges"):
            src_table = getattr(mod, table_name)[i]
            new_table = []
            for rm in basis:
                rep = rep_of[rm]
                entries = []
                for dst, l, c0 in src_table[rep]:
                    if dst is None:
                        raise WindowError(
                            f"representative of {rm} is not interior enough")
                    tgt = residue_target(dst)
                    if tgt is dropped:
                        # quotient projection: components in the killed
                        # submodule are set to zero
                        continue
                    coeff = at_eps(c0)
                    if coeff.is_zero():
                        continue
                    entries.append((tgt, l % N, coeff))
                new_table.append(tuple(entries))
            getattr(out, table_name)[i] = new_table
    return out


def specialize_thin(n: int, ell: int, L: int) -> SpecializedModule:
    """Specialize the thin module at a primitive (p*L)-th root of
    unity, p = n+1 for ell in {1, n} and p = 2 for ell = r+1; the pair
    (p, L) = (2, 1) is excluded.  Dimension L * C(n+1, ell)."""
    rs = RootSystem.for_fundamental(n, ell)
    if ell in (1, n):
        p = n + 1
    elif ell == rs.r + 1:
        p = 2
    else:
        raise ClosednessRefusal(f"no thin module for ell={ell} (crystal not closed)")
    if p == 2 and L == 1:
        raise ValueError("the case p = 2, L = 1 is excluded")
    if L < 1:
        raise ValueError("L must be >= 1")
    N = p * L
    half = max(2 * N + 2 * (n + 1), 4 * (n + 1))
    mod = build_thin(n, ell, (-half, half))
    spec = _specialize(mod, N)
    expected = L * comb(n + 1, ell)
    if len(spec) != expected:
        raise AssertionError(
            f"specialized dimension {len(spec)} != {expected}")
    return spec


def specialize_doubled(L: int) -> SpecializedModule:
    """Specialize the pasted 2*varpi_1 module (n = 3) at a primitive
    4L-th root of unity and take the quotient supported on the crystals
    with 0 <= s <= L-1.  Dimension 16 L^2."""
    if L < 1:
        raise ValueError("L must be >= 1")
    N = 4 * L
    window = (-4 * (L + 3), 4 * (L + 3))
    mod = build_doubled(L, window)

    block = _anchor_blocks(mod, L)
    spec = _specialize(mod, N, keep=lambda m: block[m] < L)
    if len(spec) != 16 * L * L:
        raise AssertionError(f"specialized dimension {len(spec)} != {16 * L * L}")
    return spec


def _anchor_blocks(mod: LoopModule, smax: int) -> dict:
    """Node -> the s of its block in a `build_doubled(smax, ...)` module:
    the last s in 0..smax whose anchor reaches the node along the
    graph's Kashiwara edges.  The graph holds every edge inside its
    window, so that reach is the crystal `generate` gives the anchor
    alone on the same window."""
    g = mod.graph
    adj = [[] for _ in g.nodes]
    for edges in (g.f_edges, g.e_edges):
        for (src, _), dst in edges.items():
            adj[src].append(dst)
    block = {}
    for s in range(smax + 1):
        reached = _reach(adj, g.index[doubled_anchor(mod.rs, s)])
        block.update((g.nodes[k], s) for k in reached)
    if len(block) != len(g.nodes):
        raise AssertionError("untagged nodes in the crystal union")
    return block


def _validate_kernel(mod: LoopModule, at_eps, keep) -> None:
    """The span of the dropped nodes must be a submodule at eps: every
    action coefficient from a dropped node into a kept one has to
    specialize to zero under `at_eps` (`_eps_images`)."""
    g = mod.graph
    for i in mod.rs.nodes:
        for table in (mod.minus_edges[i], mod.plus_edges[i]):
            for src, entries in enumerate(table):
                if keep(g.nodes[src]):
                    continue
                for dst, _, c0 in entries:
                    if dst is None or not keep(g.nodes[dst]):
                        continue
                    if not at_eps(c0).is_zero():
                        raise SpecializationError(
                            f"coefficient {c0} from the kernel into the "
                            f"quotient does not vanish at eps")


# ---------------------------------------------------------------------------
# relation checks at eps
# ---------------------------------------------------------------------------

def _eps_runs(rs: RootSystem, rmax: int, serre_rmax: int):
    """The relation instances checked at eps as runs (key, modes), keys
    and parameters as in `torep.relation_runs`."""
    I, signs = rs.nodes, (1, -1)
    rr = range(rmax + 1)
    rser = range(min(serre_rmax, rmax) + 1)
    pairs = tuple(product(rr, rr))
    for i, j, sign in product(I, I, signs):
        yield (("k-conjugation", ("i", i), ("j", j), "r", ("sign", sign)),
               ((0,), (1,)))
    hx_modes = tuple(product((1, -1, 2, -2), (0, 1)))
    for i, j, sign in product(I, I, signs):
        yield ("h-x", ("i", i), ("j", j), "m", "r", ("sign", sign)), hx_modes
    for i, j in product(I, I):
        yield ("x-plus-minus", ("i", i), ("j", j), "r", "rp"), pairs
    for sign, i, j in product(signs, I, I):
        yield (("x-quadratic", ("i", i), ("j", j), "r", "rp", ("sign", sign)),
               pairs)
    triples = tuple(v for v in product(rser, rser, rser) if v[0] <= v[1])
    for sign, i in product(signs, I):
        for j in (rs.mod(i - 1), rs.mod(i + 1)):
            yield (("serre-cubic", ("i", i), ("j", j), "r1", "r2", "rp",
                    ("sign", sign)), triples)
    for sign, i, j in product(signs, I, I):
        if i != j and rs.cartan(i, j) == 0:
            yield (("x-commute-distant", ("i", i), ("j", j), "r1", "r2",
                    ("sign", sign)), pairs)


def relation_check_eps(mod: SpecializedModule, rmax: int | None = None,
                       serre_rmax: int = 2) -> SuiteReport:
    """All defining relations with eps in place of q, on the whole
    finite basis: the generic term tables of `torep.relation_terms`
    with their scalars mapped by `eval_cyclotomic`, evaluated through
    the runner of `torep.run_relation_suite`.  The instances come as
    runs (`_eps_runs`), each relation tabled once per run with its modes
    as affine symbols; each word shape is expanded into paths once per
    basis vector, the pair and h operators along the entries of the
    representative row (`pair_entries`, `h_entries`), and its terms are
    cleared of denominators and summed per mode weight w.  An
    instance's modes v shift the exponents of the integer numerators by
    v . w, which then fold mod N and reduce mod Phi_N
    (`CycloElem.counts_vanish`).
    The specialized module has no window edges, so no instance is
    inconclusive.  Failures name the RelationSpec and the residue
    monomial.

    Exponents r only matter mod N, so rmax defaults to N - 1.  Current
    coverage, for all i, j in the nodes:
      k-conjugation: sign +-1, r in {0, 1};
      h-x: m in {+-1, +-2}, sign +-1, r in {0, 1};
      x-plus-minus: r, rp in 0..rmax;
      x-quadratic: sign +-1, r, rp in 0..rmax;
      serre-cubic: j = i +- 1, sign +-1, r1 <= r2 and rp in
        0..min(serre_rmax, rmax);
      x-commute-distant: both orders of each distant pair (i, j),
        sign +-1, r1, r2 in 0..rmax.
    Not covered: h-h, residues r > 3 when rmax is capped at 3 (as for
    N = 8) and h-x for r outside {0, 1}."""
    if rmax is None:
        rmax = mod.N - 1
    return _run_suite(mod, _eps_runs(mod.rs, rmax, serre_rmax),
                      range(len(mod)))


# ---------------------------------------------------------------------------
# generated submodules, simplicity and thinness
# ---------------------------------------------------------------------------

def _spectrum_signature(mod: SpecializedModule, idx: int) -> tuple:
    """Per node i, k_i = <h_i, wt> mod N and the nonzero sums of the B_p
    of `pair_entries` over each step class mod N
    (`joint_spectrum_simple`)."""
    sig = []
    for i in mod.rs.nodes:
        sums = {}
        for _, s, b in mod.pair_entries(i, idx):
            sums[s] = sums[s] + b if s in sums else b
        sig.append((mod.hpart(idx)[i] % mod.N,
                    tuple(sorted((s, c) for s, c in sums.items()
                                 if not c.is_zero()))))
    return tuple(sig)


def joint_spectrum_simple(mod: SpecializedModule) -> bool:
    """True iff the diagonal loop-Cartan data separates the basis.

    On row i of a basis vector phi^{+-}_{i,0} = eps^{+-k_i}, k_i the sum
    of the row's exponents, and for t != 0 phi^{+-}_{i,t} =
    +-(eps - eps^-1) sum_p B_p eps^{t s_p} over the `pair_entries`
    (s_p mod N, B_p), periodic in t mod N.  As eps is a primitive N-th
    root (N >= 4 here), the discrete Fourier transform over Z/N is
    invertible: the series determine and are determined by k_i mod N
    and the nonzero sums of the B_p over each step class mod N, the
    signature read here (`_spectrum_signature`)."""
    return len({_spectrum_signature(mod, idx)
                for idx in range(len(mod))}) == len(mod)


def _digraph(mod: SpecializedModule) -> list:
    """Successor sets of the nonzero-entry digraph of the x generators."""
    adj = [set() for _ in range(len(mod))]
    for i in mod.rs.nodes:
        for table in (mod.minus_edges[i], mod.plus_edges[i]):
            for src, entries in enumerate(table):
                adj[src].update(dst for dst, _, c in entries if not c.is_zero())
    return adj


def _reach(adj, start: int) -> set:
    """The nodes reachable from start along the successor lists adj."""
    seen, stack = {start}, [start]
    while stack:
        for dst in adj[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def generated_submodule(mod: SpecializedModule, idx: int) -> set:
    """Indices of the basis vectors spanning the submodule generated by
    basis vector `idx` under the x generators (r in 0..N-1).

    Valid when the joint spectrum is simple (`joint_spectrum_simple`):
    every submodule is then spanned by basis vectors, so the generated
    submodule is the set reachable from `idx` in the nonzero-entry
    digraph."""
    return _reach(_digraph(mod), idx)


def cyclic_generation_check(mod: SpecializedModule) -> bool:
    """Simplicity certificate: True iff every basis vector generates the
    whole module under the x generators (r in 0..N-1), i.e. the
    nonzero-entry digraph is strongly connected.

    The joint spectrum must be simple (asserted), so that every
    submodule is spanned by basis vectors.  A module generated by one
    vector but not by every one (cyclic, not simple) gives False."""
    if not joint_spectrum_simple(mod):
        raise AssertionError("joint spectrum not simple; graph reduction invalid")
    adj = _digraph(mod)
    n = len(mod)
    return all(len(_reach(adj, k)) == n for k in range(n))
