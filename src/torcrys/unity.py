"""Specialization of the loop weight modules at primitive roots of
unity: finite-dimensional modules over the cyclotomic field, exact
relation checks, the submodule generated by one basis vector, and a
simplicity certificate (every basis vector generates the module).

The quantum parameter is kept symbolic in Q[q]/(Phi_N); no floats on
the verification path.  A specialized module is built in one pass over
the generic one and owns one eps map (`_scalar`, `eval_cyclotomic`
memoised), whose image of 1 is the ring's `one`.  The operator
entries are the generic ones of `torep.XAction`, read from each basis
vector's representative row and weight, with steps taken mod N and
coefficients under the same map; the joint spectrum of the loop-Cartan
operators is read from the pole residues of the pair entries.  The
defining relations are checked over the eps mode table
(`relations.eps_runs`) by the runner of the generic suite
(`relations.run_suite`), in `relation_check_eps`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .crystal import WindowError
from .lattice import RootSystem
from .monomial import ResidueMonomial, gamma
from .qcoeff import RQ_ONE, CycloElem, SpecializationError, eval_cyclotomic
from .relations import SuiteReport, eps_runs, run_suite
from .torep import (LoopModule, XAction, build_doubled, build_thin,
                    doubled_anchor, fr_phi_series)


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
    _residue_memo: dict = field(default_factory=dict)  # of pole_residues
    one: CycloElem = field(init=False, repr=False)
    _scalar: object = field(init=False, repr=False)   # `_eps_images`

    # entries: tuple of (dst, step mod N, CycloElem coefficient)

    def __post_init__(self):
        self._scalar = _eps_images(self.N)
        self.one = self._scalar(RQ_ONE)

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
    """Push a windowed generic module through Gamma_N in one pass.
    `keep` optionally filters which generic nodes survive (the quotient
    construction); edges from dropped nodes into kept ones must carry
    coefficients that vanish at eps (`_validate_kernel`), and the
    quotient projection leaves out edges into dropped nodes, as it does
    entries vanishing at eps.  Each residue's representative is its
    first node in index order whose module edges all stay in the graph.
    Rows and x entries are read through the generic module's `row` and
    `x_entries` hooks, so a spectral twist carries over to both.
    Every coefficient goes through the specialized module's one eps
    map, whose image of 1 is its `one`, so each distinct coefficient is
    evaluated once."""
    rs, nodes = mod.rs, mod.graph.nodes
    residue = {idx: gamma(rs, m, N) for idx, m in enumerate(nodes)
               if keep is None or keep(m)}
    basis = sorted(set(residue.values()), key=lambda r: (r.exps, r.h))
    out = SpecializedModule(rs, N, basis, {r: k for k, r in enumerate(basis)})
    if keep is not None:
        _validate_kernel(mod, out._scalar, keep)
    ops = [(i, sign, name) for i in rs.nodes
           for sign, name in ((-1, "minus_edges"), (1, "plus_edges"))]
    rep_of = {}
    for idx, rm in residue.items():
        if rm not in rep_of and all(
                dst is not None for i, sign, _ in ops
                for dst, _, _ in mod.x_entries(sign, i, idx)):
            rep_of[rm] = idx
    for rm in basis:
        if rm not in rep_of:
            raise WindowError(
                f"no interior representative for residue {rm}; enlarge the window")
    reps = [rep_of[rm] for rm in basis]
    out.rows = [{i: mod.row(rep, i) for i in rs.nodes} for rep in reps]
    for i, sign, name in ops:
        new_table = getattr(out, name)[i] = []
        for rep in reps:
            entries = []
            for dst, l, c0 in mod.x_entries(sign, i, rep):
                if dst in residue:
                    coeff = out._scalar(c0)
                    if not coeff.is_zero():
                        entries.append((out.index[residue[dst]], l % N, coeff))
            new_table.append(tuple(entries))
    return out


def specialize_thin(n: int, ell: int, L: int) -> SpecializedModule:
    """Specialize the thin module at a primitive (p*L)-th root of
    unity, p = 2 for ell = r+1 and p = n+1 for ell in {1, n}; the pair
    (p, L) = (2, 1) is excluded.  Dimension L * C(n+1, ell).  Any other
    ell is refused by `build_thin` with its closedness witness."""
    p = 2 if ell == RootSystem.for_fundamental(n, ell).r + 1 else n + 1
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
    specialize to zero under `at_eps`, the specialized module's `_scalar`."""
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

def relation_check_eps(mod: SpecializedModule, rmax: int | None = None,
                       serre_rmax: int = 2) -> SuiteReport:
    """All defining relations with eps in place of q, on the whole
    finite basis: the instances of the eps mode table
    (`relations.eps_runs`) through the runner of the generic suite
    (`relations.run_suite`).  The module has no window edges, so no
    instance is inconclusive.  Failures name the RelationSpec and the
    residue monomial.

    Exponents r only matter mod N, so rmax defaults to N - 1.  Checked,
    for all i, j in the nodes: r in 0..rmax, serre-cubic's modes in
    0..min(serre_rmax, rmax), k-conjugation at r in {0, 1}, h-x at r in
    {0, 1} and m in {+-1, +-2}.  h-h is not in `eps_runs`, although its
    table is empty at every rank (the diagonal operators commute,
    `relations._commute_diagonal`), so every instance would be proved
    without reading the module; it stays out only so that the pinned
    checked counts at eps hold until the eps mode table is widened.
    Not covered: residues r > 3 when rmax is capped at 3 (as for
    N = 8), and h-x for r outside {0, 1} or m outside {+-1, +-2}, even
    at rmax = serre_rmax = N - 1.  rmax < 0 or serre_rmax < 0 raises
    ValueError."""
    if rmax is None:
        rmax = mod.N - 1
    if rmax < 0 or serre_rmax < 0:
        raise ValueError(f"need rmax >= 0 and serre_rmax >= 0, not "
                         f"rmax={rmax}, serre_rmax={serre_rmax}")
    return run_suite(mod, eps_runs(mod.rs, rmax, serre_rmax),
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
