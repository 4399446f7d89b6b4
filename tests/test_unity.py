import operator

import pytest

from torcrys import relations
from torcrys.crystal import WindowError, generate
from torcrys.monomial import ResidueMonomial, gamma
from torcrys.qcoeff import (RQ_ONE, CycloElem, RationalQ, SpecializationError,
                            eval_cyclotomic, qint)
from torcrys.relations import RELATION_IDS, RelationSpec, eps_runs
from torcrys.torep import (ClosednessRefusal, build_doubled, build_thin,
                           doubled_anchor)
from torcrys.unity import (SpecializedModule, cyclic_generation_check,
                           generated_submodule, joint_spectrum_simple,
                           relation_check_eps, specialize_doubled,
                           specialize_thin)


def test_dimensions_thin():
    assert len(specialize_thin(3, 1, 1)) == 4
    assert len(specialize_thin(3, 1, 2)) == 8
    assert len(specialize_thin(3, 2, 2)) == 12


def test_thin_exclusions():
    with pytest.raises(ValueError):
        specialize_thin(3, 2, 1)  # the (p, L) = (2, 1) exclusion
    with pytest.raises(ClosednessRefusal):
        specialize_thin(5, 2, 2)


def test_relations_thin_small():
    m = specialize_thin(3, 1, 1)
    rep = relation_check_eps(m, rmax=3, serre_rmax=2)
    assert rep.ok and not rep.failures


def test_relations_fail_on_doubled_coefficient(coefficient_doubled):
    m = specialize_thin(3, 1, 2)
    intact = relation_check_eps(m, rmax=3, serre_rmax=2)
    rep = relation_check_eps(coefficient_doubled(m), rmax=3, serre_rmax=2)
    assert intact.ok and rep.checked == intact.checked
    assert rep.failures and not rep.ok
    for spec, node in rep.failures:
        assert isinstance(spec, RelationSpec) and spec.rid in RELATION_IDS
        assert isinstance(node, ResidueMonomial) and node in m.index


def test_cyclic_generation_thin():
    assert cyclic_generation_check(specialize_thin(3, 1, 1))
    assert cyclic_generation_check(specialize_thin(3, 2, 2))


def _direct_sum(a, b):
    basis = list(a.basis) + list(b.basis)
    joined = SpecializedModule(a.rs, a.N, basis,
                               {r: k for k, r in enumerate(basis)})
    joined.rows = list(a.rows) + list(b.rows)
    for i in a.rs.nodes:
        joined.minus_edges[i] = list(a.minus_edges[i]) + [
            tuple((dst + len(a), l, c) for dst, l, c in entries)
            for entries in b.minus_edges[i]]
        joined.plus_edges[i] = list(a.plus_edges[i]) + [
            tuple((dst + len(a), l, c) for dst, l, c in entries)
            for entries in b.plus_edges[i]]
    return joined


def test_direct_sum_is_not_cyclic():
    joined = _direct_sum(specialize_thin(3, 1, 1), specialize_thin(3, 1, 1))
    # identical blocks share their spectra, so the graph reduction must
    # refuse; a direct sum can never be cyclic either way
    with pytest.raises(AssertionError):
        cyclic_generation_check(joined)
    assert len(generated_submodule(joined, 0)) < len(joined)


def test_direct_sum_has_no_generator():
    """Negative control for the generation check of criterion 11b: a
    direct sum with a simple joint spectrum, where no basis vector
    generates more than the 16-dimensional doubled block."""
    joined = _direct_sum(specialize_doubled(1), specialize_thin(3, 1, 1))
    n = len(joined)
    assert n == 20 and joint_spectrum_simple(joined)
    assert max(len(generated_submodule(joined, k)) for k in range(n)) == 16
    assert cyclic_generation_check(joined) is False


def test_gamma_compatibility_qcharacter():
    # the specialized q-character is the residue image of one fundamental
    # domain of the generic one
    spec = specialize_thin(3, 1, 2)
    mod = build_thin(3, 1, (-16, 20))
    rs = mod.rs
    domain = [m for m in mod.graph.nodes if 0 >= m.weight.delta > -2]
    expected = {gamma(rs, m, 8) for m in domain}
    assert set(spec.basis) == expected


def test_specialized_action_table_consistency():
    # representatives differing by the full shift give the same table entry
    spec = specialize_thin(3, 1, 1)
    mod = build_thin(3, 1, (-16, 20))
    rs = mod.rs
    by_res = {}
    for idx, m in enumerate(mod.graph.nodes):
        by_res.setdefault(gamma(rs, m, 4), []).append(idx)
    for rm, reps in by_res.items():
        rows = set()
        for rep in reps:
            if not mod.graph.interior[rep]:
                continue
            entries = []
            for dst, l, c in mod.minus_edges[1][rep]:
                if dst is None:
                    break
                entries.append((gamma(rs, mod.graph.nodes[dst], 4), l % 4))
            else:
                rows.add(tuple(entries))
        assert len(rows) <= 1


def _entries_by_representative(mod, N, spec, keep):
    """Specialized action entries (target residue index, step mod N,
    coefficient at eps) of every interior representative kept by `keep`,
    as a set per residue index; entries into dropped nodes and entries
    vanishing at eps are left out, as the specialization does."""
    rs, nodes = mod.rs, mod.graph.nodes
    at_eps = {}
    out = {}
    for idx, m in enumerate(nodes):
        if not keep(m):
            continue
        tables = [t[idx] for i in rs.nodes
                  for t in (mod.minus_edges[i], mod.plus_edges[i])]
        if any(dst is None for entries in tables for dst, _, _ in entries):
            continue
        row = []
        for entries in tables:
            spec_entries = []
            for dst, l, c0 in entries:
                if not keep(nodes[dst]):
                    continue
                key = (c0.num.key(), c0.den.key())
                if key not in at_eps:
                    at_eps[key] = eval_cyclotomic(c0, N)
                if not at_eps[key].is_zero():
                    spec_entries.append((spec.index[gamma(rs, nodes[dst], N)],
                                         l % N, at_eps[key]))
            row.append(tuple(spec_entries))
        out.setdefault(spec.index[gamma(rs, m, N)], set()).add(tuple(row))
    return out


def _specialization_cases():
    """The criterion-11a cases and thin (3,1,3), each with the generic
    module and node filter the specialization uses."""
    for n, ell, L in ((3, 1, 1), (3, 1, 2), (3, 2, 2), (5, 3, 2), (3, 1, 3)):
        spec = specialize_thin(n, ell, L)
        half = max(2 * spec.N + 2 * (n + 1), 4 * (n + 1))
        yield spec, build_thin(n, ell, (-half, half)), lambda m: True
    from torcrys.unity import _anchor_blocks
    for L in (1, 2):
        mod = build_doubled(L, (-4 * (L + 3), 4 * (L + 3)))
        block = _anchor_blocks(mod, L)
        yield specialize_doubled(L), mod, lambda m, L=L, block=block: block[m] < L


def _representative_mismatches(spec, mod, keep):
    """Basis indices of `spec` whose interior representatives in `mod`
    do not all give the entries `spec` holds, or that have none."""
    rows = _entries_by_representative(mod, spec.N, spec, keep)
    bad = [k for k in range(len(spec)) if k not in rows]
    for k, found in rows.items():
        expected = tuple(t[k] for i in spec.rs.nodes
                         for t in (spec.minus_edges[i], spec.plus_edges[i]))
        if found != {expected}:
            bad.append(k)
    return bad


def test_specialization_independent_of_representative():
    # _specialize reads each residue's entries off its first interior
    # representative; every other one must give the same reduced entries
    for spec, mod, keep in _specialization_cases():
        assert _representative_mismatches(spec, mod, keep) == [], spec.basis


def test_representative_check_catches_a_changed_coefficient():
    # one coefficient altered at a representative that _specialize does
    # not choose leaves the specialized module as it was, and the check
    # names that residue
    from torcrys.unity import _specialize
    N = 8
    mod = build_thin(3, 1, (-24, 24))
    nodes = mod.graph.nodes
    spec = _specialize(mod, N)
    interior = [idx for idx in range(len(nodes))
                if all(dst is not None for i in mod.rs.nodes
                       for t in (mod.minus_edges[i], mod.plus_edges[i])
                       for dst, _, _ in t[idx])]
    chosen = {}
    for idx in interior:
        chosen.setdefault(gamma(mod.rs, nodes[idx], N), idx)
    victim = next(idx for idx in interior
                  if chosen[gamma(mod.rs, nodes[idx], N)] != idx
                  and mod.minus_edges[1][idx])
    (dst, l, c), *rest = mod.minus_edges[1][victim]
    assert not spec._scalar(c).is_zero()
    mod.minus_edges[1][victim] = ((dst, l, c + c), *rest)
    assert _specialize(mod, N).minus_edges == spec.minus_edges
    assert _representative_mismatches(spec, mod, lambda m: True) == \
        [spec.index[gamma(mod.rs, nodes[victim], N)]]


def test_dimension_doubled():
    assert len(specialize_doubled(1)) == 16
    assert len(specialize_doubled(2)) == 64


def test_relations_doubled():
    m = specialize_doubled(1)
    rep = relation_check_eps(m, rmax=3, serre_rmax=2)
    assert rep.ok and not rep.failures


def test_kernel_branch_vanishes_at_eps():
    # the branch from the s = L anchor back into the quotient support
    # (the blocks s < L) carries a (1 - q^{-4L})-type numerator, zero at
    # the 4L-th root, while its denominator does not vanish there
    for L in (1, 2):
        window = (-4 * (L + 3), 4 * (L + 3))
        mod = build_doubled(L, window)
        lower = {node for s in range(L)
                 for node in generate(mod.rs, [doubled_anchor(mod.rs, s)],
                                      window).nodes}
        top = mod.graph.index[doubled_anchor(mod.rs, L)]
        (dst, c), = [(dst, c) for dst, step, c in mod.minus_edges[1][top]
                     if step == -4 * L]
        assert mod.node(dst) in lower
        assert eval_cyclotomic(c, 4 * L).is_zero()
        assert not CycloElem.from_laurent(4 * L, c.den).is_zero()


def test_doubled_spectrum_simple():
    assert joint_spectrum_simple(specialize_doubled(1))


def test_doubled_generation_obstruction():
    """At a primitive 4th root of unity [2]_q = 0, so every generator
    kills the top residue vector: its span is a one-dimensional
    invariant subspace, so the module is not simple."""
    m = specialize_doubled(1)
    assert eval_cyclotomic(RationalQ(qint(2)), 4).is_zero()
    top = next(k for k, rm in enumerate(m.basis)
               if dict(rm.exps) == {(0, 0): -1, (0, 2): -1, (1, 1): 1, (1, 3): 1})
    for i in m.rs.nodes:
        for sign in (1, -1):
            for r in range(4):
                assert m.act_x(sign, i, r, {top: CycloElem.one(4)}) == {}
    assert cyclic_generation_check(m) is False


def _spectrum_cases():
    """The modules of the joint-spectrum oracle: thin ones, both doubled
    quotients and both direct sums, by name."""
    for n, ell, L in ((3, 1, 1), (3, 1, 2), (3, 2, 2), (3, 3, 1), (3, 1, 3),
                      (5, 3, 2), (5, 1, 1), (5, 5, 1)):
        yield f"thin{(n, ell, L)}", specialize_thin(n, ell, L)
    for L in (1, 2):
        yield f"doubled{L}", specialize_doubled(L)
    yield "thin+thin", _direct_sum(specialize_thin(3, 1, 1),
                                   specialize_thin(3, 1, 1))
    yield "doubled+thin", _direct_sum(specialize_doubled(1),
                                      specialize_thin(3, 1, 1))


def _partition(keys):
    classes = {}
    for idx, key in enumerate(keys):
        classes.setdefault(key, set()).add(idx)
    return sorted(sorted(c) for c in classes.values())


def _generated_by_action(m, idx):
    """The span reached from basis vector idx by act_x, every i, sign and
    r in 0..N-1, vector by vector."""
    seen, stack = {idx}, [idx]
    while stack:
        src = stack.pop()
        for i in m.rs.nodes:
            for sign in (1, -1):
                for r in range(m.N):
                    for dst in m.act_x(sign, i, r, {src: m.one}):
                        if dst not in seen:
                            seen.add(dst)
                            stack.append(dst)
    return seen


def test_joint_spectrum_matches_series_oracle():
    """The pole-residue signature of joint_spectrum_simple splits the
    basis as the phi-series do, each (row, sign) expanded to order N + 2
    by fr_phi_series and mapped by eval_cyclotomic.  generated_submodule
    is the span act_x reaches, and cyclic_generation_check says whether
    every basis vector reaches the whole basis."""
    from torcrys.torep import fr_phi_series
    from torcrys.unity import _spectrum_signature
    for name, m in _spectrum_cases():
        series = [tuple(tuple(eval_cyclotomic(c, m.N) for c in
                              fr_phi_series(m.rows[idx][i], sign,
                                            m.N + 2).coeffs)
                        for i in m.rs.nodes for sign in (1, -1))
                  for idx in range(len(m))]
        expected = _partition(series)
        residues = [_spectrum_signature(m, idx) for idx in range(len(m))]
        assert _partition(residues) == expected, name
        simple = len(expected) == len(m)
        assert joint_spectrum_simple(m) == simple, name
        reached = [_generated_by_action(m, k) for k in range(len(m))]
        assert [generated_submodule(m, k)
                for k in range(len(m))] == reached, name
        if not simple:
            with pytest.raises(AssertionError):
                cyclic_generation_check(m)
            continue
        assert cyclic_generation_check(m) == all(
            len(r) == len(m) for r in reached), name


@pytest.mark.parametrize("L", [1, 2])
def test_anchor_blocks_match_per_anchor_generate(L):
    """specialize_doubled tags each node with its block by reach from
    the anchors over the built graph; the oracle runs one BFS per
    anchor on the same window, later anchors overwriting."""
    from torcrys.unity import _anchor_blocks
    window = (-4 * (L + 3), 4 * (L + 3))
    mod = build_doubled(L, window)
    oracle = {}
    for s in range(L + 1):
        oracle.update((node, s) for node in
                      generate(mod.rs, [doubled_anchor(mod.rs, s)],
                               window).nodes)
    assert _anchor_blocks(mod, L) == oracle
    assert set(oracle.values()) == set(range(L + 1))


@pytest.mark.parametrize("L, distinct", [(1, 33), (2, 59)])
def test_specialization_evaluates_each_coefficient_once(monkeypatch, L,
                                                        distinct):
    """The kernel check and the specialized tables share one memo, so
    specialize_doubled evaluates each distinct coefficient once."""
    from torcrys import unity
    calls = []
    real = unity.eval_cyclotomic

    def counting(c, N):
        calls.append((c.num.key(), c.den.key()))
        return real(c, N)

    monkeypatch.setattr(unity, "eval_cyclotomic", counting)
    assert len(specialize_doubled(L)) == 16 * L * L
    assert len(set(calls)) == distinct
    assert len(calls) == distinct


def test_specialize_refuses_a_residue_without_interior_representative():
    """On a window too narrow for N = 8, some residue has no node whose
    module edges all stay in the graph."""
    from torcrys.unity import _specialize
    with pytest.raises(WindowError, match=r"no interior representative for "
                       r"residue Y\(0,3m8\)\*Y\(3,4m8\)\^-1"):
        _specialize(build_thin(3, 1, (-4, 4)), 8)


def test_specialize_keeps_a_spectral_twist():
    """_specialize reads rows and x entries through the generic module's
    hooks: a twisted module specializes to the same basis with every
    row and x step translated by the twist, mod N, and still satisfies
    every relation at eps."""
    from torcrys.unity import _specialize
    N = 8
    base = build_thin(3, 1, (-20, 20))
    tw = base.twisted(1)
    plain, spec = _specialize(base, N), _specialize(tw, N)
    assert spec.basis == plain.basis
    rep_of = {}
    for idx, m in enumerate(tw.graph.nodes):
        rm = gamma(tw.rs, m, N)
        if rm not in rep_of and all(
                dst is not None for i in tw.rs.nodes for sign in (1, -1)
                for dst, _, _ in tw.x_entries(sign, i, idx)):
            rep_of[rm] = idx
    moved = 0
    for k, rm in enumerate(spec.basis):
        for i in spec.rs.nodes:
            assert spec.row(k, i) == tw.row(rep_of[rm], i)
            assert spec.row(k, i) == {l + 1: u
                                      for l, u in plain.row(k, i).items()}
            steps = [l for _, l, _ in spec.x_entries(-1, i, k)]
            assert steps == [l % N for _, l, _ in
                             tw.x_entries(-1, i, rep_of[rm])]
            assert steps == [(l + 1) % N for _, l, _ in
                             plain.x_entries(-1, i, k)]
            moved += len(steps)
    assert moved
    rep = relation_check_eps(spec, 3, 2)
    assert rep.ok and rep.checked == 12032


def test_specialize_refuses_a_kernel_that_is_not_a_submodule():
    """The doubled L = 1 quotient taken at an 8th root instead of a 4th:
    a coefficient from the dropped block into the kept one survives, and
    the kernel check refuses before any representative is chosen."""
    from torcrys.unity import _anchor_blocks, _specialize
    mod = build_doubled(1, (-16, 16))
    block = _anchor_blocks(mod, 1)
    with pytest.raises(SpecializationError,
                       match=r"\(q\^3\+q\)/\(q\^4\+q\^2\+1\)"):
        _specialize(mod, 8, keep=lambda m: block[m] < 1)


@pytest.mark.parametrize("build", [lambda: specialize_thin(3, 1, 2),
                                   lambda: specialize_doubled(1)],
                         ids=["thin(3,1,2)", "doubled(1)"])
def test_eps_unit_is_the_ring_one(build):
    """The specialized module's one eps map sends 1 to its `one`, so
    every unit coefficient of its operator entries is that object and
    the runner's identity shortcuts apply."""
    spec = build()
    assert spec._scalar(RQ_ONE) is spec.one
    coeffs = [c for i in spec.rs.nodes
              for table in (spec.minus_edges[i], spec.plus_edges[i])
              for entries in table for _, _, c in entries]
    coeffs += [c for i in spec.rs.nodes for idx in range(len(spec))
               for entries in (spec.pair_entries(i, idx),
                               spec.h_entries(i, idx))
               for _, _, c in entries]
    units = [c for c in coeffs if c == spec.one]
    assert units and all(c is spec.one for c in units)


def test_relation_check_eps_multiplies_by_no_unit(monkeypatch):
    """The relation runner forms no ring product with a relation scalar:
    it multiplies cleared integer numerators by the tables' integer
    scalars (`relations._collect`), and skips a path product when either
    factor is the ring's one.  On thin (3,1,2), whose x entries are all
    units, the check makes no CycloElem product at all."""
    spec = specialize_thin(3, 1, 2)
    real = CycloElem.__mul__
    operands = []

    def recording(a, b):
        operands.append((a, b))
        return real(a, b)

    monkeypatch.setattr(CycloElem, "__mul__", recording)
    rep = relation_check_eps(spec, rmax=3, serre_rmax=2)
    assert rep.checked == 12032 and not rep.failures
    assert operands == []


# per basis vector, the instances of relation_check_eps at rmax 3 and
# serre_rmax 2; the three modules are the unity_eps benchmark cases
_EPS_PER_VECTOR = {"h-x": 256, "k-conjugation": 64, "serre-cubic": 288,
                   "x-commute-distant": 128, "x-plus-minus": 256,
                   "x-quadratic": 512}


@pytest.mark.parametrize("build, dim", [
    (lambda: specialize_thin(3, 1, 2), 8),
    (lambda: specialize_thin(3, 2, 2), 12),
    (lambda: specialize_doubled(1), 16)])
def test_relation_check_eps_counts(build, dim, monkeypatch):
    # most (run, vector) pairs have no path from the vector and are
    # counted without building their terms; the others leave no sum
    # once mode weights are taken mod N, so no instance is evaluated one
    # by one; the counts stay those of evaluating every instance
    entered, evaluated = [], []
    node_terms, residual = relations._node_terms, relations._residual

    def recording(mod, template, memo):
        entered.append(template)
        return node_terms(mod, template, memo)

    def recording_residual(terms, v):
        evaluated.append(v)
        return residual(terms, v)

    monkeypatch.setattr(relations, "_node_terms", recording)
    monkeypatch.setattr(relations, "_residual", recording_residual)
    spec = build()
    rep = relation_check_eps(spec, rmax=min(spec.N - 1, 3), serre_rmax=2)
    assert len(spec) == dim
    assert (rep.checked, rep.inconclusive, rep.failures) == (1504 * dim, 0, [])
    assert rep.by_relation == {rid: k * dim
                               for rid, k in _EPS_PER_VECTOR.items()}
    pairs = len(list(eps_runs(spec.rs, min(spec.N - 1, 3), 2))) * dim
    assert 0 < len(entered) < pairs / 2
    assert evaluated == []
    assert rep.proved == pairs


@pytest.mark.parametrize("build, checked", [
    (lambda: specialize_thin(3, 1, 2), 68096),
    (lambda: specialize_thin(3, 2, 2), 22272),
    (lambda: specialize_doubled(1), 29696),
    (lambda: specialize_doubled(2), 544768)])
def test_relation_check_eps_at_every_residue(build, checked, monkeypatch):
    # rmax = serre_rmax = N - 1 covers every residue of each mode; every
    # (run, vector) pair is proved at once, none instance by instance
    evaluated = []
    residual = relations._residual

    def recording(terms, v):
        evaluated.append(v)
        return residual(terms, v)

    monkeypatch.setattr(relations, "_residual", recording)
    spec = build()
    rep = relation_check_eps(spec, spec.N - 1, spec.N - 1)
    assert rep.ok and not rep.failures and not rep.inconclusive
    assert rep.checked == checked
    assert evaluated == []
    assert rep.proved == len(list(eps_runs(spec.rs, spec.N - 1,
                                           spec.N - 1))) * len(spec)


@pytest.mark.parametrize("build", [lambda: specialize_thin(3, 1, 2),
                                   lambda: specialize_doubled(2)])
def test_fault_at_residue_seven_escapes_the_cap_at_three(build):
    # eight extra pair entries (0, s, eps^s), s = 0..7, on row 1 of basis
    # vector 0 act by sum_s eps^{s(t+1)} = 8 delta(t = 7 mod 8): only
    # x-plus-minus at r + rp = 7 sees them, a residue the r <= 3 range of
    # the command line and the benchmark never reaches
    spec = build()
    assert spec.N == 8
    extra = tuple((0, s, spec.one.mul_qpow(s)) for s in range(8))
    entries = spec.pair_entries
    spec.pair_entries = lambda i, idx: (
        entries(i, idx) + extra if (i, idx) == (1, 0) else entries(i, idx))
    for serre_rmax in (1, 2):
        capped = relation_check_eps(spec, 3, serre_rmax)
        assert capped.ok and not capped.failures
    full = relation_check_eps(spec, 7, 7)
    assert len(full.failures) == 8
    for rel, _ in full.failures:
        p = dict(rel.params)
        assert (rel.rid, p["i"], p["j"], p["r"] + p["rp"]) == (
            "x-plus-minus", 1, 1, 7)


@pytest.mark.parametrize("build, checked", [
    (lambda: specialize_thin(3, 1, 2), (10496, 12032, 68096, 2048)),
    (lambda: specialize_doubled(2), (83968, 96256, 544768, 16384))])
def test_h_fault_outside_the_h_x_modes_escapes_relation_check_eps(build,
                                                                  checked):
    # eight extra h entries (0, s, eps^{-3s}), s = 0..7, on row 1 of basis
    # vector 0 act by sum_s eps^{s(m-3)} = 8 delta(m = 3 mod 8): the h-x
    # runs of relation_check_eps take m in {+-1, +-2} only, so they pass
    # at the command-line, benchmark and every-residue ranges, while an
    # h-x run at m = 3 or m = -5 fails
    spec = build()
    assert spec.N == 8
    extra = tuple((0, s, spec.one.mul_qpow(-3 * s)) for s in range(8))
    entries = spec.h_entries
    spec.h_entries = lambda i, idx: (
        entries(i, idx) + extra if (i, idx) == (1, 0) else entries(i, idx))
    for (rmax, serre_rmax), want in zip(((3, 1), (3, 2), (7, 7)), checked):
        rep = relation_check_eps(spec, rmax, serre_rmax)
        assert rep.ok and not rep.failures and rep.checked == want
    for m in (1, 2, 3, 4, 5, 6, 7, -5):
        runs = relations._runs(spec.rs,
                               {"h-x": tuple((m, r) for r in range(8))},
                               operator.ne)
        rep = relations.run_suite(spec, runs, range(len(spec)))
        assert rep.checked == checked[3]
        if m % 8 != 3:
            assert rep.ok and not rep.failures
            continue
        assert len(rep.failures) == 32
        for rel, _ in rep.failures:
            p = dict(rel.params)
            assert (rel.rid, p["i"], p["m"]) == ("h-x", 1, m)
            assert p["j"] in (0, 1)


@pytest.mark.parametrize("rmax, serre_rmax", [(-1, 2), (1, -1)])
def test_relation_check_eps_rejects_empty_ranges(rmax, serre_rmax):
    # rmax < 0 empties every x family and serre_rmax < 0 serre-cubic
    with pytest.raises(ValueError, match="rmax >= 0 and serre_rmax >= 0"):
        relation_check_eps(specialize_thin(3, 1, 2), rmax, serre_rmax)
