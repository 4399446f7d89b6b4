"""The three benchmark workloads, their exact output gate and the two
negative controls.

Each workload runs the public torcrys calls under spans of a Tracer and
returns what it observed; `check` compares the observations with the
golden values in golden.json.  Keeping the two apart lets the self-test
feed a corrupted golden file to the same gate.

Every repetition builds its modules afresh, because every `rep check`
or `unity` invocation pays for cold module caches.  A workload draws its
inputs from the random.Random(seed) it is given; the benchmark passes one
generator to all the repetitions of a run, so repetition k gets the k-th
sample of relsweep_generic and the k-th case order of the others.

SETUPS holds each workload's set-up calls on their own: the benchmark
times them apart from the repetitions, several times per run, to give
setup_s.  closed_report generates its crystal inside the call, so
closedness_sweep's set-up is that generate on its own, and the
repetitions do not repeat it.
"""
from __future__ import annotations

import hashlib
import random

from torcrys.closedness import closed_report, fundamental_anchor
from torcrys.crystal import generate
from torcrys.lattice import RootSystem
from torcrys.torep import (RELATION_IDS, LoopModule, build_doubled,
                           build_thin, run_relation_suite)
from torcrys.unity import (SpecializedModule, cyclic_generation_check,
                           relation_check_eps, specialize_doubled,
                           specialize_thin)

# relsweep_generic: the criterion-6 modules and parameter ranges.
RELSWEEP_MODULES = {
    "thin_3_1": lambda: build_thin(3, 1, (-24, 24)),
    "thin_3_2": lambda: build_thin(3, 2, (-24, 24)),
    "thin_3_3": lambda: build_thin(3, 3, (-24, 24)),
    "doubled_2": lambda: build_doubled(2, (-14, 14)),
}
RMAX, HMAX = 3, 2
SAMPLE = 8

# unity_eps: criterion-11a cases without (5,3,2) and doubled L = 2, whose
# 42 s per repetition is too long to repeat.  Values: (specialize call,
# serre_rmax); rmax is min(N - 1, 3) as in criterion 11a.
UNITY_CASES = {
    "thin_3_1_L2": (lambda: specialize_thin(3, 1, 2), 2),
    "thin_3_2_L2": (lambda: specialize_thin(3, 2, 2), 2),
    "doubled_L1": (lambda: specialize_doubled(1), 2),
}

# closedness_sweep: criterion 4.
CLOSEDNESS_CASES = [(n, ell) for n in (3, 5, 7) for ell in range(1, n + 1)]


def closedness_window(n: int):
    return (-3 * (n + 1), 3 * (n + 1))


def node_key(mod: LoopModule, idx: int) -> str:
    m = mod.node(idx)
    return f"{m}@{m.weight.delta}"


def interior_digest(keys) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def relsweep_generic(rng: random.Random, tr) -> dict:
    """run_relation_suite per family on a seeded sample of interior nodes
    of every criterion-6 module."""
    obs = {}
    for name, build in RELSWEEP_MODULES.items():
        with tr.span("case", case=name):
            with tr.span("build", case=name) as attrs:
                mod = build()
                attrs["nodes"] = len(mod)
            interior = sorted(mod.graph.interior_indices())
            sample = rng.sample(interior, SAMPLE)
            families = {}
            for fam in RELATION_IDS:
                with tr.span("run_relation_suite", case=name,
                             family=fam) as attrs:
                    rep = run_relation_suite(mod, rmax=RMAX, hmax=HMAX,
                                             nodes=sample, include=[fam])
                    attrs["instances"] = rep.checked + rep.inconclusive
                    attrs["checked"] = rep.checked
                families[fam] = {"checked": rep.checked,
                                 "inconclusive": rep.inconclusive,
                                 "by_relation": dict(rep.by_relation),
                                 "failures": len(rep.failures)}
            obs[name] = {
                "interior": interior_digest(node_key(mod, i) for i in interior),
                "sample": [node_key(mod, i) for i in sample],
                "families": families}
    return obs


def unity_eps(rng: random.Random, tr) -> dict:
    """Specialize, relation_check_eps, cyclic_generation_check; the seed
    sets the order of the cases."""
    order = list(UNITY_CASES)
    rng.shuffle(order)
    obs = {}
    for name in order:
        specialize, serre_rmax = UNITY_CASES[name]
        with tr.span("case", case=name):
            with tr.span("specialize", case=name) as attrs:
                spec = specialize()
                attrs["dim"] = len(spec)
            with tr.span("relation_check_eps", case=name) as attrs:
                rep = relation_check_eps(spec, rmax=min(spec.N - 1, 3),
                                         serre_rmax=serre_rmax)
                attrs["instances"] = rep.checked
            with tr.span("cyclic_generation_check", case=name):
                cyclic = cyclic_generation_check(spec)
        obs[name] = {"dim": len(spec), "checked": rep.checked,
                     "failures": len(rep.failures), "cyclic": cyclic}
    return obs


def closedness_sweep(rng: random.Random, tr) -> dict:
    """closed_report(n, ell) for n in {3, 5, 7} and every ell; the seed
    sets the case order."""
    order = list(CLOSEDNESS_CASES)
    rng.shuffle(order)
    obs = {}
    for n, ell in order:
        name = f"n{n}_ell{ell}"
        with tr.span("case", case=name):
            with tr.span("closed_report", case=name, n=n) as attrs:
                rep = closed_report(n, ell, closedness_window(n))
                classes = sum(len(d.classes) for d in rep.directions)
                inconclusive = sum(d.n_inconclusive for d in rep.directions)
                attrs["classes"] = classes
                attrs["inconclusive"] = inconclusive
        # every direction's classes must partition the whole crystal
        obs[name] = {
            "n": n, "ell": ell, "closed": rep.closed,
            "partition_sizes": sorted({sum(len(c.members) for c in d.classes)
                                       for d in rep.directions}),
            "classes": classes, "inconclusive": inconclusive}
    return obs


WORKLOADS = {
    "relsweep_generic": relsweep_generic,
    "unity_eps": unity_eps,
    "closedness_sweep": closedness_sweep,
}

# The spans around public torcrys calls inside a repetition: the time
# metrics add these up.
CALLS = ("build", "run_relation_suite", "specialize", "relation_check_eps",
         "cyclic_generation_check", "closed_report")


# ---------------------------------------------------------------------------
# set-up calls on their own
# ---------------------------------------------------------------------------

def relsweep_setup(tr) -> None:
    for name, build in RELSWEEP_MODULES.items():
        with tr.span("build", case=name) as attrs:
            attrs["nodes"] = len(build())


def unity_setup(tr) -> None:
    for name, (specialize, _) in UNITY_CASES.items():
        with tr.span("specialize", case=name) as attrs:
            attrs["dim"] = len(specialize())


def closedness_setup(tr) -> None:
    for n, ell in CLOSEDNESS_CASES:
        rs = RootSystem.for_fundamental(n, ell)
        with tr.span("generate", case=f"n{n}_ell{ell}") as attrs:
            attrs["nodes"] = len(generate(rs, [fundamental_anchor(rs, ell)],
                                          closedness_window(n)))


SETUPS = {
    "relsweep_generic": relsweep_setup,
    "unity_eps": unity_setup,
    "closedness_sweep": closedness_setup,
}

# Set-up passes timed before each repetition: enough that a short set-up
# is sampled for about half a second per repetition.
SETUP_PASSES = {"relsweep_generic": 4, "unity_eps": 3, "closedness_sweep": 1}


# ---------------------------------------------------------------------------
# the exact output gate
# ---------------------------------------------------------------------------

def expected_units(workload: str, golden: dict) -> int:
    """Verdict units of one repetition: relation instances, eps-checks or
    sl2 classes."""
    g = golden[workload]
    if workload == "relsweep_generic":
        return sum(SAMPLE * n for m in g["modules"].values()
                   for n in m["specs"].values())
    if workload == "unity_eps":
        return sum(c["checked"] for c in g["cases"].values())
    return sum(c["classes"] for c in g["cases"].values())


def check(workload: str, obs: dict, golden: dict):
    """Compare one repetition's observations with the golden values.

    Returns (units, inconclusive, failed, notes): failed counts nonzero
    residuals plus every mismatched count or verdict, and notes say
    which."""
    return _CHECKS[workload](obs, golden[workload])


def _check_relsweep(obs, g):
    units = inconclusive = failed = 0
    notes = []
    if set(obs) != set(g["modules"]):
        return 0, 0, 1, [f"modules {sorted(obs)} != {sorted(g['modules'])}"]
    for name, o in obs.items():
        gm = g["modules"][name]
        if o["interior"] != gm["interior_digest"]:
            failed += 1
            notes.append(f"{name}: interior nodes differ from the golden set")
        if len(o["sample"]) != SAMPLE:
            failed += 1
            notes.append(f"{name}: sample of {len(o['sample'])} nodes")
        if set(o["families"]) != set(gm["specs"]):
            failed += 1
            notes.append(f"{name}: families {sorted(o['families'])}")
            continue
        for fam, f in o["families"].items():
            exp_inc = sum(gm["inconclusive"].get(k, {}).get(fam, 0)
                          for k in o["sample"])
            exp_checked = gm["specs"][fam] * len(o["sample"]) - exp_inc
            units += f["checked"] + f["inconclusive"]
            inconclusive += f["inconclusive"]
            bad = f["failures"]
            if (f["checked"], f["inconclusive"]) != (exp_checked, exp_inc):
                bad += max(1, abs(f["checked"] - exp_checked)
                           + abs(f["inconclusive"] - exp_inc))
            if f["by_relation"] != ({fam: exp_checked} if exp_checked else {}):
                bad = max(bad, 1)
            if bad:
                failed += bad
                notes.append(
                    f"{name} {fam}: checked {f['checked']} inconclusive "
                    f"{f['inconclusive']} by_relation {f['by_relation']} "
                    f"failures {f['failures']}; expected {exp_checked} / "
                    f"{exp_inc} / 0")
    return units, inconclusive, failed, notes


def _check_unity(obs, g):
    units = failed = 0
    notes = []
    if set(obs) != set(g["cases"]):
        return 0, 0, 1, [f"cases {sorted(obs)} != {sorted(g['cases'])}"]
    for name, o in obs.items():
        want = g["cases"][name]
        units += o["checked"]
        bad = o["failures"] + abs(o["checked"] - want["checked"])
        bad += (o["dim"] != want["dim"]) + (o["cyclic"] != want["cyclic"])
        if bad:
            failed += bad
            notes.append(f"{name}: {o}; expected {want} and no failures")
    return units, 0, failed, notes


def _check_closedness(obs, g):
    units = inconclusive = failed = 0
    notes = []
    if set(obs) != set(g["cases"]):
        return 0, 0, 1, [f"cases {sorted(obs)} != {sorted(g['cases'])}"]
    for name, o in obs.items():
        want = g["cases"][name]
        units += o["classes"]
        inconclusive += o["inconclusive"]
        theorem = o["ell"] in (1, (o["n"] - 1) // 2 + 1, o["n"])
        bad = (o["closed"] != theorem) + (o["closed"] != want["closed"])
        bad += abs(o["classes"] - want["classes"])
        bad += abs(o["inconclusive"] - want["inconclusive"])
        bad += o["partition_sizes"] != [want["nodes"]]
        if bad:
            failed += bad
            notes.append(f"{name}: {o}; expected {want}, closed={theorem}")
    return units, inconclusive, failed, notes


_CHECKS = {"relsweep_generic": _check_relsweep, "unity_eps": _check_unity,
           "closedness_sweep": _check_closedness}


# ---------------------------------------------------------------------------
# negative controls: a checker that checks nothing would pass the gate's
# zero-failure tests, so each must be seen to fail on a broken module
# ---------------------------------------------------------------------------

def control_torep() -> int:
    """Shift one edge's step position by 2 on a copy of thin (3, 1) and
    return the number of failures run_relation_suite reports at its
    source node (the intact module must report none there)."""
    mod = RELSWEEP_MODULES["thin_3_1"]()
    i = 1
    src = next(idx for idx in mod.graph.interior_indices()
               if mod.minus_edges[i][idx])
    table = list(mod.minus_edges[i])
    (dst, l, c0), *rest = table[src]
    table[src] = ((dst, l + 2, c0), *rest)
    broken = LoopModule(mod.rs, mod.graph, mod.flavor,
                        {**mod.minus_edges, i: table}, dict(mod.plus_edges),
                        mod.twist)
    intact = run_relation_suite(mod, rmax=RMAX, hmax=HMAX, nodes=[src])
    if intact.failures:
        raise AssertionError("control: the intact module fails at its node")
    return len(run_relation_suite(broken, rmax=RMAX, hmax=HMAX,
                                  nodes=[src]).failures)


def control_unity() -> int:
    """Double one action coefficient in a copy of specialize_thin(3, 1, 1)
    and return the number of failures relation_check_eps reports."""
    spec = specialize_thin(3, 1, 1)
    i = 1
    src = next(idx for idx, entries in enumerate(spec.minus_edges[i])
               if entries)
    table = list(spec.minus_edges[i])
    (dst, l, c), *rest = table[src]
    table[src] = ((dst, l, c + c), *rest)
    broken = SpecializedModule(spec.rs, spec.N, spec.basis, spec.index,
                               {**spec.minus_edges, i: table},
                               dict(spec.plus_edges), spec.rows)
    return len(relation_check_eps(broken, rmax=min(spec.N - 1, 3),
                                  serre_rmax=2).failures)


CONTROLS = {"relsweep_generic": ("torep_step_shift", control_torep),
            "unity_eps": ("unity_coefficient", control_unity)}
