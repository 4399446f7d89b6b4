#!/usr/bin/env python3
"""Regenerate bench/golden.json, the exact outputs the benchmark gate
compares against.

    python3 bench/record_golden.py

For relsweep_generic it runs every relation family on every interior
node of the criterion-6 modules, one node at a time (the whole
criterion-6 sweep, a few minutes), and keeps the per-node inconclusive
counts, so the gate knows the exact counts for any seeded sample.  Run
it only when a change is meant to alter these outputs, and say why.
"""
from __future__ import annotations

import json
import random
import sys

from run import BENCH, import_torcrys, measure_setup


def main() -> int:
    import_torcrys()
    import workloads as wl
    from torcrys.torep import RELATION_IDS, relation_instances, run_relation_suite
    from tracing import Tracer

    modules = {}
    for name, build in wl.RELSWEEP_MODULES.items():
        mod = build()
        interior = sorted(mod.graph.interior_indices())
        keys = [wl.node_key(mod, i) for i in interior]
        if len(set(keys)) != len(keys):
            raise AssertionError(f"{name}: node keys are not unique")
        specs = {fam: sum(1 for _ in relation_instances(
                     mod.rs, rmax=wl.RMAX, hmax=wl.HMAX, include=[fam]))
                 for fam in RELATION_IDS}
        inconclusive = {}
        for idx, key in zip(interior, keys):
            for fam in RELATION_IDS:
                rep = run_relation_suite(mod, rmax=wl.RMAX, hmax=wl.HMAX,
                                         nodes=[idx], include=[fam])
                if rep.failures:
                    raise AssertionError(f"{name} {fam} fails at {key}")
                if rep.inconclusive:
                    inconclusive.setdefault(key, {})[fam] = rep.inconclusive
        modules[name] = {"interior_count": len(interior),
                         "interior_digest": wl.interior_digest(keys),
                         "specs": specs, "inconclusive": inconclusive}
        print(f"{name}: {len(interior)} interior nodes, "
              f"{len(inconclusive)} with inconclusive instances",
              file=sys.stderr)

    tracer = Tracer("record-golden")
    unity = wl.unity_eps(random.Random(0), tracer)
    if any(o["failures"] for o in unity.values()):
        raise AssertionError(f"relation_check_eps fails: {unity}")
    closedness = wl.closedness_sweep(random.Random(0), tracer)
    setup = measure_setup("closedness_sweep", tracer, 1)[0]
    for rec in tracer.descendants(setup):
        o = closedness[rec["attrs"]["case"]]
        o["nodes"] = rec["attrs"]["nodes"]
        theorem = o["ell"] in (1, (o["n"] - 1) // 2 + 1, o["n"])
        if o["closed"] != theorem or o["partition_sizes"] != [o["nodes"]]:
            raise AssertionError(f"closedness verdict {rec['attrs']['case']}: "
                                 f"{o}")
    golden = {
        "relsweep_generic": {"rmax": wl.RMAX, "hmax": wl.HMAX,
                             "modules": modules},
        "unity_eps": {"cases": {
            name: {k: o[k] for k in ("dim", "checked", "cyclic")}
            for name, o in sorted(unity.items())}},
        "closedness_sweep": {"cases": {
            name: {k: o[k] for k in ("closed", "nodes", "classes",
                                     "inconclusive")}
            for name, o in sorted(closedness.items())}},
    }
    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
