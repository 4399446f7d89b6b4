#!/usr/bin/env python3
"""Measure a baseline and write bench/BENCH_<tag>.json.

    python3 bench/baseline.py --tag 0          # about 25 minutes

Runs every workload untraced on RUNS consecutive seeds starting at the
default seed, one run after the other, and once traced on the default
seed.  For each end-to-end metric it records the values, the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median, which should stay below
the metric's bound.  The held-out seed is recorded, not run: a claimed
gain must also hold on it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import (BENCH, DEFAULT_SEED, HELDOUT_SEED, ROOT, WORKLOAD_NAMES,
                 load_json, metadata)

RUNS = 10


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode or result is None or not result["correct"]:
        raise SystemExit(f"baseline: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}")
    return result


def summarize(results: list, listed: list) -> dict:
    out = {}
    for d in listed:
        values = [r["metrics"][d["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[d["name"]] = {"unit": d["unit"], "median": median, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / median,
                          "bound": d["bound"], "values": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    spec = load_json(ROOT / "BENCHMARK.json")
    seeds = list(range(DEFAULT_SEED, DEFAULT_SEED + RUNS))
    meta = metadata("baseline")
    del meta["run_id"]
    report = {"meta": meta, "run_seconds": spec["run_seconds"],
              "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
              "seeds": seeds, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {m['value']:.4g}"
                              for k, m in results[-1]["metrics"].items()),
                  file=sys.stderr)
        traced = run_once(workload, DEFAULT_SEED, 1)
        report["workloads"][workload] = {
            "end_to_end": summarize(results, spec["end_to_end"]),
            "per_layer_default_seed": {k: m["value"] for k, m
                                       in traced["metrics"].items()}}
        for name, m in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload:18s} {name:16s} median {m['median']:.5g} "
                  f"{m['unit']}  spread {m['spread']:.4f} (bound "
                  f"{m['bound']})")
    path = BENCH / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
