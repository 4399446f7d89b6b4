#!/usr/bin/env python3
"""Self-test of the benchmark at minimal size (about half a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json keeps to the benchmark contract, that every
metric it lists is emitted under a valid name and unit, that each
workload passes the gate on the recorded golden values and fails it when
one golden count is corrupted, that both negative controls trip, and
that the benchmark exits non-zero without printing a result when the
torcrys sources are missing.  Exit code 0 when all hold.
"""
from __future__ import annotations

import copy
import json
import math
import random
import re
import shutil
import subprocess
import sys

from run import (BENCH, OUT, ROOT, end_to_end_metrics, import_torcrys,
                 layer_metrics, load_json, measure_setup, run_rep,
                 select, Yardstick)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PROBLEMS = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def check_contract(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names), "names are valid")
    expect(len(names) == len(set(names)), "names are used once")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(all(UNIT.match(m["unit"]) for m in metrics), "units are valid")
    expect(all(m["better"] in ("lower", "higher") for m in metrics),
           "every metric says which way is better")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "end-to-end bounds are in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present with the largest bound")
    expect(1 <= spec["run_seconds"] <= 60
           and isinstance(spec["run_seconds"], int), "run_seconds")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "workload reasons are one line")


def minimal_size(wl) -> dict:
    """Shrink every workload to its smallest case, and the golden values
    to match (the kept entries are the recorded ones)."""
    golden = load_json(BENCH / "golden.json")
    wl.SAMPLE = 1
    wl.RELSWEEP_MODULES = {"thin_3_1": wl.RELSWEEP_MODULES["thin_3_1"]}
    wl.UNITY_CASES = {"thin_3_1_L2": wl.UNITY_CASES["thin_3_1_L2"]}
    wl.CLOSEDNESS_CASES = [(3, ell) for ell in (1, 2, 3)]
    mods = golden["relsweep_generic"]["modules"]
    golden["relsweep_generic"]["modules"] = {"thin_3_1": mods["thin_3_1"]}
    cases = golden["unity_eps"]["cases"]
    golden["unity_eps"]["cases"] = {"thin_3_1_L2": cases["thin_3_1_L2"]}
    cases = golden["closedness_sweep"]["cases"]
    golden["closedness_sweep"]["cases"] = {
        k: v for k, v in cases.items() if k.startswith("n3_")}
    return golden


def corrupt(workload: str, golden: dict) -> dict:
    """A copy of the golden values with one recorded count off by one."""
    bad = copy.deepcopy(golden)
    if workload == "relsweep_generic":
        bad[workload]["modules"]["thin_3_1"]["specs"]["h-x"] += 1
    elif workload == "unity_eps":
        bad[workload]["cases"]["thin_3_1_L2"]["checked"] += 1
    else:
        bad[workload]["cases"]["n3_ell2"]["inconclusive"] += 1
    return bad


def check_bare_directory() -> None:
    """Only BENCHMARK.json and bench/: no result, non-zero exit."""
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "closedness_sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ the benchmark exits {proc.returncode} and prints "
           "no result")


def main() -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    check_contract(spec)
    check_bare_directory()

    import_torcrys()
    import workloads as wl
    from tracing import Tracer

    golden = minimal_size(wl)
    tracer = Tracer("selftest")
    for workload in wl.WORKLOADS:
        yardstick = Yardstick(wl.CALLS)
        yardstick.run()
        setups = measure_setup(workload, tracer, 1)
        yardstick.run()
        tracer.before_span = yardstick.maybe
        plain = run_rep(workload, random.Random(0), tracer, golden)
        tracer.before_span = None
        yardstick.run()
        traced = run_rep(workload, random.Random(0), tracer, golden,
                         profile=True)
        expect(plain["failed"] == 0 and traced["failed"] == 0
               and plain["units"] > 0, f"{workload}: gate passes")
        yardstick.rescale(plain, setups)
        values = {**end_to_end_metrics([plain]),
                  **layer_metrics(tracer.descendants(setups[0]), plain,
                                  traced)}
        emitted = {**select(values, spec["end_to_end"]),
                   **select(values, spec["per_layer"])}
        expect(all(isinstance(m["value"], (int, float))
                   and math.isfinite(m["value"]) for m in emitted.values()),
               f"{workload}: all {len(emitted)} metrics are finite numbers")
        expect(json.loads(json.dumps(emitted)) == emitted,
               f"{workload}: metrics survive a JSON round trip")
        _, _, failed, notes = wl.check(workload, plain["obs"],
                                       corrupt(workload, golden))
        expect(failed > 0 and bool(notes),
               f"{workload}: a corrupted golden count trips the gate")
    for workload, (name, control) in wl.CONTROLS.items():
        expect(control() > 0, f"negative control {name} trips")

    print("selftest passed" if not PROBLEMS else
          f"selftest FAILED: {len(PROBLEMS)} problems")
    return 0 if not PROBLEMS else 1


if __name__ == "__main__":
    sys.exit(main())
