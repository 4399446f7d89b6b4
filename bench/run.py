#!/usr/bin/env python3
"""Benchmark of the torcrys verifier.

    python3 bench/run.py --workload relsweep_generic --seed 0 --trace 0
    python3 bench/run.py --workload all      # every workload, every metric

One process, one client, closed loop: each repetition starts after the
previous one ends, builds its modules afresh, runs the workload through
the public torcrys functions and passes the exact output gate.  The
workloads, the gate and the negative controls are in workloads.py; the
metric names and units are those listed in BENCHMARK.json.

--trace 0 repeats the workload for about --seconds (it starts another
repetition only while half the median repetition still fits, so a run
ends within half a repetition of --seconds) and reports the medians of
the end-to-end metrics.  Before each repetition it also times the
workload's set-up calls on their own, a few passes of them: setup_s is
the median pass.  These passes are outside wall_s, which counts the
set-up the repetition itself does.  Passes of a fixed reference
computation are interleaved with the timed work (see Yardstick), and
every time metric is given at reference speed: each public call is
scaled by the passes on either side of it, to the machine speed at which
one pass takes REF_S seconds, because the speed of a shared machine
drifts by tens of percent.  The unscaled times go to stderr.

--trace 1 runs one set-up pass, then one plain repetition and one under
cProfile on the same inputs, reports the per-layer metrics, and writes
the spans to .bench_out/.

The last line of stdout is one JSON object; a human-readable summary
goes to stderr.  The exit code is 0 only when every output was
correct and the negative control tripped.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from fractions import Fraction
from pathlib import Path

from tracing import cpu_seconds, duration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("relsweep_generic", "unity_eps", "closedness_sweep")
DEFAULT_SEED = 0
# never used while tuning the benchmark or a change: a claimed gain must
# also hold on this seed
HELDOUT_SEED = 1000


def import_torcrys():
    """Import torcrys from this checkout's src/ and nowhere else."""
    # the optional disk cache for cyclotomic polynomials would write
    # outside the checkout and make repetitions warm
    os.environ.pop("TORCRYS_CACHE_DIR", None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import torcrys
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import torcrys from {src}: {exc}")
    if Path(torcrys.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: torcrys was imported from {torcrys.__file__}")
    return torcrys


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(run_id: str) -> dict:
    return {"run_id": run_id, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# the reference computation: the yardstick of the machine's speed
# ---------------------------------------------------------------------------

# Nominal duration of one reference_work() pass.  Every time metric is
# scaled to the machine speed at which a pass takes REF_S seconds.
REF_S = 0.15
# A public call that starts at least this long after the last reference
# pass gets a fresh pass first, so every call has a pass close on either
# side.
REF_GAP = 0.5


def reference_work() -> int:
    """Fixed pure-Python work on the standard library alone, of the kinds
    torcrys does: dict-of-int polynomial products, Fraction arithmetic
    and a breadth-first search over tuples.  It never runs torcrys code,
    so a change to torcrys leaves its time alone."""
    total = 0
    for _ in range(3):
        p = {e: e % 7 - 3 for e in range(-12, 13)}
        acc = {0: 1}
        for _ in range(60):
            prod = {}
            for a, x in acc.items():
                for b, y in p.items():
                    prod[a + b] = prod.get(a + b, 0) + x * y
            acc = {e: c % 1000003 for e, c in prod.items()
                   if -40 <= e <= 40 and c}
        s = Fraction(0)
        for i in range(1, 1500):
            s += Fraction(i % 11 + 1, i + 3) * Fraction(3, i % 5 + 2)
        seen, frontier = {(0, 0, 0)}, [(0, 0, 0)]
        while frontier:
            nxt = []
            for a, b, c in frontier:
                for node in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)):
                    if sum(node) <= 30 and node not in seen:
                        seen.add(node)
                        nxt.append(node)
            frontier = nxt
        total += len(acc) + s.denominator % 7 + len(seen)
    return total


class Yardstick:
    """Reference passes interleaved with the timed work.

    The caller runs a pass before the first set-up passes, one between
    each repetition's set-up passes and the repetition, and one after
    each repetition; `maybe` (the
    tracer's before_span hook) runs one before a public call when
    REF_GAP has passed since the last.  `scale` turns a span's wall and
    CPU seconds into seconds at reference speed, using the mean of the
    two passes just before and the two just after the span: the speed of
    a shared machine drifts by tens of percent within seconds as well as
    over minutes, and the passes follow it.  One pass on either side
    follows it less well: a 0.15 s pass can fall in a burst of speed
    that a call of seconds does not share."""

    def __init__(self, calls):
        self.calls = calls
        self.passes = []        # (start, end, wall s, cpu s)

    def run(self) -> None:
        w0, c0 = time.perf_counter(), cpu_seconds()
        reference_work()
        w1 = time.perf_counter()
        self.passes.append((w0, w1, w1 - w0, cpu_seconds() - c0))

    def maybe(self, name: str) -> None:
        if (name in self.calls
                and time.perf_counter() - self.passes[-1][1] >= REF_GAP):
            self.run()

    def scale(self, span: dict) -> tuple:
        """(wall, cpu) of `span` at reference speed."""
        n_before = sum(p[1] <= span["start"] for p in self.passes)
        n_after = sum(p[0] >= span["end"] for p in self.passes)
        near = (self.passes[max(n_before - 2, 0):n_before]
                + self.passes[len(self.passes) - n_after:][:2])
        return (duration(span) * REF_S / statistics.fmean(p[2] for p in near),
                span["cpu"] * REF_S / statistics.fmean(p[3] for p in near))

    def rescale(self, rep: dict, setups: list) -> None:
        """Add to `rep` the time of its public calls and of the set-up
        passes before it, at reference speed."""
        calls = [self.scale(s) for s in rep["spans"] if s["name"] in self.calls]
        rep["ref_wall"] = sum(w for w, _ in calls)
        rep["ref_cpu"] = sum(c for _, c in calls)
        rep["ref_setup"] = [self.scale(s)[0] for s in setups]


# ---------------------------------------------------------------------------
# set-up and one repetition
# ---------------------------------------------------------------------------

def cold_caches() -> None:
    from torcrys.qcoeff import cyclotomic

    cyclotomic.cache_clear()
    gc.collect()


def measure_setup(workload: str, tracer, repeats: int) -> list:
    """Run the workload's set-up calls `repeats` times, each from cold
    caches under a `setup` span, and return those spans."""
    import workloads as wl

    passes = []
    for _ in range(repeats):
        cold_caches()
        with tracer.span("setup", workload=workload):
            passes.append(tracer.spans[-1])
            wl.SETUPS[workload](tracer)
    return passes


def run_rep(workload: str, rng: random.Random, tracer, golden: dict,
            profile: bool = False) -> dict:
    import workloads as wl

    cold_caches()
    prof = cProfile.Profile() if profile else None
    obs = None
    cpu0 = cpu_seconds()
    with tracer.span("workload", workload=workload, traced=profile):
        root = tracer.spans[-1]
        if prof:
            prof.enable()
        try:
            obs = wl.WORKLOADS[workload](rng, tracer)
        except Exception:
            traceback.print_exc()
        finally:
            if prof:
                prof.disable()
    cpu = cpu_seconds() - cpu0
    spans = tracer.descendants(root)
    if obs is None:
        units = wl.expected_units(workload, golden)
        inconclusive, failed, notes = 0, units, ["the workload raised"]
    else:
        units, inconclusive, failed, notes = wl.check(workload, obs, golden)
    for note in notes:
        print(f"bench: MISMATCH {note}", file=sys.stderr)
    return {"wall": duration(root), "cpu": cpu, "units": units,
            "inconclusive": inconclusive, "failed": failed,
            "spans": spans, "obs": obs,
            "stats": pstats.Stats(prof) if prof else None}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(reps: list) -> dict:
    """Medians over repetitions of the times at reference speed (see
    Yardstick.rescale); the rate subtracts from each repetition the
    median of the set-up passes timed just before it."""
    med = statistics.median
    return {
        "wall_s": med(r["ref_wall"] for r in reps),
        "setup_s": med(t for r in reps for t in r["ref_setup"]),
        "cpu_s": med(r["ref_cpu"] for r in reps),
        "instances_per_s": med(r["units"] / (r["ref_wall"]
                                             - med(r["ref_setup"]))
                               for r in reps),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(setup: list, plain: dict, traced: dict) -> dict:
    """`setup` is the span list of one set-up pass; `plain` and `traced`
    are repetitions on the same inputs, the second under cProfile."""
    from torcrys.torep import RELATION_IDS
    from tracing import profile_metrics, total_attr, total_time

    sp = plain["spans"]
    m = {}
    for fam in RELATION_IDS:
        n = total_attr(sp, "run_relation_suite", "instances", family=fam)
        t = total_time(sp, "run_relation_suite", family=fam)
        m[f"torep.{fam}.instances"] = n
        m[f"torep.{fam}.us_per_instance"] = 1e6 * t / n if n else 0.0
    n = total_attr(sp, "run_relation_suite", "instances")
    m["torep.conclusive_ratio"] = (
        total_attr(sp, "run_relation_suite", "checked") / n if n else 0.0)
    m["torep.build_s"] = total_time(sp, "build")
    m["unity.specialize_s"] = total_time(sp, "specialize")
    m["crystal.nodes"] = (total_attr(setup, "build", "nodes")
                          + total_attr(setup, "generate", "nodes"))
    n = total_attr(sp, "relation_check_eps", "instances")
    m["unity.relation_check_eps.us_per_instance"] = (
        1e6 * total_time(sp, "relation_check_eps") / n if n else 0.0)
    m["unity.cyclic_generation_s"] = total_time(sp, "cyclic_generation_check")
    for n in (3, 5, 7):
        m[f"closedness.closed_report_s.n{n}"] = total_time(sp, "closed_report", n=n)
    m["closedness.classes"] = total_attr(sp, "closed_report", "classes")
    m["closedness.inconclusive_classes"] = total_attr(sp, "closed_report",
                                                      "inconclusive")
    m["inconclusive_frac"] = plain["inconclusive"] / plain["units"]
    m.update(profile_metrics(traced["stats"]))
    m["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    return m


def select(values: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, with their units, in its order."""
    missing = [d["name"] for d in listed if d["name"] not in values]
    if missing:
        raise SystemExit(f"bench: metrics not computed: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in listed}


def write_trace(args, meta: dict, tracer, traced: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}-{tracer.run_id}.json"
    rows = sorted(traced["stats"].stats.items(), key=lambda kv: -kv[1][1])
    top = [{"function": f"{os.path.basename(f)}:{line}:{name}",
            "calls": v[1], "self_s": v[2], "cum_s": v[3]}
           for (f, line, name), v in rows[:40]]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "spans": tracer.spans,
                   "profile_top_by_calls": top}, fh, indent=1)
    return path


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(args, spec: dict) -> int:
    import_torcrys()
    import workloads as wl
    from tracing import Tracer

    golden = load_json(BENCH / "golden.json")
    tracer = Tracer(uuid.uuid4().hex[:12])
    meta = metadata(tracer.run_id)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(f"bench: {json.dumps(meta)}", file=sys.stderr)

    if args.trace:
        setups = measure_setup(args.workload, tracer, 1)
        reps = [run_rep(args.workload, random.Random(args.seed), tracer,
                        golden, profile=traced) for traced in (False, True)]
    else:
        rng = random.Random(args.seed)
        yardstick = Yardstick(wl.CALLS)
        reps, cycles = [], []
        start = time.perf_counter()
        yardstick.run()
        while not reps or (time.perf_counter() - start
                           + statistics.median(cycles) / 2 <= args.seconds):
            t0 = time.perf_counter()
            setups = measure_setup(args.workload, tracer,
                                   wl.SETUP_PASSES[args.workload])
            yardstick.run()
            tracer.before_span = yardstick.maybe
            reps.append(run_rep(args.workload, rng, tracer, golden))
            tracer.before_span = None
            yardstick.run()
            reps[-1]["setup"] = [duration(s) for s in setups]
            yardstick.rescale(reps[-1], setups)
            cycles.append(time.perf_counter() - t0)

    for k, r in enumerate(reps):
        passes = " ".join(f"{t:.4f}" for t in r.get("setup", ()))
        print(f"bench: repetition {k}: wall {r['wall']:.4f} s, cpu "
              f"{r['cpu']:.4f} s, {r['units']} units"
              + (f", set-up passes {passes} s" if passes else "")
              + (f"; at reference speed: calls {r['ref_wall']:.4f} s"
                 if "ref_wall" in r else ""),
              file=sys.stderr)
    if args.trace:
        metrics = select(layer_metrics(tracer.descendants(setups[0]), *reps),
                         spec["per_layer"])
        print(f"bench: spans written to {write_trace(args, meta, tracer, reps[1])}",
              file=sys.stderr)
    else:
        print("bench: reference passes " + " ".join(
            f"{p[2]:.4f}" for p in yardstick.passes) + " s", file=sys.stderr)
        metrics = select(end_to_end_metrics(reps), spec["end_to_end"])

    controls_ok = True
    if args.workload in wl.CONTROLS:
        name, control = wl.CONTROLS[args.workload]
        try:
            caught = control()
        except Exception:
            traceback.print_exc()
            caught = 0
        controls_ok = caught > 0
        print(f"bench: negative control {name}: {caught} failures reported "
              f"({'tripped' if controls_ok else 'NOT TRIPPED'})",
              file=sys.stderr)

    attempted = sum(r["units"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and controls_ok
    print(f"bench: {len(reps)} repetitions, attempted {attempted}, failed "
          f"{failed}, failed_frac {failed / attempted:.6g}, inconclusive_frac "
          f"{sum(r['inconclusive'] for r in reps) / attempted:.6g}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench:   {name:42s} {m['value']:>16.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is that workload's),
    untraced and traced, with one table of every metric and unit."""
    ok = True
    rows = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode or result is None or not result["correct"]:
                ok = False
                print(f"bench: {workload} --trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
            if result is None:
                continue
            rows.append((workload, "failed_frac",
                         result["failed"] / result["attempted"], "ratio"))
            rows += [(workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items()]
    for workload, name, value, unit in rows:
        print(f"{workload:18s} {name:42s} {value:>16.6g} {unit}")
    print("all workloads correct" if ok else "SOME WORKLOAD FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
