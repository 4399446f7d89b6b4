"""Command-line front end: crystal generation and export, tableau
listings, closedness reports, module building and relation checking,
and root-of-unity specializations.

All outputs are deterministic; every error is mapped to a named exit
code so scripted runs can distinguish failure modes.
"""
from __future__ import annotations

import argparse
import json
import sys

from .closedness import closed_report, fundamental_anchor
from .crystal import WindowError, generate
from .lattice import EvenRankError, RootSystem
from .monomial import ParityError, ValidationError
from .qcoeff import SpecializationError
from .tableaux import all_tableaux, tab_monomial
from .torep import (ClosednessRefusal, ConstructionError, build_doubled,
                    build_thin, fr_consistency_report, run_relation_suite)
from .unity import (cyclic_generation_check, relation_check_eps,
                    specialize_doubled, specialize_thin)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_WINDOW = 4
EXIT_NOT_CLOSED = 5
EXIT_UNSUPPORTED = 6
EXIT_SPECIALIZATION = 7


def _read_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _merge_config(args):
    """Config file values fill in options the flags left at None."""
    if not getattr(args, "config", None):
        return args
    conf = _read_config(args.config)
    for key, val in conf.items():
        if getattr(args, key, None) is None:
            setattr(args, key, type_coerce(val))
    return args


def type_coerce(val: str):
    try:
        return int(val)
    except ValueError:
        return val


def _window(args, half):
    """(lmin, lmax) from the flags, each defaulting to -half or half."""
    lmin = args.lmin if args.lmin is not None else -half
    lmax = args.lmax if args.lmax is not None else half
    if lmin > lmax:
        raise ValueError("empty window")
    return (lmin, lmax)


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required")


def _require_odd(n):
    _require(n, "--n")
    if n % 2 == 0:
        raise EvenRankError(
            f"n = {n} is even; the monomial crystal needs n odd")


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


# -- subcommands --------------------------------------------------------------

def cmd_crystal(args):
    _require_odd(args.n)
    rs = RootSystem.for_fundamental(args.n, args.ell)
    window = _window(args, 4 * (args.n + 1))
    g = generate(rs, [fundamental_anchor(rs, args.ell)], window)
    meta = {"n": args.n, "ell": args.ell, "window": list(window),
            "nodes": len(g), "interior": sum(g.interior)}
    if args.format == "dot":
        _emit(args, g.to_dot())
    elif args.format == "json":
        _emit(args, json.dumps({"meta": meta, "graph": g.to_json()},
                               indent=None, sort_keys=True))
    else:
        lines = [f"# crystal n={args.n} ell={args.ell} window={window}"]
        for k, m in enumerate(g.nodes):
            flag = "interior" if g.interior[k] else "boundary"
            lines.append(f"{k}\t{m}\t{m.weight}\t{flag}")
        for s, i, d in g.edges():
            lines.append(f"edge\t{s} -{i}-> {d}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_tableaux(args):
    _require_odd(args.n)
    rs = RootSystem.for_fundamental(args.n, args.ell)
    if args.ell > rs.r + 1:
        raise ValueError("tableau listings need ell <= (n+1)/2")
    jmin = args.jmin if args.jmin is not None else 0
    jmax = args.jmax if args.jmax is not None else args.ell - 1
    lines = []
    for j in range(jmin, jmax + 1):
        for T in all_tableaux(rs, args.ell):
            m = tab_monomial(rs, args.ell, T, j)
            lines.append(f"{','.join(map(str, T))};{j}\t{m}\t{m.weight}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_closed(args):
    _require_odd(args.n)
    window = None
    if args.lmin is not None or args.lmax is not None:
        window = _window(args, 4 * (args.n + 1))
    rep = closed_report(args.n, args.ell, window)
    lines = [f"# closedness n={args.n} ell={args.ell} window={rep.window}",
             "direction\tqclosed\twitness\tclasses\tinconclusive"]
    for d in rep.directions:
        verdict = {True: "yes", False: "no", None: "inconclusive"}[d.qclosed]
        wit = str(d.witness) if d.witness is not None else "-"
        lines.append(f"{d.i}\t{verdict}\t{wit}\t{len(d.classes)}\t{d.n_inconclusive}")
    lines.append(f"kashiwara-closed\t{'yes' if rep.kashiwara else 'no'}")
    lines.append(f"closed\t{'yes' if rep.closed else 'no'}")
    _emit(args, "\n".join(lines))
    return EXIT_OK if rep.closed else EXIT_NOT_CLOSED


def cmd_rep(args):
    _require_odd(args.n)
    _require(args.ell, "--ell")
    window = _window(args, 4 * (args.n + 1))
    mod = build_thin(args.n, args.ell, window)
    if args.rep_action == "build":
        info = {"n": args.n, "ell": args.ell, "window": list(window),
                "dimension_window": len(mod),
                "interior": sum(mod.graph.interior)}
        _emit(args, json.dumps(info, sort_keys=True))
        return EXIT_OK
    if args.rep_action == "qchar":
        periods = args.periods if args.periods is not None else 2
        lines = []
        for m in sorted(mod.qcharacter(), key=lambda m: (m.weight.delta, m.sort_key())):
            if abs(m.weight.delta) <= periods:
                lines.append(f"{m}\t{m.weight}")
        _emit(args, "\n".join(lines))
        return EXIT_OK
    # rep check
    rmax = args.rmax if args.rmax is not None else 2
    include = None if args.relations in (None, "all") else [args.relations]
    report = run_relation_suite(mod, rmax=rmax, hmax=2,
                                nodes=mod.graph.interior_indices(),
                                include=include)
    fr_bad = fr_consistency_report(mod, order=6,
                                   nodes=mod.graph.interior_indices())
    payload = report.to_json()
    payload["fr_discrepancies"] = [f"{m}:{i}:{s}" for m, i, s in fr_bad]
    _emit(args, json.dumps(payload, sort_keys=True))
    return EXIT_OK if report.ok and not fr_bad else EXIT_CHECK_FAILED


def cmd_s5(args):
    smax = args.smax if args.smax is not None else 1
    window = _window(args, 4 * (smax + 2))
    mod = build_doubled(smax, window)
    if args.s5_action == "build":
        info = {"smax": smax, "window": list(window),
                "dimension_window": len(mod),
                "interior": sum(mod.graph.interior)}
        _emit(args, json.dumps(info, sort_keys=True))
        return EXIT_OK
    rmax = args.rmax if args.rmax is not None else 1
    report = run_relation_suite(mod, rmax=rmax, hmax=2,
                                nodes=mod.graph.interior_indices())
    _emit(args, json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_unity(args):
    if args.unity_kind == "thin":
        _require_odd(args.n)
        _require(args.ell, "--ell")
        mod = specialize_thin(args.n, args.ell, args.L)
    else:
        mod = specialize_doubled(args.L)
    rep = relation_check_eps(mod, rmax=min(mod.N - 1, 3), serre_rmax=1)
    gen = cyclic_generation_check(mod)
    payload = {
        "kind": args.unity_kind,
        "L": args.L,
        "root_order": mod.N,
        "dimension": len(mod),
        "relations_checked": rep.checked,
        "relations_failed": len(rep.failures),
        "cyclic_generation": gen,
    }
    if args.float_check:
        z = mod.one.mul_qpow(1).to_complex()
        payload["eps_float"] = [round(z.real, 12), round(z.imag, 12)]
    _emit(args, json.dumps(payload, sort_keys=True))
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


# -- parser --------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="torcrys",
        description="monomial crystals and loop weight modules for the "
                    "quantum toroidal algebra of type A (n odd), in exact "
                    "arithmetic")
    p.add_argument("--config", help="key=value file merged under the flags")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ell=True):
        sp.add_argument("--n", type=int)
        if ell:
            sp.add_argument("--ell", type=int, required=True)
        sp.add_argument("--lmin", type=int)
        sp.add_argument("--lmax", type=int)
        sp.add_argument("--out")

    crystal = sub.add_parser("crystal", help="generate a fundamental crystal")
    crystal.add_argument("crystal_action", choices=["gen"])
    common(crystal)
    crystal.add_argument("--format", choices=["text", "json", "dot"], default="text")
    crystal.set_defaults(func=cmd_crystal)

    tabs = sub.add_parser("tableaux", help="list tableau monomials")
    tabs.add_argument("tab_action", choices=["list"])
    common(tabs)
    tabs.add_argument("--jmin", type=int)
    tabs.add_argument("--jmax", type=int)
    tabs.set_defaults(func=cmd_tableaux)

    closed = sub.add_parser("closed", help="closedness report")
    common(closed)
    closed.set_defaults(func=cmd_closed)

    rep = sub.add_parser("rep", help="loop weight modules")
    rep.add_argument("rep_action", choices=["build", "check", "qchar"])
    rep.add_argument("--n", type=int)
    rep.add_argument("--ell", type=int)
    rep.add_argument("--lmin", type=int)
    rep.add_argument("--lmax", type=int)
    rep.add_argument("--out")
    rep.add_argument("--relations", default=None,
                     help="'all' or one relation id")
    rep.add_argument("--rmax", type=int)
    rep.add_argument("--periods", type=int)
    rep.set_defaults(func=cmd_rep)

    s5 = sub.add_parser("s5", help="the pasted module for twice the first "
                                   "fundamental weight (n=3)")
    s5.add_argument("s5_action", choices=["build", "check"])
    s5.add_argument("--smax", type=int)
    s5.add_argument("--lmin", type=int)
    s5.add_argument("--lmax", type=int)
    s5.add_argument("--rmax", type=int)
    s5.add_argument("--out")
    s5.set_defaults(func=cmd_s5)

    unity = sub.add_parser("unity", help="specialize at a root of unity")
    unity.add_argument("unity_kind", choices=["thin", "s5"])
    unity.add_argument("--n", type=int)
    unity.add_argument("--ell", type=int)
    unity.add_argument("--L", type=int, required=True)
    unity.add_argument("--float-check", action="store_true")
    unity.add_argument("--out")
    unity.set_defaults(func=cmd_unity)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        try:
            args = _merge_config(args)
        except OSError as exc:
            print(f"error (usage): cannot read config file {args.config}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except EvenRankError as exc:
        print(f"error (odd-rank rule): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClosednessRefusal as exc:
        print(f"error (not closed): {exc}", file=sys.stderr)
        return EXIT_NOT_CLOSED
    except WindowError as exc:
        print(f"error (window): {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except ConstructionError as exc:
        print(f"error (unsupported configuration): {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SpecializationError as exc:
        print(f"error (specialization): {exc}", file=sys.stderr)
        return EXIT_SPECIALIZATION
    except (ParityError, ValidationError, ValueError) as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
