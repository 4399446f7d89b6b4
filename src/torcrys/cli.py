"""Command-line front end: crystal generation and export, tableau
listings, closedness reports, module building and relation checking,
and root-of-unity specializations.

All outputs are deterministic; every error is mapped to a named exit
code so scripted runs can distinguish failure modes.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import partial

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


class UsageError(Exception):
    """A config file that cannot be read or names an unknown option, or
    an --out file that cannot be written."""


# the defaults of the options that are not None when neither the flags
# nor the config file give them
DEFAULTS = {"format": "text", "float_check": False}


# the flags that an action of rep or s5 never reads, by (command, action)
UNREAD = {("rep", "build"): ("rmax", "periods", "relations"),
          ("rep", "qchar"): ("rmax", "relations"),
          ("rep", "check"): ("periods",), ("s5", "build"): ("rmax",)}


def _refuse_unread(args):
    """A flag given on the command line that the action never reads is
    a ValueError naming it; a config key stays ignored, as the keys of
    other subcommands are."""
    action = getattr(args, f"{args.command}_action", None)
    for dest in UNREAD.get((args.command, action), ()):
        if hasattr(args, dest):
            raise ValueError(f"--{dest} is not read by {args.command} "
                             f"{action}")
    return args


def _merge_config(args):
    """Fill each option of the subcommand that the flags did not give
    (argparse leaves such an option out of args; see `build_parser`):
    from the --config file where it has the key, else the default.  A
    key that is no option of any subcommand is a UsageError; a value
    the option does not accept is a ValueError."""
    conf = {}
    if args.config:
        try:
            conf = _read_config(args.config)
        except OSError as exc:
            raise UsageError(f"cannot read config file {args.config}: "
                             f"{exc.strerror or exc}") from None
        for key in conf:
            if key not in args.config_keys:
                raise UsageError(f"config file {args.config}: unknown key "
                                 f"{key!r}")
    for dest, action in args.options.items():
        if hasattr(args, dest):
            continue
        if dest in conf:
            setattr(args, dest, _config_value(action, dest, conf[dest]))
        else:
            setattr(args, dest, DEFAULTS.get(dest))
    return args


def _config_value(action, key, val: str):
    """A config file value for the option `action`, converted and
    checked as its flag would be; true or false for a switch."""
    if action.nargs == 0:
        if val not in ("true", "false"):
            raise ValueError(f"config key {key}: expected true or false, "
                             f"not {val!r}")
        return val == "true"
    if action.type is not None:
        try:
            val = action.type(val)
        except ValueError:
            raise ValueError(f"config key {key}: invalid value {val!r}") \
                from None
    if action.choices is not None and val not in action.choices:
        raise ValueError(f"config key {key}: {val!r} is not one of "
                         f"{', '.join(action.choices)}")
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


def _require_n_ell(args):
    _require(args.n, "--n")
    if args.n % 2 == 0:
        raise EvenRankError(
            f"n = {args.n} is even; the monomial crystal needs n odd")
    _require(args.ell, "--ell")


def _check_out(args):
    """An --out target that cannot be written is a UsageError before any
    work is done: a directory, a path in a directory that is missing or
    not writable, or a file that is not writable.  The file itself is
    neither created nor truncated here."""
    path = getattr(args, "out", None)
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            err = errno.EISDIR
        elif not os.path.isdir(parent):
            err = errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent,
                           os.W_OK):
            err = errno.EACCES
        else:
            return args
        raise UsageError(f"cannot write output file {path}: "
                         f"{os.strerror(err)}")
    return args


def _emit(args, text):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write output file {args.out}: "
                             f"{exc.strerror or exc}") from None
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: drop the rest (the flush at exit
        # included), so the command still returns its own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_build(args, mod, **meta):
    """The JSON summary of a built module: meta, its window, its size."""
    meta.update(window=list(mod.graph.window), dimension_window=len(mod),
                interior=sum(mod.graph.interior))
    _emit(args, json.dumps(meta, sort_keys=True))
    return EXIT_OK


# -- subcommands --------------------------------------------------------------

def cmd_crystal(args):
    _require_n_ell(args)
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
    _require_n_ell(args)
    rs = RootSystem.for_fundamental(args.n, args.ell)
    if args.ell > rs.r + 1:
        raise ValueError("tableau listings need ell <= (n+1)/2")
    jmin = args.jmin if args.jmin is not None else 0
    jmax = args.jmax if args.jmax is not None else args.ell - 1
    if jmin > jmax:
        raise ValueError(f"empty range of j: jmin = {jmin} > jmax = {jmax}")
    lines = []
    for j in range(jmin, jmax + 1):
        for T in all_tableaux(rs, args.ell):
            m = tab_monomial(rs, args.ell, T, j)
            lines.append(f"{','.join(map(str, T))};{j}\t{m}\t{m.weight}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_closed(args):
    _require_n_ell(args)
    rep = closed_report(args.n, args.ell, _window(args, 3 * (args.n + 1)))
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
    _require_n_ell(args)
    mod = build_thin(args.n, args.ell, _window(args, 4 * (args.n + 1)))
    if args.rep_action == "build":
        return _emit_build(args, mod, n=args.n, ell=args.ell)
    if args.rep_action == "qchar":
        periods = args.periods if args.periods is not None else 2
        if periods < 0:
            raise ValueError(f"need periods >= 0, not periods={periods}")
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
        return _emit_build(args, mod, smax=smax)
    rmax = args.rmax if args.rmax is not None else 1
    report = run_relation_suite(mod, rmax=rmax, hmax=2,
                                nodes=mod.graph.interior_indices())
    _emit(args, json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_unity(args):
    _require(args.L, "--L")
    if args.unity_kind == "thin":
        _require_n_ell(args)
        mod = specialize_thin(args.n, args.ell, args.L)
    else:
        if args.n not in (None, 3):
            raise ValueError(f"the pasted module is built for n = 3 only, "
                             f"not n = {args.n}")
        if args.ell is not None:
            raise ValueError(f"--ell belongs to the thin family; the pasted "
                             f"module takes none, not ell = {args.ell}")
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
    # an option absent from the command line stays out of args, so that
    # `_merge_config` can tell it from one given at its default value
    add_parser = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    def common(sp, *ints):
        """The integer flags named and --out."""
        for name in ints:
            sp.add_argument(f"--{name}", type=int)
        sp.add_argument("--out")

    crystal = add_parser("crystal", help="generate a fundamental crystal")
    crystal.add_argument("crystal_action", choices=["gen"])
    common(crystal, "n", "ell", "lmin", "lmax")
    crystal.add_argument("--format", choices=["text", "json", "dot"])
    crystal.set_defaults(func=cmd_crystal)

    tabs = add_parser("tableaux", help="list tableau monomials")
    tabs.add_argument("tab_action", choices=["list"])
    common(tabs, "n", "ell", "jmin", "jmax")
    tabs.set_defaults(func=cmd_tableaux)

    closed = add_parser("closed", help="closedness report")
    common(closed, "n", "ell", "lmin", "lmax")
    closed.set_defaults(func=cmd_closed)

    rep = add_parser("rep", help="loop weight modules")
    rep.add_argument("rep_action", choices=["build", "check", "qchar"])
    common(rep, "n", "ell", "lmin", "lmax", "rmax", "periods")
    rep.add_argument("--relations", help="'all' or one relation id")
    rep.set_defaults(func=cmd_rep)

    s5 = add_parser("s5", help="the pasted module for twice the first "
                               "fundamental weight (n=3)")
    s5.add_argument("s5_action", choices=["build", "check"])
    common(s5, "smax", "lmin", "lmax", "rmax")
    s5.set_defaults(func=cmd_s5)

    unity = add_parser("unity", help="specialize at a root of unity")
    unity.add_argument("unity_kind", choices=["thin", "s5"])
    common(unity, "n", "ell", "L")
    unity.add_argument("--float-check", action="store_true")
    unity.set_defaults(func=cmd_unity)

    keys = set()
    for sp in sub.choices.values():
        options = {a.dest: a for a in sp._actions
                   if a.option_strings and a.dest != "help"}
        sp.set_defaults(options=options)
        keys.update(options)
    p.set_defaults(config_keys=frozenset(keys))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(_check_out(_merge_config(_refuse_unread(args))))
    except UsageError as exc:
        print(f"error (usage): {exc}", file=sys.stderr)
        return EXIT_USAGE
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
