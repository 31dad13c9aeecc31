"""Command-line experiment runner.

Usage: bellmanlab <module> <operation> [flags], e.g.

    bellmanlab bellman tau --p 4
    bellmanlab dyadic buckley --weight power:0.5 --depth 12
    bellmanlab laminate sweep --p 3 --etas 1e-1,1e-2,1e-3,1e-4
    bellmanlab planar norm-ascent --op r11-r22 --p 4 --n 256 --iters 500
    bellmanlab suite fast --seed 1

Each operation runs one of the suite's check builders with parameters
taken from its flags, so it reports the same checks as the suite.
Flags can also come from a config file of `key = value` lines passed with
--config; explicit flags override file values.  Output is CSV or JSON
(--format), written to --output or stdout.  Exit codes: 0 all checks
passed, 1 a check failed, 2 usage error, 3 internal numeric error.

Weight specs: `power:a` for |x - 1/2|^a, `twovalue:u,v`, or `file:path`
reading one sample per line (2^depth lines).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, dyadic, suite
from .reporting import RunReport
from .suite import run_suite

USAGE_ERROR, CHECK_FAILURE, NUMERIC_ERROR = 2, 1, 3


def _parse_weight(spec: str, depth: int) -> dyadic.DyadicWeight:
    kind, _, arg = spec.partition(":")
    if kind == "power":
        return dyadic.power_weight(_finite(float(arg), "weight"), depth)
    if kind == "twovalue":
        u, v = (_finite(float(t), "weight") for t in arg.split(","))
        return dyadic.two_value_weight(u, v, depth)
    if kind == "file":
        with open(arg) as fh:
            lines = fh.read().splitlines()
        # checked here, since np.loadtxt only warns on a file without data
        if not any(line.strip() for line in lines):
            raise ValueError(f"weight file {arg!r} holds no samples")
        return dyadic.DyadicWeight(_finite(np.loadtxt(lines), "weight"))
    raise ValueError(f"unknown weight spec {spec!r}")


def _weight_family(spec: str):
    """depth -> weight for the spec; a file holds a single depth."""
    if spec.startswith("file:"):
        raise ValueError("a file: weight has one depth; buckley needs several")
    return lambda depth: _parse_weight(spec, depth)


# the least value of each size flag; a module's flags are shared by all its
# operations, so every one that was parsed is checked, read or not
_LEAST = {"depth": 1, "n": 2, "nt": 3, "samples": 1, "points": 1, "workers": 1}


def _finite(value, flag: str):
    """`value`, a float or an array read from the flag --`flag`, if every
    number in it is finite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"--{flag} must be finite")
    return value


def _check_flags(args):
    """Refuse a float flag that is not finite and a size flag below its
    least value, before any builder runs."""
    for flag, value in vars(args).items():
        # only the type=float flags parse to floats
        if isinstance(value, float):
            _finite(value, flag)
    for flag, least in _LEAST.items():
        value = getattr(args, flag, least)
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value:g}")


# the full tier's values: the flag defaults that size a run, and the
# parameters that no flag sets
_FULL = suite.tier_params("full")


def _paths(args, experiment):
    """--paths, or the full tier's path count for `experiment`."""
    return int(_FULL[experiment]["paths"] if args.paths is None else args.paths)


# (module, operation) -> (builder, flags -> builder parameters)
OPERATIONS = {
    ("dyadic", "buckley"): (suite.buckley_checks, lambda a: dict(
        weight=_weight_family(a.weight), depth=a.depth,
        label=f"weight={a.weight}")),
    ("dyadic", "mt-ratio"): (suite.mt_envelope_checks, lambda a: dict(
        w=_parse_weight(a.weight, a.depth),
        iters=_FULL["dyadic"]["iters"], p=a.p, seed=a.seed)),
    ("bellman", "zigzag"): (suite.zigzag_checks, lambda a: dict(
        ps=[a.p], variants=[a.variant], samples=int(a.samples), seed=a.seed)),
    ("bellman", "tau"): (suite.tau_checks, lambda a: dict(ps=[a.p])),
    ("bellman", "interp-sweep"): (suite.interp_checks, lambda a: dict(
        qs=np.linspace(a.qmin, a.qmax, a.points))),
    ("bellman", "jn"): (suite.strip_checks, lambda a: dict(
        delta=a.delta, grid=_FULL["bellman-jn"]["grid"])),
    ("planar", "norm-ascent"): (suite.ascent_checks, lambda a: dict(
        op=a.op, p=a.p, n=a.n, iters=a.iters, seed=a.seed,
        witness=a.witness, curve=a.curve)),
    ("planar", "identity113"): (suite.heat_identity_checks, lambda a: dict(
        ladder=[(a.n, a.nt, a.tmax)])),
    ("planar", "ap"): (suite.ap_checks, lambda a: dict(n=a.n)),
    ("laminate", "ratio"): (suite.ratio_sweep_checks, lambda a: dict(
        p=a.p, etas=[a.eta])),
    ("laminate", "sweep"): (suite.ratio_sweep_checks, lambda a: dict(
        p=a.p, etas=[_finite(float(t), "etas") for t in a.etas.split(",")])),
    ("laminate", "check"): (suite.measure_checks, lambda a: dict(
        which=a.which, p=a.p, eta=a.eta, seed=a.seed)),
    ("stoch", "riemann-gap"): (suite.riemann_checks, lambda a: dict(
        a=a.a, b=a.b, steps=int(a.steps), paths=_paths(a, "stoch-core"),
        seed=a.seed)),
    ("stoch", "ab-mc"): (suite.conditioning_checks, lambda a: dict(
        paths=_paths(a, "stoch-conditioning"), bins=a.bins,
        steps=_FULL["stoch-conditioning"]["steps"], seed=a.seed)),
    ("stoch", "constants"): (suite.constant_checks, lambda a: dict(
        p=a.p, trials=int(a.trials), seed=a.seed)),
    ("qc", "distortion"): (suite.distortion_checks, lambda a: dict(K=a.K)),
    ("qc", "sobolev"): (suite.sobolev_checks, lambda a: dict(K=a.K)),
    ("qc", "weight"): (suite.weight_checks, lambda a: dict(
        K=a.K, p=a.p, n=a.n)),
}


def _config_defaults(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _emit(report: RunReport, args) -> int:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else CHECK_FAILURE


def _cmd_check(args) -> int:
    builder, params = OPERATIONS[args.module, args.operation]
    _check_flags(args)
    report = RunReport(config={"module": args.module, "operation": args.operation,
                               "seed": args.seed})
    report.extend(builder(**params(args)))
    return _emit(report, args)


def _cmd_suite(args) -> int:
    _check_flags(args)
    skip = tuple(t for t in (args.skip or "").split(",") if t)
    report = run_suite(args.tier, seed=args.seed, workers=args.workers,
                       skip=skip)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument wiring


def _module_parser(sub, module):
    sp = sub.add_parser(module)
    sp.add_argument("operation", choices=[op for m, op in OPERATIONS if m == module])
    sp.set_defaults(handler=_cmd_check)
    return sp


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default=None)
    sp.add_argument("--config", default=None, help="key = value defaults file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bellmanlab",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="module", required=True)

    d = _module_parser(sub, "dyadic")
    d.add_argument("--weight", default="twovalue:2,1")
    d.add_argument("--depth", type=int, default=10)
    d.add_argument("--p", type=float, default=2.0)
    _add_common(d)

    b = _module_parser(sub, "bellman")
    b.add_argument("--variant", choices=("phi", "phi0"), default="phi")
    b.add_argument("--p", type=float, default=3.0)
    b.add_argument("--samples", type=float, default=_FULL["bellman-zigzag"]["samples"])
    b.add_argument("--qmin", type=float, default=2.1)
    b.add_argument("--qmax", type=float, default=50.0)
    b.add_argument("--points", type=int, default=25)
    b.add_argument("--delta", type=float, default=0.25)
    _add_common(b)

    pl = _module_parser(sub, "planar")
    pl.add_argument("--op", choices=("ab", "r11-r22"), default="r11-r22")
    pl.add_argument("--p", type=float, default=4.0)
    pl.add_argument("--n", type=int, default=_FULL["planar-ascent"]["n"])
    pl.add_argument("--iters", type=int, default=_FULL["planar-ascent"]["iters"],
                    help="ascent budget, split over the continuation rungs "
                         "in p; each rung runs at least 10 iterations")
    _, nt, tmax = _FULL["planar-identity113"]["ladder"][-1]
    pl.add_argument("--tmax", type=float, default=tmax)
    pl.add_argument("--nt", type=int, default=nt)
    pl.add_argument("--witness", default=None,
                    help="write the ascent witness field to this path")
    pl.add_argument("--curve", default=None,
                    help="write the (iteration, ratio) ascent curve CSV here")
    _add_common(pl)

    la = _module_parser(sub, "laminate")
    la.add_argument("--p", type=float, default=3.0)
    la.add_argument("--eta", type=float, default=1e-3)
    la.add_argument("--etas", default=",".join(map(str, suite.ETAS)))
    la.add_argument("--which", choices=("nu", "mu", "sigma"), default="nu")
    _add_common(la)

    st = _module_parser(sub, "stoch")
    st.add_argument("--a", type=float, default=0.0)
    st.add_argument("--b", type=float, default=1.0)
    st.add_argument("--paths", type=float, default=None,
                    help="default: the full tier's count (per bin for ab-mc)")
    st.add_argument("--steps", type=float, default=_FULL["stoch-core"]["steps"])
    st.add_argument("--bins", type=int, default=_FULL["stoch-conditioning"]["bins"])
    st.add_argument("--p", type=float, default=4.0)
    st.add_argument("--trials", type=float, default=_FULL["stoch-constants"]["trials"])
    _add_common(st)

    qc = _module_parser(sub, "qc")
    qc.add_argument("--K", type=float, default=2.0)
    qc.add_argument("--p", type=float, default=3.0)
    qc.add_argument("--n", type=int, default=_FULL["qc"]["n"])
    _add_common(qc)

    su = sub.add_parser("suite")
    su.add_argument("tier", choices=suite.TIERS)
    su.add_argument("--workers", type=int, default=1)
    su.add_argument("--skip", default="",
                    help="comma-separated experiment names to skip")
    _add_common(su)
    su.set_defaults(handler=_cmd_suite)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # a file that cannot be opened is a usage error: the --config file
    # before the handler runs, a path flag (weight, witness, output) after
    stage = "config error"
    try:
        args = parser.parse_args(argv)
        if args.config:
            defaults = _config_defaults(args.config)
            unknown = [key for key in defaults if key not in vars(args)]
            if unknown:
                print(f"config error: unknown field {unknown[0]!r}", file=sys.stderr)
                return USAGE_ERROR
            # file values go in as flags, so argparse casts and validates
            # them; the explicit flags follow and therefore win
            flags = [f"--{key}={val}" for key, val in defaults.items()]
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        stage = "error"
        return args.handler(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else 0
    except OSError as exc:
        print(f"{stage}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except Exception as exc:  # internal failures get a distinct status
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
