"""Command-line front end: transforms, bounds, oracle checks, and sweeps.

Subcommands::

    hcbounds transform    --loss hinge --class linear --B 0.8 [--out t.json]
    hcbounds bound        --loss hinge --class linear --B 0.5 --dist '{"components": [...]}'
                          --w -0.4 --b 0 --mode mc --n 100000
    hcbounds oracle-check [--grid-n 4001 --instances 25 --seed 0]
    hcbounds sweep        --experiment sect7-nonadv --n 1000000 --seed 7 --out run1

Flags mirror the mathematical symbols one-to-one (--W, --B, --Lambda, --k,
--rho, --gamma, --massart-beta; transform also takes --eps).  Inputs are
scalars x in [-1, 1] (d = 1), where every p-norm of x is |x|, so there is no
--p.  --config file.json names a JSON object whose entries are parsed as
flags of the subcommand placed before the command line's own, so explicit
flags win and the file can supply required ones: key cls with value "all"
reads as --class=all, a switch takes true or false.  A file that is not an
object, an unknown key, or a list, object or null value is a validation
error.  Exit codes: 0 success, 1 a bound or check that fails, 2 a validation
error, 3 an internal error.  bound's target is the adversarial zero-one loss
for a sup- loss, else the zero-one loss.  For a linear class, bound requires
h(x) = w*x + b to lie in the class: the default --w -5 (the sweeps' h) needs
--W >= 5, so under the default --W 1 it exits 2.  sweep refuses, with exit 2,
a flag that its experiment does not read, and transform and bound one that
their run does not read: --k without a sigmoid loss, --rho without a
rho-margin loss, --Lambda without --class relu, --W and --B with --class all,
and bound's --n and --seed without --mode mc, --sigma with a JSON or path
--dist.  A negative value in exponent form needs the = form: --b=-1e-300.
HCB_THREADS sizes the process's one worker pool, which runs the sampler's
blocks and each sweep cell's leaf passes while the sigma cells run one after
another (default and ceiling: the CPU count; results never depend on it); an
invalid value is a validation error.  The grid oracles run on the calling
thread.  oracle-check --grid-n below 2 exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np
import scipy

from . import __version__, experiments
from ._runtime import thread_cap
from .bounds import Exact, MonteCarlo, Target, assemble_bound, surrogate_split
from .distributions import QuadratureError, dist_from_json_dict, preset_distribution
from .hypotheses import HypothesisClass, HypothesisSpec, LinearHypothesis
from .losses import LossFamily, MarginLoss
from .oracle_check import run_oracle_checks
from .transforms import select_transform

_CLASSES = {"all": HypothesisClass.ALL, "linear": HypothesisClass.LINEAR, "relu": HypothesisClass.ONE_HIDDEN_RELU}
_LOSS_NAMES = ("hinge", "logistic", "exponential", "quadratic", "sigmoid", "rho-margin")


def _loss_and_spec(args) -> tuple:
    """(MarginLoss, HypothesisSpec) of --loss and the class flags: a sup-
    loss needs --gamma > 0, and --gamma > 0 a sup- loss."""
    base = args.loss.removeprefix("sup-")
    if base not in _LOSS_NAMES:
        raise ValueError(f"unknown loss {args.loss!r}; expected one of {_LOSS_NAMES} or sup- prefix")
    loss = MarginLoss(LossFamily(base), k=args.k, rho=args.rho)
    spec = HypothesisSpec(_CLASSES[args.cls], W=args.W, B=args.B, Lambda=args.Lambda, gamma=args.gamma)
    sup = base != args.loss
    if sup != spec.adversarial:
        raise ValueError(f"{args.loss} requires --gamma > 0" if sup else "--gamma > 0 requires a sup- loss")
    return loss, spec


_PRESETS = ("sect7-nonadv", "sect7-adv")


def _load_dist(args):
    spec = args.dist
    if spec in _PRESETS:
        return preset_distribution(spec, sigma=args.sigma, gamma=args.gamma or 0.1)
    if spec.strip().startswith("{"):
        return dist_from_json_dict(json.loads(spec))
    with open(spec) as fh:
        return dist_from_json_dict(json.load(fh))


def _emit(payload: dict, out: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_meta() -> dict:
    """What every JSON artifact records about the run that wrote it."""
    return {
        "threads": thread_cap(),
        "versions": {"hcbounds": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
    }


# ---------------------------------------------------------------------------


# the loss and class parameters, by the loss (sup- or not) or class that reads them
_SPEC_FLAGS = {"--loss sigmoid": {"k": 1.0}, "--loss rho-margin": {"rho": 1.0}, "--class linear": {"W": 1.0, "B": 1.0},
               "--class relu": {"Lambda": 1.0, "W": 1.0, "B": 1.0}}
_SPEC_NEEDS = "--k needs a sigmoid loss, --rho a rho-margin loss, --Lambda --class relu, --W and --B a bounded class"


def _spec_cases(args) -> list:
    return ["--loss " + args.loss.removeprefix("sup-"), "--class " + args.cls]


def cmd_transform(args) -> int:
    stray = _read_flags(args, _SPEC_FLAGS, _spec_cases(args))
    if stray:
        raise ValueError(f"this transform does not use {', '.join(stray)} ({_SPEC_NEEDS})")
    loss, spec = _loss_and_spec(args)
    if args.grid_n < 2:
        raise ValueError(f"--grid-n must be >= 2 to sample both t = 0 and t = 1, got {args.grid_n}")
    fwd, inverse = select_transform(loss, spec, args.massart_beta, eps=args.eps)
    ts = np.linspace(0.0, 1.0, args.grid_n)
    samples = [{"t": float(t), "T": float(fwd(float(t)))} for t in ts]
    if args.format == "csv":
        if not args.out:
            raise ValueError("--format csv requires --out")
        experiments.write_rows_csv(samples, args.out)
        return 0
    payload = {
        "transform": fwd.to_json_dict(),
        "inverse": inverse.to_json_dict(),
        "samples": samples,
        "meta": _run_meta(),
    }
    _emit(payload, args.out)
    return 0


def _read_flags(args, table: dict, cases) -> list:
    """Default the flags of ``table`` (case -> {flag: default}) that were not
    given (parser default None), the chosen cases' defaults first; return
    the flags given, by flag or config key, that no chosen case reads, as
    sorted '--name's.  A case that is not in the table reads no flag."""
    used = {key: default for case in cases for key, default in table.get(case, {}).items()}
    defaults = {key: default for flags in table.values() for key, default in flags.items()} | used
    given = [key for key in defaults.keys() - used.keys() if getattr(args, key) is not None]
    for key, default in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    return sorted("--" + key.replace("_", "-") for key in given)


def _flag_help(table: dict, key: str) -> str:
    readers = [case for case, flags in table.items() if key in flags]
    return f"{' and '.join(readers)} only; default {table[readers[0]][key]}"


# the flags bound reads only in some runs, with their defaults, by the case
# that reads them
_BOUND_FLAGS = {"--mode mc": {"n": 10**6, "seed": 0}, "a preset --dist": {"sigma": 0.05}, **_SPEC_FLAGS}


def cmd_bound(args) -> int:
    reads = {"--mode mc": args.mode == "mc", "a preset --dist": args.dist in _PRESETS}
    stray = _read_flags(args, _BOUND_FLAGS, [case for case, on in reads.items() if on] + _spec_cases(args))
    if stray:
        raise ValueError(
            f"this bound run does not use {', '.join(stray)} "
            f"(--n and --seed need --mode mc, --sigma a preset --dist; {_SPEC_NEEDS})"
        )
    loss, spec = _loss_and_spec(args)
    target = Target.ADVERSARIAL_ZERO_ONE if spec.adversarial else Target.ZERO_ONE
    dist = _load_dist(args)
    h = LinearHypothesis((args.w,), args.b)
    mode = MonteCarlo(args.n, args.seed) if args.mode == "mc" else Exact()
    report = assemble_bound(target, loss, spec, dist, h, massart=args.massart_beta, mode=mode)
    try:
        split = surrogate_split(report, loss, spec, dist)
    except ValueError as exc:  # no search runs here (an infinite W or B); the verdict never reads the split
        split = str(exc)
    _emit({**report.to_json_dict(split), "meta": _run_meta()}, args.out)
    return 0 if report.holds else 1


def cmd_oracle_check(args) -> int:
    rows = run_oracle_checks(
        grid_n=args.grid_n, instances=args.instances, seed=args.seed, tamper=args.tamper
    )
    ok = True
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        ok = ok and row.passed
        trans = "" if math.isnan(row.max_dev_transform) else f" transform_dev={row.max_dev_transform:.3e}"
        over = row.max_closed_over_oracle
        over = "" if math.isnan(over) else f" closed_over_oracle={over:.3e}"
        print(
            f"[{status}] {row.label}: min_risk_dev={row.max_dev_min_risk:.3e}{trans}{over} "
            f"(threshold {row.threshold:.3e}, {row.instances} instances)"
        )
    if args.out:
        _emit({"rows": [dataclasses.asdict(r) for r in rows], "meta": _run_meta()}, args.out)
    return 0 if ok else 1


# the flags each sweep experiment reads, besides --out, --format and --config,
# with their defaults; the parser defaults them to None so that a flag the
# chosen experiment would ignore is refused instead
_SIGMAS = ",".join(map(str, experiments._DEFAULT_SIGMAS))
_SIM_FLAGS = {"n": 10**6, "seed": 0, "sigmas": _SIGMAS, "w": -5.0, "b": 0.0}
_SWEEP_FLAGS = {
    "figure1": {"W": 1.0, "B": 0.8, "grid_n": 201},
    "sect7-nonadv": _SIM_FLAGS,
    "sect7-adv": {**_SIM_FLAGS, "gamma": 0.1},
}


def cmd_sweep(args) -> int:
    stray = _read_flags(args, _SWEEP_FLAGS, [args.experiment])
    if stray:
        raise ValueError(f"--experiment {args.experiment} does not use {', '.join(stray)}")
    if args.experiment == "figure1":
        spec = HypothesisSpec(HypothesisClass.LINEAR, W=args.W, B=args.B)
        rows = experiments.emit_transform_curves(spec=spec, grid_n=args.grid_n)
        meta = {"experiment": "figure1", "B": args.B, "W": args.W, "grid_n": args.grid_n}
    else:
        sigmas = tuple(float(s) for s in args.sigmas.split(","))
        adversarial = args.experiment == "sect7-adv"
        extra = {"gamma": args.gamma} if adversarial else {}
        cfg = experiments.SweepConfig(
            sigmas=sigmas, n_samples=args.n, seed=args.seed, w=args.w, b=args.b, **extra
        )
        run = experiments.run_adversarial_sweep if adversarial else experiments.run_nonadversarial_sweep
        rows = run(cfg)
        meta = {
            "experiment": args.experiment,
            "sigmas": list(sigmas),
            "n": args.n,
            "seed": args.seed,
            "w": args.w,
            "b": args.b,
            **extra,
            "note": "sigma grid is a package choice; the reference experiment does not state one",
        }
    meta.update(_run_meta())
    out = args.out or args.experiment
    wrote = []
    if args.format in ("csv", "both"):
        experiments.write_rows_csv(rows, out + ".csv")
        wrote.append(out + ".csv")
    if args.format in ("json", "both"):
        experiments.write_rows_json(rows, out + ".json", meta=meta)
        wrote.append(out + ".json")
    print("wrote " + ", ".join(wrote))
    if args.experiment != "figure1" and not all(r["holds"] for r in rows):
        return 1
    return 0


# ---------------------------------------------------------------------------


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="cls", choices=sorted(_CLASSES), default="linear")
    # defaults in _SPEC_FLAGS; a flag the loss or class does not read exits 2
    p.add_argument("--W", type=float, help=_flag_help(_SPEC_FLAGS, "W"))
    p.add_argument("--B", type=float, help="bias budget; 'inf' allowed; " + _flag_help(_SPEC_FLAGS, "B"))
    p.add_argument("--Lambda", type=float, help=_flag_help(_SPEC_FLAGS, "Lambda"))
    p.add_argument("--k", type=float, help=_flag_help(_SPEC_FLAGS, "k"))
    p.add_argument("--rho", type=float, help=_flag_help(_SPEC_FLAGS, "rho"))
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--massart-beta", dest="massart_beta", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hcbounds", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="materialize an estimation-error transform")
    p_tr.add_argument("--loss", required=True)
    _add_spec_flags(p_tr)
    p_tr.add_argument("--eps", type=float, default=0.0, help="truncation level of the transform")
    p_tr.add_argument("--grid-n", dest="grid_n", type=int, default=101)
    p_tr.add_argument("--format", choices=["json", "csv"], default="json")
    p_tr.add_argument("--out", default="")
    p_tr.add_argument("--config", default="")
    p_tr.set_defaults(func=cmd_transform)

    p_b = sub.add_parser("bound", help="assemble and check one bound")
    p_b.add_argument("--loss", required=True)
    _add_spec_flags(p_b)
    p_b.add_argument("--dist", required=True, help="preset name, JSON literal, or path")
    # defaults in _BOUND_FLAGS; a flag this run does not read exits 2
    p_b.add_argument("--sigma", type=float, help=_flag_help(_BOUND_FLAGS, "sigma"))
    p_b.add_argument(
        "--w", type=float, default=-5.0,
        help="slope of h; must satisfy |w| <= W for a linear class (the default needs --W >= 5)",
    )
    p_b.add_argument("--b", type=float, default=0.0)
    p_b.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_b.add_argument("--n", type=int, help=_flag_help(_BOUND_FLAGS, "n"))
    p_b.add_argument("--seed", type=int, help=_flag_help(_BOUND_FLAGS, "seed"))
    p_b.add_argument("--out", default="")
    p_b.add_argument("--config", default="")
    p_b.set_defaults(func=cmd_bound)

    p_oc = sub.add_parser("oracle-check", help="closed forms vs the grid oracle")
    p_oc.add_argument("--grid-n", dest="grid_n", type=int, default=4001)
    p_oc.add_argument("--instances", type=int, default=25)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.add_argument("--tamper", action="store_true", help="negative control: perturb closed forms")
    p_oc.add_argument("--out", default="")
    p_oc.add_argument("--config", default="")
    p_oc.set_defaults(func=cmd_oracle_check)

    p_sw = sub.add_parser("sweep", help="run a simulation sweep or curve emission")
    p_sw.add_argument("--experiment", choices=["sect7-nonadv", "sect7-adv", "figure1"], required=True)
    # defaults in _SWEEP_FLAGS; a flag the chosen experiment does not read exits 2
    p_sw.add_argument("--n", type=int, help=_flag_help(_SWEEP_FLAGS, "n"))
    p_sw.add_argument("--seed", type=int, help=_flag_help(_SWEEP_FLAGS, "seed"))
    p_sw.add_argument("--sigmas", help=_flag_help(_SWEEP_FLAGS, "sigmas"))
    p_sw.add_argument("--w", type=float, help=_flag_help(_SWEEP_FLAGS, "w"))
    p_sw.add_argument("--b", type=float, help=_flag_help(_SWEEP_FLAGS, "b"))
    p_sw.add_argument("--gamma", type=float, help=_flag_help(_SWEEP_FLAGS, "gamma"))
    p_sw.add_argument("--W", type=float, help=_flag_help(_SWEEP_FLAGS, "W"))
    p_sw.add_argument("--B", type=float, help=_flag_help(_SWEEP_FLAGS, "B") + "; 'inf' allowed")
    p_sw.add_argument("--grid-n", dest="grid_n", type=int, help=_flag_help(_SWEEP_FLAGS, "grid_n"))
    p_sw.add_argument("--out", default="")
    p_sw.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p_sw.add_argument("--config", default="")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def _config_flags(parser: argparse.ArgumentParser, argv: list) -> list:
    """The --config file's entries as flags of ``argv``'s subcommand: a key
    names an option's dest; a switch takes true or false, any other option a
    string or a number, which its flag then parses as if typed."""
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    if not argv or argv[0] not in commands:
        return []
    pre = argparse.ArgumentParser(prog=f"{parser.prog} {argv[0]}", add_help=False)
    pre.add_argument("--config", default="")
    path = pre.parse_known_args(argv[1:])[0].config
    if not path:
        return []
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {json.dumps(cfg)}")
    options = {a.dest: a for a in commands[argv[0]]._actions if a.dest not in ("help", "config")}
    unknown = set(cfg) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in cfg.items():
        flag = options[key].option_strings[0]
        if options[key].nargs == 0:  # a store_true switch
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
            flags += [flag] if value else []
        elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} takes a string or a number, got {value!r}")
        else:
            flags.append(f"{flag}={value}")
    return flags


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config flags go first, so that the command line's own win
        args = parser.parse_args(argv[:1] + _config_flags(parser, argv) + argv[1:])
        thread_cap()
        return args.func(args)
    except (ValueError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is kept for a bound or check that fails
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
