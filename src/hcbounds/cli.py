"""Command-line front end: transforms, bounds, oracle checks, and sweeps.

Subcommands::

    hcbounds transform    --loss hinge --class linear --B 0.8 [--out t.json]
    hcbounds bound        --target zero-one --loss hinge --class linear --B 0.5
                          --dist '{"components": [...]}' --w -0.4 --b 0 --mode mc --n 100000
    hcbounds oracle-check [--grid-n 4001 --instances 25 --seed 0]
    hcbounds sweep        --experiment sect7-nonadv --n 1000000 --seed 7 --out run1

Flags mirror the mathematical symbols one-to-one (--W, --B, --Lambda, --k,
--rho, --gamma, --massart-beta; transform also takes --eps).  Inputs are
scalars x in [-1, 1] (d = 1), where every p-norm of x is |x|, so there is no
--p.  A JSON config file can supply any flag of its subcommand
(--config file.json); explicit flags win, each value is parsed as its flag
would parse it, and an unknown key or a value the flag would refuse is a
validation error.  Exit codes: 0 success, 1 check failure, 2 validation error.  For a
linear class, bound requires h(x) = w*x + b to lie in the class: the default
--w -5 (the sweeps' h) needs --W >= 5, so under the default --W 1 it exits 2.
sweep refuses, with exit 2, a flag that its experiment does not read, and
bound one that its run does not read: --n and --seed without --mode mc,
--sigma with a JSON or path --dist.
HCB_THREADS sizes the process's one worker pool, which runs the sampler's
blocks and each sweep cell's leaf passes while the sigma cells run one after
another (default and ceiling: the CPU count; results never depend on it); an
invalid value is a validation error.  The grid oracles run on the calling
thread.  oracle-check --grid-n below 2
exits 2.
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
from .transforms import NegativeResultError, select_transform

_CLASSES = {"all": HypothesisClass.ALL, "linear": HypothesisClass.LINEAR, "relu": HypothesisClass.ONE_HIDDEN_RELU}
_LOSS_NAMES = ("hinge", "logistic", "exponential", "quadratic", "sigmoid", "rho-margin")


def _parse_loss(name: str, k: float, rho: float) -> tuple:
    """Returns (MarginLoss, wants_sup)."""
    wants_sup = name.startswith("sup-")
    base = name[4:] if wants_sup else name
    if base not in _LOSS_NAMES:
        raise ValueError(f"unknown loss {name!r}; expected one of {_LOSS_NAMES} or sup- prefix")
    fam = LossFamily(base)
    return MarginLoss(fam, k=k, rho=rho), wants_sup


def _parse_b(raw: str) -> float:
    if raw in ("inf", "Inf", "INF", "infinity"):
        return math.inf
    return float(raw)


def _build_spec(args) -> HypothesisSpec:
    cls = _CLASSES[args.cls]
    return HypothesisSpec(
        cls,
        W=args.W,
        B=_parse_b(args.B),
        Lambda=args.Lambda,
        gamma=args.gamma,
    )


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


def _apply_config(args, parser_defaults: dict) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    unknown = set(cfg) - set(parser_defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    actions = {action.dest: action for action in args._subparser._actions}
    for key, value in cfg.items():
        if getattr(args, key) == parser_defaults[key]:  # flag not explicitly set
            setattr(args, key, _config_value(actions[key], key, value))


def _config_value(action: argparse.Action, key: str, value):
    """A config file's value for ``key`` as its flag would parse it: the
    flag's type applied to str(value), so that 2.5 is refused for an integer
    flag instead of truncated, then its choices checked; a switch takes a
    JSON bool."""
    if action.nargs == 0:  # a store_true switch
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} takes a string or a number, got {value!r}")
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError:
            raise ValueError(f"config key {key!r} is not a valid {action.type.__name__}: {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r} takes one of {list(action.choices)}, got {value!r}")
    return value


# ---------------------------------------------------------------------------


def cmd_transform(args, defaults) -> int:
    _apply_config(args, defaults)
    loss, wants_sup = _parse_loss(args.loss, args.k, args.rho)
    spec = _build_spec(args)
    if wants_sup and not spec.adversarial:
        raise ValueError(f"{args.loss} requires --gamma > 0")
    if spec.adversarial and not wants_sup:
        raise ValueError("--gamma > 0 requires a sup- loss")
    if args.massart_beta is not None and args.eps != 0.0:
        raise ValueError(f"Massart-modified transforms are not truncated; --eps must be 0, got {args.eps}")
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
    """Default the flags that the chosen cases of ``table`` (case -> {flag:
    default}) read; return the table's other flags that were given (parser
    default None), by flag or config key, as sorted '--name's."""
    used = {key: default for case in cases for key, default in table[case].items()}
    unused = {key for flags in table.values() for key in flags} - used.keys()
    for key, default in used.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    return sorted("--" + key.replace("_", "-") for key in unused if getattr(args, key) is not None)


def _flag_help(table: dict, key: str) -> str:
    readers = [case for case, flags in table.items() if key in flags]
    return f"{' and '.join(readers)} only; default {table[readers[0]][key]}"


# the flags bound reads only in some runs, with their defaults, by the case
# that reads them
_BOUND_FLAGS = {"--mode mc": {"n": 10**6, "seed": 0}, "a preset --dist": {"sigma": 0.05}}


def cmd_bound(args, defaults) -> int:
    _apply_config(args, defaults)
    reads = {"--mode mc": args.mode == "mc", "a preset --dist": args.dist in _PRESETS}
    stray = _read_flags(args, _BOUND_FLAGS, [case for case, on in reads.items() if on])
    if stray:
        raise ValueError(
            f"this bound run does not use {', '.join(stray)} "
            "(--n and --seed need --mode mc, --sigma a preset --dist)"
        )
    loss, wants_sup = _parse_loss(args.loss, args.k, args.rho)
    spec = _build_spec(args)
    target = Target.ADVERSARIAL_ZERO_ONE if wants_sup else Target.ZERO_ONE
    if args.target is not None and args.target != target.value:
        raise ValueError(
            f"--target {args.target} does not match --loss {args.loss}: "
            "the adversarial-zero-one target takes a sup- loss, the zero-one target a plain one"
        )
    if wants_sup and not spec.adversarial:
        raise ValueError(f"{args.loss} requires --gamma > 0")
    dist = _load_dist(args)
    h = LinearHypothesis((args.w,), args.b)
    mode = MonteCarlo(args.n, args.seed) if args.mode == "mc" else Exact()
    report = assemble_bound(target, loss, spec, dist, h, massart=args.massart_beta, mode=mode)
    split = surrogate_split(report, loss, spec, dist)
    _emit({**report.to_json_dict(split), "meta": _run_meta()}, args.out)
    return 0 if report.holds else 1


def cmd_oracle_check(args, defaults) -> int:
    _apply_config(args, defaults)
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
        _emit({"rows": [dataclasses.asdict(r) for r in rows]}, args.out)
    return 0 if ok else 1


# the flags each sweep experiment reads, besides --out, --format and --config,
# with their defaults; the parser defaults them to None so that a flag the
# chosen experiment would ignore is refused instead
_SIGMAS = ",".join(map(str, experiments._DEFAULT_SIGMAS))
_SIM_FLAGS = {"n": 10**6, "seed": 0, "sigmas": _SIGMAS, "w": -5.0, "b": 0.0}
_SWEEP_FLAGS = {
    "figure1": {"W": 1.0, "B": "0.8", "grid_n": 201},
    "sect7-nonadv": _SIM_FLAGS,
    "sect7-adv": {**_SIM_FLAGS, "gamma": 0.1},
}


def cmd_sweep(args, defaults) -> int:
    _apply_config(args, defaults)
    stray = _read_flags(args, _SWEEP_FLAGS, [args.experiment])
    if stray:
        raise ValueError(f"--experiment {args.experiment} does not use {', '.join(stray)}")
    if args.experiment == "figure1":
        spec = HypothesisSpec(HypothesisClass.LINEAR, W=args.W, B=_parse_b(args.B))
        rows = experiments.emit_transform_curves(spec=spec, grid_n=args.grid_n)
        meta = {"experiment": "figure1", "B": _parse_b(args.B), "W": args.W, "grid_n": args.grid_n}
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
    p.add_argument("--W", type=float, default=1.0)
    p.add_argument("--B", type=str, default="1.0", help="bias budget; 'inf' allowed")
    p.add_argument("--Lambda", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--massart-beta", dest="massart_beta", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hcbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="materialize an estimation-error transform")
    p_tr.add_argument("--loss", required=True)
    _add_spec_flags(p_tr)
    p_tr.add_argument("--eps", type=float, default=0.0, help="truncation level of the transform")
    p_tr.add_argument("--grid-n", dest="grid_n", type=int, default=101)
    p_tr.add_argument("--format", choices=["json", "csv"], default="json")
    p_tr.add_argument("--out", default="")
    p_tr.add_argument("--config", default="")
    p_tr.set_defaults(func=cmd_transform, _subparser=p_tr)

    p_b = sub.add_parser("bound", help="assemble and check one bound")
    p_b.add_argument(
        "--target", choices=["zero-one", "adversarial-zero-one"], default=None,
        help="defaults to the one the loss implies: adversarial-zero-one for sup- losses",
    )
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
    p_b.set_defaults(func=cmd_bound, _subparser=p_b)

    p_oc = sub.add_parser("oracle-check", help="closed forms vs the grid oracle")
    p_oc.add_argument("--grid-n", dest="grid_n", type=int, default=4001)
    p_oc.add_argument("--instances", type=int, default=25)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.add_argument("--tamper", action="store_true", help="negative control: perturb closed forms")
    p_oc.add_argument("--out", default="")
    p_oc.add_argument("--config", default="")
    p_oc.set_defaults(func=cmd_oracle_check, _subparser=p_oc)

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
    p_sw.add_argument("--B", type=str, help=_flag_help(_SWEEP_FLAGS, "B") + "; 'inf' allowed")
    p_sw.add_argument("--grid-n", dest="grid_n", type=int, help=_flag_help(_SWEEP_FLAGS, "grid_n"))
    p_sw.add_argument("--out", default="")
    p_sw.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p_sw.add_argument("--config", default="")
    p_sw.set_defaults(func=cmd_sweep, _subparser=p_sw)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args._subparser
    defaults = {
        key: sub.get_default(key)
        for key in vars(args)
        if key not in ("func", "command", "_subparser")
    }
    try:
        thread_cap()
        return args.func(args, defaults)
    except (ValueError, NegativeResultError, QuadratureError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
