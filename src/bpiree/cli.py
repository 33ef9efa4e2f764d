"""Command-line surface: generate problem instances, solve them, compare solvers.

Commands
--------
generate  --config cfg.json --out instance.json
solve     --config cfg.json --algo bpiree instance.json [--trace trace.csv]
compare   --config cfg.json --out report.json

Every command is deterministic given its config: all randomness flows
from the config seed through numpy's PCG64 generator.  ``--set key=value``
(repeatable, dotted keys allowed, values parsed as JSON when possible)
overrides config entries; ``--scale desk|paper`` fills in preset problem
dimensions.  The env var ``BPIREE_LOG`` in {error, info, debug} controls
logging.  Output files are written via temp-file-then-rename, so failures
never leave partial files.

Exit codes: 0 success (solve: converged), 2 malformed config, unknown
algorithm or an algorithm the instance does not support (bpiree-lp on a
log_ls instance), 3 I/O failure, 4 solve hit the iteration cap, 5
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .experiments import (
    ALGORITHMS,
    ExperimentSpec,
    SCALE_PRESETS,
    SOLVER_FIELDS,
    build_problem,
    run_comparison,
)
from .io import atomic_write_text, load_problem, save_problem, write_trace_csv
from .lp import solve_lp
from .model import eval_objective
from .prox import NumericalFailure
from .solver import SolveStatus, SolverConfig, stationarity_residual

logger = logging.getLogger("bpiree")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MAX_ITER = 4
EXIT_NUMERICAL = 5

SPEC_KEYS = {f.name for f in dataclasses.fields(ExperimentSpec)}
TOP_KEYS = SPEC_KEYS | {"solver", "blob"}


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending field."""


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(config: dict, sets: List[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        target = config
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot descend into non-object key {part!r}")
        target[parts[-1]] = _parse_set_value(value)
    return config


def _load_config(args) -> dict:
    config: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
    _apply_overrides(config, args.set or [])
    if args.scale is not None:
        example = config.get("example")
        if example not in SCALE_PRESETS:
            raise ConfigError(
                f"field 'example' must be one of {sorted(SCALE_PRESETS)} to use --scale"
            )
        # presets fill only what the config and --set left unspecified
        for key, value in SCALE_PRESETS[example][args.scale].items():
            config.setdefault(key, value)
    if args.seed is not None:
        config["seed"] = args.seed
    unknown = set(config) - TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    return config


def _spec_from_config(config: dict) -> ExperimentSpec:
    spec_kwargs = {k: v for k, v in config.items() if k in SPEC_KEYS}
    spec_kwargs["solver_defaults"] = config.get("solver")
    if "example" not in spec_kwargs:
        raise ConfigError("field 'example' is required")
    for key in ("n", "q"):
        if key not in spec_kwargs:
            raise ConfigError(f"field {key!r} is required (or use --scale)")
        if not isinstance(spec_kwargs[key], int) or spec_kwargs[key] <= 0:
            raise ConfigError(f"field {key!r} must be a positive integer")
    try:
        return ExperimentSpec(**spec_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _solver_config_from(config: dict, seed) -> SolverConfig:
    solver_cfg = dict(config.get("solver", {}))
    unknown = set(solver_cfg) - SOLVER_FIELDS
    if unknown:
        raise ConfigError(f"unknown solver config field {sorted(unknown)[0]!r}")
    if seed is not None:
        solver_cfg.setdefault("seed", seed)
    if "mu" in config:
        solver_cfg.setdefault("mu", config["mu"])
    try:
        cfg = SolverConfig(**solver_cfg)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def cmd_generate(args) -> int:
    config = _load_config(args)
    spec = _spec_from_config(config)
    if args.out is None:
        raise ConfigError("generate requires --out")
    problem, x_true = build_problem(spec)
    try:
        save_problem(args.out, problem, x_true=x_true, blob=bool(config.get("blob")))
    except OSError as exc:
        logger.error("cannot write %s: %s", args.out, exc)
        return EXIT_IO
    logger.info("wrote %s", args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    config = _load_config(args)
    algo = args.algo
    if algo not in ALGORITHMS:
        print(f"unknown algorithm {algo!r}; choose from {sorted(ALGORITHMS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        problem, _x_true = load_problem(args.instance)
    except OSError as exc:
        logger.error("cannot read instance: %s", exc)
        return EXIT_IO
    except (KeyError, ValueError) as exc:
        print(f"malformed instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    solver_config = _solver_config_from(config, config.get("seed"))
    solver_config.record_trace = True

    if algo == "bpiree" and problem.smoothed_lp:
        algo_fn = "bpiree-lp"  # the block solver on an lp instance is the lp variant
    else:
        algo_fn = algo
    if algo_fn == "bpiree-lp" and not problem.smoothed_lp:
        print(f"{algo} requires an instance with the smoothed lp penalty", file=sys.stderr)
        return EXIT_CONFIG
    eps_final = None
    if algo_fn == "bpiree-lp":
        x, eps_final, trace, status = solve_lp(problem, solver_config, np.zeros(problem.loss.dim))
    else:
        x, trace, status = ALGORITHMS[algo_fn](
            problem, solver_config, np.zeros(problem.loss.dim)
        )
    if problem.smoothed_lp and eps_final is None:
        eps_final = np.full(problem.loss.dim, solver_config.eps0)
    F_final = eval_objective(problem.loss, problem.penalty, x, eps_final)
    residual = math.nan
    # a failed run's last finite iterate may overflow the gradient norm
    if status is not SolveStatus.NUMERICAL_FAILURE and problem.penalty.g is None:
        residual = stationarity_residual(problem, x, eps_final)
    print(
        f"{algo} {trace.iterations} {F_final!r} {trace.final_step_rel!r} "
        f"{residual!r} {status.value}"
    )
    if args.trace is not None:
        try:
            write_trace_csv(args.trace, trace, algo=algo)
        except OSError as exc:
            logger.error("cannot write trace: %s", exc)
            return EXIT_IO
    if status is SolveStatus.CONVERGED:
        return EXIT_OK
    if status is SolveStatus.MAX_ITER:
        return EXIT_MAX_ITER
    print(f"numerical failure: {algo} stopped after {trace.iterations} iterations",
          file=sys.stderr)
    return EXIT_NUMERICAL


def cmd_compare(args) -> int:
    config = _load_config(args)
    spec = _spec_from_config(config)
    report = run_comparison(spec)
    text = report.to_text()
    if args.out is not None:
        try:
            atomic_write_text(args.out, report.to_json())
        except OSError as exc:
            logger.error("cannot write report: %s", exc)
            return EXIT_IO
    sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpiree", description="block reweighted solver toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--scale", choices=("desk", "paper"),
                       help="fill missing dimensions from a preset")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")

    g = sub.add_parser("generate", help="write a problem instance JSON")
    add_common(g)
    g.add_argument("--out", required=True, help="instance output path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one solver on an instance")
    add_common(s)
    s.add_argument("instance", help="problem instance JSON")
    s.add_argument("--algo", required=True, help=f"one of {sorted(ALGORITHMS)}")
    s.add_argument("--trace", help="write per-iteration trace CSV here")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="run the comparison harness")
    add_common(c)
    c.add_argument("--out", help="report JSON output path")
    c.set_defaults(func=cmd_compare)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("BPIREE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level_name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Optional[List[str]] = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
