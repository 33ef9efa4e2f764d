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
dimensions, and desk matrix_lp's ``lam``.  Each :func:`main` call reads the
env var ``BPIREE_LOG`` in {error, info, debug} and, for its length only, sets
the ``bpiree`` logger to that level with a handler on its own stderr; the
root logger is left alone.  Output files are written via
temp-file-then-rename, so failures never leave partial files.

Exit codes: 0 success (solve: converged), 4 solve hit the iteration cap.
Every failure prints one stderr line ``<kind>: <message>``.  Commands
raise, and :func:`main` alone turns a failure into its exit code and line:
``config error`` (a malformed config, an unknown algorithm, or one the
instance does not support, such as bpiree-lp on a log_ls instance) and
``malformed instance`` exit 2, ``i/o error`` (naming the path) 3 and
``numerical failure`` 5.
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
    BuildError,
    ExperimentSpec,
    SCALE_PRESETS,
    build_problem,
    run_comparison,
    solver_config,
)
from .io import atomic_write_text, load_problem, save_problem, write_trace_csv
from .lp import solve_lp
from .model import check_field_types, eval_objective, from_json
from .prox import NumericalFailure
from .solver import SolveStatus, stationarity_residual

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


class MalformedInstance(ValueError):
    """An instance file :func:`~bpiree.io.load_problem` cannot read."""


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
        if not isinstance(example, str) or example not in SCALE_PRESETS:
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
    blob = config.get("blob", False)
    if not isinstance(blob, bool):
        raise ConfigError(f"blob must be true or false, got {blob!r}")
    return config


def _spec_from_config(config: dict) -> ExperimentSpec:
    fields = {k: v for k, v in config.items() if k in SPEC_KEYS}
    fields["solver_defaults"] = config.get("solver")
    try:
        return from_json(ExperimentSpec, fields, "config")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_generate(args) -> int:
    config = _load_config(args)
    problem, x_true = build_problem(_spec_from_config(config))
    save_problem(args.out, problem, x_true=x_true, blob=config.get("blob", False))
    logger.info("wrote %s", args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    config = _load_config(args)
    algo = args.algo
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}; choose from {sorted(ALGORITHMS)}")
    try:
        problem, _x_true = load_problem(args.instance)
    except ValueError as exc:
        raise MalformedInstance(str(exc)) from exc
    # the top-level seed and mu are defaults the solver section overrides
    defaults = {k: config[k] for k in ("seed", "mu") if k in config}
    try:
        # the spec fields a solve is given are checked for type only
        check_field_types(ExperimentSpec, config)
        solver_cfg = solver_config(defaults, config.get("solver"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if algo == "bpiree-lp" and not problem.smoothed_lp:
        raise ConfigError(f"{algo} requires an instance with the smoothed lp penalty")
    x0 = np.zeros(problem.loss.dim)
    if algo == "bpiree-lp":
        x, _eps, trace, status = solve_lp(problem, solver_cfg, x0)
    else:
        x, trace, status = ALGORITHMS[algo](problem, solver_cfg, x0)
    F_final = eval_objective(problem.loss, problem.penalty, x, trace.eps)
    residual = math.nan
    # a failed run's last finite iterate may overflow the gradient norm
    if status is not SolveStatus.NUMERICAL_FAILURE and problem.penalty.g is None:
        residual = stationarity_residual(problem, x, trace.eps)
    # the trace first, so a failed write prints no result line
    if args.trace is not None:
        write_trace_csv(args.trace, trace, algo=algo)
    print(
        f"{algo} {trace.iterations} {F_final!r} {trace.last('step_rel')!r} "
        f"{residual!r} {status.value}"
    )
    if status is SolveStatus.NUMERICAL_FAILURE:
        raise NumericalFailure(f"{algo} stopped after {trace.iterations} iterations")
    return EXIT_OK if status is SolveStatus.CONVERGED else EXIT_MAX_ITER


def cmd_compare(args) -> int:
    config = _load_config(args)
    spec = _spec_from_config(config)
    report = run_comparison(spec)
    text = report.to_text()
    if args.out is not None:
        atomic_write_text(args.out, report.to_json())
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
                       help="fill missing dimensions (and desk matrix_lp lam) from a preset")
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


def main(argv: Optional[List[str]] = None) -> int:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(levels.get(os.environ.get("BPIREE_LOG", "error").lower(), logging.ERROR))
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, BuildError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedInstance as exc:
        print(f"malformed instance: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
