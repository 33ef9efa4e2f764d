"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload log_ls_paper --seed 1 --seconds 30 --trace 0

Run it from the repository root: the program under test is imported from
``src/`` there.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` also repeats every instance with span
recording installed and reports the per-layer metrics.  Every metric is
printed as ``name = value unit``; the last line is one JSON object with
the metrics that ``BENCHMARK.json`` lists for the mode.  Details of the
run are written to ``perfbench/out/``.

``--record-reference`` solves every pool instance of the workload twice and
stores iteration counts, final objectives and timings in ``reference.json``;
the checks of later runs compare against it, and the timings order the
pool (see ``workloads.instance_order``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS/OpenMP thread count, at most the usable cores (default 1)")
    p.add_argument("--record-reference", action="store_true",
                   help="solve every pool instance and store the reference values")
    return p.parse_args(argv)


def pin_threads(threads: int) -> int:
    """Fix the BLAS thread count before numpy loads; returns usable cores."""
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= threads <= nproc:
        raise SetupError(f"--blas-threads must lie in 1..{nproc} (usable cores)")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc


def import_program():
    """Import bpiree from ``src/`` of the working directory, nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bpiree", "__init__.py")):
        raise SetupError("src/bpiree not found; run from the repository root")
    sys.path.insert(0, src)
    import bpiree

    if not os.path.abspath(bpiree.__file__).startswith(src + os.sep):
        raise SetupError(f"bpiree imported from {bpiree.__file__}, not from {src}")
    return bpiree


def _openblas_runtime():
    """(threads, config) reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return int(get_threads()), get_config().decode()
    return None, None


def environment(args, nproc: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads, config = _openblas_runtime()
    if threads is not None and threads != args.blas_threads:
        raise SetupError(f"BLAS runs {threads} threads, asked for {args.blas_threads}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": args.blas_threads,
        "blas_threads_runtime": threads,
        **{var.lower(): os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": config,
        "machine": platform.machine(),
    }


def record_reference(workload) -> None:
    """Solve every pool instance twice; store its outputs and cost."""
    import workloads as wl

    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)
    table, costs = {}, {}
    checker = wl.Checker(table, record=True)
    for inst in range(wl.POOL):
        first, _, _, _ = wl.run_round(workload, inst, checker)
        # a second, checked round confirms the values just recorded; the
        # faster of the two timings is the instance's cost
        checker.record = False
        second, _, _, _ = wl.run_round(workload, inst, checker)
        checker.record = True
        costs[str(inst)] = {k: round(min(first[k], second[k]), 4) for k in first}
        wl.progress(f"recorded instance {inst}: {costs[str(inst)]}")
    if checker.failed:
        raise SetupError("reference instances failed: " + " | ".join(checker.messages))
    reference[workload.name] = {"instances": table, "cost_s": costs}
    reference["pool"] = wl.POOL
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def selected(mode: str) -> list:
    """Metric names BENCHMARK.json lists for ``mode``."""
    with open("BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)[mode]]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nproc = pin_threads(args.blas_threads)
        sys.dont_write_bytecode = True
        import_program()
        import metrics
        import workloads as wl

        if args.workload not in wl.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")
        if args.seed < 0:
            raise SetupError("--seed must be nonnegative")
        env = environment(args, nproc)
        names = selected("per_layer" if args.trace else "end_to_end")
        reference = {}
        if not args.record_reference:
            with open(REFERENCE) as f:
                reference = json.load(f)
    except (SetupError, OSError, ImportError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        workload = wl.make_workload(args.workload, workdir)
        if args.record_reference:
            record_reference(workload)
            return 0
        recorded = reference.get(args.workload, {})
        checker = wl.Checker(recorded.get("instances", {}))
        result = wl.run(workload, args.seed, args.seconds, bool(args.trace), checker,
                        recorded=recorded)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = wl.end_to_end(result)
    if args.trace:
        values.update(wl.per_layer(result))
    for name, value in values.items():
        print(f"{name} = {value!r} {metrics.UNITS[name]}")
    breakdown = wl.median_breakdown(result) if args.trace else {}
    for op, parts in breakdown.items():
        total = sum(parts.values())
        for span, secs in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"breakdown {op} {span} = {secs!r} s ({secs / total:.1%})")
    for message in result.messages:
        print(f"failure: {message}", file=sys.stderr)
    print(f"rounds = {len(result.rounds)}; env = {json.dumps(env, sort_keys=True)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump({"env": env, "metrics": values, "breakdown": breakdown,
                   "rounds": result.rounds, "traced_rounds": result.layers,
                   "failures": result.messages}, f, indent=1, sort_keys=True)
    if result.tracer is not None:
        result.tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))

    missing = [n for n in names if n not in values]
    if missing:
        print(f"error: BENCHMARK.json names unknown metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]} for n in names},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
