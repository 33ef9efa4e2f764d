"""Quick self-test of the benchmark on desk-size inputs (runs in seconds).

    python3 perfbench/selftest.py

Run it from the repository root.  It checks that every metric the
benchmark defines is emitted on every workload, that recorded spans nest
and no self time is negative, that the per-span breakdown accounts for
the traced operation times, that an injected wrong answer (a solver that
perturbs its iterate) raises ``fail_rate``, and that a BLAS thread count
above the usable cores is refused.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench

SEED = 7


def check(cond, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def check_spans(tracer) -> None:
    import metrics
    import numpy as np

    name, parent, start, end, _dur, self_ns = metrics.span_table(tracer, 0, len(tracer))
    check(np.all(end >= start), "a span ends before it starts")
    inner = parent >= 0
    check(np.all(start[parent[inner]] <= start[inner]), "a span starts before its parent")
    check(np.all(end[inner] <= end[parent[inner]]), "a span ends after its parent")
    check(np.all(self_ns >= 0), "negative self time")


def check_workload(wl, metrics, name: str, workdir: str) -> None:
    workload = wl.make_workload(name, workdir, scale="quick")
    reference: dict = {}
    recorder = wl.Checker(reference, record=True)
    for inst in wl.instance_order(SEED)[:2]:
        wl.run_round(workload, inst, recorder)
    check(recorder.failed == 0, f"{name}: {recorder.messages}")

    result = wl.run(workload, SEED, 0.0, True, wl.Checker(reference),
                    min_rounds=2, max_rounds=2)
    check(result.failed == 0, f"{name}: {result.messages}")
    values = {**wl.end_to_end(result), **wl.per_layer(result)}
    missing = sorted(set(metrics.UNITS) - set(values))
    check(not missing, f"{name}: metrics not emitted: {missing}")
    check_spans(result.tracer)
    for layer, parts in zip(result.layers, result.breakdowns):
        for op, key in (("op.solve", "trace.solve_s"), ("op.compare", "trace.compare_s")):
            total = sum(parts[op].values())
            check(abs(total - layer[key]) <= 1e-6 * max(layer[key], 1.0),
                  f"{name}: breakdown of {op} sums to {total}, traced {layer[key]}")
    active = {
        "log_ls_paper": ["model.spectral_norm_sq_calls", "solver.retries"],
        "matrix_lp_paper": ["lp.eps_shrinks", "lp.final_nnz", "lp.solve_s"],
        "cli_desk": ["io.bytes_written", "io.bytes_read", "baselines.iters",
                     "baselines.lipschitz_s", "experiments.curve_pass_s", "cli.self_s"],
    }[name]
    common = ["solver.iters", "prox.calls", "model.plan_grad_calls",
              "model.plan_residual_bytes", "momentum.fista_momentum_calls"]
    for key in active + common:
        check(values[key] > 0, f"{name}: {key} is {values[key]}")
    print(f"ok {name}: {len(result.tracer)} spans, {result.attempted} operations checked")


def check_wrong_answer(wl, workdir: str) -> None:
    from bpiree import solver

    workload = wl.make_workload("log_ls_paper", workdir, scale="quick")
    reference: dict = {}
    wl.run_round(workload, wl.instance_order(SEED)[0], wl.Checker(reference, record=True))
    clean = wl.run(workload, SEED, 0.0, False, wl.Checker(reference), min_rounds=1, max_rounds=1)
    check(wl.end_to_end(clean)["fail_rate"] == 0.0, f"clean run failed: {clean.messages}")

    original = solver.solve

    def perturbed(problem, config, x0, callback=None):
        x, trace, status = original(problem, config, x0, callback=callback)
        return x + 1e-3, trace, status

    solver.solve = perturbed
    try:
        bad = wl.run(workload, SEED, 0.0, False, wl.Checker(reference),
                     min_rounds=1, max_rounds=1)
    finally:
        solver.solve = original
    rate = wl.end_to_end(bad)["fail_rate"]
    check(rate > 0.0, "a perturbed iterate did not raise fail_rate")
    print(f"ok injected wrong answer: fail_rate {rate}")


def main() -> int:
    nproc = bench.pin_threads(1)
    try:
        bench.pin_threads(nproc + 1)
        check(False, "a BLAS thread count above the usable cores was accepted")
    except bench.SetupError:
        bench.pin_threads(1)
    sys.dont_write_bytecode = True
    bench.import_program()
    import metrics
    import workloads as wl

    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    for mode in ("end_to_end", "per_layer"):
        for m in declared[mode]:
            check(metrics.UNITS.get(m["name"]) == m["unit"],
                  f"BENCHMARK.json metric {m['name']} has no matching unit")

    os.makedirs(bench.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT)
    try:
        for name in wl.WORKLOADS:
            check_workload(wl, metrics, name, workdir)
        check_wrong_answer(wl, workdir)
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
