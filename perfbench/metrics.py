"""Metric catalogue and the per-layer analysis of recorded spans.

Every metric the benchmark can print is listed in :data:`UNITS` with its
unit.  A name ending in ``_s`` is the summed duration of the spans of that
layer (children included); ``_self_s`` excludes the direct children.
"""

from __future__ import annotations

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "compare_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
    "F_final_sum": "objective",
    "rel_err_median": "ratio",
}

PER_LAYER = {
    "experiments.build_problem_s": "s",
    "experiments.run_algorithm_calls": "count",
    "experiments.curve_pass_s": "s",
    "model.spectral_norm_sq_s": "s",
    "model.spectral_norm_sq_calls": "count",
    "model.plan_grad_s": "s",
    "model.plan_grad_calls": "count",
    "model.plan_grad_bytes": "B",
    "model.plan_residual_s": "s",
    "model.plan_residual_calls": "count",
    "model.plan_residual_bytes": "B",
    "model.loss_residual_s": "s",
    "model.loss_residual_calls": "count",
    "model.penalty_s": "s",
    "model.penalty_calls": "count",
    "model.plan_gbytes_per_s": "GB/s",
    "prox.block_prox_step_s": "s",
    "prox.calls": "count",
    "prox.coords": "count",
    "momentum.fista_momentum_calls": "count",
    "solver.init_state_s": "s",
    "solver.iters": "count",
    "solver.retries": "count",
    "solver.accept_ratio": "ratio",
    "solver.step_s": "s",
    "solver.step_self_s": "s",
    "solver.iter_us": "us",
    "solver.loop_self_s": "s",
    "lp.solve_s": "s",
    "lp.decay_epsilon_s": "s",
    "lp.eps_shrinks": "count",
    "lp.support_fixed_at": "count",
    "lp.final_nnz": "count",
    "baselines.solve_s": "s",
    "baselines.iters": "count",
    "baselines.lipschitz_s": "s",
    "io.save_problem_s": "s",
    "io.load_problem_s": "s",
    "io.write_trace_csv_s": "s",
    "io.atomic_write_s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "cli.self_s": "s",
    # traced run only: the traced operation times and what tracing added
    "trace.setup_s": "s",
    "trace.solve_s": "s",
    "trace.compare_s": "s",
    "trace.solve_overhead_s": "s",
    "trace.compare_overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}

UNITS = {**END_TO_END, **PER_LAYER}


def span_table(tracer, lo: int, hi: int):
    """Arrays ``(name, parent, start, end, dur, self)`` for spans ``lo..hi``."""
    name, parent, start, end = tracer.arrays(lo, hi)
    dur = end - start
    inside = parent >= 0
    child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
    return name, parent, start, end, dur, dur - child.astype(np.int64)


def _within(t, starts, ends):
    """Mask of times ``t`` inside one of the disjoint intervals ``[starts, ends)``."""
    if len(starts) == 0:
        return np.zeros(len(t), dtype=bool)
    k = np.searchsorted(starts, t, side="right") - 1
    ok = k >= 0
    ok[ok] &= t[ok] < ends[k[ok]]
    return ok


def layer_metrics(tracer, lo: int, hi: int, counts: dict, observed: dict) -> dict:
    """Per-layer values of one traced round (spans ``lo..hi``)."""
    name, parent, start, end, dur, self_ns = span_table(tracer, lo, hi)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(n):
        return name == ids.get(n, -1)

    def total(n):
        return float(dur[sel(n)].sum()) / 1e9

    def calls(n):
        return int(sel(n).sum())

    def own(n):
        return float(self_ns[sel(n)].sum()) / 1e9

    def median_of(n):
        vals = observed.get(n, [])
        return float(np.median(vals)) if vals else 0.0

    step = sel("solver.bpiree_step")
    has_parent = parent >= 0
    prox_in_step = sel("prox.block_prox_step") & has_parent
    prox_in_step[prox_in_step] = step[parent[prox_in_step]]
    iters = int(step.sum())
    attempts = int(prox_in_step.sum())
    base = sel("baselines.solve")
    norm = sel("model.spectral_norm_sq")
    under_base = _within(start[norm], start[base], end[base])
    plan_s = total("model.plan_grad") + total("model.plan_residual")
    plan_bytes = counts.get("model.plan_grad_bytes", 0) + counts.get(
        "model.plan_residual_bytes", 0
    )
    loop_s = total("solver.bpiree_step") + own("solver.solve_state")
    return {
        "experiments.build_problem_s": total("experiments.build_problem"),
        "experiments.run_algorithm_calls": calls("experiments.run_algorithm")
        + calls("experiments.curve_pass"),
        "experiments.curve_pass_s": total("experiments.curve_pass"),
        "model.spectral_norm_sq_s": total("model.spectral_norm_sq"),
        "model.spectral_norm_sq_calls": calls("model.spectral_norm_sq"),
        "model.plan_grad_s": total("model.plan_grad"),
        "model.plan_grad_calls": calls("model.plan_grad"),
        "model.plan_grad_bytes": counts.get("model.plan_grad_bytes", 0),
        "model.plan_residual_s": total("model.plan_residual"),
        "model.plan_residual_calls": calls("model.plan_residual"),
        "model.plan_residual_bytes": counts.get("model.plan_residual_bytes", 0),
        "model.loss_residual_s": total("model.loss_residual"),
        "model.loss_residual_calls": calls("model.loss_residual"),
        "model.penalty_s": total("model.penalty"),
        "model.penalty_calls": calls("model.penalty"),
        "model.plan_gbytes_per_s": plan_bytes / plan_s / 1e9 if plan_s > 0 else 0.0,
        "prox.block_prox_step_s": total("prox.block_prox_step"),
        "prox.calls": calls("prox.block_prox_step"),
        "prox.coords": counts.get("prox.coords", 0),
        "momentum.fista_momentum_calls": counts.get("momentum.fista_momentum_calls", 0),
        "solver.init_state_s": total("solver.init_state"),
        "solver.iters": iters,
        "solver.retries": attempts - iters,
        "solver.accept_ratio": iters / attempts if attempts else 0.0,
        "solver.step_s": total("solver.bpiree_step"),
        "solver.step_self_s": own("solver.bpiree_step"),
        "solver.iter_us": loop_s / iters * 1e6 if iters else 0.0,
        "solver.loop_self_s": own("solver.solve_state"),
        "lp.solve_s": total("lp.solve_lp"),
        "lp.decay_epsilon_s": total("lp.decay_epsilon"),
        "lp.eps_shrinks": counts.get("lp.eps_shrinks", 0),
        "lp.support_fixed_at": median_of("lp.support_fixed_at"),
        "lp.final_nnz": median_of("lp.final_nnz"),
        "baselines.solve_s": total("baselines.solve"),
        "baselines.iters": counts.get("baselines.iters", 0),
        "baselines.lipschitz_s": float(dur[norm][under_base].sum()) / 1e9,
        "io.save_problem_s": total("io.save_problem"),
        "io.load_problem_s": total("io.load_problem"),
        "io.write_trace_csv_s": total("io.write_trace_csv"),
        "io.atomic_write_s": total("io.atomic_write"),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "io.bytes_read": counts.get("io.bytes_read", 0),
        "cli.self_s": own("cli.main"),
        "trace.setup_s": total("op.setup"),
        "trace.solve_s": total("op.solve"),
        "trace.compare_s": total("op.compare"),
        "trace.spans": hi - lo,
    }


def breakdown(tracer, lo: int, hi: int, op: str) -> dict:
    """Self time (s) per span name inside the ``op`` spans of ``lo..hi``.

    The self times of a span and all its descendants sum to the span's
    duration, so the values add up to the traced time of ``op``.
    """
    name, _parent, start, end, _dur, self_ns = span_table(tracer, lo, hi)
    ops = name == tracer.name_id(op)
    inside = _within(start, start[ops], end[ops])
    out: dict = {}
    for nid in np.unique(name[inside]):
        out[tracer.names[nid]] = float(self_ns[inside & (name == nid)].sum()) / 1e9
    return out
