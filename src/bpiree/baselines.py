"""Comparison algorithms: reweighted full-vector and per-sweep block methods.

All of these solve the same composite objective as the block solver but
without per-block extrapolation state:

* ``pire_solve`` - full-vector proximal step with a global curvature
  constant, weights refreshed each iteration, no momentum.
* ``irl1_solve`` / ``irl1e1_solve`` - the same iteration restricted to the
  absolute-value ``g``; the "e1" variant extrapolates the whole vector
  with the restarted momentum sequence (no safeguard).
* ``pire_ps_solve`` / ``pire_au_solve`` - block sweeps with per-block
  stepsizes: parallel splitting updates every block from the sweep's base
  point with weights frozen at sweep start (Jacobi-style), alternative
  updating walks the blocks sequentially with fresh weights and iterates
  (Gauss-Seidel-style).  One sweep counts as one iteration.
"""

from __future__ import annotations

import logging
import math
import time
import numpy as np

from .model import Problem, penalty_value, penalty_weights
from .momentum import MomentumClock, fista_momentum
from .prox import block_prox_step
from .solver import (
    NORM_FLOOR,
    SolveStatus,
    SolverConfig,
    Trace,
    TraceRecord,
    _norm,
    _penalty_g,
)

__all__ = [
    "MomentumClock",
    "fista_momentum",
    "pire_solve",
    "irl1_solve",
    "irl1e1_solve",
    "pire_ps_solve",
    "pire_au_solve",
]

logger = logging.getLogger("bpiree")

# Trace rows of full-vector / per-sweep methods carry this block id.
FULL_VECTOR_BLOCK = -1


def _frozen_eps(problem, config):
    # These methods have no smoothing-decay rule; a smoothed-lp penalty is
    # handled at fixed eps = eps0.
    if problem.smoothed_lp:
        return np.full(problem.loss.dim, config.eps0)
    return None


def _check_x0(problem, x0):
    x0 = np.asarray(x0, dtype=np.float64).ravel().copy()
    if x0.shape[0] != problem.loss.dim:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {problem.loss.dim}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return x0


def _finish(trace, k, status):
    trace.iterations = k
    return status


def _full_vector_loop(problem, config, x0, callback, use_momentum):
    """Shared loop for pire / irl1 / irl1e1."""
    config.validate()
    x = _check_x0(problem, x0)
    eps = _frozen_eps(problem, config)
    loss = problem.loss
    L = loss.block_lipschitz(np.arange(loss.dim))
    alpha = 1.0 / L
    g, g_subgrad = _penalty_g(problem.penalty)
    trace = Trace()
    clock = MomentumClock(N=config.fista_restart_N)
    x_prev = x.copy()
    r = loss.residual(x)
    status = SolveStatus.MAX_ITER
    for k in range(1, config.max_iter + 1):
        t0 = time.perf_counter_ns() if config.record_trace else 0
        if use_momentum:
            beta, clock = fista_momentum(clock)
        else:
            beta = 0.0
        w = penalty_weights(problem.penalty, x, eps)
        if beta != 0.0:
            x_hat = x + beta * (x - x_prev)
            r_hat = loss.residual(x_hat)
        else:
            x_hat, r_hat = x, r
        grad = loss.grad_from_residual(r_hat)
        x_new = block_prox_step(x_hat, grad, alpha, w, g=g, g_subgrad=g_subgrad)
        if not np.isfinite(x_new).all():
            status = SolveStatus.NUMERICAL_FAILURE
            return x, trace, _finish(trace, k, status)
        step_norm = _norm(x_new - x)
        step_rel = step_norm / max(_norm(x), NORM_FLOOR)
        x_prev = x
        x = x_new
        r = loss.residual(x)
        if config.record_trace:
            F = loss.value_from_residual(r) + penalty_value(problem.penalty, x, eps)
            trace.records.append(
                TraceRecord(
                    k=k,
                    F=F,
                    step_rel=step_rel,
                    residual=math.nan,
                    beta_used=beta,
                    block=FULL_VECTOR_BLOCK,
                    retried=False,
                    wall_ns=time.perf_counter_ns() - t0,
                )
            )
        if callback is not None:
            callback(k, x)
        if k % 1000 == 0:
            logger.debug("iter %d step_rel=%.3e", k, step_rel)
        trace.final_step_rel = step_rel
        if step_norm == 0.0 or step_rel < config.tol:
            status = SolveStatus.CONVERGED
            return x, trace, _finish(trace, k, status)
    return x, trace, _finish(trace, config.max_iter, status)


def pire_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Full-vector reweighted proximal iteration with stepsize ``1/L``.

    ``x^{k+1} = argmin sum_i w_i g(x_i) + (L/2) ||x - (x^k - grad f(x^k)/L)||^2``
    with ``w_i = lam * h'(g(x^k_i))`` and the global curvature bound ``L``.
    """
    return _full_vector_loop(problem, config, x0, callback, use_momentum=False)


def irl1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 iteration; pire restricted to the absolute-value ``g``."""
    if not getattr(problem.penalty, "g_is_abs", False):
        raise ValueError("irl1 requires the absolute-value g")
    return _full_vector_loop(problem, config, x0, callback, use_momentum=False)


def irl1e1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 with whole-vector extrapolation, no safeguard.

    The momentum follows the restarted sequence (reset every
    ``config.fista_restart_N`` iterations); the first step equals an
    irl1 step because a fresh clock yields zero momentum.
    """
    if not getattr(problem.penalty, "g_is_abs", False):
        raise ValueError("irl1e1 requires the absolute-value g")
    return _full_vector_loop(problem, config, x0, callback, use_momentum=True)


def _sweep_loop(problem, config, x0, callback, parallel):
    """Shared loop for pire-ps (parallel=True) and pire-au."""
    config.validate(problem.partition.m)
    x = _check_x0(problem, x0)
    eps = _frozen_eps(problem, config)
    loss = problem.loss
    blocks = problem.partition.index
    plans = problem.block_plans
    alphas = [1.0 / plan.lipschitz for plan in plans]
    g, g_subgrad = _penalty_g(problem.penalty)
    trace = Trace()
    status = SolveStatus.MAX_ITER
    r = loss.residual(x)
    for k in range(1, config.max_iter + 1):
        t0 = time.perf_counter_ns() if config.record_trace else 0
        x_start = x.copy()
        if parallel:
            # Jacobi semantics: every block reads the sweep's base point.
            w_all = penalty_weights(problem.penalty, x_start, eps)
            x_new = x_start.copy()
            for b, idx in enumerate(blocks):
                grad = plans[b].grad_from_residual(r)
                x_new[idx] = block_prox_step(
                    x_start[idx], grad, alphas[b], w_all[idx], g=g, g_subgrad=g_subgrad
                )
            x = x_new
            r = loss.residual(x)
        else:
            # Gauss-Seidel semantics: fresh iterate and weights per block.
            for b, idx in enumerate(blocks):
                x_b = x[idx]  # a view for a slice index; written back last
                if eps is not None:
                    w = problem.penalty.weights(x_b, eps[idx])
                else:
                    w = problem.penalty.weights(x_b)
                grad = plans[b].grad_from_residual(r)
                new_block = block_prox_step(x_b, grad, alphas[b], w, g=g, g_subgrad=g_subgrad)
                r = plans[b].residual_after_delta(r, new_block - x_b)
                x[idx] = new_block
        if not np.isfinite(x).all():
            status = SolveStatus.NUMERICAL_FAILURE
            return x, trace, _finish(trace, k, status)
        step_norm = _norm(x - x_start)
        step_rel = step_norm / max(_norm(x_start), NORM_FLOOR)
        if config.record_trace:
            F = loss.value_from_residual(r) + penalty_value(problem.penalty, x, eps)
            trace.records.append(
                TraceRecord(
                    k=k,
                    F=F,
                    step_rel=step_rel,
                    residual=math.nan,
                    beta_used=0.0,
                    block=FULL_VECTOR_BLOCK,
                    retried=False,
                    wall_ns=time.perf_counter_ns() - t0,
                )
            )
        if callback is not None:
            callback(k, x)
        trace.final_step_rel = step_rel
        if step_norm == 0.0 or step_rel < config.tol:
            status = SolveStatus.CONVERGED
            return x, trace, _finish(trace, k, status)
    return x, trace, _finish(trace, config.max_iter, status)


def pire_ps_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Parallel-splitting sweeps: all blocks step from the same base point.

    Weights are frozen at sweep start and every block uses its own
    stepsize ``1/L_b``; one sweep is one iteration of the stopping rule.
    """
    return _sweep_loop(problem, config, x0, callback, parallel=True)


def pire_au_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Alternative-updating sweeps: blocks step sequentially within a sweep,
    each from the freshest iterate with freshly recomputed weights."""
    return _sweep_loop(problem, config, x0, callback, parallel=False)
