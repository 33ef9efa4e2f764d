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

Each method is a step function run by the block solver's loop
(``solver._iterate``), so all of them share its stopping rule, trace
records and failure handling.  A baseline stops on the first small step
(one iteration, or one sweep), reports the objective with the smoothing
factors held at ``eps0`` and produces no descent certificates.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import Problem
from .momentum import fista_momentum
from .prox import NumericalFailure, block_prox_step
from .solver import (
    NORM_FLOOR,
    SolverConfig,
    _iterate,
    _norm,
    _start_state,
    _StepInfo,
)

__all__ = [
    "pire_solve",
    "irl1_solve",
    "irl1e1_solve",
    "pire_ps_solve",
    "pire_au_solve",
]

# Trace rows of full-vector / per-sweep methods carry this block id.
FULL_VECTOR_BLOCK = -1


def _accept(state, problem, x_new, r_new, beta):
    """Commit the move to ``x_new`` (residual ``r_new``) and return the
    step's ``_StepInfo``, or raise :class:`NumericalFailure` if the
    objective or the iterate is not finite."""
    f = problem.loss.value_from_residual(r_new)
    F = f + problem.penalty.value(x_new, state.eps)
    k = state.k + 1
    if not (math.isfinite(F) and np.isfinite(x_new).all()):
        raise NumericalFailure(f"non-finite result at iteration {k} (F={F!r})")
    step_rel = _norm(x_new - state.x) / max(_norm(state.x), NORM_FLOOR)
    state.x_prev = state.x
    state.x = x_new
    state.residual = r_new
    state.f = f
    state.F_current = F
    state.k = k
    return _StepInfo(
        block=FULL_VECTOR_BLOCK, beta_used=beta, retried=False, step_rel=step_rel
    )


def _full_vector_step(state, problem, config, alpha, use_momentum):
    """pire / irl1 / irl1e1: one proximal step on the whole vector."""
    loss, penalty, x = problem.loss, problem.penalty, state.x
    if use_momentum:
        # iteration k = state.k + 1 sits at (k - 1) mod N in its restart period
        beta, state.t = fista_momentum(state.t, state.k % config.fista_restart_N)
    else:
        beta = 0.0
    w = penalty.weights(x, state.eps)
    if beta != 0.0:
        x_hat = x + beta * (x - state.x_prev)
        r_hat = loss.residual(x_hat)
    else:
        x_hat, r_hat = x, state.residual
    grad = loss.grad_from_residual(r_hat)
    x_new = block_prox_step(x_hat, grad, alpha, w, g=penalty.g, g_subgrad=penalty.g_subgrad)
    return _accept(state, problem, x_new, loss.residual(x_new), beta)


def _sweep_step(state, problem, config, alphas, parallel):
    """pire-ps (parallel=True) / pire-au: one sweep over all blocks."""
    penalty, eps = problem.penalty, state.eps
    plans = problem.block_plans
    g, g_subgrad = penalty.g, penalty.g_subgrad
    x_start, r = state.x, state.residual
    x = x_start.copy()
    if parallel:
        # Jacobi semantics: every block reads the sweep's base point.
        w_all = penalty.weights(x_start, eps)
        for b, idx in enumerate(problem.partition.index):
            grad = plans[b].grad_from_residual(r)
            x[idx] = block_prox_step(
                x_start[idx], grad, alphas[b], w_all[idx], g=g, g_subgrad=g_subgrad
            )
        r = problem.loss.residual(x)
    else:
        # Gauss-Seidel semantics: fresh iterate and weights per block.
        for b, idx in enumerate(problem.partition.index):
            x_b = x[idx]  # a view for a slice index; written back last
            w = penalty.weights(x_b, None if eps is None else eps[idx])
            grad = plans[b].grad_from_residual(r)
            new_block = block_prox_step(x_b, grad, alphas[b], w, g=g, g_subgrad=g_subgrad)
            r = plans[b].residual_after_delta(r, new_block - x_b)
            x[idx] = new_block
    return _accept(state, problem, x, r, 0.0)


def _run(problem, config, x0, callback, step):
    """Run ``step`` from ``x0`` in the shared loop; one small step stops it."""
    state = _start_state(problem, config, x0)
    state, trace, status = _iterate(problem, config, state, step, 1, callback)
    return state.x, trace, status


def _full_vector(problem, config, x0, callback, use_momentum):
    L = problem.loss.block_lipschitz(np.arange(problem.loss.dim))
    step = functools.partial(_full_vector_step, alpha=1.0 / L, use_momentum=use_momentum)
    return _run(problem, config, x0, callback, step)


def _sweep(problem, config, x0, callback, parallel):
    alphas = [1.0 / plan.lipschitz for plan in problem.block_plans]
    step = functools.partial(_sweep_step, alphas=alphas, parallel=parallel)
    return _run(problem, config, x0, callback, step)


def pire_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Full-vector reweighted proximal iteration with stepsize ``1/L``.

    ``x^{k+1} = argmin sum_i w_i g(x_i) + (L/2) ||x - (x^k - grad f(x^k)/L)||^2``
    with ``w_i = lam * h'(g(x^k_i))`` and the global curvature bound ``L``.
    """
    return _full_vector(problem, config, x0, callback, use_momentum=False)


def irl1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 iteration; pire restricted to the absolute-value ``g``."""
    if problem.penalty.g is not None:
        raise ValueError("irl1 requires the absolute-value g")
    return _full_vector(problem, config, x0, callback, use_momentum=False)


def irl1e1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 with whole-vector extrapolation, no safeguard.

    The momentum follows the restarted sequence (reset every
    ``config.fista_restart_N`` iterations); the first step equals an
    irl1 step because the first step of a restart period has zero momentum.
    """
    if problem.penalty.g is not None:
        raise ValueError("irl1e1 requires the absolute-value g")
    return _full_vector(problem, config, x0, callback, use_momentum=True)


def pire_ps_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Parallel-splitting sweeps: all blocks step from the same base point.

    Weights are frozen at sweep start and every block uses its own
    stepsize ``1/L_b``; one sweep is one iteration of the stopping rule.
    """
    return _sweep(problem, config, x0, callback, parallel=True)


def pire_au_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Alternative-updating sweeps: blocks step sequentially within a sweep,
    each from the freshest iterate with freshly recomputed weights."""
    return _sweep(problem, config, x0, callback, parallel=False)
