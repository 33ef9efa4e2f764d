"""Comparison algorithms: five reweighted proximal methods, two update rules.

All of these solve the same composite objective as the block solver,
without per-block extrapolation state, and take the weights at the current
iterate.  The simultaneous (Jacobi) rule, ``_simultaneous_step``, moves
every coordinate along the loss's gradient at one point, in one prox call:

* ``pire_solve`` - the loss gradient with the global stepsize ``1/L``.
* ``irl1_solve`` / ``irl1e1_solve`` - pire for the absolute-value ``g``;
  "e1" extrapolates the whole vector with the restarted momentum sequence.
* ``pire_ps_solve`` - parallel splitting: pire with per-block stepsizes ``1/L_b``.

The sequential (Gauss-Seidel) rule, ``_sequential_step``, is
``pire_au_solve``, alternative updating: the blocks step in order, each from
the freshest iterate with its ``1/L_b``, by the block solver's move
(``solver._block_move``).  One sweep is one iteration.  When no two blocks
share a residual entry (every coupling number ``Problem.coupling`` is 1) no
block's move changes another block's gradient, so the sweep is the Jacobi
step and pire-au runs pire-ps.

Every method runs in the block solver's loop (``solver._iterate``) and
commits through ``solver._commit``, so all share the stopping rule, trace
columns and failure handling.  A baseline stops on the first small step,
reports the objective with the smoothing factors held at ``eps0`` and
produces no descent certificates.
"""

from __future__ import annotations

import functools

import numpy as np

from .model import Problem, _lipschitz_bound
from .prox import block_prox_step
from .solver import (SolverConfig, _block_move, _commit, _iterate, _start_state, _StepInfo,
                     fista_momentum)

__all__ = [
    "pire_solve",
    "irl1_solve",
    "irl1e1_solve",
    "pire_ps_solve",
    "pire_au_solve",
]

def _accept(state, problem, x_new, r_new, beta):
    """Commit the move to ``x_new`` (residual ``r_new``), which moved every
    block (block id -1), and return the step's ``_StepInfo``."""
    f = problem.loss.value_from_residual(r_new)
    F = f + problem.penalty.value(x_new, state.eps)
    _, step_rel = _commit(state, -1, slice(None), x_new, r_new, f, F)
    state.F_current = F
    return _StepInfo(block=-1, beta_used=beta, retried=False, step_rel=step_rel)


def _simultaneous_step(state, problem, config, alpha, use_momentum):
    """pire, irl1, irl1e1 and pire-ps: every coordinate steps from the same
    point along the loss's gradient, stepsize ``alpha`` (one, or per coordinate)."""
    loss, penalty, x = problem.loss, problem.penalty, state.x
    beta = 0.0
    if use_momentum:
        # iteration k = state.k + 1 sits at (k - 1) mod N in its restart period
        beta, state.t = fista_momentum(state.t, state.k % config.fista_restart_N)
    w = penalty.weights(x, state.eps)
    if beta != 0.0:
        x_hat = x + beta * (x - state.x_prev)
        r_hat = loss.residual(x_hat)
    else:
        x_hat, r_hat = x, state.residual
    x_new = block_prox_step(x_hat, loss.grad_from_residual(r_hat), alpha, w, g=penalty.g,
                            g_subgrad=penalty.g_subgrad)
    return _accept(state, problem, x_new, loss.residual(x_new), beta)


def _sequential_step(state, problem, config, plans, alphas):
    """pire-au: one sweep over the blocks with their ``plans``, each block
    stepping from the freshest iterate with its stepsize ``alphas[b]``.

    The penalty is separable and no earlier block of the sweep moves a
    block's coordinates, so the weights at the sweep's base point are the
    block's weights at its turn: one call serves the whole sweep."""
    x, r = state.x.copy(), state.residual
    w = problem.penalty.weights(state.x, state.eps)
    for idx, plan, alpha in zip(problem.partition.index, plans, alphas):
        x[idx], r = _block_move(plan, x[idx], r, alpha, w[idx], problem.penalty)
    return _accept(state, problem, x, r, 0.0)


def _run(problem, config, x0, callback, step, **params):
    """Run ``step`` with ``params`` from ``x0`` in the shared loop; one
    small step (one iteration, or one sweep) stops it."""
    state = _start_state(problem, config, x0)
    step = functools.partial(step, **params)
    state, trace, status = _iterate(problem, config, state, step, 1, callback)
    return state.x, trace, status


def _full_vector_solve(problem, config, x0, callback, use_momentum, abs_g_only=None):
    """pire, irl1 and irl1e1: the simultaneous step with stepsize ``1/L``;
    ``abs_g_only``, if given, names a method that needs the absolute-value ``g``."""
    if abs_g_only is not None and problem.penalty.g is not None:
        raise ValueError(f"{abs_g_only} requires the absolute-value g")
    alpha = 1.0 / _lipschitz_bound(problem.loss.A_norm_sq)
    return _run(problem, config, x0, callback, _simultaneous_step, alpha=alpha,
                use_momentum=use_momentum)


def pire_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Full-vector reweighted proximal iteration with stepsize ``1/L``.

    ``x^{k+1} = argmin sum_i w_i g(x_i) + (L/2) ||x - (x^k - grad f(x^k)/L)||^2``
    with ``w_i = lam * h'(g(x^k_i))`` and the global curvature bound ``L``.
    """
    return _full_vector_solve(problem, config, x0, callback, use_momentum=False)


def irl1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 iteration; pire restricted to the absolute-value ``g``."""
    return _full_vector_solve(problem, config, x0, callback, False, "irl1")


def irl1e1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 with whole-vector extrapolation, no safeguard.

    The momentum follows the restarted sequence (reset every
    ``config.fista_restart_N`` iterations); the first step equals an
    irl1 step because the first step of a restart period has zero momentum.
    """
    return _full_vector_solve(problem, config, x0, callback, True, "irl1e1")


def pire_ps_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Parallel-splitting sweeps: pire with the per-block stepsizes ``1/L_b``.

    All blocks step from the sweep's base point, with weights frozen there;
    one sweep is one iteration of the stopping rule.
    """
    alpha = np.empty(problem.loss.dim)
    for idx, L in zip(problem.partition.index, problem.lipschitz):
        alpha[idx] = 1.0 / L
    return _run(problem, config, x0, callback, _simultaneous_step, alpha=alpha,
                use_momentum=False)


def pire_au_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Alternative-updating sweeps: blocks step sequentially within a sweep,
    each from the freshest iterate with its own stepsize ``1/L_b``.

    On a partition where no two blocks share a residual entry (one block
    included) the sweep is the same map as the Jacobi step, and this is
    :func:`pire_ps_solve`, bit for bit.
    """
    if max(problem.coupling) == 1:
        return pire_ps_solve(problem, config, x0, callback)
    alphas = [1.0 / L for L in problem.lipschitz]
    return _run(problem, config, x0, callback, _sequential_step,
                plans=problem.block_plans(), alphas=alphas)
