"""Comparison algorithms: five reweighted proximal methods, two update rules.

All of these solve the same composite objective as the block solver,
without per-block extrapolation state, and take the weights at the current
iterate.  The simultaneous (Jacobi) rule, ``_simultaneous_step``, moves
every coordinate from the same point in one prox call:

* ``pire_solve`` - the loss gradient with the global stepsize ``1/L``.
* ``irl1_solve`` / ``irl1e1_solve`` - pire for the absolute-value ``g``;
  "e1" extrapolates the whole vector with the restarted momentum sequence.
* ``pire_ps_solve`` - parallel splitting: block gradients, stepsizes ``1/L_b``.

The sequential (Gauss-Seidel) rule, ``_sequential_step``, is
``pire_au_solve``, alternative updating: the blocks step in order, each from
the freshest iterate with its ``1/L_b``.  One sweep is one iteration.

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
from .solver import SolverConfig, _commit, _iterate, _start_state, _StepInfo, fista_momentum

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


def _simultaneous_step(state, problem, config, alpha, grad_of, use_momentum):
    """pire, irl1, irl1e1 and pire-ps: every coordinate steps from the same
    point with stepsize ``alpha`` (a scalar, or one per coordinate);
    ``grad_of(r)`` is the gradient at residual ``r``."""
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
    x_new = block_prox_step(x_hat, grad_of(r_hat), alpha, w, g=penalty.g,
                            g_subgrad=penalty.g_subgrad)
    return _accept(state, problem, x_new, loss.residual(x_new), beta)


def _sequential_step(state, problem, config, plans, alphas):
    """pire-au: one sweep over the blocks with their ``plans``, each block
    stepping from the freshest iterate with its stepsize ``alphas[b]``.

    The penalty is separable and no earlier block of the sweep moves a
    block's coordinates, so the weights at the sweep's base point are the
    block's weights at its turn: one call serves the whole sweep."""
    penalty = problem.penalty
    x, r = state.x.copy(), state.residual
    w = penalty.weights(state.x, state.eps)
    for idx, plan, alpha in zip(problem.partition.index, plans, alphas):
        x_b = x[idx]  # a view for a slice index; written back last
        new_block = block_prox_step(
            x_b, plan.grad_from_residual(r), alpha, w[idx],
            g=penalty.g, g_subgrad=penalty.g_subgrad,
        )
        r = plan.residual_after_delta(r, new_block - x_b)
        x[idx] = new_block
    return _accept(state, problem, x, r, 0.0)


def _plan_grad(problem, plans, r):
    """The gradient at residual ``r``, gathered from the block ``plans``."""
    grad = np.empty(problem.loss.dim)
    for idx, plan in zip(problem.partition.index, plans):
        grad[idx] = plan.grad_from_residual(r)
    return grad


def _run(problem, config, x0, callback, step, **params):
    """Run ``step`` with ``params`` from ``x0`` in the shared loop; one
    small step (one iteration, or one sweep) stops it."""
    state = _start_state(problem, config, x0)
    step = functools.partial(step, **params)
    state, trace, status = _iterate(problem, config, state, step, 1, callback)
    return state.x, trace, status


def pire_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Full-vector reweighted proximal iteration with stepsize ``1/L``.

    ``x^{k+1} = argmin sum_i w_i g(x_i) + (L/2) ||x - (x^k - grad f(x^k)/L)||^2``
    with ``w_i = lam * h'(g(x^k_i))`` and the global curvature bound ``L``.
    """
    alpha = 1.0 / _lipschitz_bound(problem.loss.A_norm_sq)
    return _run(problem, config, x0, callback, _simultaneous_step, alpha=alpha,
                grad_of=problem.loss.grad_from_residual, use_momentum=False)


def irl1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 iteration; pire restricted to the absolute-value ``g``."""
    if problem.penalty.g is not None:
        raise ValueError("irl1 requires the absolute-value g")
    return pire_solve(problem, config, x0, callback)


def irl1e1_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Reweighted l1 with whole-vector extrapolation, no safeguard.

    The momentum follows the restarted sequence (reset every
    ``config.fista_restart_N`` iterations); the first step equals an
    irl1 step because the first step of a restart period has zero momentum.
    """
    if problem.penalty.g is not None:
        raise ValueError("irl1e1 requires the absolute-value g")
    alpha = 1.0 / _lipschitz_bound(problem.loss.A_norm_sq)
    return _run(problem, config, x0, callback, _simultaneous_step, alpha=alpha,
                grad_of=problem.loss.grad_from_residual, use_momentum=True)


def pire_ps_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Parallel-splitting sweeps: all blocks step from the same base point.

    Weights are frozen at sweep start and every block uses its own
    stepsize ``1/L_b``; one sweep is one iteration of the stopping rule.
    """
    alpha = np.empty(problem.loss.dim)
    for idx, L in zip(problem.partition.index, problem.lipschitz):
        alpha[idx] = 1.0 / L
    return _run(problem, config, x0, callback, _simultaneous_step, alpha=alpha,
                grad_of=functools.partial(_plan_grad, problem, problem.block_plans()),
                use_momentum=False)


def pire_au_solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Alternative-updating sweeps: blocks step sequentially within a sweep,
    each from the freshest iterate with its own stepsize ``1/L_b``."""
    alphas = [1.0 / L for L in problem.lipschitz]
    return _run(problem, config, x0, callback, _sequential_step,
                plans=problem.block_plans(), alphas=alphas)
