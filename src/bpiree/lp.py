"""Smoothed lp variant: per-coordinate smoothing decay and support tracking.

Specializes the block solver to the penalty ``lam * sum_j (|x_j| + e_j^2)^p``
with ``0 < p < 1``.  Each accepted block update shrinks the smoothing
factor of every coordinate that landed on a nonzero value by ``sqrt(mu)``
and leaves zero coordinates untouched; after finitely many iterations the
sign pattern of the iterate stops changing, which the run's
:class:`~bpiree.solver.SupportReport` makes observable.
"""

from __future__ import annotations

from .model import Problem, SmoothedLp
from .solver import SolverConfig, solve_state

__all__ = ["solve_lp"]


def solve_lp(problem: Problem, config: SolverConfig, x0, callback=None):
    """Run the block solver on a smoothed-lp problem.

    Returns ``(x_final, eps_final, trace, status)``.  The trace has the
    extra smoothing/support columns and ``trace.support`` holds the
    terminal sign-pattern report.
    """
    if not isinstance(problem.penalty, SmoothedLp):
        raise ValueError("solve_lp requires a SmoothedLp penalty")
    state, trace, status = solve_state(problem, config, x0, callback=callback)
    return state.x, state.eps, trace, status
