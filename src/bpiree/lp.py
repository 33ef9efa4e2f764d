"""Smoothed lp variant: per-coordinate smoothing decay and support tracking.

Specializes the block solver to the penalty ``lam * sum_j (|x_j| + e_j^2)^p``
with ``0 < p < 1``.  Each accepted block update shrinks the smoothing
factor of every coordinate that landed on a nonzero value by ``sqrt(mu)``
and leaves zero coordinates untouched; after finitely many iterations the
sign pattern of the iterate stops changing, which :func:`support_monitor`
makes observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import Problem, SmoothedLp
from .solver import SolverConfig, solve_state

__all__ = [
    "solve_lp",
    "SupportReport",
    "support_monitor",
]


def solve_lp(problem: Problem, config: SolverConfig, x0, callback=None):
    """Run the block solver on a smoothed-lp problem.

    Returns ``(x_final, eps_final, trace, status)``.  The trace records
    carry the extra smoothing/support columns and ``trace.support`` holds
    the terminal sign-pattern report.
    """
    if not isinstance(problem.penalty, SmoothedLp):
        raise ValueError("solve_lp requires a SmoothedLp penalty")
    state, trace, status = solve_state(problem, config, x0, callback=callback)
    return state.x, state.eps, trace, status


@dataclass(frozen=True)
class SupportReport:
    """Outcome of sign-pattern monitoring over a run."""

    fixed: bool
    K_observed: Optional[int]
    sign: Optional[np.ndarray]


def support_monitor(signs: Sequence, window: int = 100) -> SupportReport:
    """Inspect a per-iteration sequence of sign vectors.

    ``fixed`` is true when the last ``min(window, len(signs))`` entries are
    identical; ``K_observed`` is the 1-based iteration starting the
    terminal constant run.
    """
    if window < 1:
        raise ValueError("window must be positive")
    n_records = len(signs)
    if n_records == 0:
        return SupportReport(fixed=False, K_observed=None, sign=None)
    last = np.asarray(signs[-1])
    start = n_records - 1
    while start > 0 and np.array_equal(np.asarray(signs[start - 1]), last):
        start -= 1
    run_len = n_records - start
    return SupportReport(
        fixed=run_len >= min(window, n_records),
        K_observed=start + 1,
        sign=last,
    )
