"""FISTA momentum sequence with fixed-period restart."""

from __future__ import annotations

import math

__all__ = ["fista_momentum"]


def fista_momentum(t: float, j: int):
    """One step of the restarted recurrence t_next = (1 + sqrt(1 + 4 t^2))/2.

    ``j`` is the step's position in its restart period; ``j = 0`` restarts
    from ``t = 1``, so its momentum is 0.  Returns ``(beta, t_next)`` with
    ``beta = (t - 1) / t_next``.
    """
    if j == 0:
        t = 1.0
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t**2))
    return (t - 1.0) / t_next, t_next
