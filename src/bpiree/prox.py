"""Scalar weighted proximal operators for the block subproblems.

Every block update reduces to coordinate-wise problems

    argmin_x  tau * g(x) + 0.5 * (x - v)^2,

with effective weight ``tau = alpha_j * w_j``.  For ``g = |.|`` the solution
is the soft threshold; for a general convex ``g`` the unique minimizer is
found by bisection on the monotone optimality map ``x - v + tau * dg(x)``.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "NumericalFailure",
    "abs_subgrad",
    "prox_scalar_convex",
    "block_prox_step",
]


class NumericalFailure(RuntimeError):
    """A numeric routine could not produce a finite, trustworthy result."""


def abs_subgrad(x: float) -> Tuple[float, float]:
    """Subgradient interval of ``|.|``: ``{-1,1}`` away from 0, ``[-1,1]`` at 0."""
    if x > 0:
        return 1.0, 1.0
    if x < 0:
        return -1.0, -1.0
    return -1.0, 1.0


def _numeric_subgrad(g: Callable[[float], float], x: float, h: float = 1e-7):
    # one-sided difference quotients, slightly widened against roundoff
    lo = (g(x) - g(x - h)) / h
    hi = (g(x + h) - g(x)) / h
    pad = 1e-9 * (1.0 + abs(lo) + abs(hi))
    return lo - pad, hi + pad


def prox_scalar_convex(
    v: float,
    tau: float,
    g: Optional[Callable[[float], float]] = None,
    g_subgrad: Optional[Callable[[float], Tuple[float, float]]] = None,
    tol: float = 1e-10,
) -> float:
    """Minimize ``tau*g(x) + 0.5*(x - v)^2`` by bisection.

    ``g`` must be closed, convex and nonnegative (the absolute value when
    None); ``g_subgrad(x)`` returns its subgradient interval ``(lo, hi)``
    (finite-difference fallback when omitted).  Works at kinks, where
    Newton steps are unusable.  Returns a point within ``tol`` of the
    unique minimizer.

    Raises
    ------
    ValueError
        On nonpositive ``tol``, negative ``tau`` or non-finite inputs.
    NumericalFailure
        If geometric bracket expansion fails after 64 doublings.
    """
    v = float(v)
    tau = float(tau)
    if not (np.isfinite(v) and np.isfinite(tau)):
        raise ValueError("prox_scalar_convex requires finite inputs")
    if tau < 0:
        raise ValueError("weight tau must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tau == 0:
        return v

    if g is None:
        subgrad = abs_subgrad
    elif g_subgrad is not None:
        subgrad = g_subgrad
    else:
        subgrad = functools.partial(_numeric_subgrad, g)

    # psi(x) = x - v + tau*dg(x) is strongly monotone; 0 in psi(x*) at the
    # unique minimizer.  Bracket with a bound G on |dg| near v and 0.
    lo_v, hi_v = subgrad(v)
    G = max(1.0, abs(lo_v), abs(hi_v))
    a = min(v, 0.0) - tau * G
    b = max(v, 0.0) + tau * G

    def psi(x):
        lo, hi = subgrad(x)
        return x - v + tau * lo, x - v + tau * hi

    for _ in range(64):
        if psi(a)[0] <= 0.0 <= psi(b)[1]:
            break
        width = b - a
        a -= width
        b += width
    else:
        raise NumericalFailure("could not bracket the prox optimality map")

    while b - a > 2.0 * tol:
        c = 0.5 * (a + b)
        psi_lo, psi_hi = psi(c)
        if psi_hi < 0.0:
            a = c
        elif psi_lo > 0.0:
            b = c
        else:
            return c  # 0 lies in the subgradient inclusion at c
    return 0.5 * (a + b)


def block_prox_step(
    x_hat,
    grad_block,
    alpha,
    weights,
    g: Optional[Callable[[float], float]] = None,
    g_subgrad: Optional[Callable[[float], Tuple[float, float]]] = None,
) -> np.ndarray:
    """Exact solution of one block subproblem.

    Minimizes ``<grad, x> + sum_j (x_j - x_hat_j)^2 / (2*alpha_j) + w_j g(x_j)``
    coordinate-wise for one stepsize ``alpha`` or one per coordinate: the
    prox of ``g`` with center ``x_hat_j - alpha_j*grad_j`` and weight
    ``alpha_j * w_j``, by soft threshold for ``g=None`` (``|.|``), else bisection.

    Raises ``ValueError`` on unequal lengths, a zero, negative or NaN
    stepsize and negative or NaN weights.  It does not check that ``x_hat``
    and the gradient are finite: the loop calls it on every step, with
    finite data, and checks each new iterate.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64).ravel()
    grad_block = np.asarray(grad_block, dtype=np.float64).ravel()
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if not (x_hat.shape == grad_block.shape == weights.shape):
        raise ValueError("x_hat, grad_block and weights must have equal length")
    if isinstance(alpha, float):  # every step's 1/L; np.float64 is a float
        positive = alpha > 0  # false for NaN too
    else:
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.ndim and alpha.shape != x_hat.shape:
            raise ValueError("alpha must be a scalar or one stepsize per coordinate")
        positive = alpha.min(initial=np.inf) > 0
    if not positive:
        raise ValueError("stepsize alpha must be positive")
    # one reduction rejects negative and NaN weights alike
    if weights.size and not weights.min() >= 0:
        raise ValueError("weights must be nonnegative")

    v = x_hat - alpha * grad_block
    tau = alpha * weights
    if g is None:
        return np.copysign(np.maximum(np.abs(v) - tau, 0.0), v)
    return np.array([prox_scalar_convex(vj, tj, g, g_subgrad) for vj, tj in zip(v, tau)])
