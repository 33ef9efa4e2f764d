"""Block proximal iteratively reweighted solver with extrapolation.

One iteration picks a block, forms an extrapolated point from the block's
last two values, evaluates the majorization weights at the previous
iterate, and solves the weighted proximal subproblem with stepsize
``1/(gamma * L_block)``.  A monotone safeguard redoes an iteration once
with zero momentum whenever the extrapolated step increased the objective,
which keeps the objective sequence nonincreasing.

The iteration loop here runs every algorithm of the package: this block
step, and the simultaneous and sequential steps of the baselines.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from .model import Problem, SmoothedLp, _check_point, _norm, check_field_types
from .prox import NumericalFailure, block_prox_step

__all__ = [
    "SolveStatus",
    "SolverConfig",
    "SolverState",
    "SupportReport",
    "CertificateRecord",
    "Trace",
    "choose_block",
    "extrapolation_bound",
    "fista_momentum",
    "init_state",
    "bpiree_step",
    "solve",
    "stationarity_residual",
    "descent_certificate",
]

logger = logging.getLogger("bpiree")

# Guard for relative-step denominators so the zero iterate never divides by 0.
NORM_FLOOR = 1e-12
# Long runs decay smoothing factors geometrically; float64 underflows to 0
# after ~600 shrinks, which would blow up the lp weights on coordinates that
# go to zero afterwards.  This floor is far below any numerically meaningful
# smoothing level and keeps the positivity invariant true in floats.
EPS_FLOOR = 1e-100

MOMENTUM_MODES = ("fista_capped", "fista", "bound", "none")
SCHEDULES = ("cyclic", "shuffled")

class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class SolverConfig:
    """Tuning knobs for the block solver and its relatives.

    Attributes
    ----------
    gamma : stepsize divisor, ``alpha = 1/(gamma * L_block)``; must exceed 1.
    delta : safety fraction (0, 1) inside the admissible momentum bound.
    schedule : "cyclic" or "shuffled" (seeded reshuffled cycles).
    seed : seed for the shuffled schedule.
    momentum : "fista_capped" caps the restarted FISTA value at the
        admissible bound; "fista" uses the raw FISTA value and relies on
        the safeguard; "bound" always uses the bound; "none" disables it.
    fista_restart_N : restart period of the momentum recurrence.
    mu : smoothing decay factor for the lp variant, in (0, 1).
    eps0 : initial per-coordinate smoothing factor for the lp variant.
    support_window : unchanged-sign iterations that count as a fixed support (lp).
    safeguard : redo an iteration with zero momentum if the objective rose.
    record_trace : fill the trace's columns, one row per iteration.
    record_residual : also compute the stationarity residual per iteration
        (one extra full gradient per iteration; off by default).
    check_descent : evaluate the per-iteration descent certificate.
    """

    gamma: float = 2.0
    delta: float = 0.9
    schedule: str = "cyclic"
    seed: int = 0
    max_iter: int = 100_000
    tol: float = 1e-4
    safeguard: bool = True
    momentum: str = "fista_capped"
    fista_restart_N: int = 200
    mu: float = 0.1
    eps0: float = 1.0
    support_window: int = 100
    record_trace: bool = False
    record_residual: bool = False
    check_descent: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first field of the wrong type
        (see :func:`check_field_types`) or out of range."""
        check_field_types(self)
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        for name in ("delta", "mu"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.momentum not in MOMENTUM_MODES:
            raise ValueError(f"unknown momentum mode {self.momentum!r}")
        for name in ("max_iter", "tol", "fista_restart_N", "support_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.eps0 >= EPS_FLOOR:
            raise ValueError(f"eps0 must be at least the smoothing floor {EPS_FLOOR}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class CertificateRecord:
    k: int
    holds: bool
    slack: float


@dataclass(frozen=True)
class SupportReport:
    """Sign pattern at the end of a run: ``fixed`` when it held for the last
    ``min(support_window, k)`` of ``k`` iterations, ``K_observed`` the 1-based
    iteration that started it (None for a run without iterations)."""

    fixed: bool
    K_observed: Optional[int]
    sign: Optional[np.ndarray]


# trace column names in CSV order; smoothed-lp block runs add _LP_COLUMNS
_COLUMNS = ("k", "F", "step_rel", "residual", "beta", "block", "retried", "wall_ns")
_LP_COLUMNS = ("eps_min", "eps_max", "support_size", "sign_fixed")


@dataclass
class Trace:
    """Everything a run reports besides the final iterate.

    ``columns`` maps each trace column name, in CSV order, to a list with
    one value per recorded iteration (``record_trace``).  ``step_rel`` uses
    full-vector norms; ``residual`` is NaN unless ``record_residual`` is
    on; ``beta`` is the momentum the accepted step used, ``block`` the
    block it updated (-1 for a baseline step, which moves every block),
    ``retried`` whether the safeguard redid it and ``wall_ns`` its time.  On a
    smoothed-lp block run with at least one row ``eps_min``, ``eps_max``,
    ``support_size`` and ``sign_fixed`` follow.  ``eps`` is the final
    smoothing factors of a smoothed-lp run (the baselines keep ``eps0``).
    """

    columns: Dict[str, list] = field(
        default_factory=lambda: {name: [] for name in _COLUMNS})
    certificates: List[CertificateRecord] = field(default_factory=list)
    iterations: int = 0
    support: Optional[SupportReport] = None  # smoothed-lp runs only
    eps: Optional[np.ndarray] = None

    def last(self, name: str):
        """The last row of column ``name``; NaN for a trace without rows."""
        return self.columns[name][-1] if self.columns[name] else math.nan


@dataclass
class _StepInfo:
    """What a step reports to the loop.  Only the block step certifies its
    descent (``check_descent``); the baselines leave ``certificate`` None."""

    block: int
    beta_used: float
    retried: bool
    step_rel: float
    certificate: Optional[CertificateRecord] = None


@dataclass
class SolverState:
    """Mutable iteration state.

    ``x_prev`` is the extrapolation anchor: each coordinate's value before
    its last move; only :func:`_commit` writes it and ``x``, in place.
    ``t`` is the FISTA value of the restarted momentum sequence.
    ``last_block_L`` is a copy of ``problem.lipschitz``, the blocks' fixed
    curvature constants, that only the benchmark reads; the steps read
    ``problem.lipschitz``.  ``plans`` are this solve's own block operators
    (``problem.block_plans()``), freed with the state.  ``eps``
    is present only for the smoothed-lp penalty.  On smoothed-lp problems
    the block solver also sets ``sign_run_start``, the iteration at which
    the sign pattern of ``x`` last changed (None elsewhere).

    The step reuses values it computed before instead of evaluating them
    again.  These caches hold between steps:

    * ``residual`` is the loss residual at ``x`` (``A x - b``, or
      ``A X - B``); steps replace it and never write into it;
    * ``f`` is ``loss.value_from_residual(residual)``;
    * ``block_pen[i]`` is the penalty of block ``i`` at the current ``x``
      and ``eps`` (its ``penalty.value`` on the block's entries; block
      solver only).

    A caller who edits ``x``, ``eps`` or ``residual`` must build the state
    again with :func:`init_state`.
    """

    x: np.ndarray
    F_current: float
    x_prev: Optional[np.ndarray] = None
    last_block_L: Optional[np.ndarray] = None
    plans: tuple = field(default=(), repr=False)
    k: int = 0
    eps: Optional[np.ndarray] = None
    t: float = 1.0
    sign_run_start: Optional[int] = None
    # internal caches / bookkeeping (not part of the public contract)
    residual: Optional[np.ndarray] = field(default=None, repr=False)
    f: float = math.nan
    block_pen: List[float] = field(default_factory=list, repr=False)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _cycle_permutation(seed: int, cycle: int, m: int) -> tuple:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, cycle)))
    return tuple(int(v) for v in rng.permutation(m))


def choose_block(schedule: str, k: int, m: int, seed: int = 0) -> int:
    """Block index (0-based) updated at iteration ``k`` (1-based).

    "cyclic" returns ``(k-1) mod m``; "shuffled" walks a concatenation of
    seeded uniform permutations of ``{0..m-1}``, one per cycle.  Every
    window of ``m`` (cyclic) or ``2m-1`` (shuffled) consecutive picks
    contains all blocks.
    """
    if k < 1:
        raise ValueError("iteration counter k starts at 1")
    if m < 1:
        raise ValueError("need at least one block")
    if schedule == "cyclic":
        return (k - 1) % m
    if schedule == "shuffled":
        cycle, pos = divmod(k - 1, m)
        return _cycle_permutation(seed, cycle, m)[pos]
    raise ValueError(f"unknown schedule {schedule!r}")


def extrapolation_bound(gamma: float, delta: float) -> float:
    """Largest admissible momentum for the descent estimate at divisor gamma.

    Equals ``delta * (gamma-1) / (2*(gamma+1))``; with ``gamma = 2`` that is
    ``delta / 6``.  The general bound carries a factor
    ``sqrt(L_prev / L_curr)``, which is 1 here: every loss is least
    squares, so a block's curvature constant never changes.
    """
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return delta * (gamma - 1.0) / (2.0 * (gamma + 1.0))


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


def descent_certificate(
    F_prev: float,
    F_next: float,
    L_curr: float,
    beta: float,
    step_norm: float,
    prev_step_norm: float,
    gamma: float,
    k: int = -1,
):
    """Check the per-iteration sufficient-decrease estimate.

    Verifies ``F_prev - F_next >= c1*L_curr*step_norm^2
    - c2*L_curr*beta^2*prev_step_norm^2`` with ``c1 = (gamma-1)/4`` and
    ``c2 = (gamma+1)^2/(gamma-1)`` (1/4 and 9 at gamma = 2), within an
    absolute slack of ``1e-9 * (1 + |F_prev|)``.  Returns a
    :class:`CertificateRecord` for iteration ``k``; ``slack`` is the signed
    margin.
    """
    c1 = (gamma - 1.0) / 4.0
    c2 = (gamma + 1.0) ** 2 / (gamma - 1.0)
    rhs = c1 * L_curr * step_norm**2 - c2 * L_curr * beta**2 * prev_step_norm**2
    slack = (F_prev - F_next) - rhs
    holds = slack >= -1e-9 * (1.0 + abs(F_prev))
    return CertificateRecord(k=k, holds=holds, slack=slack)


# ---------------------------------------------------------------------------
# state setup and the main iteration
# ---------------------------------------------------------------------------


def _start_state(problem: Problem, config: SolverConfig, x0) -> SolverState:
    """Check ``config`` and ``x0`` and build the state every algorithm starts
    from: a copy of ``x0`` (another as the extrapolation anchor), ``eps =
    eps0`` on smoothed-lp problems, the residual and the objective."""
    config.validate()
    x0 = np.asarray(x0, dtype=np.float64).ravel().copy()
    if x0.shape[0] != problem.loss.dim:
        raise ValueError(f"x0 has length {x0.shape[0]}, expected {problem.loss.dim}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    eps = None
    if problem.smoothed_lp:
        eps = np.full(x0.shape[0], config.eps0, dtype=np.float64)
    residual = problem.loss.residual(x0)
    f = problem.loss.value_from_residual(residual)
    return SolverState(
        x=x0,
        x_prev=x0.copy(),
        # the sum eval_objective forms, without evaluating the residual again
        F_current=f + problem.penalty.value(x0, eps),
        eps=eps,
        residual=residual,
        f=f,
    )


def init_state(problem: Problem, config: SolverConfig, x0) -> SolverState:
    """Build a consistent starting state at ``x0`` (momentum history empty)."""
    state = _start_state(problem, config, x0)
    x, eps = state.x, state.eps
    blocks = problem.partition.index
    state.last_block_L = np.array(problem.lipschitz)
    state.plans = problem.block_plans()
    state.block_pen = [
        problem.penalty.value(x[b], None if eps is None else eps[b]) for b in blocks
    ]
    if problem.smoothed_lp:
        state.sign_run_start = 1
    return state


def _commit(state: SolverState, block: int, idx, new, residual, f: float, F: float):
    """Write a step's move to ``x[idx]``, ``x_prev[idx]``, ``residual``, ``f``
    and ``k``; return its norm and relative size.  A non-finite ``F`` or
    ``new`` raises :class:`NumericalFailure` and commits nothing."""
    k = state.k + 1
    if not (math.isfinite(F) and np.isfinite(new).all()):
        raise NumericalFailure(f"non-finite result at iteration {k} (block {block}, F={F!r})")
    old = state.x[idx]  # a view for a slice index: saved before it is overwritten
    step_norm = _norm(new - old)
    step_rel = step_norm / max(_norm(state.x), NORM_FLOOR)
    state.x_prev[idx] = old
    state.x[idx] = new
    state.residual = residual
    state.f = f
    state.k = k
    return step_norm, step_rel


def _block_move(plan, x_hat, r_hat, alpha, w, penalty):
    """Every block step's prox move from ``x_hat``: the new block and the residual after it."""
    new_block = block_prox_step(x_hat, plan.grad_from_residual(r_hat), alpha, w,
                                g=penalty.g, g_subgrad=penalty.g_subgrad)
    return new_block, plan.residual_after_delta(r_hat, new_block - x_hat)


def bpiree_step(state: SolverState, problem: Problem, config: SolverConfig) -> _StepInfo:
    """Run one iteration in place and return what it did (block, momentum,
    retry flag, relative step and, with ``check_descent``, the descent
    certificate).

    Raises :class:`~bpiree.prox.NumericalFailure` if the accepted iterate
    or objective is not finite.
    """
    partition = problem.partition
    penalty = problem.penalty
    k = state.k + 1
    b = choose_block(config.schedule, k, partition.m, config.seed)
    idx = partition.index[b]
    plan = state.plans[b]

    L_curr = problem.lipschitz[b]
    alpha = 1.0 / (config.gamma * L_curr)

    # Every momentum value lies in [0, 1): the FISTA value is
    # (t - 1)/t_next and the bound is below 1/2.
    beta = 0.0
    if config.momentum in ("fista", "fista_capped"):
        beta, state.t = fista_momentum(state.t, (k - 1) % config.fista_restart_N)
    if config.momentum == "fista_capped":
        beta = min(beta, extrapolation_bound(config.gamma, config.delta))
    elif config.momentum == "bound":
        beta = extrapolation_bound(config.gamma, config.delta)
    # beta = 0 for k <= 2m, a block's first two updates (one per cycle of m
    # picks).  At the second, x_prev holds x0, a real two-point history: the
    # reference iterates pin this rule until ROADMAP item 16b settles it.
    if k <= 2 * partition.m:
        beta = 0.0

    # x_block and eps_block are views for a slice index, read before _commit
    x_block = state.x[idx]
    prev_diff = x_block - state.x_prev[idx]
    eps_block = state.eps[idx] if state.eps is not None else None
    w_block = penalty.weights(x_block, eps_block)
    pen_others = (state.F_current - state.f) - state.block_pen[b]

    def attempt(beta_try):
        if beta_try == 0.0:
            x_hat, r_hat = x_block, state.residual
        else:
            x_hat = x_block + beta_try * prev_diff
            r_hat = plan.residual_after_delta(state.residual, x_hat - x_block)
        new_block, r_new = _block_move(plan, x_hat, r_hat, alpha, w_block, penalty)
        f_new = problem.loss.value_from_residual(r_new)
        pen_block = penalty.value(new_block, eps_block)
        return new_block, r_new, f_new, pen_block, f_new + pen_others + pen_block

    new_block, r_new, f_new, pen_block, F_new = attempt(beta)
    retried = False
    # Safeguard: an increase (or a non-finite value) from an extrapolated
    # step is redone once with zero momentum and accepted.
    if config.safeguard and beta > 0.0 and not F_new <= state.F_current:
        beta = 0.0
        new_block, r_new, f_new, pen_block, F_new = attempt(beta)
        retried = True

    step_norm, step_rel = _commit(state, b, idx, new_block, r_new, f_new, F_new)
    if eps_block is not None:
        new_eps = np.maximum(
            SmoothedLp.decay_epsilon(new_block, eps_block, config.mu), EPS_FLOOR
        )
        if not (new_eps == eps_block).all():
            # shrinking eps only lowers the penalty; adjust F for the block
            pen_shrunk = penalty.value(new_block, new_eps)
            F_new += pen_shrunk - pen_block
            pen_block = pen_shrunk
        state.eps[idx] = new_eps
        # only block b moved, so only its signs can have changed
        if not (np.sign(new_block) == np.sign(state.x_prev[idx])).all():
            state.sign_run_start = k
    state.block_pen[b] = pen_block
    certificate = None
    if config.check_descent:
        certificate = descent_certificate(
            state.F_current, F_new, L_curr, beta, step_norm, _norm(prev_diff),
            config.gamma, k,
        )
    state.F_current = F_new

    return _StepInfo(block=b, beta_used=beta, retried=retried, step_rel=step_rel,
                     certificate=certificate)


# ---------------------------------------------------------------------------
# the full solve loop
# ---------------------------------------------------------------------------


def _sign_fixed(state, window: int) -> bool:
    """Whether the sign pattern of ``x`` held for the last ``min(window, k)`` iterations."""
    return state.k > 0 and state.k - state.sign_run_start + 1 >= min(window, state.k)


def _iterate(problem, config, state, step, window, callback=None):
    """The iteration loop every algorithm runs; returns ``(state, trace, status)``.

    ``step(state, problem, config)`` advances the state by one iteration
    and returns a ``_StepInfo``, or raises
    :class:`~bpiree.prox.NumericalFailure` without committing anything.
    The run converges once ``window`` consecutive iterations have a
    relative step below ``config.tol``.
    """
    trace = Trace()
    status = SolveStatus.MAX_ITER
    small_steps = 0
    lp = state.sign_run_start is not None
    names = _COLUMNS + (_LP_COLUMNS if lp else ())
    columns = [[] for _ in names]
    for _ in range(config.max_iter):
        t0 = time.perf_counter_ns() if config.record_trace else 0
        try:
            info = step(state, problem, config)
        except NumericalFailure as exc:
            logger.warning("solver stopped: %s", exc)
            status = SolveStatus.NUMERICAL_FAILURE
            break
        if config.record_trace:
            wall_ns = time.perf_counter_ns() - t0
            residual = math.nan
            if config.record_residual and problem.penalty.g is None:
                residual = stationarity_residual(problem, state.x, state.eps)
            row = (state.k, state.F_current, info.step_rel, residual, info.beta_used,
                   info.block, info.retried, wall_ns)
            if lp:
                row += (float(state.eps.min()), float(state.eps.max()),
                        int(np.count_nonzero(state.x)),
                        _sign_fixed(state, config.support_window))
            for column, value in zip(columns, row):
                column.append(value)
        if info.certificate is not None:
            trace.certificates.append(info.certificate)
        if callback is not None:
            callback(state.k, state.x)
        if state.k % 1000 == 0:
            logger.debug("iter %d block %d F=%.8e step_rel=%.3e",
                         state.k, info.block, state.F_current, info.step_rel)
        if info.step_rel < config.tol:
            small_steps += 1
            if small_steps >= window:
                status = SolveStatus.CONVERGED
                break
        else:
            small_steps = 0
    if columns[0]:  # a trace without rows keeps the empty base columns
        trace.columns = dict(zip(names, columns))
    trace.iterations = state.k
    trace.eps = state.eps
    if lp:
        trace.support = SupportReport(
            fixed=_sign_fixed(state, config.support_window),
            K_observed=state.sign_run_start if state.k > 0 else None,
            sign=np.sign(state.x).astype(np.int8),
        )
    return state, trace, status


def solve_state(problem: Problem, config: SolverConfig, x0, callback=None):
    """Like :func:`solve` but returns the final state instead of the iterate."""
    state = init_state(problem, config, x0)
    # Stopping: the relative-step criterion must hold on a full window of
    # consecutive iterations (m cyclic, 2m-1 shuffled), so every block's
    # latest update was small.  A single small block update is not
    # evidence of joint convergence; with one block this reduces to the
    # plain per-iteration criterion.
    m = problem.partition.m
    window = m if config.schedule == "cyclic" else 2 * m - 1
    return _iterate(problem, config, state, bpiree_step, window, callback)


def solve(problem: Problem, config: SolverConfig, x0, callback=None):
    """Minimize ``F`` from ``x0``; returns ``(x_final, trace, status)``.

    Iterates :func:`bpiree_step` until the relative step
    ``||x^k - x^{k-1}|| / max(||x^{k-1}||, 1e-12)`` stays below
    ``config.tol`` for a full schedule window of consecutive iterations
    (every block's latest update was small), or ``max_iter`` is reached.
    Numeric breakdown is reported through the status rather than raised.
    ``callback(k, x)``, when given, runs after every accepted iteration.
    """
    state, trace, status = solve_state(problem, config, x0, callback=callback)
    return state.x, trace, status


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def stationarity_residual(problem: Problem, x, eps=None) -> float:
    """Exact distance from 0 to the objective's subdifferential at ``x``.

    Only available for the absolute-value ``g``.  The weights
    ``w_j = lam * h'(|x_j|)`` come from the penalty at ``x``; the smoothed
    lp penalty needs its smoothing factors ``eps``.  ``x`` and ``eps`` are
    checked as :func:`~bpiree.model.eval_objective` checks them.
    Coordinate-wise the residual is ``grad_j + w_j * sign(x_j)`` on the
    support and ``max(|grad_j| - w_j, 0)`` at zeros.
    """
    if problem.penalty.g is not None:
        raise NotImplementedError(
            "stationarity residual is only defined for the absolute-value g"
        )
    x = _check_point(problem.loss, problem.penalty, x, eps)
    weights = problem.penalty.weights(x, eps)
    grad = problem.loss.grad(x)
    r = np.where(
        x != 0.0,
        grad + weights * np.sign(x),
        np.maximum(np.abs(grad) - weights, 0.0),
    )
    return float(np.linalg.norm(r))
