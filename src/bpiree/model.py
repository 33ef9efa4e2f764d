"""Problem model: block partitions, smooth losses, and separable penalties.

The solvers in this package minimize

    F(x) = f(x) + lam * sum_j h(g(x_j)),

where ``f`` is a smooth loss with a Lipschitz-continuous gradient on each
block of coordinates, ``g`` is a scalar nonnegative convex map (absolute
value unless stated otherwise) and ``h`` is a concave increasing map with
``h'(t) > 0``.  All index sets are 0-based; a block partition splits
``{0, ..., n-1}`` into disjoint nonempty groups that are updated one at a
time.

Every penalty gives the solvers ``weights(x, eps=None)`` (``lam * h'(g(x_j))``
per coordinate), ``value(x, eps=None)``, and ``g`` and ``g_subgrad`` for the
prox (``None`` means the absolute value).  Only :class:`SmoothedLp` reads
``eps``, its per-coordinate smoothing factors, and it requires them.
"""

from __future__ import annotations

import functools
import inspect
import logging
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .prox import NumericalFailure

__all__ = [
    "BlockPartition",
    "PartitionReport",
    "validate_partition",
    "LeastSquares",
    "MatrixLeastSquares",
    "LogPenalty",
    "SmoothedLp",
    "CustomPenalty",
    "Problem",
    "check_field_types",
    "from_json",
    "eval_objective",
    "spectral_norm_sq",
]

logger = logging.getLogger("bpiree")

# Floor applied to estimated block curvature constants so that stepsizes
# 1/(gamma*L) stay finite for degenerate (all-zero) submatrices.
LIPSCHITZ_FLOOR = 1e-12
# Safety factor compensating for power iteration converging from below.
LIPSCHITZ_SAFETY = 1.01
# Power iteration: relative tolerance on the estimate, and iteration cap.
POWER_ITER_TOL = 1e-8
POWER_ITER_MAX = 500


# ---------------------------------------------------------------------------
# block partitions
# ---------------------------------------------------------------------------


def _block_indices(block) -> np.ndarray:
    """``block`` as a flat index array.  A nonempty block must hold integers:
    a float would be truncated, a bool read as index 0 or 1."""
    idx = np.asarray(block)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"block indices must be integers, got {idx.dtype}")
    return idx.astype(np.intp, copy=False).ravel()


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Ordered disjoint index blocks covering ``{0, ..., n-1}``.

    Parameters
    ----------
    blocks : tuple of int arrays
        One array of coordinate indices per block, 0-based.
    n : int
        Total number of coordinates.
    """

    blocks: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(map(_block_indices, self.blocks)))

    @property
    def m(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @functools.cached_property
    def index(self) -> tuple:
        """Per block, what the solvers index with: a basic slice for a
        contiguous ascending range (so reading the block gives a view), the
        block's index array otherwise."""
        return tuple(_as_index(b) for b in self.blocks)

    @staticmethod
    def contiguous(n: int, m: int) -> "BlockPartition":
        """Split ``{0..n-1}`` into ``m`` contiguous ranges whose sizes differ by at most 1."""
        if not (1 <= m <= n):
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        bounds = np.linspace(0, n, m + 1).round().astype(np.intp)
        blocks = tuple(np.arange(bounds[i], bounds[i + 1]) for i in range(m))
        return BlockPartition(blocks=blocks, n=n)


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of :func:`validate_partition`; ``index`` is the first offender."""

    ok: bool
    message: Optional[str] = None
    index: Optional[int] = None


def validate_partition(partition: BlockPartition) -> PartitionReport:
    """Check disjointness and exact coverage of a block partition.

    Returns an ``ok`` report when the blocks are nonempty, pairwise
    disjoint and their union is ``{0, ..., n-1}``; otherwise the report
    names the first offence met walking the blocks in order: an empty
    block, an index outside the range or a repeated index, and last an
    uncovered index.
    """
    n = partition.n
    if partition.m < 1:
        return PartitionReport(False, "partition has no blocks", None)
    flat = np.concatenate(partition.blocks)
    # a stable sort keeps equal indices in block order: all but the first repeat
    order = np.argsort(flat, kind="stable")
    repeated = np.zeros(flat.size, dtype=bool)
    repeated[order[1:]] = flat[order[1:]] == flat[order[:-1]]
    offenders = np.flatnonzero((flat < 0) | (flat >= n) | repeated)
    first = offenders[0] if offenders.size else flat.size
    # an empty block is met before every index of the blocks after it
    sizes = np.array([block.size for block in partition.blocks])
    empty = np.flatnonzero((sizes == 0) & (np.cumsum(sizes) <= first))
    if empty.size:
        return PartitionReport(False, f"block {empty[0]} is empty", None)
    if offenders.size:
        # the first copy of an out-of-range index is an offender itself
        j = int(flat[first])
        what = "duplicated" if repeated[first] else f"outside range 0..{n - 1}"
        return PartitionReport(False, f"index {j} {what}", j)
    if flat.size < n:  # the indices are in range and distinct
        j = int(np.flatnonzero(np.bincount(flat, minlength=n) == 0)[0])
        return PartitionReport(False, f"index {j} uncovered", j)
    return PartitionReport(True)


# ---------------------------------------------------------------------------
# spectral norm estimation
# ---------------------------------------------------------------------------


def _norm(v) -> float:
    # np.linalg.norm of a 1-d float64 array (the same dot and sqrt), minus its dispatch
    return math.sqrt(v.dot(v))


def spectral_norm_sq(M: np.ndarray) -> float:
    """Squared spectral norm of ``M`` by power iteration on ``M^T M``.

    Deterministic (fixed seeded start vector).  Converges from below, so
    callers that need an upper bound should apply a safety factor.  Stopping
    at ``POWER_ITER_MAX`` iterations without meeting ``POWER_ITER_TOL``
    logs a warning on the ``bpiree`` logger.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return 0.0
    k = M.shape[1]
    v = np.random.default_rng(0).standard_normal(k)
    v /= _norm(v)
    lam = prev = 0.0
    for _ in range(POWER_ITER_MAX):
        w = M @ v
        u = M.T @ w
        lam_new = float(v @ u)
        nu = _norm(u)
        if nu == 0.0:
            return 0.0
        v = u / nu
        if abs(lam_new - lam) <= POWER_ITER_TOL * max(abs(lam_new), 1.0):
            return lam_new
        prev, lam = lam, lam_new
    logger.warning("power iteration on a %dx%d operator stopped at %d iterations, "
                   "last relative change %.3g", *M.shape, POWER_ITER_MAX,
                   abs(lam - prev) / max(abs(lam), 1.0))
    return lam


# ---------------------------------------------------------------------------
# smooth losses
# ---------------------------------------------------------------------------


def _as_index(idx: np.ndarray):
    """``slice(i, i + len(idx))`` when the nonempty ``idx`` is the range
    ``i, i+1, ...``; ``idx`` itself otherwise.  Both select the same
    entries, but a slice reads as a view and skips the gather."""
    start = int(idx[0])
    if np.array_equal(idx, np.arange(start, start + idx.size)):
        return slice(start, start + idx.size)
    return idx


def _check_finite(name: str, M: np.ndarray) -> None:
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")


def _lipschitz_bound(norm_sq: float) -> float:
    """Block Lipschitz constant from a squared spectral norm estimate; a
    non-finite one (the power iteration overflows on entries near 1e155)
    gives no stepsize and raises :class:`~bpiree.prox.NumericalFailure`."""
    L = max(norm_sq * LIPSCHITZ_SAFETY, LIPSCHITZ_FLOOR)
    if not math.isfinite(L):
        raise NumericalFailure(f"block Lipschitz estimate is not finite ({norm_sq!r})")
    return L


class _BlockPlan:
    """The operator of a least-squares block.  ``groups`` holds, for each
    residual column the block touches, the column, the block's positions in
    it in block order and the C-contiguous ``A[:, rows]`` acting on them.
    A vector loss's block has one group, the whole residual, in block order."""

    def __init__(self, groups):
        self.groups = groups
        # each group's positions as a slice where they can be
        self._parts = [(col, _as_index(pos), A_sub) for col, pos, A_sub in groups]
        self._size = sum(pos.size for _, pos, _ in groups)

    def grad_from_residual(self, r):
        if r.ndim == 1:  # a vector loss's residual: the one group's product is the gradient
            return self.groups[0][2].T @ r
        out = np.empty(self._size)
        for col, pos, A_sub in self._parts:
            out[pos] = A_sub.T @ r[:, col]
        return out

    def residual_after_delta(self, r, delta):
        if r.ndim == 1:
            return r + self.groups[0][2] @ delta
        r = r.copy()
        for col, pos, A_sub in self._parts:
            r[:, col] += A_sub @ delta[pos]
        return r


class _LinearLoss:
    """What both least-squares losses share about their operator ``A``."""

    @functools.cached_property
    def A_norm_sq(self) -> float:
        """``spectral_norm_sq(A)``, estimated once per loss."""
        return spectral_norm_sq(self.A)

    def block_plan(self, idx):
        """Plan of block ``idx``; rejects an empty, out-of-range or repeated index."""
        return self._plan(_check_block_indices(idx, self.dim))

    def block_lipschitz(self, idx) -> float:
        """Upper bound on the Lipschitz constant of the gradient block ``idx``:
        the squared spectral norm of the block operator (power iteration to a
        relative change of ``POWER_ITER_TOL``, at most ``POWER_ITER_MAX``
        iterations) times ``LIPSCHITZ_SAFETY``, floored at 1e-12."""
        return self._lipschitz(_check_block_indices(idx, self.dim))

    def _lipschitz(self, idx) -> float:
        # the operator is block diagonal across groups: its largest group
        # norm; a group over all of A is a view of it and reuses A's estimate
        A = self.A
        norm_sq = max(self.A_norm_sq if A_sub.shape == A.shape and np.may_share_memory(A_sub, A)
                      else spectral_norm_sq(A_sub) for _, _, A_sub in self._plan(idx).groups)
        return _lipschitz_bound(norm_sq)

    def _plan(self, idx) -> _BlockPlan:
        # flat index j*q + i is row i of residual column j; one stable sort
        # groups the block by column and keeps each group in block order
        q = self.A.shape[1]
        cols = idx // q
        order = np.argsort(cols, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(cols[order])) + 1).tolist(), idx.size]
        groups = []
        for lo, hi in zip(cuts, cuts[1:]):
            pos = order[lo:hi]
            col = int(cols[pos[0]])
            # rows 0..q-1 in order slice all of A, a view (A is C-ordered);
            # other rows are copied, as a strided view is slower per matvec
            rows = _as_index(idx[pos] - col * q)
            groups.append((col, pos, np.ascontiguousarray(self.A[:, rows])))
        return _BlockPlan(groups)

    def _checked_A(self, A, target: np.ndarray, name: str) -> np.ndarray:
        """``A`` as C-ordered float64 (copied once if not), checked: a 2-d
        matrix with the rows of ``target`` (float64, named ``name``), both
        finite, and a finite loss at 0, where every solve starts."""
        A = np.ascontiguousarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d matrix")
        if target.shape[0] != A.shape[0]:
            raise ValueError(f"{name} has {target.shape[0]} rows but A has {A.shape[0]}")
        _check_finite("A", A)
        _check_finite(name, target)
        with np.errstate(over="ignore"):
            if not math.isfinite(self.value_from_residual(target)):
                norm = f"||{name}||_F" if target.ndim == 2 else f"||{name}||"
                raise ValueError(f"{name} is too large: 0.5*{norm}^2 overflows")
        return A

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self.dim:
            raise ValueError(f"x has length {x.shape[0]}, expected {self.dim}")
        return x

    def value(self, x) -> float:
        return self.value_from_residual(self.residual(x))

    def grad(self, x) -> np.ndarray:
        return self.grad_from_residual(self.residual(x))

    def block_grad(self, x, idx) -> np.ndarray:
        """Entries ``idx`` of the full gradient: no block operator computes it."""
        idx = _check_block_indices(idx, self.dim)
        return self.grad(x)[idx]


class LeastSquares(_LinearLoss):
    """Smooth loss ``f(x) = 0.5 * ||A x - b||^2``.

    ``A`` has shape ``(n_obs, dim)`` and ``b`` length ``n_obs``; the
    optimization variable lives in ``R^dim``.  Block gradients are the rows
    of ``A^T (A x - b)`` restricted to the block, and block curvature
    constants are squared spectral norms of column submatrices.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.b = np.asarray(b, dtype=np.float64).ravel()
        self.A = self._checked_A(A, self.b, "b")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def residual(self, x) -> np.ndarray:
        x = self._check_x(x)
        return self.A @ x - self.b

    def value_from_residual(self, r) -> float:
        return 0.5 * float(np.vdot(r, r).real)

    def grad_from_residual(self, r) -> np.ndarray:
        return self.A.T @ r


class MatrixLeastSquares(_LinearLoss):
    """Smooth loss ``f(X) = 0.5 * ||A X - B||_F^2`` over a flattened variable.

    ``X`` (shape ``(q, t)``) is handled as a length ``q*t`` vector in
    column-major order, so existing vector solvers apply unchanged and
    blocks are plain index sets over the flattened coordinates.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray):
        self.B = np.asarray(B, dtype=np.float64)
        if self.B.ndim != 2:
            raise ValueError("B must be a 2-d matrix")
        self.A = self._checked_A(A, self.B, "B")
        self.q = self.A.shape[1]
        self.t = self.B.shape[1]

    @property
    def dim(self) -> int:
        return self.q * self.t

    def residual(self, x) -> np.ndarray:
        return self.A @ self._check_x(x).reshape(self.q, self.t, order="F") - self.B

    def value_from_residual(self, r) -> float:
        return 0.5 * float((r * r).sum())

    def grad_from_residual(self, r) -> np.ndarray:
        return (self.A.T @ r).ravel(order="F")


def _check_block_indices(idx, dim: int) -> np.ndarray:
    idx = _block_indices(idx)
    if idx.size == 0:
        raise ValueError("block is empty")
    ordered = np.sort(idx)
    if ordered[0] < 0 or ordered[-1] >= dim:
        raise ValueError(f"block indices must lie in 0..{dim - 1}")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("block contains duplicate indices")
    return idx


# ---------------------------------------------------------------------------
# penalties
# ---------------------------------------------------------------------------


# dataclass field annotation -> (what the value must be, the test of it); the
# float test compares, as math.isfinite raises on ints too large for a float
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a finite number", lambda v: isinstance(v, numbers.Real)
              and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "Optional[str]": ("a string", lambda v: v is None or isinstance(v, str)),
}


def check_field_types(obj, values=None) -> None:
    """Raise ``ValueError`` naming the first field of dataclass ``obj``
    whose value (its entry in the dict ``values``, if given) does not fit
    its annotation: ``int`` takes integers but not bools, ``float`` finite
    reals but not bools, ``bool`` and ``str`` exactly that type,
    ``Optional[str]`` None or a string.  Fields of other annotations, and
    fields ``values`` lacks, are not checked."""
    values = vars(obj) if values is None else values
    for f in fields(obj):
        what, fits = _FIELD_TYPES.get(getattr(f.type, "__name__", f.type), (None, None))
        if fits is not None and f.name in values and not fits(values[f.name]):
            raise ValueError(f"{f.name} must be {what}, got {values[f.name]!r}")


def from_json(cls, value, what: str = "", base=None):
    """The dataclass ``cls`` (its keys replacing the fields of ``base``, if
    given) that the JSON object ``value`` describes.  Raises ``ValueError``
    naming ``what`` for a non-object, an unknown key or, without ``base``, a
    missing required key; ``cls`` checks the values itself."""
    name = f"{what} " if what else ""
    if not isinstance(value, dict):
        raise ValueError(f"{name}must be an object, got {value!r}")
    params = inspect.signature(cls).parameters
    unknown = sorted(set(value) - set(params))
    if unknown:
        raise ValueError(f"unknown {name}field {unknown[0]!r}")
    if base is not None:
        return replace(base, **value)
    for key, param in params.items():
        if param.default is param.empty and key not in value:
            raise ValueError(f"{name}field {key!r} is required")
    return cls(**value)


@dataclass(frozen=True)
class LogPenalty:
    """Log penalty ``h(t) = log(t + eps_bar) - log(eps_bar)`` with ``g = |.|``.

    The ``- log(eps_bar)`` shift anchors ``h(0) = 0`` so the objective at
    the origin is exactly the data-fit term; it does not alter iterates.
    """

    lam: float
    eps_bar: float
    g = None
    g_subgrad = None

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")
        if not 0 < self.eps_bar < np.inf:
            raise ValueError("eps_bar must be finite and positive")
        if not math.isfinite(self.lam / self.eps_bar):  # the weight at 0
            raise ValueError("lam / eps_bar overflows: eps_bar is too small")

    @functools.cached_property
    def _log_eps_bar(self):
        return np.log(self.eps_bar)

    def h_prime(self, t):
        return 1.0 / (np.asarray(t) + self.eps_bar)

    def weights(self, x, eps=None) -> np.ndarray:
        """Majorization weights ``lam * h'(|x_j|)`` at the current point."""
        return self.lam / (np.abs(x) + self.eps_bar)

    def value(self, x, eps=None) -> float:
        """``lam * sum_j h(|x_j|)``."""
        return self.lam * float((np.log(np.abs(x) + self.eps_bar) - self._log_eps_bar).sum())


def _smoothing_factors(eps) -> np.ndarray:
    """``eps`` as float64; raises ``ValueError`` unless it is given, finite and positive."""
    if eps is None:
        raise ValueError("SmoothedLp penalty requires smoothing factors")
    eps = np.asarray(eps, dtype=np.float64)
    # min and max propagate NaN, so these two reductions reject it too
    if eps.size and not 0.0 < eps.min() <= eps.max() < np.inf:
        raise ValueError("smoothing factors must be finite and positive")
    return eps


@dataclass(frozen=True)
class SmoothedLp:
    """Smoothed lp penalty ``h(t; e) = (t + e^2)^p`` with ``g = |.|``, 0 < p < 1.

    The per-coordinate smoothing factors ``e`` live in the solver state,
    not here, and shrink by ``sqrt(mu)`` whenever the coordinate lands on a
    nonzero value.
    """

    lam: float
    p: float
    g = None
    g_subgrad = None

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")

    def weights(self, x, eps=None) -> np.ndarray:
        """Majorization weights ``lam * p * (|x_j| + eps_j^2)^(p-1)``."""
        eps = _smoothing_factors(eps)
        return self.lam * self.p * (np.abs(x) + eps**2) ** (self.p - 1.0)

    def value(self, x, eps=None) -> float:
        if eps is None:
            raise ValueError("SmoothedLp penalty requires smoothing factors")
        return self.lam * float(((np.abs(x) + np.asarray(eps) ** 2) ** self.p).sum())

    @staticmethod
    def decay_epsilon(x_new, eps, mu: float) -> np.ndarray:
        """Keep eps where the new coordinate is 0, shrink by sqrt(mu) elsewhere."""
        if not 0.0 < mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        x_new = np.asarray(x_new)
        eps = np.asarray(eps, dtype=np.float64)
        return np.where(x_new == 0.0, eps, np.sqrt(mu) * eps)


@dataclass(frozen=True)
class CustomPenalty:
    """User-supplied scalar pair ``(h, g)`` with derivative ``h'``.

    ``g`` defaults to the absolute value.  When a different convex ``g`` is
    supplied, ``g_subgrad(x) -> (lo, hi)`` should return its subgradient
    interval; a symmetric finite-difference fallback is used otherwise and
    the proximal subproblems are solved by bisection.
    """

    lam: float
    h: Callable[[float], float]
    h_prime: Callable[[float], float]
    g: Optional[Callable[[float], float]] = None
    g_subgrad: Optional[Callable[[float], tuple]] = None

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")

    def _g(self, u):
        return abs(u) if self.g is None else self.g(u)

    def weights(self, x, eps=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.array([self.lam * self.h_prime(self._g(float(u))) for u in x])

    def value(self, x, eps=None) -> float:
        x = np.asarray(x, dtype=np.float64)
        return self.lam * float(sum(self.h(self._g(float(u))) for u in x))


# ---------------------------------------------------------------------------
# assembled problems and the public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Problem:
    """Immutable bundle of loss, penalty and block partition.

    Safe to share across concurrent solver runs; all solver operations
    treat it as read-only.  The problem keeps only the blocks' Lipschitz
    bounds (:attr:`lipschitz`, estimated on first use), and is their only
    home.  Each solve builds its own block operators with
    :meth:`block_plans`, which carry no bound, and frees them when it
    returns, so a problem never pins copies of ``A``'s columns.
    """

    loss: object
    penalty: object
    partition: BlockPartition

    def __post_init__(self):
        report = validate_partition(self.partition)
        if not report.ok:
            raise ValueError(f"invalid partition: {report.message}")
        if self.partition.n != self.loss.dim:
            raise ValueError(
                f"partition covers {self.partition.n} coordinates but the "
                f"loss has dimension {self.loss.dim}"
            )

    @property
    def smoothed_lp(self) -> bool:
        return isinstance(self.penalty, SmoothedLp)

    @functools.cached_property
    def lipschitz(self) -> tuple:
        """Each block's Lipschitz bound, in partition order, estimated once
        per problem; each block's operator is built for it and dropped."""
        return tuple(map(self.loss._lipschitz, self.partition.blocks))

    @functools.cached_property
    def coupling(self) -> tuple:
        """Each block's coupling number c_b, in partition order: the largest
        number of blocks that touch one of its residual columns (flat index
        ``j*q + i`` lies in column ``j``; a vector loss has one).  When every
        c_b is 1, no two blocks share a residual entry."""
        q = self.loss.A.shape[1]
        cols = [np.unique(block // q) for block in self.partition.blocks]
        touching = np.bincount(np.concatenate(cols))
        return tuple(int(touching[c].max()) for c in cols)

    def block_plans(self) -> tuple:
        """Fresh block plans (operators, without bounds), from the partition
        :meth:`__post_init__` validated; the caller owns them."""
        return tuple(map(self.loss._plan, self.partition.blocks))


def eval_objective(loss, penalty, x, eps=None) -> float:
    """Full objective ``f(x) + lam * sum_j h(g(x_j))``.

    For the SmoothedLp penalty the smoothing vector ``eps`` is required,
    finite and positive, and the penalty reads ``lam * sum_j (|x_j| + eps_j^2)^p``.
    """
    x = _check_point(loss, penalty, x, eps)
    return loss.value(x) + penalty.value(x, eps)


def _check_point(loss, penalty, x, eps) -> np.ndarray:
    """``x`` as a flat float64 vector; raises ``ValueError`` unless it has the
    loss's length and ``eps`` fits the penalty: for SmoothedLp given, finite,
    positive and one per coordinate, for any other penalty absent."""
    x = loss._check_x(x)
    if isinstance(penalty, SmoothedLp):
        if _smoothing_factors(eps).ravel().shape[0] != x.shape[0]:
            raise ValueError("eps must have the same length as x")
    elif eps is not None:
        raise ValueError("smoothing factors only apply to the SmoothedLp penalty")
    return x
