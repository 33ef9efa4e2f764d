"""Synthetic benchmarks: data generation, metrics and the comparison harness.

Two problem families are covered, both planted sparse recovery tasks:

* ``log_ls`` - least squares with the log penalty on a Gaussian sensing
  matrix (unit column norms), optionally replaced by an ill-conditioned
  matrix with prescribed singular values.
* ``matrix_lp`` - matrix least squares with the smoothed lp penalty; the
  flattened variable is split into contiguous blocks.

All randomness flows from one integer seed through numpy's PCG64
generator, so regeneration is bit-exact.  Desk-scale defaults keep the
full suite under a minute; paper-scale dimensions sit behind ``scale``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from dataclasses import InitVar, dataclass, field
from typing import List, Optional

import numpy as np

from . import baselines
from .lp import solve_lp
from .model import (
    BlockPartition,
    LeastSquares,
    LogPenalty,
    MatrixLeastSquares,
    Problem,
    SmoothedLp,
)
from .solver import SolveStatus, SolverConfig, solve

__all__ = [
    "ExperimentSpec",
    "SolverEntry",
    "desk_spec",
    "gen_gaussian_sensing",
    "gen_illconditioned",
    "gen_matrix_problem",
    "build_problem",
    "rel_err",
    "SolverResult",
    "ComparisonReport",
    "run_comparison",
    "ALGORITHMS",
]

logger = logging.getLogger("bpiree")

EXAMPLES = ("log_ls", "matrix_lp")
CONDITIONINGS = ("well", "ill")

SCALE_PRESETS = {
    "log_ls": {
        "desk": dict(n=100, q=300, sparsity=5),
        "paper": dict(n=1000, q=3000, sparsity=50),
    },
    "matrix_lp": {
        "desk": dict(n=50, q=100, t=10, m=5),
        "paper": dict(n=100, q=500, t=50, m=10),
    },
}

SOLVER_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}

DEFAULT_SOLVERS = {
    "log_ls": ("bpiree", "irl1e1", "irl1"),
    "matrix_lp": ("bpiree-lp", "pire-au", "pire-ps"),
}


@dataclass
class SolverEntry:
    """One solver row of a comparison: algorithm name plus config overrides."""

    algo: str
    label: Optional[str] = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if self.label is None:
            self.label = self.algo


@dataclass
class ExperimentSpec:
    """Fully-seeded description of one synthetic benchmark run.

    ``solver_defaults`` (not stored) are solver config values for every
    row, the default rows included; a row's own ``config`` wins.  They are
    merged into the rows' configs, and every row's config is checked here.
    """

    example: str
    n: int
    q: int
    t: int = 1
    m: int = 1
    sparsity: float = 0.02
    noise_scale: float = 0.001
    conditioning: str = "well"
    seed: int = 0
    lam: float = 5e-4
    eps_bar: float = 0.1
    p: float = 0.1
    mu: float = 0.1
    solvers: List[SolverEntry] = field(default_factory=list)
    solver_defaults: InitVar[Optional[dict]] = None

    def __post_init__(self, solver_defaults):
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        if self.conditioning not in CONDITIONINGS:
            raise ValueError(f"unknown conditioning {self.conditioning!r}")
        if min(self.n, self.q, self.t, self.m) < 1:
            raise ValueError("dimensions must be positive")
        if self.nnz() >= self.q:
            raise ValueError("sparsity must be less than q")
        self.solvers = [
            s if isinstance(s, SolverEntry) else SolverEntry(**s) for s in self.solvers
        ]
        if not self.solvers:
            self.solvers = [SolverEntry(algo=a) for a in DEFAULT_SOLVERS[self.example]]
        if solver_defaults:
            self.solvers = [
                dataclasses.replace(e, config={**solver_defaults, **e.config})
                for e in self.solvers
            ]
        if self.example != "matrix_lp" and any(e.algo == "bpiree-lp" for e in self.solvers):
            raise ValueError("bpiree-lp requires example 'matrix_lp'")
        labels = [e.label for e in self.solvers]
        if len(set(labels)) != len(labels):
            raise ValueError("solver labels must be unique; set 'label' per entry")
        for entry in self.solvers:
            unknown = set(entry.config) - SOLVER_FIELDS
            try:
                if unknown:
                    raise ValueError(f"unknown config field {sorted(unknown)[0]!r}")
                make_solver_config(self, entry).validate()
            except (TypeError, ValueError) as exc:
                raise ValueError(f"solver {entry.label!r}: {exc}") from None

    def nnz(self) -> int:
        """Planted nonzeros (per column for the matrix example)."""
        if isinstance(self.sparsity, float) and self.sparsity < 1:
            return max(1, round(self.sparsity * self.q))
        return int(self.sparsity)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d


def desk_spec(example: str, seed: int = 0, **overrides) -> ExperimentSpec:
    """Desk-scale spec for an example, with optional field overrides."""
    base = dict(SCALE_PRESETS[example]["desk"])
    if example == "matrix_lp":
        base.update(lam=0.015, p=0.1, mu=0.1)
    base.update(overrides)
    return ExperimentSpec(example=example, seed=seed, **base)


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def _plant_sparse(rng, q: int, nnz: int) -> np.ndarray:
    x = np.zeros(q)
    support = rng.choice(q, size=nnz, replace=False)
    x[support] = rng.standard_normal(nnz)
    return x


def gen_gaussian_sensing(spec: ExperimentSpec):
    """Planted sparse sensing instance ``b = A x* + noise_scale * e``.

    ``A`` has i.i.d. standard normal entries with columns rescaled to unit
    Euclidean norm; ``x*`` has exactly ``spec.nnz()`` standard normal
    nonzeros at uniformly random positions.
    """
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.n, spec.q))
    A /= np.linalg.norm(A, axis=0)
    x_true = _plant_sparse(rng, spec.q, spec.nnz())
    b = A @ x_true + spec.noise_scale * rng.standard_normal(spec.n)
    return A, b, x_true


def gen_illconditioned(spec: ExperimentSpec) -> np.ndarray:
    """Sensing matrix ``U diag(sigma) V^T`` with ``sigma_i = 1e-4 + (i-1)/10``.

    ``U`` (n x n) and ``V`` (q x n) come from QR orthonormalization of
    seeded Gaussian matrices; requires ``n <= q``.
    """
    if spec.n > spec.q:
        raise ValueError("ill-conditioned generator requires n <= q")
    rng = np.random.default_rng(spec.seed)
    sigma = 1e-4 + np.arange(spec.n) / 10.0
    U, _ = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))
    V, _ = np.linalg.qr(rng.standard_normal((spec.q, spec.n)))
    return U @ (sigma[:, None] * V.T)


def gen_matrix_problem(spec: ExperimentSpec):
    """Matrix sensing instance ``B = A X* + noise_scale * E`` plus block partition.

    Each column of ``X*`` carries ``spec.nnz()`` planted nonzeros; the
    partition splits the ``q*t`` flattened (column-major) coordinates into
    ``m`` contiguous, nearly equal ranges.
    """
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.n, spec.q))
    A /= np.linalg.norm(A, axis=0)
    nnz = spec.nnz()
    X_true = np.zeros((spec.q, spec.t))
    for j in range(spec.t):
        support = rng.choice(spec.q, size=nnz, replace=False)
        X_true[support, j] = rng.standard_normal(nnz)
    B = A @ X_true + spec.noise_scale * rng.standard_normal((spec.n, spec.t))
    partition = BlockPartition.contiguous(spec.q * spec.t, spec.m)
    return A, B, X_true, partition


def build_problem(spec: ExperimentSpec):
    """Materialize (Problem, x_true) for a spec; x_true is flattened column-major."""
    if spec.example == "log_ls":
        if spec.conditioning == "ill":
            A = gen_illconditioned(spec)
            rng = np.random.default_rng(spec.seed + 1)
            x_true = _plant_sparse(rng, spec.q, spec.nnz())
            b = A @ x_true + spec.noise_scale * rng.standard_normal(spec.n)
        else:
            A, b, x_true = gen_gaussian_sensing(spec)
        loss = LeastSquares(A, b)
        penalty = LogPenalty(lam=spec.lam, eps_bar=spec.eps_bar)
        partition = BlockPartition.contiguous(spec.q, spec.m)
        return Problem(loss, penalty, partition), x_true
    A, B, X_true, partition = gen_matrix_problem(spec)
    loss = MatrixLeastSquares(A, B)
    penalty = SmoothedLp(lam=spec.lam, p=spec.p)
    return Problem(loss, penalty, partition), X_true.ravel(order="F")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def rel_err(x, ref) -> float:
    """Relative error ``||x - ref|| / ||x||`` (Frobenius for matrices).

    Note the denominator is the *iterate* norm; returns ``inf`` when the
    iterate vanishes.
    """
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    denom = float(np.linalg.norm(x))
    if denom == 0.0:
        return math.inf
    return float(np.linalg.norm(x - ref)) / denom


# ---------------------------------------------------------------------------
# the comparison harness
# ---------------------------------------------------------------------------

# Benchmark defaults for the block solvers: raw restarted momentum guarded
# by the monotone safeguard.
_BPIREE_HARNESS_DEFAULTS = dict(momentum="fista", record_trace=True)
_BASELINE_HARNESS_DEFAULTS = dict(record_trace=True)


ALGORITHMS = {
    "bpiree": solve,
    "bpiree-lp": solve_lp,
    "pire": baselines.pire_solve,
    "pire-ps": baselines.pire_ps_solve,
    "pire-au": baselines.pire_au_solve,
    "irl1": baselines.irl1_solve,
    "irl1e1": baselines.irl1e1_solve,
}


def make_solver_config(spec: ExperimentSpec, entry: SolverEntry) -> SolverConfig:
    """Solver config for one comparison row: spec seed and harness
    defaults, overridden by the row's config."""
    base = dict(seed=spec.seed, mu=spec.mu, tol=1e-4)
    if entry.algo.startswith("bpiree"):
        base.update(_BPIREE_HARNESS_DEFAULTS)
    else:
        base.update(_BASELINE_HARNESS_DEFAULTS)
    base.update(entry.config)
    return SolverConfig(**base)


def run_algorithm(algo: str, problem: Problem, config: SolverConfig, x0, callback=None):
    """Uniform runner: returns ``(x, trace, status)`` for any algorithm name."""
    result = ALGORITHMS[algo](problem, config, x0, callback=callback)
    if algo == "bpiree-lp":
        x, _eps, trace, status = result
        return x, trace, status
    return result


@dataclass
class SolverResult:
    label: str
    algo: str
    iterations: int
    status: str
    F_final: float
    rel_err_true: float
    rel_err_ref: float
    wall_time_s: float


@dataclass
class ComparisonReport:
    """Per-solver outcomes on one shared instance plus convergence curves.

    ``curves[label]["f_gap"]`` is ``|F(x^k) - F(x_ref)|`` and
    ``curves[label]["x_rel"]`` is ``||x^k - x_ref|| / ||x_ref||``, both
    against the reference solver's final iterate.  Wall times live only in
    the object and the text table; the JSON form omits them so identical
    seeds produce byte-identical files.
    """

    spec: dict
    reference: str
    results: List[SolverResult]
    curves: dict

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.results:
            d = dataclasses.asdict(r)
            d.pop("wall_time_s")
            rows.append(d)
        return {
            "spec": self.spec,
            "reference": self.reference,
            "results": rows,
            "curves": self.curves,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def to_text(self) -> str:
        headers = (
            "solver",
            "algo",
            "iters",
            "status",
            "F_final",
            "rel.err(true)",
            "rel.err(ref)",
            "time[s]",
        )
        rows = [headers]
        for r in self.results:
            rows.append(
                (
                    r.label,
                    r.algo,
                    str(r.iterations),
                    r.status,
                    f"{r.F_final:.6e}",
                    f"{r.rel_err_true:.3e}",
                    f"{r.rel_err_ref:.3e}",
                    f"{r.wall_time_s:.3f}",
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def run_comparison(spec: ExperimentSpec) -> ComparisonReport:
    """Run every configured solver on one shared instance from ``x0 = 0``.

    The first block-solver entry (or the first entry) is the reference and
    runs first.  Every other solver then runs once, tracking its distance
    to the reference output on the way; only the reference runs a second
    time, for its own curve.  Reported wall times are those of a row's
    single run, so they include the curve tracking, except for the
    reference, whose time covers its first run only.  A solver failure is
    recorded in its row, with empty curves, and does not abort the report.
    """
    problem, x_true = build_problem(spec)
    x0 = np.zeros(problem.loss.dim)
    entries = spec.solvers
    ref = next((e for e in entries if e.algo.startswith("bpiree")), entries[0])

    def run(entry, callback=None):
        config = make_solver_config(spec, entry)
        t0 = time.perf_counter()
        try:
            x, trace, status = run_algorithm(entry.algo, problem, config, x0, callback=callback)
        except Exception as exc:  # recorded per solver, never fatal
            logger.warning("solver %s failed: %s", entry.label, exc)
            x, trace, status = None, None, SolveStatus.NUMERICAL_FAILURE
        return x, trace, status, time.perf_counter() - t0

    ref_run = run(ref)
    x_ref, ref_trace = ref_run[:2]
    if x_ref is None:
        raise RuntimeError(f"reference solver {ref.label} produced no iterate")
    F_ref = ref_trace.records[-1].F if ref_trace.records else math.nan
    ref_norm = float(np.linalg.norm(x_ref))

    results, curves = [], {}
    for entry in entries:
        x_rel: List[float] = []

        def track(k, xk):
            dist = float(np.linalg.norm(xk - x_ref))
            x_rel.append(dist / ref_norm if ref_norm != 0.0 else math.inf)

        if entry is ref:
            run(entry, callback=track)
            x, trace, status, wall = ref_run
        else:
            x, trace, status, wall = run(entry, callback=track)
        if x is None:
            curves[entry.label] = {"f_gap": [], "x_rel": []}
        else:
            f_gap = [abs(rec.F - F_ref) for rec in trace.records]
            curves[entry.label] = {"f_gap": f_gap, "x_rel": x_rel}
        results.append(
            SolverResult(
                label=entry.label,
                algo=entry.algo,
                iterations=trace.iterations if trace is not None else 0,
                status=status.value,
                F_final=(
                    trace.records[-1].F
                    if trace is not None and trace.records
                    else math.nan
                ),
                rel_err_true=rel_err(x, x_true) if x is not None else math.inf,
                rel_err_ref=rel_err(x, x_ref) if x is not None else math.nan,
                wall_time_s=wall,
            )
        )

    return ComparisonReport(
        spec=spec.to_dict(),
        reference=ref.label,
        results=results,
        curves=curves,
    )
