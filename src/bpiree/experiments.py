"""Synthetic benchmarks: data generation, metrics and the comparison harness.

Two problem families are covered, both planted sparse recovery tasks:

* ``log_ls`` - least squares with the log penalty on a Gaussian sensing
  matrix (unit column norms), optionally replaced by an ill-conditioned
  matrix with prescribed singular values.
* ``matrix_lp`` - matrix least squares with the smoothed lp penalty; the
  flattened variable is split into contiguous blocks.

All randomness flows from one integer seed through numpy's PCG64 generator,
so regeneration on one numpy/BLAS build and thread count is bit-exact.  Desk
defaults keep the suite under a minute; paper dimensions sit behind ``scale``.
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
    check_field_types,
    from_json,
)
from .solver import SolveStatus, SolverConfig, Trace, _norm, solve

__all__ = [
    "ExperimentSpec",
    "SolverEntry",
    "desk_spec",
    "gen_gaussian_sensing",
    "gen_illconditioned",
    "gen_matrix_problem",
    "BuildError",
    "build_problem",
    "rel_err",
    "SolverResult",
    "ComparisonReport",
    "run_comparison",
    "ALGORITHMS",
]

logger = logging.getLogger("bpiree")

CONDITIONINGS = ("well", "ill")

SCALE_PRESETS = {
    "log_ls": {
        "desk": dict(n=100, q=300, sparsity=5),
        "paper": dict(n=1000, q=3000, sparsity=50),
    },
    "matrix_lp": {
        "desk": dict(n=50, q=100, t=10, m=5, lam=0.015),
        "paper": dict(n=100, q=500, t=50, m=10),
    },
}

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
        check_field_types(self)
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}")
        if self.label is None:
            self.label = self.algo


@dataclass
class ExperimentSpec:
    """Fully-seeded description of one synthetic benchmark run.

    Construction checks every field's type and all that ``build_problem``
    needs, the ill-conditioned shape included.  ``solver_defaults`` (not stored)
    are solver config values for every row, the default rows included; a
    row's own ``config`` wins.  Every row's merged config is checked here by
    :func:`solver_config`, which also rejects ``record_trace`` off.
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
        check_field_types(self)
        if self.example not in SCALE_PRESETS:
            raise ValueError(f"unknown example {self.example!r}")
        if self.conditioning not in CONDITIONINGS:
            raise ValueError(f"unknown conditioning {self.conditioning!r}")
        for name in ("n", "q", "t", "m"):
            if getattr(self, name) < 1:
                raise ValueError(f"field {name!r} must be a positive integer")
        if self.example == "log_ls" and self.t != 1:
            raise ValueError(f"t must be 1 for example 'log_ls', got {self.t}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        coordinates = self.q * self.t if self.example == "matrix_lp" else self.q
        if self.m > coordinates:
            raise ValueError(f"m must not exceed the {coordinates} coordinates, got {self.m}")
        if self.sparsity <= 0 or (self.sparsity >= 1 and self.sparsity % 1):
            raise ValueError("sparsity must be a positive count or a fraction in (0, 1)")
        if self.nnz() >= self.q:
            raise ValueError("sparsity must be less than q")
        if self.example == "log_ls" and self.conditioning == "ill" and self.n > self.q:
            raise ValueError("ill-conditioned generator requires n <= q")
        make_penalty(self)
        if not isinstance(self.solvers, list):
            raise ValueError(f"solvers must be a list, got {self.solvers!r}")
        rows = self.solvers or [{"algo": a} for a in DEFAULT_SOLVERS[self.example]]
        self.solvers = []
        for i, row in enumerate(rows):
            try:
                self.solvers.append(
                    row if isinstance(row, SolverEntry) else from_json(SolverEntry, row))
            except ValueError as exc:
                raise ValueError(f"solver row {i}: {exc}") from None
        if self.example != "matrix_lp" and any(e.algo == "bpiree-lp" for e in self.solvers):
            raise ValueError("bpiree-lp requires example 'matrix_lp'")
        labels = [e.label for e in self.solvers]
        if len(set(labels)) != len(labels):
            raise ValueError("solver labels must be unique; set 'label' per entry")
        for i, entry in enumerate(self.solvers):
            try:
                solver_config(_harness_defaults(self, entry), solver_defaults, entry.config)
            except ValueError as exc:
                raise ValueError(f"solver {entry.label!r}: {exc}") from None
            if solver_defaults:
                self.solvers[i] = dataclasses.replace(
                    entry, config={**solver_defaults, **entry.config})

    def nnz(self) -> int:
        """Planted nonzeros (per column for the matrix example)."""
        if isinstance(self.sparsity, float) and self.sparsity < 1:
            return max(1, round(self.sparsity * self.q))
        return int(self.sparsity)


def desk_spec(example: str, seed: int = 0, **overrides) -> ExperimentSpec:
    """Desk-scale spec for an example, with optional field overrides."""
    return ExperimentSpec(example=example, seed=seed,
                          **{**SCALE_PRESETS[example]["desk"], **overrides})


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
    seeded Gaussian matrices; requires ``n <= q``, which the spec checks.
    """
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
    X_true = np.column_stack([_plant_sparse(rng, spec.q, spec.nnz()) for _ in range(spec.t)])
    B = A @ X_true + spec.noise_scale * rng.standard_normal((spec.n, spec.t))
    partition = BlockPartition.contiguous(spec.q * spec.t, spec.m)
    return A, B, X_true, partition


def make_penalty(spec: ExperimentSpec):
    """The example's penalty; its constructor checks lam, eps_bar and p."""
    if spec.example == "log_ls":
        return LogPenalty(lam=spec.lam, eps_bar=spec.eps_bar)
    return SmoothedLp(lam=spec.lam, p=spec.p)


class BuildError(ValueError):
    """A valid spec whose generated data the loss rejects (they overflow)."""


@np.errstate(over="ignore")  # data that overflow are inf, which the loss rejects
def build_problem(spec: ExperimentSpec):
    """Materialize (Problem, x_true) for a spec; x_true is flattened
    column-major.  Data the loss rejects raise :class:`BuildError`."""
    if spec.example == "log_ls":
        if spec.conditioning == "ill":
            A = gen_illconditioned(spec)
            rng = np.random.default_rng(spec.seed + 1)
            x_true = _plant_sparse(rng, spec.q, spec.nnz())
            b = A @ x_true + spec.noise_scale * rng.standard_normal(spec.n)
        else:
            A, b, x_true = gen_gaussian_sensing(spec)
        loss_type, partition = LeastSquares, BlockPartition.contiguous(spec.q, spec.m)
    else:
        A, b, X_true, partition = gen_matrix_problem(spec)
        loss_type, x_true = MatrixLeastSquares, X_true.ravel(order="F")
    try:
        loss = loss_type(A, b)
    except ValueError as exc:
        raise BuildError(f"cannot build the instance: {exc}") from exc
    return Problem(loss, make_penalty(spec), partition), x_true


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

ALGORITHMS = {
    "bpiree": solve,
    "bpiree-lp": solve_lp,
    "pire": baselines.pire_solve,
    "pire-ps": baselines.pire_ps_solve,
    "pire-au": baselines.pire_au_solve,
    "irl1": baselines.irl1_solve,
    "irl1e1": baselines.irl1e1_solve,
}


def solver_config(*sections) -> SolverConfig:
    """The checked ``SolverConfig`` of a CLI run: ``sections`` are JSON
    objects of SolverConfig fields, or None where absent; a later one wins,
    and a field none sets keeps its default, ``record_trace`` being on.
    Raises ``ValueError`` naming the first bad section, key or field, and
    when the merged config turns the trace off: every CLI run reads its
    results from the trace."""
    config = SolverConfig(record_trace=True)
    for section in sections:
        if section is not None:
            config = from_json(SolverConfig, section, "solver config", base=config)
    config.validate()
    if not config.record_trace:
        raise ValueError("record_trace must be true: solve and compare read their "
                         "results from the trace")
    return config


def _harness_defaults(spec: ExperimentSpec, entry: SolverEntry) -> dict:
    """What a comparison row takes from its spec; the block solvers run raw
    restarted momentum guarded by the monotone safeguard."""
    momentum = {"momentum": "fista"} if entry.algo.startswith("bpiree") else {}
    return dict(seed=spec.seed, mu=spec.mu, **momentum)


def make_solver_config(spec: ExperimentSpec, entry: SolverEntry) -> SolverConfig:
    """Solver config of one comparison row: harness defaults, then the row's config."""
    return solver_config(_harness_defaults(spec, entry), entry.config)


def run_algorithm(algo: str, problem: Problem, config: SolverConfig, x0, callback=None):
    """Uniform runner: returns ``(x, trace, status)`` for any algorithm name;
    each returns its iterate first and its trace and status last."""
    x, *_, trace, status = ALGORITHMS[algo](problem, config, x0, callback=callback)
    return x, trace, status


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


def _finite_or_none(value):
    """``value``, or None (JSON ``null``) for a float that is not finite."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


@dataclass
class ComparisonReport:
    """Per-solver outcomes on one shared instance plus convergence curves.

    ``curves[label]["f_gap"]`` is ``|F(x^k) - F(x_ref)|`` and
    ``curves[label]["x_rel"]`` is ``||x^k - x_ref|| / ||x_ref||``, both
    against the reference solver's final iterate.  Wall times live only in
    the object and the text table; the JSON form omits them so identical
    seeds produce byte-identical files.  The JSON form writes a number that
    is not finite (a failed row's values, an iterate of 0's relative errors)
    as ``null``; the text table prints ``nan`` and ``inf``.
    """

    spec: dict
    reference: str
    results: List[SolverResult]
    curves: dict

    def to_json_dict(self) -> dict:
        rows = []
        for r in self.results:
            d = {k: _finite_or_none(v) for k, v in dataclasses.asdict(r).items()}
            d.pop("wall_time_s")
            rows.append(d)
        curves = {label: {name: [_finite_or_none(v) for v in values]
                          for name, values in curve.items()}
                  for label, curve in self.curves.items()}
        return {
            "spec": self.spec,
            "reference": self.reference,
            "results": rows,
            "curves": curves,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1, allow_nan=False)

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


def _runs_as(algo: str, problem: Problem) -> str:
    """The algorithm whose arithmetic ``algo`` runs on ``problem``."""
    if algo == "pire-au" and baselines._sweep_is_jacobi(problem):
        return "pire-ps"
    return algo


def run_comparison(spec: ExperimentSpec) -> ComparisonReport:
    """Run every configured solver on one shared instance from ``x0 = 0``.

    The first block-solver entry (or the first entry) is the reference; it
    runs first, on its own, for the target ``x_ref`` and ``F_ref``, as a
    plain :func:`run_algorithm` call: whatever it raises propagates, and
    there is no report.  Then every row runs traced, tracking its distance
    to ``x_ref`` on the way, and rows that run the same arithmetic share
    one run: the same algorithm (pire-au where it runs pire-ps counts as
    pire-ps) with the same config after harness defaults.  The reference's
    row is one of these runs, so it runs twice in all.  A row's wall time
    is that of its run, curve tracking included.  A row reads its values
    from its run's trace; a row's run that raises has no iterate, an empty
    ``Trace()`` and status ``NumericalFailure``, and does not abort the
    report.
    """
    problem, x_true = build_problem(spec)
    x0 = np.zeros(problem.loss.dim)
    entries = spec.solvers
    ref = next((e for e in entries if e.algo.startswith("bpiree")), entries[0])

    x_ref, ref_trace, _ = run_algorithm(ref.algo, problem, make_solver_config(spec, ref), x0)
    F_ref = ref_trace.last("F")
    ref_norm = float(np.linalg.norm(x_ref))

    def run(entry, config):
        x_rel = []  # the distance to x_ref after each iteration

        def track(k, xk):
            dist = _norm(xk - x_ref)
            x_rel.append(dist / ref_norm if ref_norm != 0.0 else math.inf)

        t0 = time.perf_counter()
        try:
            x, trace, status = run_algorithm(entry.algo, problem, config, x0, callback=track)
        except Exception as exc:  # recorded per solver, never fatal
            logger.warning("solver %s failed: %s", entry.label, exc)
            x, trace, status, x_rel = None, Trace(), SolveStatus.NUMERICAL_FAILURE, []
        return x, trace, status, time.perf_counter() - t0, x_rel

    runs = {}  # (algorithm run, config fields) -> (x, trace, status, wall, x_rel)
    results, curves = [], {}
    for entry in entries:
        config = make_solver_config(spec, entry)
        key = (_runs_as(entry.algo, problem), dataclasses.astuple(config))
        if key not in runs:
            runs[key] = run(entry, config)
        x, trace, status, wall, x_rel = runs[key]
        f_gap = [abs(F - F_ref) for F in trace.columns["F"]]
        curves[entry.label] = {"f_gap": f_gap, "x_rel": list(x_rel)}
        results.append(
            SolverResult(
                label=entry.label,
                algo=entry.algo,
                iterations=trace.iterations,
                status=status.value,
                F_final=trace.last("F"),
                rel_err_true=rel_err(x, x_true) if x is not None else math.inf,
                rel_err_ref=rel_err(x, x_ref) if x is not None else math.nan,
                wall_time_s=wall,
            )
        )

    return ComparisonReport(
        spec=dataclasses.asdict(spec),
        reference=ref.label,
        results=results,
        curves=curves,
    )
