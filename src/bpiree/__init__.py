"""Block proximal iteratively reweighted solvers with extrapolation.

Minimizes composites of a smooth (possibly nonconvex) loss and a separable
concave-reweighted penalty by block-coordinate proximal steps with
momentum, including a smoothed lp variant with decaying per-coordinate
smoothing, several classic reweighted baselines, and a seeded synthetic
benchmark harness.
"""

from .model import (
    BlockPartition,
    CustomPenalty,
    LeastSquares,
    LogPenalty,
    MatrixLeastSquares,
    Problem,
    SmoothedLp,
    eval_objective,
)
from .prox import (
    NumericalFailure,
    block_prox_step,
    prox_scalar_convex,
)
from .solver import (
    CertificateRecord,
    SolveStatus,
    SolverConfig,
    SolverState,
    SupportReport,
    Trace,
    bpiree_step,
    choose_block,
    descent_certificate,
    extrapolation_bound,
    fista_momentum,
    init_state,
    solve,
    stationarity_residual,
)
from .lp import solve_lp
from .baselines import (
    irl1_solve,
    irl1e1_solve,
    pire_au_solve,
    pire_ps_solve,
    pire_solve,
)
from .experiments import (
    ComparisonReport,
    ExperimentSpec,
    SolverEntry,
    build_problem,
    desk_spec,
    gen_gaussian_sensing,
    gen_illconditioned,
    gen_matrix_problem,
    rel_err,
    run_comparison,
)
from .io import load_problem, save_problem, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "CustomPenalty",
    "LeastSquares",
    "LogPenalty",
    "MatrixLeastSquares",
    "Problem",
    "SmoothedLp",
    "eval_objective",
    "NumericalFailure",
    "block_prox_step",
    "prox_scalar_convex",
    "fista_momentum",
    "CertificateRecord",
    "SolveStatus",
    "SolverConfig",
    "SolverState",
    "Trace",
    "bpiree_step",
    "choose_block",
    "descent_certificate",
    "extrapolation_bound",
    "init_state",
    "solve",
    "stationarity_residual",
    "SupportReport",
    "solve_lp",
    "irl1_solve",
    "irl1e1_solve",
    "pire_au_solve",
    "pire_ps_solve",
    "pire_solve",
    "ComparisonReport",
    "ExperimentSpec",
    "SolverEntry",
    "build_problem",
    "desk_spec",
    "gen_gaussian_sensing",
    "gen_illconditioned",
    "gen_matrix_problem",
    "rel_err",
    "run_comparison",
    "load_problem",
    "save_problem",
    "write_trace_csv",
]
