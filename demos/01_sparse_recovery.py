"""Recover a planted sparse signal with the log-penalized block solver.

Walks through the basic workflow: generate a seeded sensing instance,
minimize 0.5*||Ax - b||^2 + lam * sum_i (log(|x_i| + 0.1) - log(0.1)),
and inspect the result against the planted signal.
"""

import numpy as np

from bpiree import (
    SolverConfig,
    build_problem,
    desk_spec,
    rel_err,
    solve,
    stationarity_residual,
)

spec = desk_spec("log_ls", seed=0)
print(f"instance: n={spec.n} observations, q={spec.q} unknowns, "
      f"{spec.nnz()} planted nonzeros, lam={spec.lam}")

problem, x_true = build_problem(spec)
config = SolverConfig(momentum="fista", record_trace=True)
x, trace, status = solve(problem, config, np.zeros(problem.loss.dim))

print(f"\nstatus: {status.value} after {trace.iterations} iterations")
# the trace is a table of columns, one value per iteration
cols = trace.columns
print(f"objective: {cols['F'][-1]:.6e}")
print(f"relative error vs planted signal: {rel_err(x, x_true):.3e}")
print(f"recovered support size: {np.count_nonzero(x)} (planted {spec.nnz()})")

residual = stationarity_residual(problem, x)
print(f"stationarity residual: {residual:.3e}")

print("\nobjective trace (every 20th iteration):")
for k, F, step_rel, beta in list(zip(cols["k"], cols["F"], cols["step_rel"],
                                     cols["beta"]))[::20]:
    print(f"  k={k:4d}  F={F:.8e}  step_rel={step_rel:.2e}  beta={beta:.3f}")

# The safeguard retries an iteration with zero momentum whenever the
# extrapolated step increased the objective; count how often that happened.
retries = sum(cols["retried"])
print(f"\nsafeguard retries: {retries} of {trace.iterations} iterations")
