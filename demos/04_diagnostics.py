"""Runtime diagnostics: descent certificates, schedules, trace export.

The solver can check a sufficient-decrease estimate at every accepted
iteration: F_prev - F_next >= c1*L*||step||^2 - c2*L*beta^2*||prev step||^2
with c1 = (gamma-1)/4 and c2 = (gamma+1)^2/(gamma-1).  This script runs a
shuffled-schedule solve with certificates on, exports the trace CSV, and
demonstrates the essentially-cyclic block selection property.
"""

import collections
import os
import tempfile

import numpy as np

from bpiree import (
    SolverConfig,
    build_problem,
    choose_block,
    desk_spec,
    extrapolation_bound,
    solve,
    write_trace_csv,
)

# --- certificates on a shuffled multi-block run ---------------------------
spec = desk_spec("log_ls", seed=3, m=4)
problem, _ = build_problem(spec)
config = SolverConfig(
    schedule="shuffled",
    seed=3,
    momentum="fista",
    record_trace=True,
    check_descent=True,
)
x, trace, status = solve(problem, config, np.zeros(problem.loss.dim))

print(f"run: {status.value} after {trace.iterations} iterations, 4 blocks, "
      "shuffled schedule")
holds = sum(c.holds for c in trace.certificates)
print(f"descent certificate held on {holds}/{len(trace.certificates)} iterations")
slacks = [c.slack for c in trace.certificates]
print(f"slack range: [{min(slacks):.3e}, {max(slacks):.3e}]")

# --- the admissible momentum bound -----------------------------------------
print("\nmomentum bound delta*(gamma-1)/(2(gamma+1)), fixed block curvature:")
for gamma in (1.5, 2.0, 3.0):
    print(f"  gamma={gamma}: beta <= {extrapolation_bound(gamma, 0.9):.4f}  (delta=0.9)")

# --- essentially cyclic selection ------------------------------------------
m = 4
picks = [choose_block("shuffled", k, m, seed=5) for k in range(1, 41)]
print(f"\nfirst 40 shuffled picks (m={m}): {picks}")
window = 2 * m - 1
counts = collections.Counter(picks)
print(f"pick counts: {dict(sorted(counts.items()))}")
print(f"every window of {window} consecutive picks covers all {m} blocks: "
      f"{all(set(picks[s:s + window]) == set(range(m)) for s in range(len(picks) - window + 1))}")

# --- trace export -----------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.csv")
    write_trace_csv(path, trace, algo="bpiree")
    with open(path) as f:
        lines = f.read().splitlines()
print(f"\ntrace CSV (written to a temporary directory): {len(lines) - 1} rows")
print("header:", lines[0])
print("first row:", lines[1])
# the header is the trace's column names, in order, then algo
print("header == trace columns + algo:", lines[0] == ",".join([*trace.columns, "algo"]))
print(f"largest momentum used (beta column): {max(trace.columns['beta']):.3f}")
