"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Everything runs at desk scale (Example-1 style: n=100,
q=300, 5 planted nonzeros; Example-2 style: n=50, q=100, t=10, m=5) and
finishes in well under a minute.
"""

import json
import math
import statistics

import numpy as np
import pytest

from bpiree.baselines import irl1_solve, irl1e1_solve, pire_ps_solve
from bpiree.cli import main as cli_main
from bpiree.experiments import build_problem, desk_spec, rel_err
from bpiree.lp import solve_lp
from bpiree.model import (
    LeastSquares,
    MatrixLeastSquares,
    SmoothedLp,
)
from bpiree.prox import abs_subgrad, block_prox_step, prox_scalar_convex
from bpiree.solver import (
    SolveStatus,
    SolverConfig,
    choose_block,
    solve,
    stationarity_residual,
)

N_SEEDS = 10


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def bpiree_config(seed: int, **overrides) -> SolverConfig:
    # benchmark setup: restarted momentum guarded by the monotone safeguard
    base = dict(momentum="fista", seed=seed, record_trace=True, check_descent=True)
    base.update(overrides)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def example1_runs():
    """Well-conditioned desk runs of the block solver, one per seed."""
    runs = {}
    for seed in range(N_SEEDS):
        prob, x_true = build_problem(desk_spec("log_ls", seed=seed))
        x, trace, status = solve(prob, bpiree_config(seed), np.zeros(prob.loss.dim))
        runs[seed] = (prob, x_true, x, trace, status)
    return runs


@pytest.fixture(scope="module")
def example2_runs():
    """Desk runs of the lp variant, one per seed."""
    runs = {}
    for seed in range(N_SEEDS):
        prob, x_true = build_problem(desk_spec("matrix_lp", seed=seed))
        x, eps, trace, status = solve_lp(
            prob, bpiree_config(seed), np.zeros(prob.loss.dim)
        )
        runs[seed] = (prob, x_true, x, eps, trace, status)
    return runs


def test_criterion_1_prox_oracle_equivalence():
    """Soft threshold vs 1e5-point grid (1e-4) and bisection (1e-8); each
    bisection within its oracle-call bound."""
    rng = np.random.default_rng(2024)
    n_pairs = 10_000
    v = rng.uniform(-8.0, 8.0, n_pairs)
    tau = rng.uniform(0.0, 4.0, n_pairs)
    # the solvers' soft threshold: center v - 1.0*0 = v, weight 1.0*tau = tau
    closed = block_prox_step(v, np.zeros(n_pairs), 1.0, tau)

    G = 100_000
    frac = np.arange(G) / (G - 1.0)
    xs = np.empty(G)
    work = np.empty(G)
    worst_grid = 0.0
    for i in range(n_pairs):
        lo = min(v[i], 0.0) - 0.5
        hi = max(v[i], 0.0) + 0.5
        width = hi - lo
        np.multiply(frac, width, out=xs)
        xs += lo
        np.subtract(xs, v[i], out=work)
        np.square(work, out=work)
        work *= 0.5
        np.abs(xs, out=xs)
        xs *= tau[i]
        work += xs
        x_grid = lo + width * (int(np.argmin(work)) / (G - 1.0))
        worst_grid = max(worst_grid, abs(x_grid - closed[i]))

    # the bracket [min(v,0) - tau, max(v,0) + tau] needs no expansion for
    # |.|, so a bisection makes 3 oracle calls (at v and both ends) plus one
    # per halving of its width down to 2*tol
    tol = 1e-8
    calls = 0

    def counted_subgrad(x):
        nonlocal calls
        calls += 1
        return abs_subgrad(x)

    worst_bisect = 0.0
    over_bound = differ = 0
    for i in range(n_pairs):
        x_gen = prox_scalar_convex(float(v[i]), float(tau[i]), tol=tol)
        worst_bisect = max(worst_bisect, abs(x_gen - closed[i]))
        calls = 0
        x_counted = prox_scalar_convex(float(v[i]), float(tau[i]), g=abs,
                                       g_subgrad=counted_subgrad, tol=tol)
        differ += x_counted != x_gen
        bound = 3 + math.ceil(math.log2((abs(v[i]) + 2 * tau[i]) / (2 * tol)))
        over_bound += calls > bound

    ok = worst_grid <= 1e-4 and worst_bisect <= 1e-8 and over_bound == differ == 0
    report(
        1,
        ok,
        f"grid gap {worst_grid:.2e} (<=1e-4), bisection gap {worst_bisect:.2e} "
        f"(<=1e-8), {over_bound} bisections over their call bound, "
        f"{differ} differing from the g=abs route",
    )


def test_criterion_2_gradient_correctness():
    """Block gradients vs central differences, 1e-6 relative, 100 triples."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            n, q = int(rng.integers(4, 10)), int(rng.integers(3, 9))
            loss = LeastSquares(rng.standard_normal((n, q)), rng.standard_normal(n))
        else:
            n, q, t = (int(rng.integers(4, 8)) for _ in range(3))
            loss = MatrixLeastSquares(
                rng.standard_normal((n, q)), rng.standard_normal((n, t))
            )
        dim = loss.dim
        size = int(rng.integers(1, dim + 1))
        block = rng.choice(dim, size=size, replace=False)
        x = rng.standard_normal(dim)
        grad = loss.block_grad(x, block)
        h = 1e-6
        for pos, j in enumerate(block):
            e = np.zeros(dim)
            e[j] = h
            fd = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            worst = max(worst, abs(grad[pos] - fd) / (1.0 + abs(fd)))
    report(2, worst <= 1e-6, f"worst relative gradient error {worst:.2e} (<=1e-6)")


def test_criterion_3_monotonicity(example1_runs, example2_runs):
    """Safeguarded objective never increases on any desk run, both examples."""
    violations = 0
    iterations = 0
    for runs, f_idx in ((example1_runs, 3), (example2_runs, 4)):
        for seed, run in runs.items():
            trace = run[f_idx]
            F = trace.columns["F"]
            iterations += len(F)
            for a, b in zip(F, F[1:]):
                if not b <= a + 1e-12 * (1.0 + abs(a)):
                    violations += 1
    report(3, violations == 0, f"{violations} violations over {iterations} iterations")


def test_criterion_4_descent_certificate(example1_runs, example2_runs):
    """The per-iteration decrease estimate holds at every accepted step."""
    bad = 0
    total = 0
    for runs, f_idx in ((example1_runs, 3), (example2_runs, 4)):
        for seed, run in runs.items():
            certs = run[f_idx].certificates
            total += len(certs)
            bad += sum(not c.holds for c in certs)
    report(4, bad == 0 and total > 0, f"{bad} failed certificates of {total}")


def test_criterion_5_stationarity(example1_runs):
    """Residual at the returned point is small next to the gradient scale."""
    worst_ratio = 0.0
    for seed, (prob, _xt, x, _tr, status) in example1_runs.items():
        assert status is SolveStatus.CONVERGED
        res = stationarity_residual(prob, x)
        bound = 1e-2 * (1.0 + np.linalg.norm(prob.loss.grad(x)))
        worst_ratio = max(worst_ratio, res / bound)
    report(5, worst_ratio <= 1.0, f"worst residual/bound ratio {worst_ratio:.3f} (<=1)")


def test_criterion_6_recovery_quality(example1_runs):
    """Planted-signal relative error <= 5e-2 on at least 9 of 10 seeds."""
    good = 0
    errs = []
    for seed, (_p, x_true, x, _tr, _s) in example1_runs.items():
        err = rel_err(x, x_true)
        errs.append(err)
        good += err <= 5e-2
    report(6, good >= 9, f"{good}/10 seeds below 5e-2 (median {statistics.median(errs):.2e})")


def test_criterion_7_extrapolation_speedup(example1_runs, example2_runs):
    """Median iterations: block solver beats irl1 (ex1) and sweeps (ex2)."""
    iters_b = [run[3].iterations for run in example1_runs.values()]
    iters_irl1 = []
    for seed in range(N_SEEDS):
        prob = example1_runs[seed][0]
        _, trace, status = irl1_solve(
            prob, SolverConfig(max_iter=50_000), np.zeros(prob.loss.dim)
        )
        assert status is SolveStatus.CONVERGED
        iters_irl1.append(trace.iterations)

    iters_lp = [run[4].iterations for run in example2_runs.values()]
    iters_ps = []
    for seed in range(N_SEEDS):
        prob = example2_runs[seed][0]
        _, trace, status = pire_ps_solve(
            prob, SolverConfig(max_iter=50_000), np.zeros(prob.loss.dim)
        )
        assert status is SolveStatus.CONVERGED
        iters_ps.append(trace.iterations)

    med_b, med_i = statistics.median(iters_b), statistics.median(iters_irl1)
    med_lp, med_ps = statistics.median(iters_lp), statistics.median(iters_ps)
    ok = med_b <= med_i and med_lp <= med_ps
    report(
        7,
        ok,
        f"example 1 medians {med_b} vs irl1 {med_i}; "
        f"example 2 medians {med_lp} vs pire-ps {med_ps}",
    )


def test_criterion_8_support_fixation():
    """Converged lp runs end sign-fixed (window 100) with decayed smoothing.

    Polished at tol=1e-8 so the tail after the last pruning event spans the
    monitoring window.
    """
    fixed_ok = eps_ok = 0
    for seed in range(N_SEEDS):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=seed))
        config = bpiree_config(seed, tol=1e-8, check_descent=False)
        x, eps, trace, status = solve_lp(prob, config, np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        signs = trace.columns["sign_fixed"]
        fixed_ok += trace.support.fixed and signs[-1]
        support = x != 0.0
        eps_ok += bool(np.all(eps[support] <= 0.1**5 * config.eps0))
    ok = fixed_ok == N_SEEDS and eps_ok == N_SEEDS
    report(8, ok, f"sign fixed on {fixed_ok}/10 runs, eps decayed on {eps_ok}/10")


def test_criterion_9_epsilon_branch():
    """1e3 synthetic smoothing updates follow the branch rule exactly."""
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(1000):
        size = int(rng.integers(1, 6))
        x_new = rng.standard_normal(size) * rng.integers(0, 2, size=size)
        eps = rng.uniform(1e-6, 3.0, size=size)
        mu = float(rng.uniform(0.01, 0.99))
        out = SmoothedLp.decay_epsilon(x_new, eps, mu)
        for j in range(size):
            expected = eps[j] if x_new[j] == 0.0 else math.sqrt(mu) * eps[j]
            if out[j] != expected:
                bad += 1
    report(9, bad == 0, f"{bad} branch mismatches in 1000 events")


def test_criterion_10_essentially_cyclic():
    """Every window of T consecutive picks covers all blocks over 1e4 steps."""
    m = 7
    steps = 10_000
    ok = True
    picks = [choose_block("cyclic", k, m) for k in range(1, steps + 1)]
    for start in range(steps - m + 1):
        if set(picks[start : start + m]) != set(range(m)):
            ok = False
            break
    T = 2 * m - 1
    for seed in (0, 1, 2):
        picks = [choose_block("shuffled", k, m, seed=seed) for k in range(1, steps + 1)]
        for start in range(steps - T + 1):
            if set(picks[start : start + T]) != set(range(m)):
                ok = False
                break
    report(10, ok, f"cyclic window {m}, shuffled window {T}, {steps} steps")


def test_criterion_11_compare_determinism(tmp_path):
    """The compare command writes byte-identical reports for a fixed seed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"example": "log_ls", "n": 60, "q": 150, "sparsity": 4, "seed": 42})
    )
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    code1 = cli_main(["compare", "--config", str(cfg), "--out", out1])
    code2 = cli_main(["compare", "--config", str(cfg), "--out", out2])
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    report(11, ok, f"{len(b1)} bytes, identical={b1 == b2}")


def test_criterion_12_ill_conditioned_robustness():
    """No numerical failures; block solver beats irl1 on most seeds."""
    failures = 0
    wins = 0
    for seed in range(N_SEEDS):
        prob, x_true = build_problem(desk_spec("log_ls", seed=seed, conditioning="ill"))
        x0 = np.zeros(prob.loss.dim)
        xb, _, sb = solve(
            prob, bpiree_config(seed, check_descent=False, max_iter=30_000), x0
        )
        xi, _, si = irl1_solve(prob, SolverConfig(max_iter=30_000), x0)
        _, _, se = irl1e1_solve(prob, SolverConfig(max_iter=30_000), x0)
        failures += sum(
            s is SolveStatus.NUMERICAL_FAILURE for s in (sb, si, se)
        )
        wins += rel_err(xb, x_true) <= rel_err(xi, x_true)
    ok = failures == 0 and wins >= 6
    report(12, ok, f"{failures} failures; block solver <= irl1 rel.err on {wins}/10")
