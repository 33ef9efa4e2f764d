"""Baselines: momentum clock, reweighted full-vector methods, block sweeps."""

import functools
import json
import math
import os

import numpy as np
import pytest

from bpiree.baselines import (
    irl1_solve,
    irl1e1_solve,
    pire_au_solve,
    pire_ps_solve,
    pire_solve,
)
from bpiree.experiments import SolverEntry, build_problem, desk_spec, make_solver_config
from bpiree.model import (
    BlockPartition,
    CustomPenalty,
    LeastSquares,
    LogPenalty,
    Problem,
)
from bpiree.prox import block_prox_step
from bpiree.solver import (
    SolveStatus,
    SolverConfig,
    fista_momentum,
    solve,
    stationarity_residual,
)


def log_problem(A, b, lam=0.0, eps_bar=1.0, m=1):
    loss = LeastSquares(A, b)
    return Problem(
        loss, LogPenalty(lam=lam, eps_bar=eps_bar), BlockPartition.contiguous(loss.dim, m)
    )


def _reference_clock(t_curr, steps, N):
    """The restarted FISTA clock written out: ``(t_curr, steps)`` to
    ``(beta, (t_curr, steps))``, both t values reset to 1 after ``N`` steps."""
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_curr**2))
    beta = (t_curr - 1.0) / t_next
    steps += 1
    if steps >= N:
        return beta, (1.0, 0)
    return beta, (t_next, steps)


def _betas(N, count):
    """The first ``count`` momentum values of the restarted sequence."""
    betas, t = [], 1.0
    for k in range(1, count + 1):
        beta, t = fista_momentum(t, (k - 1) % N)
        betas.append(beta)
    return betas


class TestFistaMomentum:
    def test_fresh_clock_gives_zero(self):
        beta, t = fista_momentum(1.0, 0)
        assert beta == 0.0
        assert t == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)

    def test_second_value(self):
        _, t = fista_momentum(1.0, 0)
        beta, _ = fista_momentum(t, 1)
        assert beta == pytest.approx(0.281754, abs=1e-6)

    def test_restart_resets(self):
        betas = _betas(5, 6)
        # step 6 starts the second restart period, so it is zero again
        assert betas[5] == 0.0
        assert all(b > 0 for b in betas[1:5])

    def test_values_in_unit_interval_and_nondecreasing(self):
        betas = _betas(100, 99)
        assert all(0.0 <= b < 1.0 for b in betas)
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    def test_matches_written_out_clock_bitwise(self):
        for N in (1, 2, 7, 200):
            t_curr, steps = 1.0, 0
            for beta in _betas(N, 3 * N + 5):
                ref_beta, (t_curr, steps) = _reference_clock(t_curr, steps, N)
                assert beta.hex() == ref_beta.hex()


class TestPire:
    def test_lam_zero_converges_on_quadratic(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 4))
        x_star = rng.standard_normal(4)
        prob = log_problem(A, A @ x_star)
        x, trace, status = pire_solve(prob, SolverConfig(tol=1e-8), np.zeros(4))
        assert status is SolveStatus.CONVERGED
        np.testing.assert_allclose(x, x_star, atol=1e-6)

    def test_one_iteration_hand_example(self):
        # A = 1, b = 1, log penalty lam = 1, eps_bar = 1, x0 = 0:
        # L = 1.01, w = 1, center = 1/1.01, tau = 1/1.01 -> soft -> 0
        prob = log_problem(np.eye(1), np.ones(1), lam=1.0, eps_bar=1.0)
        x, trace, status = pire_solve(prob, SolverConfig(max_iter=1), np.zeros(1))
        assert x[0] == 0.0

    def test_matches_block_solver_final_objective(self):
        # same critical point despite the stepsize convention difference
        from bpiree.model import eval_objective

        rng = np.random.default_rng(1)
        for seed in range(20):
            r = np.random.default_rng(seed)
            A = r.standard_normal((10, 5))
            b = r.standard_normal(10)
            prob = log_problem(A, b, lam=1e-3, eps_bar=0.1)
            cfg = SolverConfig(tol=1e-10, momentum="none", gamma=1.0001)
            x_b, _, s1 = solve(prob, cfg, np.zeros(5))
            x_p, _, s2 = pire_solve(prob, SolverConfig(tol=1e-10), np.zeros(5))
            F_b = eval_objective(prob.loss, prob.penalty, x_b)
            F_p = eval_objective(prob.loss, prob.penalty, x_p)
            assert abs(F_b - F_p) <= 1e-6

    def test_monotone_descent(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=3))
        config = SolverConfig(record_trace=True, max_iter=400)
        _, trace, _ = pire_solve(prob, config, np.zeros(prob.loss.dim))
        F = trace.columns["F"]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(F, F[1:]))


class TestIrl1:
    def test_requires_abs_g(self):
        from bpiree.model import CustomPenalty

        loss = LeastSquares(np.eye(2), np.zeros(2))
        pen = CustomPenalty(lam=1.0, h=lambda t: t, h_prime=lambda t: 1.0,
                            g=lambda u: u * u)
        prob = Problem(loss, pen, BlockPartition.contiguous(2, 1))
        with pytest.raises(ValueError):
            irl1_solve(prob, SolverConfig(), np.zeros(2))
        with pytest.raises(ValueError, match="irl1e1 requires the absolute-value g"):
            irl1e1_solve(prob, SolverConfig(), np.zeros(2))

    def test_first_steps_agree_with_and_without_momentum(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=1))
        x0 = np.zeros(prob.loss.dim)
        cfg = SolverConfig(max_iter=1, record_trace=True)
        x_a, _, _ = irl1_solve(prob, cfg, x0)
        x_b, _, _ = irl1e1_solve(prob, cfg, x0)
        np.testing.assert_array_equal(x_a, x_b)

    def test_unit_restart_period_disables_momentum(self):
        # N = 1 resets the clock every call, so irl1e1 degenerates to irl1
        prob, _ = build_problem(desk_spec("log_ls", seed=2))
        x0 = np.zeros(prob.loss.dim)
        cfg_plain = SolverConfig(record_trace=True, max_iter=300)
        cfg_reset = SolverConfig(record_trace=True, max_iter=300, fista_restart_N=1)
        x_a, tr_a, _ = irl1_solve(prob, cfg_plain, x0)
        x_b, tr_b, _ = irl1e1_solve(prob, cfg_reset, x0)
        np.testing.assert_array_equal(x_a, x_b)
        assert tr_a.columns["F"] == tr_b.columns["F"]

    def test_momentum_speeds_up_on_most_seeds(self):
        wins = 0
        for seed in range(10):
            prob, _ = build_problem(desk_spec("log_ls", seed=seed))
            x0 = np.zeros(prob.loss.dim)
            _, tr_plain, s1 = irl1_solve(prob, SolverConfig(max_iter=20000), x0)
            _, tr_mom, s2 = irl1e1_solve(prob, SolverConfig(max_iter=20000), x0)
            assert s1 is SolveStatus.CONVERGED and s2 is SolveStatus.CONVERGED
            wins += tr_mom.iterations < tr_plain.iterations
        assert wins >= 8


class TestSweepMethods:
    def test_single_block_degeneracy(self):
        # with one block pire, pire-ps and pire-au take identical iterates
        prob, _ = build_problem(desk_spec("log_ls", seed=4))
        x0 = np.zeros(prob.loss.dim)
        cfg = SolverConfig(max_iter=40, record_trace=True)
        xs = {}
        for name, fn in (("pire", pire_solve), ("ps", pire_ps_solve), ("au", pire_au_solve)):
            x, trace, _ = fn(prob, cfg, x0)
            xs[name] = (x, trace.columns["F"])
        np.testing.assert_array_equal(xs["pire"][0], xs["ps"][0])
        assert xs["pire"][1] == xs["ps"][1]
        # the sequential sweep maintains its residual incrementally, which
        # perturbs the last ulp
        np.testing.assert_allclose(xs["pire"][0], xs["au"][0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(xs["pire"][1], xs["au"][1], rtol=1e-13)

    def test_gauss_seidel_beats_jacobi_on_coupled_quadratic(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        prob = log_problem(A, np.ones(2), m=2)
        cfg = SolverConfig(tol=1e-8)
        _, tr_ps, s_ps = pire_ps_solve(prob, cfg, np.zeros(2))
        _, tr_au, s_au = pire_au_solve(prob, cfg, np.zeros(2))
        assert s_ps is SolveStatus.CONVERGED and s_au is SolveStatus.CONVERGED
        assert tr_au.iterations < tr_ps.iterations

    @pytest.mark.parametrize("seed", [0, 13, 17])
    def test_au_and_ps_coincide_on_whole_column_blocks(self, seed):
        # desk matrix_lp blocks are whole columns of X, which share no residual
        # entry, so the sequential sweep takes the simultaneous step up to the
        # rounding of its incremental residual
        spec = desk_spec("matrix_lp", seed=seed)
        prob, _ = build_problem(spec)
        assert all(blk[0] % spec.q == 0 and blk.size % spec.q == 0
                   for blk in prob.partition.blocks)
        config = make_solver_config(spec, SolverEntry("pire-au"))  # as in compare
        x0 = np.zeros(prob.loss.dim)
        _, tr_au, s_au = pire_au_solve(prob, config, x0)
        _, tr_ps, s_ps = pire_ps_solve(prob, config, x0)
        assert s_au is s_ps is SolveStatus.CONVERGED
        assert tr_au.iterations == tr_ps.iterations
        F_au, F_ps = tr_au.columns["F"][-1], tr_ps.columns["F"][-1]
        assert abs(F_au - F_ps) <= 1e-12 * abs(F_ps)

    def test_au_and_ps_coincide_in_the_bench_reference(self):
        # the same premise on the benchmark's 64 recorded desk matrix_lp compares
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "reference.json")
        with open(path) as f:
            instances = json.load(f)["cli_desk"]["instances"]
        assert len(instances) == 64
        for inst, rows in instances.items():
            au, ps = rows["lp.compare.pire-au"], rows["lp.compare.pire-ps"]
            assert (au["iters"], au["F_final"]) == (ps["iters"], ps["F_final"]), inst
            assert au["rel_err_true"] == pytest.approx(ps["rel_err_true"], rel=1.4e-13, abs=0)

    def test_monotone_on_matrix_instance(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=0))
        x0 = np.zeros(prob.loss.dim)
        for fn in (pire_ps_solve, pire_au_solve):
            _, trace, status = fn(
                prob, SolverConfig(record_trace=True, max_iter=3000), x0
            )
            F = trace.columns["F"]
            assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(F, F[1:]))


class TestAgreementAtLamZero:
    def test_all_methods_find_the_same_minimizer(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 6))
        x_star = rng.standard_normal(6)
        b = A @ x_star
        prob = log_problem(A, b, lam=0.0, m=2)
        x0 = np.zeros(6)
        cfg = SolverConfig(tol=1e-12, max_iter=200000)
        sols = [
            solve(prob, cfg, x0)[0],
            pire_solve(prob, cfg, x0)[0],
            irl1_solve(prob, cfg, x0)[0],
            irl1e1_solve(prob, cfg, x0)[0],
            pire_ps_solve(prob, cfg, x0)[0],
            pire_au_solve(prob, cfg, x0)[0],
        ]
        for s in sols:
            np.testing.assert_allclose(s, x_star, atol=1e-8)


# ---------------------------------------------------------------------------
# differential check: the baselines against a plain transcription of their maths
# ---------------------------------------------------------------------------


def _norm(v):
    return math.sqrt(v.dot(v))


def _reference_baseline(algo, problem, config, x0):
    """Run one baseline written out as its own loop: the full-vector
    methods (pire, irl1, irl1e1) step every coordinate with ``1/L`` for the
    whole operator and recompute the residual; pire-ps steps every block
    from the sweep's base point with weights frozen at sweep start and
    recomputes the residual; pire-au walks the blocks with fresh weights and
    updates the residual after each block.  Every prox call takes the
    penalty's ``g`` unscaled.  Returns one ``(x bytes, F hex, step_rel hex)``
    row per iteration, the stop iteration and the status value."""
    loss, penalty = problem.loss, problem.penalty
    eps = np.full(loss.dim, config.eps0) if problem.smoothed_lp else None
    x = np.asarray(x0, dtype=np.float64).copy()
    r = loss.residual(x)
    prox = functools.partial(block_prox_step, g=penalty.g, g_subgrad=penalty.g_subgrad)
    if algo in ("pire", "irl1", "irl1e1"):
        alpha = 1.0 / loss.block_lipschitz(np.arange(loss.dim))
        clock = (1.0, 0)
        x_prev = x.copy()
    else:
        plans = problem.block_plans()
        alphas = [1.0 / plan.lipschitz for plan in plans]
    rows = []
    for k in range(1, config.max_iter + 1):
        x_start = x.copy()
        if algo in ("pire", "irl1", "irl1e1"):
            beta = 0.0
            if algo == "irl1e1":
                beta, clock = _reference_clock(*clock, config.fista_restart_N)
            w = penalty.weights(x, eps)
            if beta != 0.0:
                x_hat = x + beta * (x - x_prev)
                r_hat = loss.residual(x_hat)
            else:
                x_hat, r_hat = x, r
            x_new = prox(x_hat, loss.grad_from_residual(r_hat), alpha, w)
            x_prev, x = x, x_new
            r = loss.residual(x)
        elif algo == "pire-ps":
            w = penalty.weights(x_start, eps)
            x = x_start.copy()
            for b, (plan, idx) in enumerate(zip(plans, problem.partition.blocks)):
                grad = plan.grad_from_residual(r)
                x[idx] = prox(x_start[idx], grad, alphas[b], w[idx])
            r = loss.residual(x)
        else:
            for b, (plan, idx) in enumerate(zip(plans, problem.partition.blocks)):
                x_b = x[idx]
                w = penalty.weights(x_b) if eps is None else penalty.weights(x_b, eps[idx])
                new = prox(x_b, plan.grad_from_residual(r), alphas[b], w)
                r = plan.residual_after_delta(r, new - x_b)
                x[idx] = new
        assert np.isfinite(x).all()
        step_norm = _norm(x - x_start)
        step_rel = step_norm / max(_norm(x_start), 1e-12)
        F = loss.value_from_residual(r) + penalty.value(x, eps)
        rows.append((x.tobytes(), F.hex(), step_rel.hex()))
        if step_norm == 0.0 or step_rel < config.tol:
            return rows, k, SolveStatus.CONVERGED.value
    return rows, config.max_iter, SolveStatus.MAX_ITER.value


_SOLVERS = {
    "pire": pire_solve,
    "irl1": irl1_solve,
    "irl1e1": irl1e1_solve,
    "pire-ps": pire_ps_solve,
    "pire-au": pire_au_solve,
}


class TestMatchesTranscription:
    """Every iterate, objective and relative step of the baselines is
    bitwise equal to the transcription, and so are the stop iteration and
    the status.  The cap stops pire-ps on log_ls m=4, which diverges, before
    its objective overflows (at iteration 2153); :class:`TestDivergence`
    covers what happens there.  ``square_g`` has ``g(u) = u^2``, so its prox
    steps take the bisection path (irl1 and irl1e1 reject it)."""

    CASES = [
        (example, m, algo)
        for example, m in (("log_ls", 1), ("log_ls", 4), ("matrix_lp", 5))
        for algo in ("pire", "irl1", "irl1e1", "pire-ps", "pire-au")
    ] + [("square_g", m, algo) for m in (1, 4) for algo in ("pire", "pire-ps", "pire-au")]

    @staticmethod
    def square_g_problem(m):
        """20x40 least squares with ``h(t) = t`` and ``g(u) = u^2``."""
        rng = np.random.default_rng(5)
        loss = LeastSquares(rng.standard_normal((20, 40)), rng.standard_normal(20))
        penalty = CustomPenalty(lam=0.1, h=lambda t: t, h_prime=lambda t: 1.0,
                                g=lambda u: u * u, g_subgrad=lambda u: (2.0 * u, 2.0 * u))
        return Problem(loss, penalty, BlockPartition.contiguous(loss.dim, m))

    @pytest.mark.parametrize("example,m,algo", CASES)
    def test_every_iteration_bitwise(self, example, m, algo):
        if example == "square_g":
            prob, max_iter = self.square_g_problem(m), 50
        else:
            prob, max_iter = build_problem(desk_spec(example, seed=0, m=m))[0], 2000
        x0 = np.zeros(prob.loss.dim)
        config = SolverConfig(record_trace=True, max_iter=max_iter)
        iterates = []
        _, trace, status = _SOLVERS[algo](
            prob, config, x0, callback=lambda k, x: iterates.append(x.tobytes())
        )
        rows, k_stop, ref_status = _reference_baseline(algo, prob, config, x0)
        got = [
            (x, F.hex(), step_rel.hex())
            for x, F, step_rel in zip(iterates, trace.columns["F"], trace.columns["step_rel"])
        ]
        assert len(iterates) == len(trace.columns["F"]) == len(rows)
        for k, (g, r) in enumerate(zip(got, rows), start=1):
            assert g == r, f"iteration {k} differs"
        assert trace.iterations == k_stop
        assert status.value == ref_status


class TestDivergence:
    def test_pire_ps_divergence_is_a_status(self):
        # Jacobi sweeps with per-block stepsizes 1/L_b overshoot on coupled
        # blocks; the run must stop at its last finite iterate
        prob, _ = build_problem(desk_spec("log_ls", seed=0, m=4))
        with np.errstate(over="ignore"):
            x, trace, status = pire_ps_solve(
                prob, SolverConfig(record_trace=True), np.zeros(prob.loss.dim)
            )
        assert status is SolveStatus.NUMERICAL_FAILURE
        assert np.isfinite(x).all()
        assert trace.iterations == len(trace.columns["F"]) > 0
        assert math.isfinite(trace.columns["F"][-1])


class TestSharedLoop:
    @pytest.mark.parametrize("fn", [pire_solve, irl1e1_solve, pire_ps_solve, pire_au_solve])
    def test_residual_column_and_no_certificates(self, fn):
        # plain rows (block -1) on an lp problem, residual column filled,
        # no certificates and no support report
        prob, _ = build_problem(desk_spec("matrix_lp", seed=0))
        config = SolverConfig(
            record_trace=True, record_residual=True, check_descent=True, max_iter=5
        )
        eps = np.full(prob.loss.dim, config.eps0)
        iterates = []
        _, trace, _ = fn(prob, config, np.zeros(prob.loss.dim),
                         callback=lambda k, x: iterates.append(x.copy()))
        assert trace.certificates == []
        assert trace.support is None
        assert list(trace.columns) == [
            "k", "F", "step_rel", "residual", "beta", "block", "retried", "wall_ns"]
        assert trace.columns["block"] == [-1] * 5
        for residual, x in zip(trace.columns["residual"], iterates):
            assert residual == stationarity_residual(prob, x, eps)
