"""Trajectory-level cross-checks against naive reference implementations.

These rebuild the iteration from the public primitives only (full-point
gradients, fresh objective evaluations, closed-form soft threshold) with
none of the solver's incremental-residual bookkeeping, and require the
optimized loop to follow the same trajectory.
"""

import math

import numpy as np
import pytest

from bpiree.experiments import ALGORITHMS, build_problem, desk_spec
from bpiree.model import (
    BlockPartition,
    CustomPenalty,
    LeastSquares,
    LogPenalty,
    MatrixLeastSquares,
    Problem,
    SmoothedLp,
    eval_objective,
)
from bpiree.solver import (
    SolveStatus,
    SolverConfig,
    choose_block,
    extrapolation_bound,
    init_state,
    bpiree_step,
)


def reference_clock(t_curr, steps, N):
    """The restarted FISTA clock written out: ``(t_curr, steps)`` to
    ``(beta, (t_curr, steps))``, both t values reset to 1 after ``N`` steps."""
    t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_curr**2))
    beta = (t_curr - 1.0) / t_next
    steps += 1
    if steps >= N:
        return beta, (1.0, 0)
    return beta, (t_next, steps)


def reference_trajectory(problem, config, x0, iters):
    """Naive re-derivation of the block iteration, one objective at a time."""
    partition = problem.partition
    m = partition.m
    smoothed = isinstance(problem.penalty, SmoothedLp)
    x = np.asarray(x0, dtype=float).copy()
    prev = [x[b].copy() for b in partition.blocks]
    counts = [0] * m
    L = [problem.loss.block_lipschitz(b) for b in partition.blocks]
    last_L = list(L)
    eps = np.full(x.size, config.eps0) if smoothed else None
    clock = (1.0, 0)
    F = eval_objective(problem.loss, problem.penalty, x, eps)
    history = []
    for k in range(1, iters + 1):
        b = choose_block(config.schedule, k, m, config.seed)
        idx = partition.blocks[b]
        alpha = 1.0 / (config.gamma * L[b])
        if config.momentum in ("fista", "fista_capped"):
            beta_sched, clock = reference_clock(*clock, config.fista_restart_N)
        else:
            beta_sched = 0.0
        bound = extrapolation_bound(config.gamma, config.delta) * math.sqrt(last_L[b] / L[b])
        beta = {
            "fista_capped": min(beta_sched, bound),
            "fista": beta_sched,
            "bound": bound,
            "none": 0.0,
        }[config.momentum]
        beta = min(beta, 1.0)
        if counts[b] < 2:
            beta = 0.0

        if smoothed:
            w = problem.penalty.weights(x[idx], eps[idx])
        else:
            w = problem.penalty.weights(x[idx])

        def attempt(beta_try):
            x_hat = x[idx] + beta_try * (x[idx] - prev[b])
            probe = x.copy()
            probe[idx] = x_hat
            grad = problem.loss.block_grad(probe, idx)
            center = x_hat - alpha * grad
            new_block = np.sign(center) * np.maximum(np.abs(center) - alpha * w, 0.0)
            x_new = x.copy()
            x_new[idx] = new_block
            return x_new, eval_objective(problem.loss, problem.penalty, x_new, eps)

        x_new, F_new = attempt(beta)
        retried = False
        if config.safeguard and beta > 0.0 and not F_new <= F:
            beta = 0.0
            x_new, F_new = attempt(beta)
            retried = True

        prev[b] = x[idx].copy()
        counts[b] += 1
        last_L[b] = L[b]
        x = x_new
        if smoothed:
            eps = eps.copy()
            eps[idx] = np.where(
                x[idx] == 0.0, eps[idx], np.sqrt(config.mu) * eps[idx]
            )
            F = eval_objective(problem.loss, problem.penalty, x, eps)
        else:
            F = F_new
        history.append((b, beta, retried, F, x.copy()))
    return history


def optimized_trajectory(problem, config, x0, iters):
    state = init_state(problem, config, x0)
    history = []
    for _ in range(iters):
        info = bpiree_step(state, problem, config)
        history.append(
            (info.block, info.beta_used, info.retried, state.F_current, state.x.copy())
        )
    return history


def assert_trajectories_match(problem, config, x0, iters):
    ref = reference_trajectory(problem, config, x0, iters)
    opt = optimized_trajectory(problem, config, x0, iters)
    for k, ((b1, beta1, r1, F1, x1), (b2, beta2, r2, F2, x2)) in enumerate(
        zip(ref, opt), start=1
    ):
        assert b1 == b2, f"block mismatch at iteration {k}"
        assert beta1 == pytest.approx(beta2, abs=1e-14), f"beta at {k}"
        assert r1 == r2, f"retry flag at {k}"
        assert F1 == pytest.approx(F2, rel=1e-9, abs=1e-12), f"objective at {k}"
        np.testing.assert_allclose(x1, x2, rtol=1e-9, atol=1e-12,
                                   err_msg=f"iterate at {k}")


class TestAgainstNaiveReference:
    def test_log_penalty_multiblock_shuffled(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 18))
        A /= np.linalg.norm(A, axis=0)
        x_star = np.zeros(18)
        x_star[rng.choice(18, 3, replace=False)] = rng.standard_normal(3)
        b = A @ x_star + 0.01 * rng.standard_normal(12)
        problem = Problem(
            LeastSquares(A, b),
            # strong penalty so thresholding is actually exercised
            __import__("bpiree").LogPenalty(lam=0.05, eps_bar=0.1),
            BlockPartition.contiguous(18, 3),
        )
        config = SolverConfig(momentum="fista", schedule="shuffled", seed=5)
        assert_trajectories_match(problem, config, np.zeros(18), 60)

    def test_log_penalty_capped_momentum(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=2, n=20, q=40, sparsity=3, m=2))
        config = SolverConfig(momentum="fista_capped")
        assert_trajectories_match(prob, config, np.zeros(40), 60)

    def test_smoothed_lp_matrix(self):
        prob, _ = build_problem(
            desk_spec("matrix_lp", seed=3, n=10, q=16, t=3, m=4)
        )
        config = SolverConfig(momentum="fista", mu=0.1)
        assert_trajectories_match(prob, config, np.zeros(48), 80)

    def test_safeguard_path_is_exercised(self):
        # make sure the comparison horizon contains a retry; otherwise the
        # cross-check would silently skip the safeguard branch.  The horizon
        # stays before the convergence plateau, where the retry decision
        # F_new <= F_prev sits inside float noise and the two evaluation
        # routes (incremental residual vs fresh) may legitimately disagree.
        prob, _ = build_problem(
            desk_spec("matrix_lp", seed=0, n=10, q=16, t=3, m=4)
        )
        config = SolverConfig(momentum="fista")
        history = optimized_trajectory(prob, config, np.zeros(48), 50)
        assert any(rec[2] for rec in history)
        assert_trajectories_match(prob, config, np.zeros(48), 50)


class TestMatrixFlatteningEquivalence:
    def test_kronecker_identity(self):
        # f(X) = 0.5||AX - B||_F^2 equals the vector least squares with the
        # block-diagonal design kron(I_t, A) on the column-major flattening
        rng = np.random.default_rng(4)
        n, q, t = 6, 5, 3
        A = rng.standard_normal((n, q))
        B = rng.standard_normal((n, t))
        mat_loss = MatrixLeastSquares(A, B)
        vec_loss = LeastSquares(np.kron(np.eye(t), A), B.ravel(order="F"))
        x = rng.standard_normal(q * t)
        assert mat_loss.value(x) == pytest.approx(vec_loss.value(x), rel=1e-12)
        np.testing.assert_allclose(mat_loss.grad(x), vec_loss.grad(x), rtol=1e-10)
        block = rng.choice(q * t, size=7, replace=False)
        np.testing.assert_allclose(
            mat_loss.block_grad(x, block),
            vec_loss.block_grad(x, block),
            rtol=1e-10,
        )
        assert mat_loss.block_lipschitz(block) == pytest.approx(
            vec_loss.block_lipschitz(block), rel=1e-6
        )

    def test_solver_trajectories_agree_across_representations(self):
        rng = np.random.default_rng(9)
        n, q, t = 8, 6, 2
        A = rng.standard_normal((n, q))
        A /= np.linalg.norm(A, axis=0)
        X_true = np.zeros((q, t))
        X_true[0, 0] = 1.3
        X_true[4, 1] = -0.7
        B = A @ X_true + 0.01 * rng.standard_normal((n, t))
        penalty = SmoothedLp(lam=0.02, p=0.3)
        partition = BlockPartition.contiguous(q * t, 3)
        prob_mat = Problem(MatrixLeastSquares(A, B), penalty, partition)
        prob_vec = Problem(
            LeastSquares(np.kron(np.eye(t), A), B.ravel(order="F")),
            penalty,
            partition,
        )
        config = SolverConfig(momentum="fista", mu=0.2)
        traj_mat = optimized_trajectory(prob_mat, config, np.zeros(q * t), 50)
        traj_vec = optimized_trajectory(prob_vec, config, np.zeros(q * t), 50)
        # the two representations estimate block curvature by power iteration
        # on different (mathematically equal) matrices, so stepsizes agree
        # only to the power-iteration tolerance; a representation bug would
        # show up orders of magnitude above these thresholds
        for (b1, _be1, _r1, F1, x1), (b2, _be2, _r2, F2, x2) in zip(traj_mat, traj_vec):
            assert b1 == b2
            assert F1 == pytest.approx(F2, rel=1e-7)
            np.testing.assert_allclose(x1, x2, rtol=1e-5, atol=1e-6)


class TestNonAbsGAgainstRidge:
    """A penalty with its own ``g`` runs end to end: ``h(t) = t`` and
    ``g(u) = u^2`` make the objective a ridge regression, whose minimizer
    ``(A^T A + 2 lam I)^{-1} A^T b`` every solver that accepts the
    penalty must reach."""

    LAM = 0.3

    @staticmethod
    def ridge_problem(m, with_subgrad):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 12))
        b = rng.standard_normal(20)
        penalty = CustomPenalty(
            lam=TestNonAbsGAgainstRidge.LAM,
            h=lambda t: t,
            h_prime=lambda t: 1.0,
            g=lambda u: u * u,
            g_subgrad=(lambda u: (2 * u, 2 * u)) if with_subgrad else None,
        )
        return Problem(LeastSquares(A, b), penalty, BlockPartition.contiguous(12, m))

    @pytest.mark.parametrize("with_subgrad", [True, False])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("algo", ["bpiree", "pire", "pire-ps", "pire-au"])
    def test_reaches_the_ridge_solution(self, algo, m, with_subgrad):
        prob = self.ridge_problem(m, with_subgrad)
        A, b = prob.loss.A, prob.loss.b
        x_ridge = np.linalg.solve(A.T @ A + 2 * self.LAM * np.eye(12), A.T @ b)
        x, _, status = ALGORITHMS[algo](prob, SolverConfig(tol=1e-10), np.zeros(12))
        assert status is SolveStatus.CONVERGED
        assert np.linalg.norm(x - x_ridge) <= 1e-7 * np.linalg.norm(x_ridge)


class TestLogLsScaleInvariance:
    """Scaling ``b`` and ``eps_bar`` by ``c`` and ``lam`` by ``c^2`` scales
    the weights, the gradient and so every iterate by ``c``: the scaled run
    takes the same steps, to rounding."""

    CASES = [(seed, m) for seed in (0, 13, 17) for m in (1, 4)]

    @staticmethod
    def _solve(problem):
        config = SolverConfig(momentum="fista")
        return ALGORITHMS["bpiree"](problem, config, np.zeros(problem.loss.dim))

    @pytest.fixture(scope="class")
    def unscaled(self):
        runs = {}
        for seed, m in self.CASES:
            prob, _ = build_problem(desk_spec("log_ls", seed=seed, m=m))
            runs[seed, m] = prob, self._solve(prob)
        return runs

    @pytest.mark.parametrize("c", [0.25, 3.0, 4.0])
    def test_solution_scales_with_the_data(self, unscaled, c):
        for (seed, m), (prob, (x, trace, status)) in unscaled.items():
            pen = prob.penalty
            scaled = Problem(
                LeastSquares(prob.loss.A, c * prob.loss.b),
                LogPenalty(lam=c * c * pen.lam, eps_bar=c * pen.eps_bar),
                prob.partition,
            )
            x_c, trace_c, status_c = self._solve(scaled)
            assert (trace_c.iterations, status_c) == (trace.iterations, status), (seed, m)
            err = np.linalg.norm(x_c - c * x) / np.linalg.norm(c * x)
            assert err <= 1e-12, (seed, m, err)


class TestColumnPermutation:
    """Permuting the columns of ``A`` together with the partition (each
    block keeps its coordinates, in the same order, now found through an
    index array) permutes the solution.  For the matrix loss the variable's
    rows follow ``A``'s columns: flat index ``j*q + r`` moves to
    ``j*q + inv[r]``.  Block steps only touch their own columns and the
    residual, so their iterates match bit for bit; pire-ps and irl1e1
    recompute the full residual ``A x - b``, whose sum order the permutation
    changes, so theirs match to rounding.  pire-au takes block steps only
    where two blocks share a residual column (log_ls m=4, matrix m=3 and
    m=7); elsewhere it is pire-ps."""

    CASES = [("log_ls", seed, m) for seed in (0, 13, 17) for m in (1, 4)]
    MATRIX_CASES = [("matrix_lp", seed, m) for seed in (0, 13) for m in (3, 5, 7)]
    COUPLED = [case for case in CASES + MATRIX_CASES if case[2] in (3, 4, 7)]
    UNCOUPLED = [case for case in CASES + MATRIX_CASES if case[2] in (1, 5)]
    EXACT = [
        ("bpiree", SolverConfig(momentum="fista"), CASES + MATRIX_CASES),
        ("bpiree", SolverConfig(momentum="fista", schedule="shuffled", seed=3),
         CASES + MATRIX_CASES),
        ("bpiree", SolverConfig(), CASES + MATRIX_CASES),
        ("pire-au", SolverConfig(), COUPLED),
    ]
    ROUNDED = [("pire-ps", SolverConfig(), CASES), ("irl1e1", SolverConfig(), CASES),
               ("pire-au", SolverConfig(), UNCOUPLED)]

    @staticmethod
    def _pair(example, seed, m):
        prob, _ = build_problem(desk_spec(example, seed=seed, m=m))
        loss = prob.loss
        q = loss.A.shape[1]
        perm = np.random.default_rng(100 + seed).permutation(q)
        inv = np.argsort(perm)
        coords = np.arange(loss.dim)
        moved = coords - coords % q + inv[coords % q]
        if example == "log_ls":
            permuted_loss = LeastSquares(loss.A[:, perm], loss.b)
        else:
            permuted_loss = MatrixLeastSquares(loss.A[:, perm], loss.B)
        permuted = Problem(
            permuted_loss,
            prob.penalty,
            BlockPartition(blocks=tuple(moved[b] for b in prob.partition.blocks), n=loss.dim),
        )
        assert not any(isinstance(i, slice) for i in permuted.partition.index)
        return prob, permuted, moved

    @staticmethod
    def _runs(algo, config, prob, permuted):
        x0 = np.zeros(prob.loss.dim)
        return (ALGORITHMS[algo](prob, config, x0), ALGORITHMS[algo](permuted, config, x0))

    @pytest.mark.parametrize("algo,config,cases", EXACT,
                             ids=["fista", "fista-shuffled", "fista_capped", "pire-au"])
    def test_block_steps_permute_bitwise(self, algo, config, cases):
        for example, seed, m in cases:
            prob, permuted, moved = self._pair(example, seed, m)
            assert algo != "pire-au" or max(prob.coupling) > 1
            (x, trace, status), (x_p, trace_p, status_p) = self._runs(
                algo, config, prob, permuted
            )
            assert (trace_p.iterations, status_p) == (trace.iterations, status), (example, seed, m)
            np.testing.assert_array_equal(x_p[moved], x, err_msg=f"{example}, seed {seed}, m {m}")

    @pytest.mark.parametrize("algo,config,cases", ROUNDED, ids=["pire-ps", "irl1e1", "pire-au"])
    def test_full_residual_steps_permute_to_rounding(self, algo, config, cases):
        for example, seed, m in cases:
            prob, permuted, inv = self._pair(example, seed, m)
            assert algo != "pire-au" or max(prob.coupling) == 1
            (x, trace, status), (x_p, trace_p, status_p) = self._runs(
                algo, config, prob, permuted
            )
            assert (trace_p.iterations, status_p) == (trace.iterations, status), (example, seed, m)
            err = np.linalg.norm(x_p[inv] - x) / np.linalg.norm(x)
            assert err <= 1e-7, (example, seed, m, err)
