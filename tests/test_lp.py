"""Smoothed-lp variant: weights, smoothing decay, support fixation."""

import math

import numpy as np
import pytest

from bpiree.experiments import build_problem, desk_spec
from bpiree.lp import solve_lp
from bpiree.model import (
    BlockPartition,
    LeastSquares,
    Problem,
    SmoothedLp,
)
from bpiree.solver import SolveStatus, SolverConfig, bpiree_step, init_state


def lp_problem(A, b, lam, p, m=1):
    loss = LeastSquares(A, b)
    return Problem(loss, SmoothedLp(lam=lam, p=p), BlockPartition.contiguous(loss.dim, m))


class TestLpWeights:
    def test_hand_value_half(self):
        w = SmoothedLp(lam=1.0, p=0.5).weights(np.zeros(1), np.ones(1))
        assert w[0] == pytest.approx(0.5)

    def test_hand_value_benchmark_parameters(self):
        w = SmoothedLp(lam=0.015, p=0.1).weights(np.zeros(1), np.ones(1))
        assert w[0] == pytest.approx(0.0015)

    def test_decreasing_in_magnitude(self):
        x = np.array([0.0, 1.0, 100.0, 1e6])
        w = SmoothedLp(lam=0.7, p=0.3).weights(x, np.ones(4))
        assert np.all(np.diff(w) < 0)
        assert w[-1] == pytest.approx(0.7 * 0.3 * (1e6 + 1) ** (0.3 - 1))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            SmoothedLp(lam=1.0, p=0.5).weights(np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_eps(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            SmoothedLp(lam=1.0, p=0.5).weights(np.ones(2), np.array([bad, 1.0]))


class TestUpdateEpsilon:
    def test_zero_keeps_eps(self):
        np.testing.assert_array_equal(
            SmoothedLp.decay_epsilon(np.zeros(1), np.array([0.5]), mu=0.1), [0.5]
        )

    def test_nonzero_shrinks_by_sqrt_mu(self):
        out = SmoothedLp.decay_epsilon(np.ones(1), np.ones(1), mu=0.1)
        assert out[0] == pytest.approx(math.sqrt(0.1))

    def test_geometric_decay(self):
        eps = np.ones(1)
        for _ in range(6):
            eps = SmoothedLp.decay_epsilon(np.ones(1), eps, mu=0.25)
        assert eps[0] == pytest.approx(0.25 ** 3)

    def test_mixed_coordinates(self):
        x_new = np.array([0.0, 2.0, 0.0])
        out = SmoothedLp.decay_epsilon(x_new, np.array([1.0, 1.0, 0.5]), 0.1)
        np.testing.assert_allclose(out, [1.0, math.sqrt(0.1), 0.5])

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            SmoothedLp.decay_epsilon(np.ones(1), np.ones(1), mu=1.0)

    def test_randomized_branch_correctness(self):
        rng = np.random.default_rng(12)
        mu = 0.3
        for _ in range(1000):
            x_new = rng.standard_normal(4) * rng.integers(0, 2, size=4)
            eps = rng.uniform(0.01, 2.0, size=4)
            out = SmoothedLp.decay_epsilon(x_new, eps, mu)
            for j in range(4):
                if x_new[j] == 0.0:
                    assert out[j] == eps[j]
                else:
                    assert out[j] == math.sqrt(mu) * eps[j]


class TestSolveLp:
    def test_requires_smoothed_penalty(self):
        from bpiree.model import LogPenalty

        loss = LeastSquares(np.eye(2), np.zeros(2))
        prob = Problem(loss, LogPenalty(lam=1.0, eps_bar=1.0), BlockPartition.contiguous(2, 1))
        with pytest.raises(ValueError):
            solve_lp(prob, SolverConfig(), np.zeros(2))

    def test_lam_zero_reduces_to_smooth_solver(self):
        # identical iterates to the unpenalized solver, but eps still decays
        prob = lp_problem(np.eye(2), np.array([1.0, -1.0]), lam=0.0, p=0.5)
        config = SolverConfig(momentum="none")
        x, eps, trace, status = solve_lp(prob, config, np.zeros(2))
        assert status is SolveStatus.CONVERGED
        np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-3)
        assert np.all(eps < 1.0)  # every coordinate went nonzero at least once

    def test_eps_branch_correct_along_run(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=0))
        config = SolverConfig(momentum="fista", mu=0.1)
        state = init_state(prob, config, np.zeros(prob.loss.dim))
        for _ in range(200):
            eps_before = state.eps.copy()
            info = bpiree_step(state, prob, config)
            idx = prob.partition.blocks[info.block]
            changed = np.zeros(prob.loss.dim, dtype=bool)
            changed[idx] = True
            # untouched coordinates keep eps
            np.testing.assert_array_equal(state.eps[~changed], eps_before[~changed])
            # updated block: eps fixed at zeros, shrunk by sqrt(mu) elsewhere
            new_vals = state.x[idx]
            expected = np.where(
                new_vals == 0.0,
                eps_before[idx],
                math.sqrt(config.mu) * eps_before[idx],
            )
            np.testing.assert_allclose(state.eps[idx], expected, rtol=1e-15)
            assert np.all(state.eps > 0)
            assert np.all(state.eps <= eps_before + 1e-15)

    def test_objective_nonincreasing(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=1))
        config = SolverConfig(momentum="fista", record_trace=True)
        _, _, trace, status = solve_lp(prob, config, np.zeros(prob.loss.dim))
        F = trace.columns["F"]
        for prev, nxt in zip(F, F[1:]):
            assert nxt <= prev + 1e-12 * (1 + abs(prev))

    def test_desk_instance_recovers_support(self):
        spec = desk_spec("matrix_lp", seed=1)
        prob, x_true = build_problem(spec)
        config = SolverConfig(momentum="fista")
        x, eps, trace, status = solve_lp(prob, config, np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        assert np.array_equal(np.flatnonzero(x), np.flatnonzero(x_true))

    def test_support_fixed_at_termination(self):
        # a tight tolerance leaves a long sign-stable polishing tail after
        # the terminal pruning cascade
        prob, _ = build_problem(desk_spec("matrix_lp", seed=3))
        config = SolverConfig(momentum="fista", record_trace=True, tol=1e-8)
        x, eps, trace, status = solve_lp(prob, config, np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        assert trace.support is not None
        assert trace.support.fixed
        np.testing.assert_array_equal(trace.support.sign, np.sign(x))
        assert trace.columns["sign_fixed"][-1]

    def test_support_magnitude_floor(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=4))
        x, _, _, status = solve_lp(
            prob, SolverConfig(momentum="fista"), np.zeros(prob.loss.dim)
        )
        assert status is SolveStatus.CONVERGED
        support = np.abs(x[x != 0.0])
        assert support.min() > 10 * np.finfo(float).eps * np.linalg.norm(x)

    def test_faster_decay_fixes_signs_no_later(self):
        # regression expectation on a fixed seed, not a guarantee
        spec = desk_spec("matrix_lp", seed=5)
        prob, _ = build_problem(spec)
        K = {}
        for mu in (0.1, 0.99):
            config = SolverConfig(momentum="fista", mu=mu)
            _, _, trace, status = solve_lp(prob, config, np.zeros(prob.loss.dim))
            assert status is SolveStatus.CONVERGED
            K[mu] = trace.support.K_observed
        assert K[0.1] <= K[0.99]

    def test_eps_decay_on_final_support(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=6))
        config = SolverConfig(momentum="fista", mu=0.1)
        x, eps, trace, status = solve_lp(prob, config, np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        support = x != 0.0
        assert np.all(eps[support] <= 0.1**5 * config.eps0)


def _terminal_run(history, window):
    """``(fixed, K_observed)`` of a sign history by a backward scan: the
    1-based iteration that starts the terminal constant run, and whether
    that run is at least ``min(window, len(history))`` long."""
    start = len(history) - 1
    while start > 0 and np.array_equal(history[start - 1], history[-1]):
        start -= 1
    return len(history) - start >= min(window, len(history)), start + 1


class TestSupportReport:
    @pytest.mark.parametrize("window", [1, 5, 100, 10**6])
    def test_report_matches_a_scan_of_the_signs(self, window):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=0))
        config = SolverConfig(momentum="fista", record_trace=True, support_window=window)
        history = []
        _, _, trace, status = solve_lp(
            prob, config, np.zeros(prob.loss.dim),
            callback=lambda k, x: history.append(np.sign(x)),
        )
        assert status is SolveStatus.CONVERGED
        assert window < len(history) or window == 10**6
        assert len(history) == len(trace.columns["k"]) == trace.iterations
        fixed, K = _terminal_run(history, window)
        assert (trace.support.fixed, trace.support.K_observed) == (fixed, K)
        np.testing.assert_array_equal(trace.support.sign, history[-1])
        # every row reports the sign run up to its own iteration
        run_start = 1
        sign_fixed = trace.columns["sign_fixed"]
        for k, fixed_k in enumerate(sign_fixed, start=1):
            if k > 1 and not np.array_equal(history[k - 1], history[k - 2]):
                run_start = k
            assert fixed_k == (k - run_start + 1 >= min(window, k)), k
        assert any(sign_fixed)
        if 1 < window < len(history):
            assert not all(sign_fixed)


    def test_one_class_under_every_name(self):
        import bpiree
        from bpiree import solver

        assert solver.SupportReport is bpiree.SupportReport


class TestLpTrace:
    def test_trace_columns_present(self):
        prob, _ = build_problem(desk_spec("matrix_lp", seed=7))
        config = SolverConfig(momentum="fista", record_trace=True, max_iter=50)
        _, _, trace, _ = solve_lp(prob, config, np.zeros(prob.loss.dim))
        last = {name: column[-1] for name, column in trace.columns.items()}
        assert last["eps_min"] <= last["eps_max"] <= 1.0
        assert 0 <= last["support_size"] <= prob.loss.dim
        assert isinstance(last["sign_fixed"], (bool, np.bool_))


class TestSignTracking:
    def test_per_block_tracking_matches_full_vector(self):
        # sign changes are detected per updated block; a full-vector sign
        # comparison after every step must see the same run starts
        prob, _ = build_problem(desk_spec("matrix_lp", seed=3))
        config = SolverConfig(momentum="fista")
        state = init_state(prob, config, np.zeros(prob.loss.dim))
        sign, run_start = np.sign(state.x), 1
        for _ in range(400):
            bpiree_step(state, prob, config)
            new_sign = np.sign(state.x)
            if not np.array_equal(new_sign, sign):
                sign, run_start = new_sign, state.k
            assert state.sign_run_start == run_start
        assert run_start > 1
