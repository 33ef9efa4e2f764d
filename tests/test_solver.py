"""Block solver: scheduling, extrapolation, descent, stopping, diagnostics."""

import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bpiree.model import (
    BlockPartition,
    LeastSquares,
    LogPenalty,
    MatrixLeastSquares,
    Problem,
    SmoothedLp,
)
from bpiree import baselines, solver
from bpiree.experiments import ALGORITHMS, build_problem, desk_spec
from bpiree.prox import NumericalFailure
from bpiree.solver import (
    EPS_FLOOR,
    SolveStatus,
    SolverConfig,
    Trace,
    bpiree_step,
    choose_block,
    descent_certificate,
    extrapolation_bound,
    init_state,
    solve,
    stationarity_residual,
)


def quadratic_problem(A, b, lam=0.0, eps_bar=1.0, m=1):
    loss = LeastSquares(A, b)
    return Problem(
        loss,
        LogPenalty(lam=lam, eps_bar=eps_bar),
        BlockPartition.contiguous(loss.dim, m),
    )


class TestChooseBlock:
    def test_cyclic_definition(self):
        assert [choose_block("cyclic", k, 3) for k in range(1, 7)] == [0, 1, 2, 0, 1, 2]

    def test_single_block(self):
        assert all(choose_block("cyclic", k, 1) == 0 for k in range(1, 10))
        assert all(choose_block("shuffled", k, 1, seed=3) == 0 for k in range(1, 10))

    def test_shuffled_windows_cover_all_blocks(self):
        m = 3
        picks = [choose_block("shuffled", k, m, seed=7) for k in range(1, 401)]
        window = 2 * m - 1
        for start in range(len(picks) - window + 1):
            assert set(picks[start : start + window]) == set(range(m))

    def test_shuffled_is_reproducible(self):
        a = [choose_block("shuffled", k, 5, seed=11) for k in range(1, 50)]
        b = [choose_block("shuffled", k, 5, seed=11) for k in range(1, 50)]
        assert a == b

    def test_shuffled_cycles_are_permutations(self):
        m = 4
        picks = [choose_block("shuffled", k, m, seed=2) for k in range(1, 4 * m + 1)]
        for c in range(4):
            assert sorted(picks[c * m : (c + 1) * m]) == list(range(m))

    def test_one_update_per_cycle(self):
        # the zero-momentum rule k <= 2m rests on this: before iteration k
        # the chosen block was picked (k-1)//m times
        for schedule in ("cyclic", "shuffled"):
            for m in (1, 2, 3, 5, 10):
                for seed in (0, 3, 17):
                    counts = [0] * m
                    for k in range(1, 20 * m + 1):
                        b = choose_block(schedule, k, m, seed)
                        assert counts[b] == (k - 1) // m
                        counts[b] += 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_block("cyclic", 0, 3)
        with pytest.raises(ValueError):
            choose_block("nope", 1, 3)

    @pytest.mark.parametrize("schedule", ["cyclic", "shuffled"])
    def test_rejects_no_blocks(self, schedule):
        with pytest.raises(ValueError, match="^need at least one block$"):
            choose_block(schedule, 1, 0)


class TestExtrapolationBound:
    def test_default_gamma_coefficient(self):
        assert extrapolation_bound(2.0, 0.9) == pytest.approx(0.15)

    def test_gamma_three(self):
        for delta in (0.1, 0.5, 0.99):
            assert extrapolation_bound(3.0, delta) == pytest.approx(delta / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            extrapolation_bound(1.0, 0.5)
        with pytest.raises(ValueError):
            extrapolation_bound(2.0, 1.0)


class TestBpireeStep:
    def test_hand_computed_first_step(self):
        # one block, A = I_1, b = 1, lam = 0: x1 = 0 - (1/(2*1.01))*(0-1)
        prob = quadratic_problem(np.eye(1), np.array([1.0]))
        config = SolverConfig()
        state = init_state(prob, config, np.zeros(1))
        bpiree_step(state, prob, config)
        assert state.x[0] == pytest.approx(1.0 / 2.02, rel=1e-9)
        assert state.k == 1

    def test_reduces_to_proximal_gradient(self):
        # beta forced 0 (momentum "none") and lam = 0: plain block step
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 3))
        prob = quadratic_problem(A, rng.standard_normal(4))
        config = SolverConfig(momentum="none", gamma=2.0)
        state = init_state(prob, config, np.zeros(3))
        L = prob.loss.block_lipschitz(np.arange(3))
        expected = -(1.0 / (2 * L)) * prob.loss.grad(np.zeros(3))
        bpiree_step(state, prob, config)
        np.testing.assert_allclose(state.x, expected, rtol=1e-12)

    @staticmethod
    def _overshooting_state(prob, config):
        # FISTA clock far along its sequence (beta ~ 1) and a previous block
        # value planted so that the extrapolation overshoots the stiff
        # direction and raises F
        state = init_state(prob, config, np.array([1.0, 1.0]))
        state.k = 2  # pretend two updates already happened
        state.t = 1e6
        state.x_prev[:] = [-1.0, 1.0]
        return state

    def test_safeguard_retries_on_increase(self):
        A = np.diag([2.0, 0.1])
        prob = quadratic_problem(A, np.array([0.0, 0.0]))
        config = SolverConfig(momentum="fista", safeguard=True)
        state = self._overshooting_state(prob, config)
        F_prev = state.F_current
        info = bpiree_step(state, prob, config)
        assert info.retried
        assert info.beta_used == 0.0
        assert state.F_current <= F_prev + 1e-12 * (1 + abs(F_prev))

    def test_safeguard_off_accepts_increase(self):
        A = np.diag([2.0, 0.1])
        prob = quadratic_problem(A, np.array([0.0, 0.0]))
        config = SolverConfig(momentum="fista", safeguard=False)
        state = self._overshooting_state(prob, config)
        F_prev = state.F_current
        info = bpiree_step(state, prob, config)
        assert not info.retried
        assert state.F_current > F_prev

    def test_bookkeeping_counts_and_untouched_blocks(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 9))
        prob = quadratic_problem(A, rng.standard_normal(6), lam=1e-3, eps_bar=0.1, m=3)
        config = SolverConfig(schedule="shuffled", seed=4)
        state = init_state(prob, config, rng.standard_normal(9))
        for k in range(1, 30):
            x_before = state.x.copy()
            b = bpiree_step(state, prob, config).block
            assert k == state.k
            mask = np.ones(9, dtype=bool)
            mask[prob.partition.blocks[b]] = False
            np.testing.assert_array_equal(state.x[mask], x_before[mask])

    def test_weights_follow_previous_iterate(self):
        # the step thresholds with the weights lam*h'(|x^{k-1}|) of the
        # previous iterate (weights at the new iterate give another point)
        prob = quadratic_problem(np.eye(2), np.array([1.0, -2.0]), lam=0.5, eps_bar=0.2)
        config = SolverConfig(momentum="none")
        x0 = np.array([0.3, 0.4])
        state = init_state(prob, config, x0)
        alpha = 1.0 / (config.gamma * state.last_block_L[0])
        v = x0 - alpha * prob.loss.grad(x0)
        expected = np.sign(v) * np.maximum(np.abs(v) - alpha * prob.penalty.weights(x0), 0.0)
        bpiree_step(state, prob, config)
        np.testing.assert_allclose(state.x, expected, rtol=1e-12)


class TestCommit:
    """Every step writes ``x``, ``x_prev``, the residual, ``f`` and ``k``
    through ``solver._commit``: in place, and not at all for a non-finite
    move."""

    KINDS = ("block", "simultaneous", "sequential")

    @staticmethod
    def _setup(kind):
        """(module whose prox the step calls, block label, step, problem, config, state)"""
        rng = np.random.default_rng(2)
        prob = quadratic_problem(rng.standard_normal((5, 4)), rng.standard_normal(5),
                                 lam=1e-2, eps_bar=0.1, m=1 if kind == "block" else 2)
        config = SolverConfig()
        x0 = rng.standard_normal(4)
        if kind == "block":
            return solver, "block 0", bpiree_step, prob, config, init_state(prob, config, x0)
        if kind == "simultaneous":
            step = functools.partial(baselines._simultaneous_step, alpha=0.1, use_momentum=False)
        else:
            step = functools.partial(baselines._sequential_step, plans=prob.block_plans(),
                                     alphas=[0.1, 0.1])
        # the sequential sweep takes the block step's move, which calls solver's prox
        module = baselines if kind == "simultaneous" else solver
        return module, "block -1", step, prob, config, solver._start_state(prob, config, x0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_move_commits_nothing(self, monkeypatch, kind):
        module, block, step, prob, config, state = self._setup(kind)
        monkeypatch.setattr(module, "block_prox_step",
                            lambda x_hat, *args, **kwargs: np.full(len(x_hat), np.inf))
        before = (state.x, state.x.copy(), state.x_prev.copy(), state.residual,
                  state.f, state.k, state.F_current)
        with pytest.raises(NumericalFailure,
                           match=rf"^non-finite result at iteration 1 \({block}, F="), \
                np.errstate(all="ignore"):  # the residual of an inf move is NaN
            step(state, prob, config)
        assert state.x is before[0]
        assert state.x.tobytes() == before[1].tobytes()
        assert state.x_prev.tobytes() == before[2].tobytes()
        assert state.residual is before[3]
        assert (state.f, state.k, state.F_current) == before[4:]

    @pytest.mark.parametrize("kind", KINDS)
    def test_move_is_written_in_place(self, kind):
        _, _, step, prob, config, state = self._setup(kind)
        x, x_prev, old = state.x, state.x_prev, state.x.copy()
        info = step(state, prob, config)
        assert state.x is x and state.x_prev is x_prev
        assert state.x_prev.tobytes() == old.tobytes()
        assert state.k == 1
        assert info.step_rel == pytest.approx(
            np.linalg.norm(state.x - old) / np.linalg.norm(old), rel=1e-12)
        np.testing.assert_allclose(state.residual, prob.loss.residual(state.x),
                                   rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# differential check: the step against a plain transcription of its maths
# ---------------------------------------------------------------------------


def _reference_init(problem, config, x0):
    """Starting point of the reference step, every value evaluated afresh."""
    loss, penalty = problem.loss, problem.penalty
    eps = np.full(loss.dim, config.eps0) if problem.smoothed_lp else None
    residual = loss.residual(x0)
    if isinstance(loss, MatrixLeastSquares):
        f = 0.5 * float(np.sum(residual * residual))
    else:
        f = 0.5 * float(residual @ residual)
    pen = penalty.value(x0, eps) if eps is not None else penalty.value(x0)
    return SimpleNamespace(
        x=x0.copy(),
        prev=[x0[b].copy() for b in problem.partition.blocks],
        counts=np.zeros(problem.partition.m, dtype=np.int64),
        plans=problem.block_plans(),
        last_L=np.array(problem.lipschitz),
        F=f + pen,
        eps=eps,
        t=1.0,
        steps=0,
        residual=residual,
        k=0,
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


def _reference_step(ref, problem, config):
    """One block step written out directly: gathered index arrays, an
    extrapolation matvec at every momentum (zero too), the objective of
    the other blocks recomputed from the residual and the block penalty,
    the soft threshold as sign * max and norms by ``np.linalg.norm``.
    Returns whether the safeguard redid the step."""
    loss, penalty = problem.loss, problem.penalty
    k = ref.k + 1
    b = choose_block(config.schedule, k, problem.partition.m, config.seed)
    idx = problem.partition.blocks[b]
    plan = ref.plans[b]
    L_curr = problem.lipschitz[b]
    alpha = 1.0 / (config.gamma * L_curr)
    beta = 0.0
    if config.momentum in ("fista", "fista_capped"):
        beta, (ref.t, ref.steps) = _reference_clock(ref.t, ref.steps, config.fista_restart_N)
    bound = extrapolation_bound(config.gamma, config.delta) * math.sqrt(ref.last_L[b] / L_curr)
    if config.momentum == "fista_capped":
        beta = min(beta, bound)
    elif config.momentum == "bound":
        beta = bound
    beta = min(beta, 1.0)
    if ref.counts[b] < 2:
        beta = 0.0

    x_block, x_prev = ref.x[idx], ref.prev[b]
    eps_block = ref.eps[idx] if ref.eps is not None else None
    args = () if eps_block is None else (eps_block,)
    w = penalty.weights(x_block, *args)
    pen_others = ref.F - loss.value_from_residual(ref.residual)
    pen_others -= penalty.value(x_block, *args)

    def attempt(beta_try):
        x_hat = x_block + beta_try * (x_block - x_prev)
        r_hat = plan.residual_after_delta(ref.residual, x_hat - x_block)
        v = x_hat - alpha * plan.grad_from_residual(r_hat)
        new = np.sign(v) * np.maximum(np.abs(v) - alpha * w, 0.0)
        r_new = plan.residual_after_delta(r_hat, new - x_hat)
        F = loss.value_from_residual(r_new) + pen_others + penalty.value(new, *args)
        return new, r_new, F

    new, r_new, F_new = attempt(beta)
    retried = config.safeguard and beta > 0.0 and not F_new <= ref.F
    if retried:
        new, r_new, F_new = attempt(0.0)
    ref.step_rel = float(np.linalg.norm(new - x_block)) / max(
        float(np.linalg.norm(ref.x)), 1e-12
    )
    ref.prev[b] = x_block.copy()
    ref.x[idx] = new
    ref.residual = r_new
    ref.counts[b] += 1
    ref.last_L[b] = L_curr
    ref.k = k
    if eps_block is not None:
        new_eps = np.maximum(SmoothedLp.decay_epsilon(new, eps_block, config.mu), EPS_FLOOR)
        if not np.array_equal(new_eps, eps_block):
            F_new += penalty.value(new, new_eps) - penalty.value(new, eps_block)
        ref.eps[idx] = new_eps
    ref.F = F_new
    return retried


def _shuffled_blocks(rng, n, m):
    # every block's indices out of order, so no block is a slice
    perm = rng.permutation(n)
    return BlockPartition(blocks=tuple(perm[i::m] for i in range(m)), n=n)


def _vector_problem(partition_kind):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((30, 60)) @ np.diag(np.linspace(0.2, 3.0, 60))
    b = rng.standard_normal(30)
    partition = {
        "single": BlockPartition.contiguous(60, 1),
        "contiguous": BlockPartition.contiguous(60, 4),
        "shuffled": _shuffled_blocks(rng, 60, 4),
    }[partition_kind]
    return Problem(LeastSquares(A, b), LogPenalty(lam=0.05, eps_bar=0.1), partition)


def _matrix_problem(partition_kind):
    rng = np.random.default_rng(12)
    q, t = 12, 4
    A = rng.standard_normal((10, q))
    X = np.zeros((q, t))
    X[rng.choice(q, 3, replace=False)] = rng.standard_normal((3, t))
    B = A @ X + 0.01 * rng.standard_normal((10, t))
    partition = {
        "single": BlockPartition.contiguous(q * t, 1),
        "contiguous": BlockPartition.contiguous(q * t, 3),  # parts of columns too
        "shuffled": _shuffled_blocks(rng, q * t, 3),
    }[partition_kind]
    return Problem(MatrixLeastSquares(A, B), SmoothedLp(lam=0.05, p=0.5), partition)


class TestBlockOperatorsMatchBlockGrad:
    """Each block operator's gradient equals ``loss.block_grad``, the full
    gradient's entries, which no block operator computes."""

    PROBLEMS = {
        # every shuffled matrix block takes part of several columns
        "matrix-shuffled": lambda: _matrix_problem("shuffled"),
        "vector-contiguous-m3": lambda: dataclasses.replace(
            _vector_problem("single"), partition=BlockPartition.contiguous(60, 3)),
    }

    @pytest.mark.parametrize("kind", PROBLEMS)
    def test_operator_gradients_match(self, kind):
        problem = self.PROBLEMS[kind]()
        loss = problem.loss
        rng = np.random.default_rng(8)
        for x in (np.zeros(loss.dim), *rng.standard_normal((3, loss.dim))):
            r = loss.residual(x)
            for block, plan in zip(problem.partition.blocks, problem.block_plans()):
                if kind.startswith("matrix"):
                    assert len(plan.groups) > 1
                np.testing.assert_allclose(
                    plan.grad_from_residual(r), loss.block_grad(x, block), rtol=1e-12)


class TestStepMatchesReference:
    """Iterate, smoothing factors, residual and objective of every step are
    bitwise equal to the reference transcription."""

    CASES = [
        (kind, make, config)
        for make in (_vector_problem, _matrix_problem)
        for kind in ("single", "contiguous", "shuffled")
        for config in (
            SolverConfig(),
            SolverConfig(momentum="fista"),
            SolverConfig(momentum="fista", fista_restart_N=7, schedule="shuffled", seed=3),
        )
    ]

    @pytest.mark.parametrize(
        "kind,make,config",
        CASES,
        ids=[
            f"{make.__name__[1:]}-{kind}-{config.momentum}-N{config.fista_restart_N}"
            for kind, make, config in CASES
        ],
    )
    def test_bitwise_equal_every_step(self, kind, make, config):
        problem = make(kind)
        is_slice = [isinstance(i, slice) for i in problem.partition.index]
        assert all(is_slice) if kind != "shuffled" else not any(is_slice)
        x0 = np.random.default_rng(5).standard_normal(problem.loss.dim)
        state = init_state(problem, config, x0)
        ref = _reference_init(problem, config, x0)
        retries = 0
        for _ in range(400):
            info = bpiree_step(state, problem, config)
            retried = _reference_step(ref, problem, config)
            assert info.retried == retried
            retries += retried
            np.testing.assert_array_equal(state.x, ref.x)
            np.testing.assert_array_equal(state.residual, ref.residual)
            if ref.eps is not None:
                np.testing.assert_array_equal(state.eps, ref.eps)
            assert state.F_current.hex() == ref.F.hex()
            assert info.step_rel.hex() == ref.step_rel.hex()
        if config.momentum == "fista" and config.fista_restart_N == 200:
            assert retries > 0, "the safeguard path was not exercised"

    def test_matrix_blocks_split_inside_a_column(self):
        # the shuffled matrix partition reaches the index-array position path
        problem = _matrix_problem("shuffled")
        positions = [pos for plan in problem.block_plans() for _, pos, _ in plan.groups]
        assert any(not np.array_equal(p, np.arange(p[0], p[0] + p.size)) for p in positions)


class TestSolve:
    def test_unregularized_quadratic(self):
        prob = quadratic_problem(np.eye(2), np.array([1.0, 1.0]))
        x, trace, status = solve(prob, SolverConfig(), np.zeros(2))
        assert status is SolveStatus.CONVERGED
        assert np.linalg.norm(x - 1.0) / np.sqrt(2) <= 1e-3

    def test_fixed_point_converges_quickly(self):
        # start exactly at the minimizer of the smooth part with lam = 0
        prob = quadratic_problem(np.eye(2), np.array([1.0, 1.0]), m=2)
        x, trace, status = solve(prob, SolverConfig(), np.array([1.0, 1.0]))
        assert status is SolveStatus.CONVERGED
        assert trace.iterations <= 2
        np.testing.assert_array_equal(x, [1.0, 1.0])

    def test_desk_instance_converges(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=0))
        config = SolverConfig(momentum="fista", record_trace=True)
        x, trace, status = solve(prob, config, np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        assert trace.iterations < 5000

    def test_monotone_with_safeguard(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=1))
        config = SolverConfig(momentum="fista", record_trace=True, max_iter=3000)
        _, trace, _ = solve(prob, config, np.zeros(prob.loss.dim))
        F = trace.columns["F"]
        for prev, nxt in zip(F, F[1:]):
            assert nxt <= prev + 1e-12 * (1 + abs(prev))

    def test_certificates_hold_with_capped_momentum(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=2, m=3))
        config = SolverConfig(momentum="fista_capped", check_descent=True, max_iter=2000)
        _, trace, status = solve(prob, config, np.zeros(prob.loss.dim))
        assert trace.certificates  # at least one iteration ran
        assert all(cert.holds for cert in trace.certificates)

    def test_square_summable_steps(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=3))
        steps = []
        last = [np.zeros(prob.loss.dim)]

        def track(k, x):
            steps.append(float(np.linalg.norm(x - last[0])) ** 2)
            last[0] = x.copy()

        _, trace, status = solve(
            prob, SolverConfig(momentum="fista"), np.zeros(prob.loss.dim), callback=track
        )
        assert status is SolveStatus.CONVERGED
        total = sum(steps)
        tail = sum(steps[int(0.9 * len(steps)) :])
        assert math.isfinite(total)
        # Cauchy-flat tail: the last 10% of iterations contribute almost
        # nothing to the squared-step series
        assert tail <= max(0.02 * total, 1e-12)

    def test_stationarity_at_convergence(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=4))
        x, _, status = solve(prob, SolverConfig(momentum="fista"), np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        res = stationarity_residual(prob, x)
        grad_norm = np.linalg.norm(prob.loss.grad(x))
        assert res <= 1e-2 * (1 + grad_norm)

    def test_deterministic_traces(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=5, m=4))
        config = SolverConfig(schedule="shuffled", seed=9, momentum="fista",
                              record_trace=True, max_iter=1500)
        runs = []
        for _ in range(2):
            _, trace, _ = solve(prob, config, np.zeros(prob.loss.dim))
            # wall time may differ
            runs.append({name: column for name, column in trace.columns.items()
                         if name != "wall_ns"})
        assert runs[0] == runs[1]

    def test_numerical_failure_status(self):
        prob = quadratic_problem(np.eye(1), np.zeros(1))
        with np.errstate(over="ignore"):
            x, trace, status = solve(prob, SolverConfig(), np.array([1e200]))
        assert status is SolveStatus.NUMERICAL_FAILURE

    def test_max_iter_status(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=6))
        _, trace, status = solve(
            prob, SolverConfig(max_iter=3), np.zeros(prob.loss.dim)
        )
        assert status is SolveStatus.MAX_ITER
        assert trace.iterations == 3

    def test_trace_residual_column(self):
        prob = quadratic_problem(np.eye(2), np.array([1.0, 1.0]), lam=1e-3, eps_bar=0.1)
        config = SolverConfig(record_trace=True, record_residual=True)
        _, trace, _ = solve(prob, config, np.zeros(2))
        assert all(math.isfinite(r) for r in trace.columns["residual"])
        # residual shrinks to (near) zero at convergence
        assert trace.columns["residual"][-1] <= 1e-2


class TestTraceMomentum:
    """The ``beta`` column of a trace respects the constant bound."""

    RUNS = {
        "log_ls-m4-shuffled": (
            dict(example="log_ls", m=4), dict(schedule="shuffled", seed=0)
        ),
        "matrix_lp-m5": (dict(example="matrix_lp"), {}),
    }

    @staticmethod
    def _betas(run, momentum):
        spec, extra = TestTraceMomentum.RUNS[run]
        prob, _ = build_problem(desk_spec(seed=0, **spec))
        config = SolverConfig(momentum=momentum, record_trace=True, **extra)
        _, trace, status = solve(prob, config, np.zeros(prob.loss.dim))
        assert status is SolveStatus.CONVERGED
        return np.array(trace.columns["beta"]), config

    @pytest.mark.parametrize("run", list(RUNS))
    def test_bound_mode_uses_zero_or_the_bound(self, run):
        betas, config = self._betas(run, "bound")
        bound = extrapolation_bound(config.gamma, config.delta)
        assert np.all((betas == 0.0) | (betas == bound))
        assert np.any(betas == bound)

    @pytest.mark.parametrize("run", list(RUNS))
    def test_capped_mode_stays_below_the_bound(self, run):
        betas, config = self._betas(run, "fista_capped")
        bound = extrapolation_bound(config.gamma, config.delta)
        assert np.all(betas <= bound)
        assert np.any(betas > 0.0)


class TestTraceLast:
    def test_trace_without_rows_is_nan(self):
        assert math.isnan(Trace().last("F"))
        assert math.isnan(Trace().last("step_rel"))

    def test_last_row_of_a_traced_solve(self):
        prob, _ = build_problem(desk_spec("log_ls", seed=0))
        config = SolverConfig(record_trace=True, max_iter=5)
        _, trace, _ = solve(prob, config, np.zeros(prob.loss.dim))
        assert trace.last("F") == trace.columns["F"][-1]
        assert trace.last("k") == trace.iterations == 5


class TestStationarityResidual:
    def test_zero_at_smooth_minimizer(self):
        # lam = 0: zero weights
        prob = quadratic_problem(np.eye(2), np.array([1.0, -1.0]))
        res = stationarity_residual(prob, np.array([1.0, -1.0]))
        assert res == 0.0

    def test_dead_zone_containment(self):
        # grad f(0) = 0.3 with threshold 0.5 / (0 + 1): origin is stationary
        prob = quadratic_problem(np.eye(1), np.array([-0.3]), lam=0.5, eps_bar=1.0)
        assert stationarity_residual(prob, np.zeros(1)) == 0.0

    def test_support_residual(self):
        # grad f(1) = 0.2, weight 0.2 / (1 + 1) = 0.1, x = 1 -> |0.2 + 0.1| = 0.3
        prob = quadratic_problem(np.eye(1), np.array([0.8]), lam=0.2, eps_bar=1.0)
        res = stationarity_residual(prob, np.ones(1))
        assert res == pytest.approx(0.3, rel=1e-12)

    def test_unsupported_penalty(self):
        from bpiree.model import CustomPenalty

        loss = LeastSquares(np.eye(1), np.zeros(1))
        pen = CustomPenalty(
            lam=1.0, h=lambda t: t, h_prime=lambda t: 1.0, g=lambda u: u * u
        )
        prob = Problem(loss, pen, BlockPartition.contiguous(1, 1))
        with pytest.raises(NotImplementedError):
            stationarity_residual(prob, np.zeros(1))


class TestDescentCertificate:
    def test_zero_momentum_accepted_step(self):
        prob = quadratic_problem(np.eye(2), np.array([1.0, 2.0]))
        config = SolverConfig(momentum="none", check_descent=True)
        state = init_state(prob, config, np.zeros(2))
        F_prev = state.F_current
        info = bpiree_step(state, prob, config)
        cert = info.certificate
        assert cert.k == 1
        assert cert.holds
        assert cert.slack >= -1e-9 * (1 + abs(F_prev))

    def test_no_step_zero_momentum(self):
        cert = descent_certificate(5.0, 4.0, 1.0, 0.0, 0.0, 0.0, 2.0)
        assert cert.holds
        assert cert.slack == pytest.approx(1.0)

    def test_violation_detected(self):
        # objective went UP with zero momentum: the estimate cannot hold
        cert = descent_certificate(1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 2.0)
        assert not cert.holds

    def test_gamma_constants(self):
        # at gamma = 2 the constants are 1/4 and 9: slack = dF - (L/4)s^2 + 9 L b^2 p^2
        cert = descent_certificate(3.0, 1.0, 2.0, 0.5, 1.0, 1.0, 2.0)
        expected = (3.0 - 1.0) - (0.25 * 2.0 * 1.0 - 9.0 * 2.0 * 0.25 * 1.0)
        assert cert.slack == pytest.approx(expected)


class TestStartPoint:
    """Every algorithm checks its ``x0`` before its first step."""

    @pytest.mark.parametrize("algo", sorted(ALGORITHMS))
    @pytest.mark.parametrize("edit,message", [
        (lambda x0: x0[:-1], "^x0 has length 11, expected 12$"),
        (lambda x0: np.r_[x0[:-1], math.nan], "^x0 must be finite$"),
        (lambda x0: np.r_[x0[:-1], math.inf], "^x0 must be finite$"),
    ], ids=["short", "nan", "inf"])
    def test_bad_x0_rejected(self, algo, edit, message):
        problem, _ = build_problem(desk_spec("matrix_lp", seed=0, n=6, q=4, t=3, m=3))
        with pytest.raises(ValueError, match=message):
            ALGORITHMS[algo](problem, SolverConfig(max_iter=5), edit(np.zeros(12)))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=1.0),
            dict(delta=0.0),
            dict(delta=1.0),
            dict(mu=0.0),
            dict(schedule="bogus"),
            dict(momentum="bogus"),
            dict(tol=0.0),
            dict(max_iter=0),
            dict(eps0=0.0),
            dict(eps0=EPS_FLOOR / 2),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_iter", "abc"),
            ("max_iter", 10.0),
            ("seed", True),
            ("fista_restart_N", None),
            ("support_window", 1.5),
            ("gamma", "2"),
            ("delta", False),
            ("tol", math.nan),
            ("mu", None),
            ("eps0", math.inf),
            ("eps0", math.nan),
            ("safeguard", 1),
            ("record_trace", "yes"),
            ("schedule", 1),
            ("momentum", None),
        ],
    )
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value}).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            SolverConfig(seed=-1).validate()

    def test_ints_accepted_for_real_fields(self):
        SolverConfig(gamma=3, delta=0.5, tol=1, mu=0.5, eps0=2,
                     max_iter=np.int64(5)).validate()
