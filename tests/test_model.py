"""Model layer: partitions, losses, penalties, objective evaluation."""

import gc
import math
import weakref

import numpy as np
import pytest

from bpiree import model
from bpiree.baselines import irl1_solve, pire_au_solve, pire_ps_solve, pire_solve
from bpiree.experiments import build_problem, desk_spec
from bpiree.model import (
    BlockPartition,
    CustomPenalty,
    LeastSquares,
    LogPenalty,
    MatrixLeastSquares,
    Problem,
    SmoothedLp,
    eval_objective,
    validate_partition,
)
from bpiree.prox import NumericalFailure
from bpiree.solver import SolverConfig, init_state, solve, stationarity_residual


class TestValidatePartition:
    def test_exact_cover_ok(self):
        part = BlockPartition(blocks=([0, 1], [2]), n=3)
        assert validate_partition(part).ok

    def test_duplicate_index_reported(self):
        part = BlockPartition(blocks=([0], [0, 1]), n=2)
        report = validate_partition(part)
        assert not report.ok
        assert report.index == 0
        assert "duplicated" in report.message

    def test_gap_reported(self):
        part = BlockPartition(blocks=([0],), n=2)
        report = validate_partition(part)
        assert not report.ok
        assert report.index == 1
        assert "uncovered" in report.message

    def test_empty_block_rejected(self):
        part = BlockPartition(blocks=(np.array([], dtype=int), [0]), n=1)
        report = validate_partition(part)
        assert not report.ok
        assert report.message == "block 0 is empty"
        assert report.index is None

    @pytest.mark.parametrize("blocks,message", [
        (([0.5, 1.2], [2.9]), "block indices must be integers, got float64"),
        (([True], [0, 2]), "block indices must be integers, got bool"),
    ], ids=["float", "bool"])
    def test_non_integer_indices_rejected(self, blocks, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlockPartition(blocks=blocks, n=3)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_outside_range_reported(self, bad):
        part = BlockPartition(blocks=([0, bad], [1]), n=2)
        report = validate_partition(part)
        assert not report.ok
        assert report.message == f"index {bad} outside range 0..1"
        assert report.index == bad

    def test_no_blocks(self):
        report = validate_partition(BlockPartition(blocks=(), n=3))
        assert report == model.PartitionReport(False, "partition has no blocks", None)

    @pytest.mark.parametrize(
        "blocks,message,index",
        [
            # the out-of-range index in block 0 comes before the empty block 1
            (([0, 7], []), "index 7 outside range 0..1", 7),
            (([], [0, 7]), "block 0 is empty", None),
            (([0, 1], [0, 7]), "index 0 duplicated", 0),
            (([0, 7], [0]), "index 7 outside range 0..1", 7),
            (([1, 1], [0]), "index 1 duplicated", 1),
            (([1, 0], [1], []), "index 1 duplicated", 1),
            (([0], []), "block 1 is empty", None),
            (([7, 7], [0]), "index 7 outside range 0..1", 7),
        ],
    )
    def test_first_offender_in_block_order(self, blocks, message, index):
        blocks = tuple(np.array(b, dtype=int) for b in blocks)
        report = validate_partition(BlockPartition(blocks=blocks, n=2))
        assert (report.ok, report.message, report.index) == (False, message, index)

    def test_matches_a_loop_over_every_index(self):
        # seeded random partitions, broken in every way the check reports
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 5))
            blocks = tuple(
                rng.integers(-2, n + 2, size=int(rng.integers(0, 4))) for _ in range(m)
            )
            if rng.random() < 0.3:
                perm = rng.permutation(n)
                cuts = np.sort(rng.choice(np.arange(1, n + 1), size=m - 1))
                blocks = tuple(np.split(perm, cuts))
            part = BlockPartition(blocks=blocks, n=n)
            assert validate_partition(part) == _loop_validate(part), blocks

    def test_contiguous_sizes_differ_by_at_most_one(self):
        part = BlockPartition.contiguous(10, 3)
        sizes = [b.size for b in part.blocks]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert validate_partition(part).ok


def _loop_validate(partition):
    """The partition check written as a loop over every index, block by block."""
    n = partition.n
    if partition.m < 1:
        return model.PartitionReport(False, "partition has no blocks", None)
    seen = np.zeros(n, dtype=bool)
    for bi, block in enumerate(partition.blocks):
        if block.size == 0:
            return model.PartitionReport(False, f"block {bi} is empty", None)
        for j in block:
            j = int(j)
            if j < 0 or j >= n:
                return model.PartitionReport(False, f"index {j} outside range 0..{n - 1}", j)
            if seen[j]:
                return model.PartitionReport(False, f"index {j} duplicated", j)
            seen[j] = True
    if not seen.all():
        j = int(np.flatnonzero(~seen)[0])
        return model.PartitionReport(False, f"index {j} uncovered", j)
    return model.PartitionReport(True)


class TestEvalObjective:
    def test_zero_point_log_penalty(self):
        loss = LeastSquares(np.eye(2), np.zeros(2))
        pen = LogPenalty(lam=1.0, eps_bar=1.0)
        assert eval_objective(loss, pen, np.zeros(2)) == 0.0

    def test_smoothed_lp_hand_value(self):
        # f = 0 at the origin with b = 0; penalty = 2 * (0 + 1)^0.5
        loss = LeastSquares(np.eye(2), np.zeros(2))
        pen = SmoothedLp(lam=1.0, p=0.5)
        val = eval_objective(loss, pen, np.zeros(2), eps=np.ones(2))
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_log_penalty_hand_value(self):
        loss = LeastSquares(np.eye(1), np.array([1.0]))
        pen = LogPenalty(lam=5e-4, eps_bar=0.1)
        expected = 5e-4 * (math.log(1.1) - math.log(0.1))
        assert eval_objective(loss, pen, np.array([1.0])) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(1.19895e-3, rel=1e-4)

    def test_dimension_mismatch_rejected(self):
        loss = LeastSquares(np.eye(2), np.zeros(2))
        pen = LogPenalty(lam=1.0, eps_bar=1.0)
        with pytest.raises(ValueError):
            eval_objective(loss, pen, np.zeros(3))

    def test_eps_required_iff_smoothed(self):
        loss = LeastSquares(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            eval_objective(loss, SmoothedLp(lam=1.0, p=0.5), np.zeros(2))
        with pytest.raises(ValueError):
            eval_objective(loss, LogPenalty(lam=1.0, eps_bar=1.0), np.zeros(2), eps=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, -1.0, 0.0, np.inf])
    @pytest.mark.parametrize("where", ["all", "one"])
    def test_bad_smoothing_factors_rejected_like_the_residual(self, bad, where):
        # one check serves both: NaN, infinite, zero or negative raises
        problem, x_true = build_problem(desk_spec("matrix_lp", seed=0))
        eps = np.full(problem.loss.dim, 0.5)
        eps[slice(None) if where == "all" else 7] = bad
        for evaluate in (lambda: eval_objective(problem.loss, problem.penalty, x_true, eps),
                         lambda: stationarity_residual(problem, x_true, eps)):
            with pytest.raises(ValueError,
                               match="^smoothing factors must be finite and positive$"):
                evaluate()

    @pytest.mark.parametrize("example, x_len, eps_len, message", [
        ("matrix_lp", None, 1, "^eps must have the same length as x$"),
        ("log_ls", None, None, "^smoothing factors only apply to the SmoothedLp penalty$"),
        ("matrix_lp", 5, None, "^x has length 5, expected {dim}$"),
    ], ids=["short-eps", "eps-with-log", "short-x"])
    def test_point_rejected_like_the_residual(self, example, x_len, eps_len, message):
        # None stands for the problem's dimension
        problem, _ = build_problem(desk_spec(example, seed=0))
        dim = problem.loss.dim
        x = np.zeros(x_len or dim)
        eps = np.full(eps_len or dim, 0.5)
        for evaluate in (lambda: eval_objective(problem.loss, problem.penalty, x, eps),
                         lambda: stationarity_residual(problem, x, eps)):
            with pytest.raises(ValueError, match=message.format(dim=dim)):
                evaluate()


class TestBlockGradient:
    def test_identity_gradient(self):
        loss = LeastSquares(np.eye(2), np.ones(2))
        np.testing.assert_allclose(
            loss.block_grad(np.zeros(2), [0, 1]), [-1.0, -1.0]
        )

    def test_zero_at_minimizer(self):
        loss = LeastSquares(np.eye(2), np.ones(2))
        np.testing.assert_allclose(loss.block_grad(np.ones(2), [0]), [0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 8))
        loss = LeastSquares(A, rng.standard_normal(5))
        x = rng.standard_normal(8)
        block = np.array([1, 4])
        grad = loss.block_grad(x, block)
        h = 1e-6
        for pos, j in enumerate(block):
            e = np.zeros(8)
            e[j] = h
            fd = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            assert grad[pos] == pytest.approx(fd, rel=1e-6)

    def test_unknown_block_rejected(self):
        loss = LeastSquares(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            loss.block_grad(np.zeros(2), [0, 5])

    def test_matrix_loss_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((4, 2))
        loss = MatrixLeastSquares(A, B)
        x = rng.standard_normal(6)
        block = np.array([0, 2, 5])
        grad = loss.block_grad(x, block)
        h = 1e-6
        for pos, j in enumerate(block):
            e = np.zeros(6)
            e[j] = h
            fd = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            assert grad[pos] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBlockLipschitz:
    def test_identity_column(self):
        loss = LeastSquares(np.eye(3), np.zeros(3))
        assert loss.block_lipschitz([0]) == pytest.approx(1.01, rel=1e-7)

    def test_single_column_norm(self):
        loss = LeastSquares(np.array([[2.0], [0.0]]), np.zeros(2))
        assert loss.block_lipschitz([0]) == pytest.approx(4.04, rel=1e-7)

    def test_zero_matrix_floor(self):
        loss = LeastSquares(np.zeros((2, 2)), np.zeros(2))
        assert loss.block_lipschitz([0, 1]) == 1e-12

    def test_upper_bounds_exact_value(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 9))
        loss = LeastSquares(A, np.zeros(7))
        block = np.array([0, 3, 4, 8])
        exact = np.linalg.norm(A[:, block], 2) ** 2
        est = loss.block_lipschitz(block)
        assert exact <= est <= 1.02 * exact

    def test_matrix_loss_blockwise(self):
        # full-column blocks of the flattened variable see the whole matrix
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 4))
        loss = MatrixLeastSquares(A, np.zeros((6, 3)))
        full = np.linalg.norm(A, 2) ** 2
        est = loss.block_lipschitz(np.arange(4))  # first column of X
        assert full <= est <= 1.02 * full

    def test_block_gradient_contraction(self):
        # ||grad_b f(x) - grad_b f(y)|| <= L_b ||x_b - y_b|| when x, y differ
        # only inside the block
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 10))
        loss = LeastSquares(A, rng.standard_normal(6))
        block = np.array([2, 3, 7])
        L = loss.block_lipschitz(block)
        for _ in range(100):
            x = rng.standard_normal(10)
            y = x.copy()
            y[block] += rng.standard_normal(3)
            lhs = np.linalg.norm(
                loss.block_grad(x, block) - loss.block_grad(y, block)
            )
            assert lhs <= L * np.linalg.norm(x[block] - y[block]) * (1 + 1e-12)


class TestPowerIterationCap:
    """A power iteration that stops at its cap says so, and returns what it
    returned before."""

    def test_cap_warns_once_naming_the_operator(self, monkeypatch, caplog):
        M = np.random.default_rng(10).standard_normal((20, 30))
        uncapped = model.spectral_norm_sq(M)
        monkeypatch.setattr(model, "POWER_ITER_MAX", 3)
        with caplog.at_level("WARNING", logger="bpiree"):
            capped = model.spectral_norm_sq(M)
        (record,) = caplog.records
        assert record.name == "bpiree" and record.levelname == "WARNING"
        assert "20x30" in record.getMessage() and "relative change" in record.getMessage()
        assert capped < uncapped

    def test_capped_value_is_unchanged(self, monkeypatch):
        # three iterations by hand: the estimate of the third
        M = np.random.default_rng(10).standard_normal((20, 30))
        v = np.random.default_rng(0).standard_normal(30)
        v /= math.sqrt(v.dot(v))
        for _ in range(3):
            u = M.T @ (M @ v)
            lam = float(v @ u)
            v = u / math.sqrt(u.dot(u))
        monkeypatch.setattr(model, "POWER_ITER_MAX", 3)
        assert model.spectral_norm_sq(M) == lam

    def test_converged_iteration_is_silent(self, caplog):
        with caplog.at_level("WARNING", logger="bpiree"):
            assert model.spectral_norm_sq(np.diag([2.0, 1.0])) == pytest.approx(4.0)
        assert caplog.records == []


class TestBlockPlanChecks:
    """The public ``block_plan`` and ``block_grad`` check their block
    (``Problem`` builds its plans from the partition it validated,
    unchecked)."""

    LOSSES = {
        "vector": lambda: LeastSquares(np.eye(3), np.zeros(3)),
        "matrix": lambda: MatrixLeastSquares(np.eye(3), np.zeros((3, 2))),
    }
    BAD_BLOCKS = pytest.mark.parametrize("block,message", [
        ([], "block is empty"),
        ([0, -1], "block indices must lie in 0..{last}"),
        ([0, "dim"], "block indices must lie in 0..{last}"),
        ([2, 0, 2], "block contains duplicate indices"),
        # neither may be truncated or cast into a valid block
        ([0.7, 1.9], "block indices must be integers, got float64"),
        ([True], "block indices must be integers, got bool"),
    ], ids=["empty", "negative", "past-the-end", "duplicate", "float", "bool"])

    def _rejects(self, kind, block, message, call):
        loss = self.LOSSES[kind]()
        block = [loss.dim if i == "dim" else i for i in block]
        with pytest.raises(ValueError, match=f"^{message.format(last=loss.dim - 1)}$"):
            call(loss, block)

    @pytest.mark.parametrize("kind", LOSSES)
    @BAD_BLOCKS
    def test_bad_block_rejected(self, kind, block, message):
        self._rejects(kind, block, message, lambda loss, block: loss.block_plan(block))

    @pytest.mark.parametrize("kind", LOSSES)
    @BAD_BLOCKS
    def test_block_grad_rejects_bad_block(self, kind, block, message):
        self._rejects(kind, block, message,
                      lambda loss, block: loss.block_grad(np.zeros(loss.dim), block))


class TestOverflowingLipschitz:
    """Power iteration on entries near 1e155 overflows to inf on its first
    iteration; no stepsize can be formed from that, so every solver stops
    with a NumericalFailure naming the estimate."""

    @pytest.mark.parametrize("solver", [solve, irl1_solve, pire_au_solve])
    @pytest.mark.parametrize("m", [1, 2])
    def test_solvers_raise_numerical_failure(self, solver, m):
        loss = LeastSquares(np.array([[1e155, 0.0], [0.0, 1.0]]), np.ones(2))
        prob = Problem(loss, LogPenalty(lam=0.1, eps_bar=0.1), BlockPartition.contiguous(2, m))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="Lipschitz estimate is not finite"):
                solver(prob, SolverConfig(), np.zeros(2))

    def test_finite_estimate_unchanged(self):
        loss = LeastSquares(np.array([[3.0, 0.0], [0.0, 1.0]]), np.ones(2))
        norm_sq = model.spectral_norm_sq(loss.A)
        assert loss.block_lipschitz([0, 1]) == max(norm_sq * 1.01, 1e-12)


class TestPenalties:
    def test_log_penalty_weights(self):
        pen = LogPenalty(lam=2.0, eps_bar=0.5)
        np.testing.assert_allclose(pen.weights(np.array([0.0, 1.5])), [4.0, 1.0])

    def test_log_penalty_h_prime_lipschitz(self):
        # |h'(s) - h'(t)| <= |s - t| / eps_bar^2 on the nonnegative axis
        pen = LogPenalty(lam=1.0, eps_bar=0.3)
        rng = np.random.default_rng(0)
        s, t = rng.uniform(0, 50, size=(2, 1000))
        lhs = np.abs(pen.h_prime(s) - pen.h_prime(t))
        assert np.all(lhs <= np.abs(s - t) / 0.3**2 + 1e-15)

    def test_smoothed_lp_weight_decreases_in_magnitude(self):
        pen = SmoothedLp(lam=1.0, p=0.3)
        w_small = pen.weights(np.array([1.0]), np.array([1.0]))
        w_big = pen.weights(np.array([1e6]), np.array([1.0]))
        assert w_big < w_small
        assert w_big == pytest.approx(0.3 * (1e6 + 1) ** (0.3 - 1.0))

    def test_smoothed_lp_rejects_nonpositive_eps(self):
        pen = SmoothedLp(lam=1.0, p=0.5)
        with pytest.raises(ValueError):
            pen.weights(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="requires smoothing factors"):
            pen.weights(np.array([1.0]))

    def test_smoothed_lp_value_requires_eps(self):
        with pytest.raises(ValueError, match="^SmoothedLp penalty requires smoothing factors$"):
            SmoothedLp(lam=1.0, p=0.5).value(np.array([1.0]))

    def test_custom_penalty_matches_log(self):
        log_pen = LogPenalty(lam=0.7, eps_bar=0.2)
        custom = CustomPenalty(
            lam=0.7,
            h=lambda t: math.log(t + 0.2) - math.log(0.2),
            h_prime=lambda t: 1.0 / (t + 0.2),
        )
        x = np.array([-1.0, 0.0, 2.5])
        assert custom.value(x) == pytest.approx(log_pen.value(x), rel=1e-12)
        np.testing.assert_allclose(custom.weights(x), log_pen.weights(x))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogPenalty(lam=1.0, eps_bar=0.0)
        with pytest.raises(ValueError):
            SmoothedLp(lam=1.0, p=1.0)
        with pytest.raises(ValueError):
            SmoothedLp(lam=-1.0, p=0.5)


class TestCoercivity:
    def test_objective_blows_up_along_rays(self):
        # full column rank => f alone is coercive, penalty is nonnegative
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 4))
        loss = LeastSquares(A, rng.standard_normal(8))
        pen = LogPenalty(lam=1e-3, eps_bar=0.1)
        for _ in range(5):
            d = rng.standard_normal(4)
            vals = [eval_objective(loss, pen, t * d) for t in (1.0, 10.0, 1e3, 1e6)]
            assert vals[-1] > 1e6
            assert vals == sorted(vals)


class TestProblem:
    def test_partition_dimension_checked(self):
        loss = LeastSquares(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            Problem(loss, LogPenalty(lam=1.0, eps_bar=1.0), BlockPartition.contiguous(2, 1))

    def test_invalid_partition_rejected(self):
        loss = LeastSquares(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            Problem(
                loss,
                LogPenalty(lam=1.0, eps_bar=1.0),
                BlockPartition(blocks=([0], [0, 1]), n=2),
            )


class TestCoupling:
    """``Problem.coupling``: per block, the largest number of blocks that
    touch one of its residual columns."""

    @staticmethod
    def direct_count(problem):
        q = problem.loss.A.shape[1]
        cols = [{int(j) // q for j in block} for block in problem.partition.blocks]
        touching = {c: sum(c in other for other in cols) for c in set().union(*cols)}
        return tuple(max(touching[c] for c in own) for own in cols)

    @pytest.mark.parametrize("m,expected", [(1, (1,)), (4, (4, 4, 4, 4))])
    def test_vector_loss_has_one_residual_column(self, m, expected):
        problem, _ = build_problem(desk_spec("log_ls", seed=0, m=m))
        assert problem.coupling == expected

    @pytest.mark.parametrize("m", [5, 10])
    def test_desk_matrix_whole_column_blocks_are_uncoupled(self, m):
        problem, _ = build_problem(desk_spec("matrix_lp", seed=0, m=m))
        assert problem.coupling == (1,) * m

    @pytest.mark.parametrize("m", [3, 7])
    def test_desk_matrix_split_columns_match_a_direct_count(self, m):
        problem, _ = build_problem(desk_spec("matrix_lp", seed=0, m=m))
        assert problem.coupling == self.direct_count(problem)
        assert max(problem.coupling) > 1

    def test_shuffled_whole_column_blocks_are_uncoupled(self):
        rng = np.random.default_rng(3)
        q, t = 4, 6
        loss = MatrixLeastSquares(rng.standard_normal((5, q)), rng.standard_normal((5, t)))
        columns = rng.permutation(t).reshape(3, 2)
        blocks = tuple(rng.permutation(np.concatenate([np.arange(c * q, (c + 1) * q)
                                                       for c in pair]))
                       for pair in columns)
        problem = Problem(loss, SmoothedLp(lam=0.1, p=0.5), BlockPartition(blocks, q * t))
        assert not any(isinstance(i, slice) for i in problem.partition.index)
        assert problem.coupling == (1, 1, 1) == self.direct_count(problem)


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("operand", ["A", "b"])
    def test_least_squares_names_the_operand(self, operand, bad):
        data = {"A": np.eye(3), "b": np.ones(3)}
        data[operand] = data[operand].copy()
        data[operand].flat[1] = bad
        with pytest.raises(ValueError, match=rf"^{operand} has non-finite entries"):
            LeastSquares(data["A"], data["b"])

    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: LogPenalty(lam=bad, eps_bar=0.1),
            lambda bad: LogPenalty(lam=1.0, eps_bar=bad),
            lambda bad: SmoothedLp(lam=bad, p=0.5),
            lambda bad: SmoothedLp(lam=1.0, p=bad),
            lambda bad: CustomPenalty(lam=bad, h=abs, h_prime=lambda t: 1.0),
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "0.5"])
    def test_penalty_parameters(self, make, bad):
        with pytest.raises(ValueError, match="finite|lie in"):
            make(bad)

    @pytest.mark.parametrize("operand", ["A", "B"])
    def test_matrix_least_squares_names_the_operand(self, operand):
        data = {"A": np.eye(3), "B": np.ones((3, 2))}
        data[operand] = data[operand].copy()
        data[operand].flat[-1] = math.nan
        with pytest.raises(ValueError, match=rf"^{operand} has non-finite entries"):
            MatrixLeastSquares(data["A"], data["B"])

    @pytest.mark.parametrize("make", [
        lambda big: LeastSquares(np.eye(2), np.array([big, 0.0])),
        lambda big: MatrixLeastSquares(np.eye(2), np.array([[big, 0.0], [0.0, 0.0]])),
    ], ids=["vector", "matrix"])
    def test_loss_at_zero_must_be_finite(self, make):
        # finite data, but 0.5*big**2 overflows; pytest turns the numpy
        # overflow warning into an error, so the check raises none
        make(1e154)
        with pytest.raises(ValueError, match="too large: 0.5"):
            make(1e155)


class TestBlockIndex:
    def test_contiguous_blocks_are_slices(self):
        partition = BlockPartition.contiguous(10, 3)
        assert partition.index == (slice(0, 3), slice(3, 7), slice(7, 10))
        for idx, block in zip(partition.index, partition.blocks):
            assert block.dtype == np.intp  # the blocks stay index arrays
            np.testing.assert_array_equal(np.arange(10)[idx], block)

    def test_other_blocks_keep_their_arrays(self):
        partition = BlockPartition(blocks=([0, 2], [3, 1], [4, 5]), n=6)
        first, second, third = partition.index
        assert first is partition.blocks[0] and second is partition.blocks[1]
        assert third == slice(4, 6)

    def test_matrix_plan_positions_stay_arrays(self):
        problem, _ = build_problem(desk_spec("matrix_lp", seed=0, m=3))
        for plan in problem.block_plans():
            for _col, pos, _A in plan.groups:
                assert isinstance(pos, np.ndarray) and pos.dtype == np.intp


class TestBlockPlans:
    def test_one_norm_estimate_for_one_operator(self, monkeypatch):
        # every block of desk matrix_lp (m=5) covers whole columns of X, so
        # all plans, the full-vector plan and the sweep plans act through A
        problem, _ = build_problem(desk_spec("matrix_lp", seed=0, m=5))
        shapes = []
        real = model.spectral_norm_sq

        def counted(M, *args, **kwargs):
            shapes.append(M.shape)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(model, "spectral_norm_sq", counted)
        config = SolverConfig(max_iter=20)
        x0 = np.zeros(problem.loss.dim)
        init_state(problem, config, x0)
        pire_solve(problem, config, x0)
        pire_au_solve(problem, config, x0)
        assert shapes == [problem.loss.A.shape]

    def test_single_block_plan_is_the_matrix(self):
        A = np.random.default_rng(0).standard_normal((5, 8))
        loss = LeastSquares(A, np.zeros(5))
        problem = Problem(loss, LogPenalty(lam=1.0, eps_bar=1.0), BlockPartition.contiguous(8, 1))
        (plan,) = problem.block_plans()
        ((col, pos, A_sub),) = plan.groups
        assert col == 0
        np.testing.assert_array_equal(pos, np.arange(8))
        assert np.shares_memory(A_sub, loss.A)
        assert problem.lipschitz == (max(model.spectral_norm_sq(A) * 1.01, 1e-12),)

    def test_multi_block_plans_are_contiguous_copies(self):
        A = np.random.default_rng(1).standard_normal((5, 8))
        loss = LeastSquares(A, np.zeros(5))
        partition = BlockPartition(blocks=([0, 1, 2], [5, 3], [4, 6, 7]), n=8)
        problem = Problem(loss, LogPenalty(lam=1.0, eps_bar=1.0), partition)
        for idx, plan in zip(partition.blocks, problem.block_plans()):
            ((col, pos, A_sub),) = plan.groups
            assert col == 0
            np.testing.assert_array_equal(pos, np.arange(idx.size))
            assert A_sub.flags.c_contiguous
            assert not np.shares_memory(A_sub, loss.A)
            np.testing.assert_array_equal(A_sub, A[:, idx])

    @pytest.mark.parametrize("m", [1, 4])
    def test_vector_plan_skips_the_scatter_bit_for_bit(self, m):
        # a vector plan's one group covers the whole residual with the block
        # in order, so the general scatter and copy paths give the same bits
        problem, _ = build_problem(desk_spec("log_ls", seed=0))
        rng = np.random.default_rng(m)
        n = problem.loss.dim
        blocks = np.array_split(rng.permutation(n), m) if m > 1 else (np.arange(n),)
        partition = BlockPartition(blocks=tuple(blocks), n=n)
        problem = Problem(problem.loss, problem.penalty, partition)
        r = problem.loss.residual(rng.standard_normal(n))
        for idx, plan in zip(partition.blocks, problem.block_plans()):
            ((_col, pos, A_sub),) = plan.groups
            delta = rng.standard_normal(idx.size)
            grad = np.empty(idx.size)
            grad[pos] = A_sub.T @ r
            after = r.copy()
            after += A_sub @ delta[pos]
            assert plan.grad_from_residual(r).tobytes() == grad.tobytes()
            assert plan.residual_after_delta(r, delta).tobytes() == after.tobytes()

    @staticmethod
    def _reference_groups(loss, idx):
        """Per matrix column: the column, the block positions in it in block
        order, and those rows; the grouping of one ``np.unique`` over the
        columns and one scan of the block per column."""
        cols, rows = idx // loss.q, idx % loss.q
        groups = []
        for col in np.unique(cols):
            pos = np.flatnonzero(cols == col)
            groups.append((int(col), pos, rows[pos]))
        return groups

    @pytest.mark.parametrize("block", [
        np.arange(4, 12),  # contiguous, whole columns 1 and 2
        np.random.default_rng(5).permutation(12)[:7],  # shuffled
        np.array([6, 1, 2, 5, 11, 9, 10]),  # splits columns 0, 1 and 2
        np.array([7]),  # a single coordinate
        np.arange(12),  # every coordinate
        np.random.default_rng(6).permutation(12),  # every coordinate, shuffled
    ], ids=["contiguous", "shuffled", "column-splitting", "single", "all", "all-shuffled"])
    def test_matrix_plan_groups_by_column_in_block_order(self, block):
        rng = np.random.default_rng(7)
        loss = MatrixLeastSquares(rng.standard_normal((5, 4)), rng.standard_normal((5, 3)))
        rest = np.setdiff1d(np.arange(loss.dim), block)
        partition = BlockPartition(blocks=(block, rest) if rest.size else (block,), n=loss.dim)
        problem = Problem(loss, LogPenalty(lam=1.0, eps_bar=1.0), partition)
        expected = self._reference_groups(loss, block)
        in_order = [np.array_equal(rows, np.arange(loss.q)) for _, _, rows in expected]
        operators = [loss.A if whole else np.ascontiguousarray(loss.A[:, rows])
                     for (_, _, rows), whole in zip(expected, in_order)]
        L = max(max(model.spectral_norm_sq(M) for M in operators) * 1.01, 1e-12)
        for plan in (problem.block_plans()[0], loss.block_plan(block)):
            assert len(plan.groups) == len(expected)
            for (col, pos, A_sub), (ref_col, ref_pos, rows), M, whole in zip(
                    plan.groups, expected, operators, in_order):
                assert col == ref_col
                np.testing.assert_array_equal(pos, ref_pos)
                assert A_sub.flags.c_contiguous
                assert np.shares_memory(A_sub, loss.A) == whole
                np.testing.assert_array_equal(A_sub, M)
        assert problem.lipschitz[0] == L
        assert loss.block_lipschitz(block) == L

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    @pytest.mark.parametrize("t", [1, 4], ids=["log_ls-m1", "matrix_lp-whole-columns"])
    def test_any_layout_of_A_gives_views_and_one_estimate(self, monkeypatch, layout, t):
        # a loss keeps A C-ordered, so each operator over all of A is a view
        # of it and the bound reuses A's one estimate, whatever A's layout
        rng = np.random.default_rng(11)
        A = rng.standard_normal((12, 20))
        B = rng.standard_normal((12, t))
        given = np.asfortranarray(A) if layout == "fortran" else np.repeat(A, 2, axis=1)[:, ::2]
        assert not given.flags.c_contiguous and np.array_equal(given, A)

        def problem_of(M):
            loss = LeastSquares(M, B[:, 0]) if t == 1 else MatrixLeastSquares(M, B)
            return Problem(loss, LogPenalty(lam=0.1, eps_bar=0.1),
                           BlockPartition.contiguous(loss.dim, t))  # one block per column of X

        problem, reference = problem_of(given), problem_of(A)
        calls = []
        real = model.spectral_norm_sq

        def counted(M):
            calls.append(M.shape)
            return real(M)

        monkeypatch.setattr(model, "spectral_norm_sq", counted)
        assert problem.lipschitz == reference.lipschitz
        assert calls == [A.shape] * 2  # once per problem
        for plan in problem.block_plans():
            for _col, _pos, A_sub in plan.groups:
                assert A_sub.shape == A.shape and np.shares_memory(A_sub, problem.loss.A)
        iterates = []
        for prob in (problem, reference):
            seen = []
            solve(prob, SolverConfig(max_iter=30), np.zeros(prob.loss.dim),
                  callback=lambda k, x: seen.append(x.copy()))
            iterates.append(np.array(seen))
        assert iterates[0].tobytes() == iterates[1].tobytes()

    SOLVERS = [solve, pire_ps_solve, pire_au_solve]

    def test_bounds_are_estimated_once_per_problem(self, monkeypatch):
        problem, _ = build_problem(desk_spec("log_ls", seed=0, m=3))
        calls = []
        real = model.spectral_norm_sq

        def counted(M):
            calls.append(M.shape)
            return real(M)

        monkeypatch.setattr(model, "spectral_norm_sq", counted)
        config = SolverConfig(max_iter=5)
        x0 = np.zeros(problem.loss.dim)
        state = init_state(problem, config, x0)
        for run in self.SOLVERS:
            run(problem, config, x0)
        assert len(calls) == problem.partition.m == 3
        assert state.last_block_L.tolist() == list(problem.lipschitz)

    @pytest.mark.parametrize("run", [solve, pire_au_solve])
    def test_solve_frees_its_block_operators(self, monkeypatch, run):
        # desk log_ls blocks (m=3) are copies of A's columns, not views
        problem, _ = build_problem(desk_spec("log_ls", seed=0, m=3))
        plan_cls = type(problem.loss.block_plan([0]))
        real = plan_cls.grad_from_residual
        used = {}

        def recording(plan, r):
            for _col, _pos, A_sub in plan.groups:
                used.setdefault(id(A_sub), weakref.ref(A_sub))
            return real(plan, r)

        monkeypatch.setattr(plan_cls, "grad_from_residual", recording)
        run(problem, SolverConfig(max_iter=5), np.zeros(problem.loss.dim))
        assert len(used) == 3
        assert all(ref() is None for ref in used.values())
        assert problem.lipschitz  # the problem is alive and keeps its bounds

    def test_pire_ps_builds_no_block_operator(self, monkeypatch):
        # pire-ps's Jacobi step reads the loss's gradient; only the bounds,
        # estimated here before the solve, build block operators
        problem, _ = build_problem(desk_spec("log_ls", seed=0, m=3))
        assert len(problem.lipschitz) == 3
        loss_cls = type(problem.loss)
        real = loss_cls._plan
        built = []

        def recording(loss, idx):
            built.append(idx)
            return real(loss, idx)

        monkeypatch.setattr(loss_cls, "_plan", recording)
        pire_ps_solve(problem, SolverConfig(max_iter=5), np.zeros(problem.loss.dim))
        assert built == []

    @pytest.mark.parametrize("run", [solve, pire_au_solve])
    def test_solve_does_not_keep_the_problem_alive(self, run):
        problem, _ = build_problem(desk_spec("log_ls", seed=0, m=2))
        run(problem, SolverConfig(max_iter=5), np.zeros(problem.loss.dim))
        ref = weakref.ref(problem)
        del problem
        gc.collect()
        assert ref() is None
