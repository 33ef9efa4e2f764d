"""Proximal kernels against brute-force grid and subgradient oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpiree.prox import (
    NumericalFailure,
    abs_subgrad,
    block_prox_step,
    prox_scalar_convex,
)


def soft_threshold(v, tau):
    """``argmin_x tau*|x| + 0.5*(x - v)^2`` of one pair, by the solvers'
    kernel: the block step with zero gradient and stepsize 1 has center
    ``v - 1.0*0 = v`` and weight ``1.0*tau = tau``."""
    return float(block_prox_step([v], [0.0], 1.0, [tau])[0])


def grid_argmin(v, tau, g=abs, lo=None, hi=None, points=100_001):
    """Brute-force minimizer of tau*g(x) + 0.5*(x-v)^2 on a uniform grid."""
    if lo is None:
        lo = min(v, 0.0) - 1.0
    if hi is None:
        hi = max(v, 0.0) + 1.0
    xs = np.linspace(lo, hi, points)
    vals = tau * np.array([g(x) for x in xs]) + 0.5 * (xs - v) ** 2
    return xs[int(np.argmin(vals))]


class TestProxWeightedAbs:
    """The soft threshold, as the solvers run it in ``block_prox_step``."""

    def test_shift_by_threshold(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_dead_zone(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_identity_at_zero_weight(self):
        assert soft_threshold(-2.0, 0.0) == -2.0

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.5)

    def test_vectorized(self):
        out = block_prox_step(np.array([3.0, -3.0, 0.2]), np.zeros(3), 1.0, np.ones(3))
        np.testing.assert_allclose(out, [2.0, -2.0, 0.0])

    @given(
        v=st.floats(-50, 50),
        tau=st.floats(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_optimality_inclusion(self, v, tau):
        # 0 in (x - v) + tau * d|x| at the returned point
        x = soft_threshold(v, tau)
        lo, hi = abs_subgrad(x)
        assert (x - v) + tau * lo <= 1e-9
        assert (x - v) + tau * hi >= -1e-9

    @given(
        v1=st.floats(-20, 20),
        v2=st.floats(-20, 20),
        tau=st.floats(0, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonexpansive(self, v1, v2, tau):
        d = abs(soft_threshold(v1, tau) - soft_threshold(v2, tau))
        assert d <= abs(v1 - v2) + 1e-12

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = rng.uniform(-8, 8)
            tau = rng.uniform(0, 4)
            assert soft_threshold(v, tau) == pytest.approx(
                grid_argmin(v, tau), abs=1e-4
            )


class TestProxScalarConvex:
    def test_matches_soft_threshold(self):
        x = prox_scalar_convex(3.0, 1.0, tol=1e-8)
        assert x == pytest.approx(2.0, abs=1e-8)

    def test_quadratic_g(self):
        # argmin x^2 + 0.5 (x-4)^2: stationarity 2x + x - 4 = 0 -> x = 4/3
        x = prox_scalar_convex(
            4.0, 1.0, g=lambda x: x * x, g_subgrad=lambda x: (2 * x, 2 * x), tol=1e-8
        )
        assert x == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_symmetry_forces_zero(self):
        assert prox_scalar_convex(0.0, 5.0) == pytest.approx(0.0, abs=1e-10)

    def test_numeric_subgradient_fallback(self):
        x = prox_scalar_convex(4.0, 1.0, g=lambda x: x * x, tol=1e-7)
        assert x == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prox_scalar_convex(1.0, -1.0)
        with pytest.raises(ValueError):
            prox_scalar_convex(1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            prox_scalar_convex(np.nan, 1.0)

    def test_unbracketable_subgradient_fails(self):
        # a "subgradient" oracle that always reports a huge positive slope
        # can never bracket; the expansion must give up cleanly
        with pytest.raises(NumericalFailure):
            prox_scalar_convex(
                1.0, 1.0, g=lambda x: abs(x), g_subgrad=lambda x: (np.inf, np.inf)
            )

    @given(v=st.floats(-30, 30), tau=st.floats(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_closed_form(self, v, tau):
        x = prox_scalar_convex(v, tau, tol=1e-10)
        assert x == pytest.approx(soft_threshold(v, tau), abs=1e-9)

    def test_optimality_certificate(self):
        # bisection guarantee: 0 lies in the optimality map's image of the
        # tol-ball around the returned point (the map is monotone, so the
        # interval endpoints bound it)
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.uniform(-10, 10)
            tau = rng.uniform(0, 5)
            tol = 1e-10
            x = prox_scalar_convex(v, tau, tol=tol)
            delta = 2 * tol + 1e-12
            lo, _ = abs_subgrad(x - delta)
            _, hi = abs_subgrad(x + delta)
            assert (x - delta - v) + tau * lo <= 1e-12
            assert (x + delta - v) + tau * hi >= -1e-12


class TestBlockProxStep:
    def test_no_penalty_no_gradient(self):
        out = block_prox_step(np.ones(2), np.zeros(2), 1.0, np.zeros(2))
        np.testing.assert_allclose(out, np.ones(2))

    def test_hand_soft_threshold(self):
        out = block_prox_step(np.array([2.0]), np.array([1.0]), 1.0, np.array([0.5]))
        np.testing.assert_allclose(out, [0.5])

    def test_beats_grid_on_random_instance(self):
        rng = np.random.default_rng(31)
        x_hat = rng.uniform(-2, 2, size=4)
        grad = rng.uniform(-2, 2, size=4)
        alpha = 0.7
        weights = rng.uniform(0, 2, size=4)
        out = block_prox_step(x_hat, grad, alpha, weights)

        def subproblem(x):
            return (
                grad @ (x - x_hat)
                + np.sum((x - x_hat) ** 2) / (2 * alpha)
                + np.sum(weights * np.abs(x))
            )

        # coordinate-separable: compare against a 1e4-point grid per coordinate
        for j in range(4):
            xs = np.linspace(-5, 5, 10_000)
            vals = (
                grad[j] * (xs - x_hat[j])
                + (xs - x_hat[j]) ** 2 / (2 * alpha)
                + weights[j] * np.abs(xs)
            )
            best = vals.min()
            mine = (
                grad[j] * (out[j] - x_hat[j])
                + (out[j] - x_hat[j]) ** 2 / (2 * alpha)
                + weights[j] * abs(out[j])
            )
            assert mine <= best + 1e-8
        assert subproblem(out) <= subproblem(x_hat) + 1e-12

    def test_strict_decrease_off_minimizer(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x_hat = rng.uniform(-3, 3, size=3)
            grad = rng.uniform(-3, 3, size=3)
            weights = rng.uniform(0, 1, size=3)
            alpha = 0.5
            out = block_prox_step(x_hat, grad, alpha, weights)

            def val(x):
                return (
                    grad @ (x - x_hat)
                    + np.sum((x - x_hat) ** 2) / (2 * alpha)
                    + np.sum(weights * np.abs(x))
                )

            if not np.allclose(out, x_hat):
                assert val(out) < val(x_hat)

    def test_generic_g_route(self):
        # g(x) = x^2 with weight w and stepsize a: minimize
        # grad*(x-xh) + (x-xh)^2/(2a) + w x^2; compare to closed form
        a, w = 0.5, 1.5
        x_hat, grad = np.array([2.0]), np.array([1.0])
        out = block_prox_step(
            x_hat, grad, a, np.array([w]),
            g=lambda x: x * x, g_subgrad=lambda x: (2 * x, 2 * x),
        )
        # stationarity: grad + (x - xh)/a + 2 w x = 0
        expected = (x_hat[0] / a - grad[0]) / (1.0 / a + 2 * w)
        assert out[0] == pytest.approx(expected, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            block_prox_step(np.ones(2), np.ones(3), 1.0, np.ones(2))
        with pytest.raises(ValueError):
            block_prox_step(np.ones(2), np.ones(2), 0.0, np.ones(2))
        with pytest.raises(ValueError):
            block_prox_step(np.ones(2), np.ones(2), 1.0, -np.ones(2))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            block_prox_step(np.ones(2), np.ones(2), 1.0, np.array([np.nan, 1.0]))

    def test_matches_prox_weighted_abs(self):
        # the soft threshold of center x_hat - alpha*grad at weight alpha*w
        rng = np.random.default_rng(5)
        x_hat, grad = rng.standard_normal(50), rng.standard_normal(50)
        weights = rng.uniform(0, 1, size=50)
        alpha = 0.37
        v, tau = x_hat - alpha * grad, alpha * weights
        expected = np.copysign(np.maximum(np.abs(v) - tau, 0.0), v)
        out = block_prox_step(x_hat, grad, alpha, weights)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("g", [None, "square"])
    def test_per_coordinate_alpha_matches_prescaled_call(self, g):
        # a stepsize per coordinate gives the floats of the call with the
        # gradient and weights scaled by it and stepsize 1.0, since 1.0*y == y
        rng = np.random.default_rng(8)
        x_hat, grad = rng.standard_normal(40), rng.standard_normal(40)
        weights = rng.uniform(0, 1, size=40)
        alpha = rng.uniform(0.1, 2.0, size=40)
        kw = {} if g is None else {"g": lambda x: x * x, "g_subgrad": lambda x: (2 * x, 2 * x)}
        out = block_prox_step(x_hat, grad, alpha, weights, **kw)
        prescaled = block_prox_step(x_hat, alpha * grad, 1.0, alpha * weights, **kw)
        assert out.tobytes() == prescaled.tobytes()

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("form", [
        float,  # the float path: one comparison
        np.float64,  # a float subclass, so the float path too
        np.array,  # 0-d array
        lambda v: np.array([0.5, v, 0.5]),  # one entry of a per-coordinate array
    ], ids=["float", "float64", "0-d", "per-coordinate"])
    def test_rejects_a_stepsize_that_is_not_positive(self, form, value):
        with pytest.raises(ValueError, match="stepsize alpha must be positive"):
            block_prox_step(np.ones(3), np.ones(3), form(value), np.ones(3))

    @pytest.mark.parametrize("alpha", [np.array([0.5, 0.5]), np.full((3, 2), 0.5)])
    def test_rejects_stepsizes_of_the_wrong_shape(self, alpha):
        with pytest.raises(ValueError,
                           match="alpha must be a scalar or one stepsize per coordinate"):
            block_prox_step(np.ones(3), np.ones(3), alpha, np.ones(3))
