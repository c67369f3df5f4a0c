"""Feedback law, fixed-point solver, Jacobian, and spectral radius."""

import math

import numpy as np
import pytest

from janus_sim.controller import (
    ControlAction,
    ControlError,
    ControllerParams,
    EquilibriumReport,
    SolverError,
    Stability,
    apply_action,
    classify_stability,
    control_action,
    find_fixed_point,
    jacobian_fd,
    spectral_radius,
)
from janus_sim.core_state import PegBand

PARAMS = ControllerParams(
    fee_gain=0.5,
    reward_gain=1.0,
    rate_gain=0.2,
    fee_max=0.1,
    reward_min=-0.05,
    reward_max=0.05,
    rate_max=0.01,
    leak=0.0,
)
BAND = PegBand(0.02)
NEUTRAL = (0.05, 0.0, 0.001)


class TestControlAction:
    def test_inside_band_is_exactly_zero(self):
        for price in (0.981, 1.0, 1.019):
            assert control_action(price, 1.0, BAND, PARAMS, NEUTRAL) == ControlAction()

    def test_above_band_expands_supply(self):
        act = control_action(1.05, 1.0, BAND, PARAMS, NEUTRAL)
        excess = 0.05 - 0.02
        assert act.reward_delta == pytest.approx(1.0 * excess)
        assert act.fee_delta == pytest.approx(-0.5 * excess)
        assert act.rate_delta == pytest.approx(-0.001)  # saturated at rate_min

    def test_below_band_mirrors(self):
        act = control_action(0.95, 1.0, BAND, PARAMS, NEUTRAL)
        excess = 0.05 - 0.02
        assert act.reward_delta == pytest.approx(-1.0 * excess)
        assert act.fee_delta == pytest.approx(0.5 * excess)
        assert act.rate_delta == pytest.approx(0.2 * excess)

    def test_deltas_saturate_at_bounds(self):
        act = control_action(2.0, 1.0, BAND, PARAMS, NEUTRAL)
        assert act.reward_delta == pytest.approx(PARAMS.reward_max)  # from 0
        assert NEUTRAL[0] + act.fee_delta >= PARAMS.fee_min - 1e-15

    def test_proportional_in_excess(self):
        a1 = control_action(1.03, 1.0, BAND, PARAMS, NEUTRAL)
        a2 = control_action(1.04, 1.0, BAND, PARAMS, NEUTRAL)
        assert a2.reward_delta == pytest.approx(2 * a1.reward_delta)

    def test_invalid_prices_rejected(self):
        with pytest.raises(ControlError):
            control_action(0.0, 1.0, BAND, PARAMS, NEUTRAL)

    @pytest.mark.parametrize(
        "bound", [dict(reward_min=-1.5), dict(reward_min=-2.0, reward_neutral=-1.5)]
    )
    def test_reward_below_minus_one_rejected(self, bound):
        # 1 + reward scales the supplies, so a reward below -1 would turn
        # them negative
        with pytest.raises(ControlError, match="at least -1"):
            ControllerParams(**bound)

    def test_reward_of_minus_one_accepted(self):
        assert ControllerParams(reward_min=-1.0, reward_neutral=-1.0).reward_min == -1.0


class TestApplyAction:
    def test_leak_pulls_to_neutral(self):
        params = ControllerParams(leak=0.25, fee_neutral=0.01)
        zero = control_action(1.0, 1.0, BAND, params, (0.05, 0.0, 0.0))
        fee, _, _ = apply_action(params, (0.05, 0.0, 0.0), zero)
        assert fee == pytest.approx(0.05 + 0.25 * (0.01 - 0.05))

    def test_bounds_enforced_after_apply(self):
        act = control_action(2.0, 1.0, BAND, PARAMS, (0.0, 0.049, 0.0))
        _, reward, _ = apply_action(PARAMS, (0.0, 0.049, 0.0), act)
        assert reward <= PARAMS.reward_max + 1e-15

    def test_zero_leak_keeps_parameters(self):
        params = ControllerParams(leak=0.0, reward_neutral=0.02, reward_max=0.05)
        out = apply_action(params, (0.0, 0.03, 0.0), ControlAction())
        assert out[1] == pytest.approx(0.03)


class TestFixedPoint:
    def test_affine_contractions_converge(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            # rescale to operator norm <= 0.9
            norm = np.linalg.norm(A, 2)
            A *= 0.9 * rng.random() / max(norm, 1e-12)
            b = rng.standard_normal(n)
            F = lambda x, A=A, b=b: A @ x + b
            x_true = np.linalg.solve(np.eye(n) - A, b)
            rep = find_fixed_point(F, np.zeros(n), damping=0.7, tol=1e-12)
            assert rep.converged
            assert rep.residual <= 1e-10
            assert np.allclose(rep.x_star, x_true, atol=1e-9)

    def test_reports_nonconvergence(self):
        F = lambda x: 2.0 * x + 1.0
        rep = find_fixed_point(F, np.array([1.0]), damping=0.1, max_iter=50)
        assert not rep.converged
        assert rep.residual > 1e-10

    def test_nonfinite_raises(self):
        F = lambda x: x * 1e300
        with np.errstate(over="ignore"), pytest.raises(SolverError):
            find_fixed_point(F, np.array([1.0]), max_iter=10)

    def test_bad_damping_rejected(self):
        with pytest.raises(ControlError):
            find_fixed_point(lambda x: x, np.zeros(1), damping=0.0)

    def test_rejects_a_map_that_changes_the_length(self):
        with pytest.raises(ControlError):
            find_fixed_point(lambda x: np.append(x, 0.0), np.zeros(2))


def numpy_fixed_point(F, x0, damping=0.5, tol=1e-10, max_iter=10000):
    """The damped iteration on arrays, as ``find_fixed_point`` ran it before
    its loop moved to Python floats: the oracle for the float loop."""
    x = np.asarray(x0, dtype=float).copy()
    residual = math.inf
    for i in range(1, max_iter + 1):
        fx = np.asarray(F(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise SolverError(f"non-finite iterate at iteration {i}")
        residual = float(np.max(np.abs(fx - x)))
        if residual <= tol:
            return EquilibriumReport(x_star=fx, residual=residual, iterations=i, converged=True)
        x = (1.0 - damping) * x + damping * fx
    return EquilibriumReport(x_star=x, residual=residual, iterations=max_iter, converged=False)


class TestFixedPointOracle:
    """The float loop gives the array loop's bits: same iterates, same
    residual, same iteration count, same failure."""

    @staticmethod
    def same(F, x0, **kw):
        def run(solver):
            try:
                rep = solver(F, x0, **kw)
            except SolverError as exc:
                return str(exc)
            return (rep.x_star.tobytes(), repr(rep.residual), rep.iterations, rep.converged)

        got, want = run(find_fixed_point), run(numpy_fixed_point)
        assert got == want

    def test_affine_contractions(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 14))
            A = rng.standard_normal((n, n))
            A *= rng.random() / max(np.linalg.norm(A, 2), 1e-12)
            b = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            x0 = rng.standard_normal(n) * (rng.random(n) < 0.7)
            damping = float(rng.choice([0.5, 1.0, rng.uniform(0.05, 1.0)]))
            tol = float(rng.choice([1e-10, 1e-12, 1e-6]))
            self.same(lambda x, A=A, b=b: A @ x + b, x0, damping=damping, tol=tol)

    def test_cut_short_before_convergence(self):
        rng = np.random.default_rng(78)
        for _ in range(50):
            n = int(rng.integers(1, 14))
            A = 0.95 * np.diag(rng.uniform(-1.0, 1.0, n))
            b = rng.standard_normal(n)
            max_iter = int(rng.integers(0, 40))
            self.same(lambda x, A=A, b=b: A @ x + b, -np.zeros(n), damping=0.3, max_iter=max_iter)

    def test_nonconvergent(self):
        self.same(lambda x: 2.0 * x + 1.0, np.array([1.0]), damping=0.1, max_iter=50)
        self.same(lambda x: -x + np.array([1.0, -2.0]), np.array([0.0, 3.0]), damping=1.0, max_iter=30)

    def test_nonfinite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            self.same(lambda x: x * 1e300, np.array([1.0]), max_iter=10)
            self.same(lambda x: x * 1e300, np.array([1.0, 2.0]), damping=0.2, max_iter=10)
            self.same(lambda x: np.where(x > 0.4, np.nan, x + 0.3), np.zeros(3), damping=1.0)


class TestJacobian:
    def test_recovers_linear_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            x = rng.standard_normal(n)
            J = jacobian_fd(lambda v, A=A: A @ v, x)
            assert np.allclose(J, A, atol=1e-6)

    def test_nonlinear_map(self):
        def F(v):
            return np.array([v[0] ** 2, math.sin(v[1])])

        x = np.array([0.5, 0.3])
        J = jacobian_fd(F, x)
        assert J[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert J[1, 1] == pytest.approx(math.cos(0.3), abs=1e-6)
        assert abs(J[0, 1]) < 1e-8 and abs(J[1, 0]) < 1e-8


class TestSpectralRadius:
    def test_matches_eigvals_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            J = rng.standard_normal((5, 5))
            oracle = max(abs(np.linalg.eigvals(J)))
            assert spectral_radius(J) == pytest.approx(oracle, abs=1e-6, rel=1e-6)

    def test_complex_dominant_pair(self):
        # rotation-scaling: eigenvalues 0.8 * exp(+-i*theta)
        theta = 0.7
        J = 0.8 * np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert spectral_radius(J) == pytest.approx(0.8, rel=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(ControlError):
            spectral_radius(np.zeros((2, 3)))


class TestClassification:
    def test_thresholds(self):
        assert classify_stability(0.9) is Stability.STABLE
        assert classify_stability(0.97) is Stability.MARGINAL
        assert classify_stability(1.0) is Stability.MARGINAL
        assert classify_stability(1.06) is Stability.UNSTABLE

    def test_custom_margin(self):
        assert classify_stability(0.97, margin=0.01) is Stability.STABLE

    def test_invalid_inputs(self):
        with pytest.raises(ControlError):
            classify_stability(-0.1)
