import math

import numpy as np
import pytest

from ipflab import diffusion, identification
from ipflab.errors import DegenerateEnsembleError, InputError


def stationary_ou(theta=1.0, sigma=1.0, n_paths=20000, seed=21, horizon=1.0):
    model = diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: -theta * x,
        diffusion=lambda t: [[sigma]],
        initial_mean=[0.0], initial_cov=[[sigma ** 2 / (2 * theta)]],
        horizon=(0.0, horizon))
    stats = diffusion.simulate_ensemble(model, n_paths, dt=2e-3, seed=seed)
    return diffusion.covariance_derivative(stats)


class TestReduced:
    def test_ou_recovery_with_explicit_b(self):
        stats = stationary_ou()
        op = identification.identify_reduced_feedback(
            stats, 1.0, b=np.array([[0.5]]))
        assert abs(abs(op.A[0, 0]) - 1.0) <= 0.05

    def test_identity_moments(self):
        grid = np.linspace(0, 1, 11)
        r = np.tile(np.eye(1), (11, 1, 1))
        stats = diffusion.stats_from_covariance(grid, r)
        op = identification.identify_reduced_feedback(stats, 1.0,
                                                      b=np.eye(1))
        assert op.A[0, 0] == pytest.approx(-1.0)

    def test_sigma_scale_invariance(self):
        # both b and the stationary moment scale by 4, A is unchanged
        a1 = identification.identify_reduced_feedback(
            stationary_ou(sigma=1.0, seed=3), 1.0, b=np.array([[0.5]]))
        a2 = identification.identify_reduced_feedback(
            stationary_ou(sigma=2.0, seed=3), 1.0, b=np.array([[2.0]]))
        assert a2.A[0, 0] == pytest.approx(a1.A[0, 0], rel=0.05)

    def test_explicit_shift_matches_feedback(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[1.0]],
            initial_mean=[0.0], initial_cov=[[0.5]], horizon=(0.0, 0.5))
        stats = diffusion.simulate_ensemble(model, 5000, dt=2e-3, seed=8,
                                            keep_paths=True)
        stats = diffusion.covariance_derivative(stats)
        op_paths = identification.identify_reduced(
            stats, lambda t: np.zeros(1), 0.5, b=np.array([[0.5]]))
        # with v = 0 the shifted moment is r itself, bit for bit
        assert op_paths.diagnostics["r_v"].tobytes() == stats.r_at(0.5).tobytes()
        op_r = identification.identify_reduced_feedback(stats, 0.5,
                                                        b=np.array([[0.5]]))
        assert op_paths.A.tobytes() == op_r.A.tobytes()

    def test_paths_required(self):
        stats = stationary_ou(n_paths=2000)
        with pytest.raises(InputError):
            identification.identify_reduced(stats, 0.0, 1.0, b=np.array([[0.5]]))

    @pytest.mark.parametrize("v", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0]])
    def test_shift_of_wrong_length_refused(self, v):
        # a length-1 shift would broadcast silently, the others fail in numpy
        model = diffusion.DiffusionModel(
            n=3, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(3),
            initial_mean=np.zeros(3), initial_cov=np.eye(3), horizon=(0.0, 0.1))
        stats = diffusion.simulate_ensemble(model, 50, dt=0.01, seed=2,
                                            keep_paths=True)
        with pytest.raises(InputError, match=f"length {len(v)}.*n=3"):
            identification.identify_reduced(stats, v, 0.1, b=0.5 * np.eye(3))


class TestCovarianceRatio:
    def test_exponential_growth(self):
        grid = np.linspace(0, 1, 2001)
        stats = diffusion.stats_from_covariance(grid, np.exp(1.4 * grid))
        stats = diffusion.covariance_derivative(stats)
        op = identification.identify_covariance_ratio(stats, 0.5)
        # left-sided derivative at the switch moment, first-order in dt
        assert op.A[0, 0] == pytest.approx(0.7, abs=1e-3)

    def test_constant_covariance(self):
        grid = np.linspace(0, 1, 101)
        stats = diffusion.stats_from_covariance(grid, np.ones_like(grid))
        stats = diffusion.covariance_derivative(stats)
        op = identification.identify_covariance_ratio(stats, 0.5)
        assert op.A[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_ou_relaxation_start(self):
        # rdot(0) = -2 r(0) + sigma^2 = -1 when r(0)=1, theta=1, sigma=1
        grid = np.linspace(0, 1, 4001)
        r = 0.5 + 0.5 * np.exp(-2 * grid)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, r))
        op = identification.identify_covariance_ratio(stats, 0.0)
        assert op.A[0, 0] == pytest.approx(-0.5, abs=1e-3)

    def test_tau_beyond_grid_rejected(self):
        # used to return the t = 1 operator labelled tau = 50
        grid = np.linspace(0, 1, 101)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, np.exp(grid)))
        with pytest.raises(InputError, match="outside the grid"):
            identification.identify_covariance_ratio(stats, 50.0)

    def test_commutator_diagnostic_present(self):
        grid = np.linspace(0, 1, 101)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, np.exp(grid)))
        op = identification.identify_covariance_ratio(stats, 0.5)
        assert op.diagnostics["commutator_norm"] == pytest.approx(0.0, abs=1e-15)


class TestDispersionWindow:
    def test_constant_b(self):
        # r = 2 c t gives b = c; A = c / (2 c w) = 1 / (2 w)
        grid = np.linspace(0, 1, 1001)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, 6.0 * grid + 1.0))
        op = identification.identify_dispersion_window(stats, 1.0, window=0.5)
        assert op.A[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_linear_b(self):
        # r = t^2 gives b = t; A(1) = 1 / (2 * 0.5) = 1
        grid = np.linspace(0, 1, 2001)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, grid ** 2))
        op = identification.identify_dispersion_window(stats, 1.0, window=1.0)
        assert op.A[0, 0] == pytest.approx(1.0, rel=1e-3)

    def test_zero_window_rejected(self):
        grid = np.linspace(0, 1, 101)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, grid + 1.0))
        with pytest.raises(InputError):
            identification.identify_dispersion_window(stats, 1.0, window=0.0)

    def test_window_below_grid_rejected(self):
        grid = np.linspace(0, 1, 11)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, grid + 1.0))
        with pytest.raises(InputError):
            identification.identify_dispersion_window(stats, 1.0, window=1e-6)

    @pytest.mark.parametrize("window", [0.5 + 1e-6, 1.0, 2.0, 100.0])
    def test_window_before_grid_start_refused(self, window):
        # used to be cut short at grid[0]: every window here gave the A of
        # window 0.5, under the name of the window asked for
        grid = np.linspace(0, 1, 101)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, grid ** 2 + 1.0))
        with pytest.raises(InputError, match=f"window={window} .*grid start"):
            identification.identify_dispersion_window(stats, 0.5, window=window)

    def test_window_from_grid_start_within_rounding(self):
        grid = np.linspace(0, 1, 101)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, grid ** 2 + 1.0))
        want = identification.identify_dispersion_window(stats, 0.5, window=0.5)
        op = identification.identify_dispersion_window(
            stats, 0.5, window=0.5 * (1 + 1e-12))
        assert op.A[0, 0] == want.A[0, 0]

    def test_agrees_with_covariance_ratio_from_zero_start(self):
        # full-span window from r(0) = 0 makes both methods identical
        grid = np.linspace(0, 1, 4001)
        r = 0.5 * (1.0 - np.exp(-2 * grid))
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, r))
        a_ratio = identification.identify_covariance_ratio(stats, 1.0).A[0, 0]
        a_win = identification.identify_dispersion_window(stats, 1.0,
                                                          window=1.0).A[0, 0]
        assert a_win == pytest.approx(a_ratio, rel=1e-3)


class TestConstraint:
    def test_consistent_pair_zero_residual(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5000, 1))
        grad = -2.0 * X.T @ X / X.shape[0]
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, np.ones_like(grid))
        assert identification.check_constraint(stats, X, 1.0, grad) == pytest.approx(0.0, abs=1e-12)

    def test_dp_vs_midsegment_separation(self):
        # at tau the accumulated diffusion equals r; midway it does not
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: 0.0 * x, diffusion=lambda t: [[1.0]],
            initial_mean=[0.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        stats = diffusion.simulate_ensemble(model, 20000, dt=2e-3, seed=5,
                                            keep_paths=True)
        stats = diffusion.covariance_derivative(stats)
        grad_full = np.array([[-0.5 / 1.0]])     # -(1/2)(int sigma^2 dt)^{-1} over [0,1]
        X_end = identification.conjugate_vector(stats, 1.0)
        X_mid = identification.conjugate_vector(stats, 0.25)
        res_end = identification.check_constraint(stats, X_end, 1.0, grad_full)
        res_mid = identification.check_constraint(stats, X_mid, 0.25, grad_full)
        assert res_end <= 0.05 * abs(grad_full[0, 0])
        assert res_mid > 5 * res_end


class TestGuards:
    def test_singular_moment_rejected(self):
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, np.zeros_like(grid))
        stats = diffusion.covariance_derivative(stats)
        with pytest.raises(DegenerateEnsembleError):
            identification.identify_covariance_ratio(stats, 0.5)

    def test_json_report(self):
        import json
        grid = np.linspace(0, 1, 101)
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, np.exp(grid)))
        op = identification.identify_covariance_ratio(stats, 0.5)
        doc = json.loads(op.to_json())
        assert doc["method"] == "covariance-ratio" and "eigenvalues_real" in doc
