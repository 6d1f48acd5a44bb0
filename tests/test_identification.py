import math

import numpy as np
import pytest

from ipflab import control, diffusion, identification
from ipflab.errors import DegenerateEnsembleError, InputError
from kernel_states import kernel_states


def stationary_ou(theta=1.0, sigma=1.0, n_paths=20000, seed=21, horizon=1.0):
    model = diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: -theta * x,
        diffusion=lambda t: [[sigma]],
        initial_mean=[0.0], initial_cov=[[sigma ** 2 / (2 * theta)]],
        horizon=(0.0, horizon))
    stats = diffusion.simulate_ensemble(model, n_paths, dt=2e-3, seed=seed)
    return diffusion.covariance_derivative(stats)


@pytest.fixture(scope="module")
def ensemble3():
    """The benchmark's n = 3 model: drift x A^T, sigma = I, started in its
    stationary law N(0, -A^{-1}/2)."""
    a = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
    model = diffusion.DiffusionModel(
        n=3, drift=lambda t, x, u: x @ a.T, diffusion=lambda t: np.eye(3),
        initial_mean=np.zeros(3), initial_cov=-0.5 * np.linalg.inv(a),
        horizon=(0.0, 2.0))
    return diffusion.simulate_ensemble(model, 2000, dt=2e-3, seed=1)


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
        stats = diffusion.simulate_ensemble(model, 5000, dt=2e-3, seed=8)
        op_paths = identification.identify_reduced(
            stats, lambda t: np.zeros(1), 0.5, b=np.array([[0.5]]))
        # with v = 0 the shifted moment is r itself, bit for bit
        assert op_paths.diagnostics["r_v"].tobytes() == stats.r_at(0.5).tobytes()
        op_r = identification.identify_reduced_feedback(stats, 0.5,
                                                        b=np.array([[0.5]]))
        assert op_paths.A.tobytes() == op_r.A.tobytes()

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0])
    def test_feedback_and_closed_loop_share_one_ratio(self, ensemble3, tau):
        # -b r^{-1} under v = -2x, +b r^{-1} for the closed loop, and the
        # explicit zero shift: the same bits up to the sign
        b = 0.5 * np.eye(3)
        fb = identification.identify_reduced_feedback(ensemble3, tau, b=b)
        cl = identification.identify_closed_loop(ensemble3, tau, b=b)
        zero = identification.identify_reduced(ensemble3, np.zeros(3), tau, b=b)
        assert cl.A.tobytes() == (-fb.A).tobytes()
        assert fb.A.tobytes() == zero.A.tobytes()

    def test_shifted_moment_against_the_paths(self):
        # v is nonrandom at tau, so E[(x+v)(x+v)^T] = r + m v^T + v m^T + v v^T
        model = diffusion.DiffusionModel(
            n=3, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(3),
            initial_mean=[0.5, -1.0, 2.0], initial_cov=np.eye(3),
            horizon=(0.0, 0.2))
        v = np.array([0.7, 0.3, -1.1])
        stats = diffusion.simulate_ensemble(model, 3000, dt=0.01, seed=6)
        states = kernel_states(model, 3000, 0.01, 6)
        for tau in (0.0, 0.1, 0.2):
            shifted = states[stats.index_of(tau)] + v
            want = shifted.T @ shifted / len(shifted)
            op = identification.identify_reduced(stats, v, tau, b=0.5 * np.eye(3))
            assert op.diagnostics["r_v"] == pytest.approx(want, rel=1e-12)

    def test_analytic_record(self):
        # r = 2 with mean 1 and v = 1: r_v = 2 + 2 + 1 = 5
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, np.full(11, 2.0),
                                                mean=np.ones((11, 1)))
        op = identification.identify_reduced(stats, lambda t: [1.0], 0.5,
                                             b=np.array([[0.5]]))
        assert op.diagnostics["r_v"][0, 0] == 5.0
        assert op.A[0, 0] == pytest.approx(-0.1, rel=1e-15)

    @pytest.mark.parametrize("v", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0]])
    def test_shift_of_wrong_length_refused(self, v):
        # a length-1 shift would broadcast silently, the others fail in numpy
        model = diffusion.DiffusionModel(
            n=3, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(3),
            initial_mean=np.zeros(3), initial_cov=np.eye(3), horizon=(0.0, 0.1))
        stats = diffusion.simulate_ensemble(model, 50, dt=0.01, seed=2)
        with pytest.raises(InputError, match=rf"v has shape \({len(v)},\), not \(3,\)"):
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

    def test_integral_is_the_increment_of_r(self):
        # 2 int b dt = r(1) - r(0.5) = 0.75; b(1) = (1/2)(r(1) - r(0.9)) / 0.1
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, grid ** 2 + 1.0)
        op = identification.identify_dispersion_window(stats, 1.0, window=0.5)
        b_tau = 0.5 * (stats.r[10] - stats.r[9]) / (grid[10] - grid[9])
        assert op.A[0, 0] == pytest.approx(b_tau[0, 0] / 0.75, rel=1e-14)

    @pytest.mark.parametrize("window", [0.04, 0.06, 0.1 * (1 - 1e-6)])
    def test_window_shorter_than_a_step_refused(self, window):
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, grid ** 2 + 1.0)
        with pytest.raises(InputError, match="shorter than the grid step"):
            identification.identify_dispersion_window(stats, 1.0, window=window)
        # one step, up to rounding, is the shortest window
        identification.identify_dispersion_window(stats, 1.0, window=0.1 * (1 - 1e-12))

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
        # r = 4: E[2 X X^T] = (1/2) r^{-1} = 1/8
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, np.full(11, 4.0))
        residual = identification.check_constraint(stats, 1.0, np.array([[-0.125]]))
        assert residual == 0.0

    def test_dp_vs_midsegment_separation(self):
        # at tau the accumulated diffusion equals r; midway it does not
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: 0.0 * x, diffusion=lambda t: [[1.0]],
            initial_mean=[0.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        stats = diffusion.simulate_ensemble(model, 20000, dt=2e-3, seed=5)
        grad_full = np.array([[-0.5 / 1.0]])     # -(1/2)(int sigma^2 dt)^{-1} over [0,1]
        res_end = identification.check_constraint(stats, 1.0, grad_full)
        res_mid = identification.check_constraint(stats, 0.25, grad_full)
        assert res_end <= 0.05 * abs(grad_full[0, 0])
        assert res_mid > 5 * res_end

    @pytest.mark.parametrize("tau", [0.1, 0.3])
    def test_against_the_per_path_conjugate_vector(self, tau):
        # X = -(1/2) r^{-1} x on every path, and 2 X^T X / N from them
        model = diffusion.DiffusionModel(
            n=2, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(2),
            initial_mean=[1.0, -0.5], initial_cov=[[1.0, 0.3], [0.3, 0.5]],
            horizon=(0.0, 0.3))
        stats = diffusion.simulate_ensemble(model, 4000, dt=0.01, seed=3)
        states = kernel_states(model, 4000, 0.01, 3)
        X = -0.5 * states[stats.index_of(tau)] @ np.linalg.inv(stats.r_at(tau)).T
        grad = np.array([[-0.4, 0.1], [0.1, -0.9]])
        want = np.linalg.norm(2.0 * X.T @ X / len(X) + grad)
        assert identification.check_constraint(stats, tau, grad) == pytest.approx(
            want, rel=1e-12)


ROUTES = {
    "reduced": lambda s, t: identification.identify_reduced(s, [0.5], t, b=np.eye(1)),
    "reduced_feedback": lambda s, t: identification.identify_reduced_feedback(
        s, t, b=np.eye(1)),
    "covariance_ratio": identification.identify_covariance_ratio,
    "dispersion_window": lambda s, t: identification.identify_dispersion_window(
        s, t, window=t),
    "closed_loop": lambda s, t: identification.identify_closed_loop(s, t, b=np.eye(1)),
    "constraint": lambda s, t: identification.check_constraint(s, t, -np.eye(1)),
    "starting_control": control.starting_control,
}


class TestMomentsOnly:
    """Every route reads grid, mean and r alone: no retained paths and no
    r_dot filled beforehand."""

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_simulated_record_without_r_dot(self, route):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.5]], horizon=(0.0, 0.5))
        stats = diffusion.simulate_ensemble(model, 2000, dt=0.01, seed=4)
        assert stats.r_dot is None
        # the window route needs a window, so it starts at tau = 0.5
        for tau in ((0.5,) if route == "dispersion_window" else (0.0, 0.5)):
            out = ROUTES[route](stats, tau)
            values = out.values() if isinstance(out, dict) else [getattr(out, "A", out)]
            assert all(np.isfinite(v).all() for v in values)

    def test_starting_control_at_the_grid_start(self):
        # r = 1 + t^2 + t: r_dot(0) from the first cell is 1 + dt
        grid = np.linspace(0, 1, 101)
        stats = diffusion.stats_from_covariance(grid, 1.0 + grid ** 2 + grid)
        got = control.starting_control(stats, 0.0)
        want = diffusion.covariance_derivative(stats).r_dot[0]
        assert got["A_start"].tobytes() == (0.5 * want).tobytes()


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
