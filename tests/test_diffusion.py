import dataclasses
import math
import warnings

import numpy as np
import pytest

from ipflab import diffusion, entropy
from ipflab.errors import InputError, SimulationDivergedError
from kernel_states import kernel_states

# the ensemble3 benchmark's initial law: the stationary covariance -A^{-1}/2
# of its drift matrix A, symmetrized as the workload does
_COV3 = -0.5 * np.linalg.inv([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
ENSEMBLE3_COV = 0.5 * (_COV3 + _COV3.T)


def ou_model(theta=1.0, sigma=1.0, x0=0.0, horizon=(0.0, 5.0)):
    return diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: -theta * x,
        diffusion=lambda t: [[sigma]],
        initial_mean=[x0], initial_cov=[[0.0]], horizon=horizon)


class TestModelValidation:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(InputError):
            diffusion.DiffusionModel(n=2, drift=lambda t, x, u: -x,
                                     diffusion=lambda t: np.eye(2),
                                     initial_mean=[0, 0],
                                     initial_cov=[[1, 0.5], [0.2, 1]],
                                     horizon=(0, 1))

    def test_negative_cov_rejected(self):
        with pytest.raises(InputError):
            diffusion.DiffusionModel(n=1, drift=lambda t, x, u: -x,
                                     diffusion=lambda t: [[1.0]],
                                     initial_mean=[0], initial_cov=[[-1.0]],
                                     horizon=(0, 1))

    @pytest.mark.parametrize("mean,cov,match", [
        ([0.0], np.eye(2), r"initial_mean has shape \(1,\), not \(2,\)"),
        ([0.0, 0.0, 0.0], np.eye(2), r"initial_mean has shape \(3,\), not \(2,\)"),
        ([0.0, 0.0], np.eye(3), r"initial_cov has shape \(3, 3\), not \(2, 2\)")],
        ids=["mean0-cov0", "mean1-cov1", "mean2-cov2"])
    def test_initial_law_of_wrong_shape_rejected(self, mean, cov, match):
        with pytest.raises(InputError, match=match):
            diffusion.DiffusionModel(n=2, drift=lambda t, x, u: -x,
                                     diffusion=lambda t: np.eye(2),
                                     initial_mean=mean, initial_cov=cov,
                                     horizon=(0, 1))

    def test_bad_horizon_rejected(self):
        with pytest.raises(InputError):
            ou_model(horizon=(1.0, 1.0))

    @pytest.mark.parametrize("n,match", [(2.5, "n must be an integer"),
                                         (2.0, "n must be an integer"),
                                         (True, "n must be an integer"),
                                         (-1, "n must be >= 1")])
    def test_n_not_a_positive_integer_refused(self, n, match):
        with pytest.raises(InputError, match=match):
            diffusion.DiffusionModel(n=n, drift=lambda t, x, u: -x,
                                     diffusion=lambda t: [[1.0]],
                                     initial_mean=[0.0], initial_cov=[[1.0]],
                                     horizon=(0, 1))

    def test_zero_dimensional_model_refused(self):
        # used to escape from eigvalsh as a bare numpy ValueError
        with pytest.raises(InputError, match="n must be >= 1"):
            diffusion.DiffusionModel(n=0, drift=lambda t, x, u: x,
                                     diffusion=lambda t: np.zeros((0, 0)),
                                     initial_mean=np.zeros(0),
                                     initial_cov=np.zeros((0, 0)),
                                     horizon=(0, 1))

    @pytest.mark.parametrize("mean,cov,name", [
        # [[inf]] used to be accepted, [[nan]] refused as asymmetric, and a
        # NaN mean surfaced as SimulationDivergedError at t = dt
        ([0.0], [[math.inf]], "initial_cov"),
        ([0.0], [[math.nan]], "initial_cov"),
        ([math.nan], [[1.0]], "initial_mean"),
        ([-math.inf], [[0.0]], "initial_mean")],
        ids=["cov-inf", "cov-nan", "mean-nan", "mean-minus-inf"])
    def test_non_finite_initial_law_refused(self, mean, cov, name):
        with pytest.raises(InputError, match=f"{name} must be finite"):
            diffusion.DiffusionModel(n=1, drift=lambda t, x, u: -x,
                                     diffusion=lambda t: [[1.0]],
                                     initial_mean=mean, initial_cov=cov,
                                     horizon=(0, 1))

    @pytest.mark.parametrize("horizon", [(0.0, math.inf), (-math.inf, 1.0),
                                         (0.0, math.nan)])
    def test_non_finite_horizon_rejected(self, horizon):
        # (0, inf) used to pass, and simulate_ensemble then raised a raw
        # ValueError converting a NaN step count to an integer
        with pytest.raises(InputError, match="finite"):
            ou_model(horizon=horizon)


class TestSimulateEnsemble:
    def test_ou_stationary_covariance(self):
        stats = diffusion.simulate_ensemble(ou_model(), 10000, dt=5e-3, seed=7)
        r_end = stats.r[-1, 0, 0]
        se = math.sqrt(2.0 / 10000) * 0.5
        assert abs(r_end - 0.5) <= 3 * se + 0.5 * 2 * 5e-3

    def test_degenerate_deterministic(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: 0.0 * x, diffusion=lambda t: [[0.0]],
            initial_mean=[3.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        stats = diffusion.simulate_ensemble(model, 100, dt=0.01, seed=1)
        assert np.allclose(stats.mean, 3.0)
        assert np.allclose(stats.r, 9.0)

    def test_tiny_initial_covariance_sampled(self):
        # a covariance below allclose's 1e-8 is a real spread, not zero
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[1e-9]], horizon=(0.0, 0.1))
        x0 = kernel_states(model, 4000, 0.01, 1)[0]
        spread = np.std(x0[:, 0])
        assert spread == pytest.approx(math.sqrt(1e-9), rel=0.05)

    @pytest.mark.parametrize("cov", [[[-1e-13]], [[1.0, 0.0], [0.0, -1e-13]]])
    def test_tiny_negative_eigenvalue_sampled_as_zero(self, cov):
        # the model admits eigenvalues down to -1e-12; numpy's eigh sampler
        # scaled them by sqrt(|s|) and started the paths with a spread of 3e-7
        n = len(cov)
        model = diffusion.DiffusionModel(
            n=n, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(n),
            initial_mean=np.ones(n), initial_cov=cov, horizon=(0.0, 0.1))
        x0 = kernel_states(model, 1000, 0.05, 1)[0]
        assert np.all(x0[:, -1] == 1.0)
        if n == 2:
            assert np.std(x0[:, 0]) == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("cov", [[[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 0.0]],
                                     [[1.0, 0.3], [0.3, 2.0]], ENSEMBLE3_COV, [[0.3]]])
    def test_initial_law_bits_of_numpys_sampler(self, cov):
        # a covariance with no negative eigenvalue, singular (eigh) or
        # definite (Cholesky), keeps the bits of numpy's multivariate_normal
        n = len(cov)
        model = diffusion.DiffusionModel(
            n=n, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(n),
            initial_mean=[0.5, -1.0, 0.25][:n], initial_cov=cov, horizon=(0.0, 0.1))
        assert np.min(np.linalg.eigh(model.initial_cov)[0]) >= 0
        x0 = kernel_states(model, 20000, 0.05, 4)[0]
        rng0 = np.random.Generator(np.random.SFC64(np.random.SeedSequence(4).spawn(2)[0]))
        definite = np.min(np.linalg.eigvalsh(model.initial_cov)) > 0
        want = rng0.multivariate_normal(model.initial_mean, model.initial_cov, size=20000,
                                        method="cholesky" if definite else "eigh")
        assert x0.tobytes() == want.tobytes()

    def test_unstable_linear_growth(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: x, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        stats = diffusion.simulate_ensemble(model, 20000, dt=1e-3, seed=3)
        target = 1.5 * math.exp(2.0) - 0.5
        se = target * math.sqrt(2.0 / 20000)
        assert abs(stats.r[-1, 0, 0] - target) <= 3 * se + target * 2 * 1e-3

    def test_seed_determinism_bit_identical(self):
        a = diffusion.simulate_ensemble(ou_model(horizon=(0, 1)), 500, dt=0.01, seed=11)
        b = diffusion.simulate_ensemble(ou_model(horizon=(0, 1)), 500, dt=0.01, seed=11)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.mean, b.mean)

    def test_different_seed_differs(self):
        a = diffusion.simulate_ensemble(ou_model(horizon=(0, 1)), 500, dt=0.01, seed=11)
        b = diffusion.simulate_ensemble(ou_model(horizon=(0, 1)), 500, dt=0.01, seed=12)
        assert not np.array_equal(a.r, b.r)

    def test_covariance_symmetry_exact(self):
        model = diffusion.DiffusionModel(
            n=2, drift=lambda t, x, u: -x,
            diffusion=lambda t: [[1.0, 0.3], [0.0, 0.5]],
            initial_mean=[0, 0], initial_cov=np.eye(2), horizon=(0, 1))
        stats = diffusion.simulate_ensemble(model, 2000, dt=0.01, seed=5)
        assert np.all(stats.r == np.transpose(stats.r, (0, 2, 1)))

    def test_divergence_reports_first_bad_time(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: 1e4 * x ** 3, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 2.0))
        with pytest.raises(SimulationDivergedError) as exc, \
                np.errstate(over="ignore"):
            diffusion.simulate_ensemble(model, 50, dt=0.05, seed=2)
        assert exc.value.t_bad > 0

    def test_too_few_paths_rejected(self):
        with pytest.raises(InputError):
            diffusion.simulate_ensemble(ou_model(), 1, dt=0.01, seed=0)

    def test_dt_not_dividing_horizon_rejected(self):
        # 0.3 does not divide 1: the grid would end at t = 0.9
        with pytest.raises(InputError, match="divide"):
            diffusion.simulate_ensemble(ou_model(horizon=(0.0, 1.0)), 10,
                                        dt=0.3, seed=0)

    def test_dt_dividing_horizon_up_to_rounding_accepted(self):
        # 0.1 is not a binary fraction, yet 10 steps of it span (0, 1)
        stats = diffusion.simulate_ensemble(ou_model(horizon=(0.0, 1.0)), 10,
                                            dt=0.1, seed=0)
        assert len(stats.grid) == 11

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(InputError, match="seed"):
            diffusion.simulate_ensemble(ou_model(horizon=(0, 0.1)), 10,
                                        dt=0.05, seed=seed)

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        # 1.7 used to run as seed 1 and record seed 1.7; True ran as 1
        with pytest.raises(InputError, match="seed must be an integer"):
            diffusion.simulate_ensemble(ou_model(horizon=(0, 0.1)), 10,
                                        dt=0.05, seed=seed)

    @pytest.mark.parametrize("run", [diffusion.simulate_ensemble, entropy.entropy_mc])
    @pytest.mark.parametrize("n_paths", [20.5, 20.0, True, "20", None])
    def test_non_integer_n_paths_rejected(self, run, n_paths):
        # 20.5 used to escape as a bare TypeError from the kernel
        with pytest.raises(InputError, match="n_paths must be an integer"):
            run(ou_model(horizon=(0, 0.1)), n_paths, dt=0.05, seed=1)

    def test_numpy_integer_seed_accepted(self):
        a = diffusion.simulate_ensemble(ou_model(horizon=(0, 0.1)), 10,
                                        dt=0.05, seed=np.uint64(3))
        b = diffusion.simulate_ensemble(ou_model(horizon=(0, 0.1)), 10,
                                        dt=0.05, seed=3)
        assert np.array_equal(a.r, b.r)

    def test_largest_seed_accepted(self):
        stats = diffusion.simulate_ensemble(ou_model(horizon=(0, 0.1)), 10,
                                            dt=0.05, seed=2 ** 64 - 1)
        assert stats.seed == 2 ** 64 - 1


class TestCovarianceDerivative:
    def test_linear_ramp(self):
        grid = np.linspace(0, 1, 101)
        stats = diffusion.stats_from_covariance(grid, grid.copy())
        out = diffusion.covariance_derivative(stats)
        assert np.allclose(out.r_dot[:, 0, 0], 1.0, atol=1e-12)

    def test_exponential(self):
        grid = np.arange(0, 1, 1e-3)
        stats = diffusion.stats_from_covariance(grid, np.exp(2 * grid))
        out = diffusion.covariance_derivative(stats)
        inner = out.r_dot[1:-1, 0, 0]
        assert np.allclose(inner, 2 * np.exp(2 * grid[1:-1]), rtol=1e-4)

    def test_constant(self):
        grid = np.linspace(0, 1, 50)
        stats = diffusion.stats_from_covariance(grid, np.full_like(grid, 2.0))
        out = diffusion.covariance_derivative(stats)
        assert np.allclose(out.r_dot, 0.0, atol=1e-12)

    def test_short_grid_rejected(self):
        stats = diffusion.stats_from_covariance([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InputError):
            diffusion.covariance_derivative(stats)

    def test_underflowing_spacing_refused_without_warnings(self):
        # np.gradient's dx1 * dx2 underflows to 0 and used to give NaN
        grid = 1e-303 * np.arange(5)
        stats = diffusion.stats_from_covariance(grid, 1.0 + grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="spacing 1e-303"):
                diffusion.covariance_derivative(stats)


class TestStatsRecord:
    def test_time_outside_grid_rejected(self):
        stats = diffusion.stats_from_covariance(np.linspace(0, 1, 11),
                                                np.ones(11))
        for t in (-0.5, 1.5, 50.0):
            with pytest.raises(InputError, match="outside the grid"):
                stats.index_of(t)
        with pytest.raises(InputError, match="t must be finite, not nan"):
            stats.index_of(math.nan)
        # the same relative 1e-9 as the dt check
        assert stats.index_of(1.0 + 1e-12) == 10
        assert stats.index_of(-1e-12) == 0

    def test_r_dot_at_takes_the_left_difference(self):
        grid = np.linspace(0, 1, 11)
        r = grid ** 3
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, r))
        for i in range(1, 11):
            left = (r[i] - r[i - 1]) / (grid[i] - grid[i - 1])
            assert stats.r_dot_at(grid[i])[0, 0] == left
        # inside the grid r_dot holds the central difference, which differs
        assert stats.r_dot_at(grid[5])[0, 0] != stats.r_dot[5, 0, 0]
        # grid[0] has no left neighbour
        assert stats.r_dot_at(0.0)[0, 0] == stats.r_dot[0, 0, 0]

    def test_r_dot_at_has_no_side_knob(self):
        # a misspelt side used to return the central difference silently
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(np.linspace(0, 1, 11), np.ones(11)))
        with pytest.raises(TypeError):
            stats.r_dot_at(0.5, side="Left")

    @pytest.mark.parametrize("grid", [np.linspace(0, 1, 11),
                                      np.array([0.0, 0.1, 0.25, 0.7, 1.0])])
    def test_r_dot_at_start_without_covariance_derivative(self, grid):
        # the forward difference on the first cell, bit for bit r_dot[0]
        r = np.stack([[[1 + t, t * t], [t * t, np.exp(t)]] for t in grid])
        stats = diffusion.stats_from_covariance(grid, r)
        want = diffusion.covariance_derivative(stats).r_dot[0]
        assert stats.r_dot is None
        assert stats.r_dot_at(grid[0]).tobytes() == want.tobytes()

    def test_r_dot_at_on_one_point_refused(self):
        stats = diffusion.stats_from_covariance([0.0], [1.0])
        with pytest.raises(InputError, match="at least 2 grid points"):
            stats.r_dot_at(0.0)

    def test_from_covariance_holds_read_only_copies(self):
        grid = np.linspace(0, 1, 5)
        r = np.exp(grid)
        mean = np.zeros((5, 1))
        stats = diffusion.stats_from_covariance(grid, r, mean=mean)
        for arr in (stats.grid, stats.mean, stats.r):
            assert not arr.flags.writeable
        for arr in (grid, r, mean):
            assert arr.flags.writeable
        grid[0] = r[0] = mean[0, 0] = -1.0
        assert stats.grid[0] == 0.0 and stats.r[0, 0, 0] == 1.0
        assert stats.mean[0, 0] == 0.0


class TestExport:
    def test_csv_and_json(self):
        import csv as csvmod
        import io
        import json
        stats = diffusion.simulate_ensemble(ou_model(horizon=(0, 0.1)), 100,
                                            dt=0.02, seed=0)
        stats = diffusion.covariance_derivative(stats)
        rows = list(csvmod.reader(io.StringIO(stats.to_csv())))
        assert rows[0] == ["t", "mean_0", "r_00", "rdot_00"]
        assert len(rows) == len(stats.grid) + 1
        doc = json.loads(stats.to_json())
        assert doc["seed"] == 0 and len(doc["grid"]) == len(stats.grid)

    def test_csv_without_r_dot_has_empty_cells(self):
        import csv as csvmod
        import io
        r = np.tile([[1.0, 0.5], [0.5, 2.0]], (3, 1, 1))
        stats = diffusion.stats_from_covariance([0.0, 0.5, 1.0], r)
        rows = list(csvmod.reader(io.StringIO(stats.to_csv())))
        assert rows[0][-4:] == ["rdot_00", "rdot_01", "rdot_10", "rdot_11"]
        assert [row[-4:] for row in rows[1:]] == [[""] * 4] * 3
        assert rows[1][:7] == ["0.0", "0.0", "0.0", "1.0", "0.5", "0.5", "2.0"]


class TestRequireTimes:
    def test_strict_and_repeating_axes(self):
        assert diffusion.require_times([0, 1, 2], "t").tolist() == [0.0, 1.0, 2.0]
        assert diffusion.require_times(5.0, "t").tolist() == [5.0]
        same = diffusion.require_times([0.0, 1.0, 1.0], "t", strict=False)
        assert same.tolist() == [0.0, 1.0, 1.0]
        with pytest.raises(InputError, match="t must increase strictly, as it "
                                             "does not from 1.0 to 1.0"):
            diffusion.require_times([0.0, 1.0, 1.0], "t")

    @pytest.mark.parametrize("strict, match", [
        (True, "t must increase strictly, as it does not from 2.0 to 1.0"),
        (False, "t must not decrease, as it does from 2.0 to 1.0")])
    def test_first_drop_named(self, strict, match):
        with pytest.raises(InputError, match=match):
            diffusion.require_times([0.0, 2.0, 1.0, 0.5], "t", strict=strict)

    @pytest.mark.parametrize("val, match", [
        ([], "t must not be empty"),
        ([[0.0, 1.0]], r"t has shape \(1, 2\), not \(any,\)"),
        ([0.0, math.nan], "t must be finite"),
        ([0.0, math.inf], "t must be finite"),
        ([-1e308, 1e308], "the span of t must be finite, not inf"),
        ([-1e308, 0.0, 1.0, 1e308], "the span of t must be finite")])
    def test_refused_by_name_without_warnings(self, val, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strict in (True, False):
                with pytest.raises(InputError, match=match):
                    diffusion.require_times(val, "t", strict=strict)

    def test_readers_subtract_grid_points_without_warnings(self):
        # the widest span a record takes: its readers difference its points
        stats = diffusion.stats_from_covariance([-1e308, 0.0, 7e307], np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats.index_of(0.0) == 1
            assert stats.r_dot_at(7e307)[0, 0] == 0.0


def euler_moments(a, sigma, mean0, cov0, dt, n_steps):
    """Mean and E[x x^T] of the Euler recursion x' = M x + sigma dW, with
    M = I + a dt, at every grid point: m <- M m, R <- M R M^T + sigma
    sigma^T dt.  They are exact for any increments with E dW = 0 and
    E dW dW^T = dt I, Gaussian or two-point, so they check the scheme and
    not a sampler."""
    M = np.eye(len(a)) + a * dt
    m = np.array(mean0, dtype=float)
    R = np.array(cov0, dtype=float) + np.outer(m, m)
    means, rs = [m], [R]
    for _ in range(n_steps):
        m = M @ m
        R = M @ R @ M.T + sigma @ sigma.T * dt
        means.append(m)
        rs.append(R)
    return np.array(means), np.array(rs)


def assert_moments_within(stats, means, rs, n_paths, k=5.0):
    """Every simulated mean and r entry within k standard errors of the
    exact ones, at every grid point.  The standard errors are those of a
    Gaussian x with these moments: two-point increments have a negative
    fourth cumulant, so the Gaussian variance of x_i x_j bounds theirs
    from above.  A deterministic start has none; there r is a sum of
    equal squares, exact to rounding."""
    cov = rs - np.einsum("ti,tj->tij", means, means)
    var = np.einsum("tii->ti", cov)
    mi, mj = means[:, :, None], means[:, None, :]
    vi, vj = var[:, :, None], var[:, None, :]
    var_r = vi * vj + cov ** 2 + mi ** 2 * vj + mj ** 2 * vi + 2 * mi * mj * cov
    assert np.all(np.abs(stats.mean - means) <= k * np.sqrt(var / n_paths))
    assert np.all(np.abs(stats.r - rs)
                  <= k * np.sqrt(var_r / n_paths) + 1e-12 * np.abs(rs))


# ensemble3's model: drift x A^T, sigma = I, from N(0, P) with
# P = -A^{-1} / 2, stationary for the diffusion (not for Euler, whose
# stationary law differs by O(dt))
A3 = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
P3 = -np.linalg.inv(A3) / 2
ENSEMBLE3 = diffusion.DiffusionModel(
    n=3, drift=lambda t, x, u: x @ A3.T, diffusion=lambda t: np.eye(3),
    initial_mean=np.zeros(3), initial_cov=P3, horizon=(0.0, 2.0))


class TestWeakScheme:
    """The simulated moments and entropy against the exact moments of the
    Euler recursion the kernel steps, which two-point increments keep."""

    def test_ou_moments(self):
        # the pipeline model, dx = -x dt + dW from x0 = 1
        n_paths, dt = 20000, 1e-3
        stats = diffusion.simulate_ensemble(ou_model(x0=1.0, horizon=(0.0, 1.0)),
                                            n_paths, dt=dt, seed=1)
        means, rs = euler_moments(-np.eye(1), np.eye(1), [1.0], [[0.0]], dt, 1000)
        assert_moments_within(stats, means, rs, n_paths)

    def test_three_dim_stationary_moments(self):
        n_paths, dt = 20000, 2e-3
        stats = diffusion.simulate_ensemble(ENSEMBLE3, n_paths, dt=dt, seed=1)
        means, rs = euler_moments(A3, np.eye(3), np.zeros(3), P3, dt, 1000)
        assert_moments_within(stats, means, rs, n_paths)

    def test_growth_entropy(self):
        # dx = x dt + dW from x0 = 1: q = x^2, so E of the trapezoid of q is
        # the trapezoid of the recursion's r
        n_paths, dt = 20000, 1e-3
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: x, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        r = euler_moments(np.eye(1), np.eye(1), [1.0], [[0.0]], dt, 1000)[1][:, 0, 0]
        exact = 0.5 * dt * (r.sum() - 0.5 * (r[0] + r[-1]))
        est = entropy.entropy_mc(model, n_paths, dt=dt, seed=1)
        assert abs(est.value - exact) <= 5 * est.std_error

    def test_three_dim_entropy(self):
        # 2b = I, so q = |A x|^2, whose mean is tr(A R A^T)
        n_paths, dt = 20000, 2e-3
        rs = euler_moments(A3, np.eye(3), np.zeros(3), P3, dt, 1000)[1]
        q = np.einsum("ij,tjk,ik->t", A3, rs, A3)
        exact = 0.5 * dt * (q.sum() - 0.5 * (q[0] + q[-1]))
        est = entropy.entropy_mc(ENSEMBLE3, n_paths, dt=dt, seed=1)
        assert abs(est.value - exact) <= 5 * est.std_error


def order2_moments(a, sigma, mean0, cov0, dt, n_steps):
    """Mean and E[x x^T] of the matrix route's recursion x' = M x + G sigma
    dW, M = I + a dt + (a dt)^2 / 2, G = I + a dt / 2, at every grid point:
    m <- M m, R <- M R M^T + G sigma sigma^T G^T dt.  Exact for any
    increments with E dW = 0 and E dW dW^T = dt I."""
    ad = np.asarray(a, dtype=float) * dt
    eye = np.eye(len(ad))
    M = eye + ad + ad @ ad / 2
    gs = (eye + ad / 2) @ sigma
    m = np.array(mean0, dtype=float)
    R = np.array(cov0, dtype=float) + np.outer(m, m)
    means, rs = [m], [R]
    for _ in range(n_steps):
        m = M @ m
        R = M @ R @ M.T + gs @ gs.T * dt
        means.append(m)
        rs.append(R)
    return np.array(means), np.array(rs)


LINEAR3 = diffusion.linear_model(A3, np.eye(3), np.zeros(3), P3, (0.0, 2.0))
# A3 with the noise of the CI's bits step: cross terms in sigma, a mean
SIGMA3 = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.1, 0.8]])


class TestMatrixRoute:
    """A linear model without a control law, stepped at weak order 2 from
    its matrices, against the exact moments of that step's recursion."""

    def test_ou_moments(self):
        # the pipeline model at its default dt, a hundredth of the horizon
        n_paths = 20000
        model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        stats = diffusion.simulate_ensemble(model, n_paths, seed=1)
        assert stats.dt == 0.01 and len(stats.grid) == 101
        means, rs = order2_moments(-np.eye(1), np.eye(1), [1.0], [[0.0]], 0.01, 100)
        assert_moments_within(stats, means, rs, n_paths)

    def test_three_dim_moments(self):
        n_paths, dt = 20000, 0.02
        model = diffusion.linear_model(A3, SIGMA3, [0.1, 0.0, -0.2], P3, (0.0, 2.0))
        stats = diffusion.simulate_ensemble(model, n_paths, dt=dt, seed=1)
        means, rs = order2_moments(A3, SIGMA3, [0.1, 0.0, -0.2], P3, dt, 100)
        assert_moments_within(stats, means, rs, n_paths)

    def test_growth_entropy(self):
        # dx = x dt + dW from x0 = 1: q = x^2, so E of the trapezoid of q is
        # the trapezoid of the recursion's r
        n_paths, dt = 20000, 0.01
        model = diffusion.linear_model(1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        r = order2_moments(np.eye(1), np.eye(1), [1.0], [[0.0]], dt, 100)[1][:, 0, 0]
        exact = 0.5 * dt * (r.sum() - 0.5 * (r[0] + r[-1]))
        est = entropy.entropy_mc(model, n_paths, seed=1)
        assert est.dt == dt
        assert abs(est.value - exact) <= 5 * est.std_error

    def test_three_dim_entropy(self):
        # 2b = I, so q = |A x|^2, whose mean is tr(A R A^T)
        n_paths, dt = 20000, 0.02
        rs = order2_moments(A3, np.eye(3), np.zeros(3), P3, dt, 100)[1]
        q = np.einsum("ij,tjk,ik->t", A3, rs, A3)
        exact = 0.5 * dt * (q.sum() - 0.5 * (q[0] + q[-1]))
        est = entropy.entropy_mc(LINEAR3, n_paths, seed=1)
        assert abs(est.value - exact) <= 5 * est.std_error

    def test_recursion_bias_falls_fourfold_per_halving(self):
        # no sampling: the recursion's r against the OU law's, dx = -x dt +
        # dW from x0 = 1, r(t) = e^{-2t} + (1 - e^{-2t}) / 2
        biases = []
        for dt in (2e-2, 1e-2, 5e-3):
            n_steps = int(round(1.0 / dt))
            t = dt * np.arange(n_steps + 1)
            r = order2_moments(-np.eye(1), np.eye(1), [1.0], [[0.0]], dt,
                               n_steps)[1][:, 0, 0]
            exact = np.exp(-2 * t) + 0.5 * (1 - np.exp(-2 * t))
            biases.append(np.max(np.abs(r - exact) / exact))
        ratios = [biases[0] / biases[1], biases[1] / biases[2]]
        assert all(3.5 <= q <= 4.5 for q in ratios), ratios
        # the Euler recursion at ten times the steps is further off
        euler = euler_moments(-np.eye(1), np.eye(1), [1.0], [[0.0]], 1e-3, 1000)
        t = 1e-3 * np.arange(1001)
        exact = np.exp(-2 * t) + 0.5 * (1 - np.exp(-2 * t))
        assert biases[1] < np.max(np.abs(euler[1][:, 0, 0] - exact) / exact) / 10


class TestLinearModel:
    def test_default_dt_and_scheme_per_route(self):
        model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 0.2))
        stats = diffusion.simulate_ensemble(model, 10, seed=0)
        assert (stats.dt, stats.scheme) == (0.2 * 1e-2, "weak2-linear")
        # the same callbacks without the matrices take the callback route
        other = dataclasses.replace(model, A=None, sigma=None)
        stats = diffusion.simulate_ensemble(other, 10, seed=0)
        assert (stats.dt, stats.scheme) == (0.2 * 1e-3, "euler")
        assert entropy.entropy_mc(other, 10, seed=0).scheme == "euler"

    @pytest.mark.parametrize("theta, horizon, n_steps", [
        (-1.0, 10.0, 100), (-1.0, 10.5, 200), (-30.0, 1.0, 300),
        (25.0, 4.0, 1000), (-1.0, 300.0, 1000)])
    def test_default_grid_follows_a(self, theta, horizon, n_steps):
        # 100 m steps, the fewest with |A dt| <= 0.1, m up to 10
        model = diffusion.linear_model(theta, 1.0, 1.0, 0.0, (0.0, horizon))
        grid = diffusion._euler_maruyama(model, 10, None, 0)[0]
        assert len(grid) == n_steps + 1
        spectral = np.abs(np.linalg.eigvals(A3)).max()
        model = diffusion.linear_model(A3, np.eye(3), np.zeros(3), P3,
                                       (0.0, 25 / spectral))
        assert len(diffusion._euler_maruyama(model, 10, None, 0)[0]) == 301

    def test_too_coarse_dt_refused(self):
        # the step 1 + z + z^2/2 grows a decaying mode for z < -2
        model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 10.0))
        with pytest.raises(InputError, match="dt=2.5 is too coarse for A"):
            diffusion.simulate_ensemble(model, 10, dt=2.5, seed=0)
        # a stable dt, and a growing mode, which is the model's own
        diffusion.simulate_ensemble(model, 10, dt=1.0, seed=0)
        growing = diffusion.linear_model(1.0, 1.0, 1.0, 0.0, (0.0, 10.0))
        diffusion.simulate_ensemble(growing, 10, dt=2.5, seed=0)
        # a lightly damped oscillator, which the step grows by a factor
        # 1.0005 over the horizon: 1 + w + w^2/2 is above 1 in modulus
        # near the imaginary axis
        osc = diffusion.linear_model([[-1e-6, 1.0], [-1.0, -1e-6]], np.eye(2),
                                     [1.0, 0.0], np.zeros((2, 2)), (0.0, 8.0))
        assert diffusion.simulate_ensemble(osc, 10, seed=0).dt == 0.08

    @pytest.mark.parametrize("model", [
        diffusion.linear_model(-0.7, 1.3, 0.5, 0.2, (0.0, 1.0)), LINEAR3],
        ids=["n1", "n3"])
    def test_wrapped_callbacks_keep_the_route(self, model):
        # a reader that wraps the callbacks, as a tracer does, keeps the
        # matrices, the route and the bits; the wrappers are called at
        # every grid point
        calls = []

        def wrap(fn):
            return lambda *args: calls.append(1) or fn(*args)

        traced = dataclasses.replace(model, drift=wrap(model.drift),
                                     diffusion=wrap(model.diffusion))
        assert np.array_equal(traced.A, model.A)
        assert np.array_equal(traced.sigma, model.sigma)
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            want = run(model, 500, seed=3).to_json()
            assert run(traced, 500, seed=3).to_json() == want
        assert len(calls) == 2 * 2 * 101

    def test_other_callbacks_refused(self):
        # the matrices are stepped only while the callbacks give the same
        # model: another drift or sigma is refused where it first differs
        model = diffusion.linear_model(-1.0, 1.0, 0.5, 0.2, (0.0, 1.0))
        cubic = dataclasses.replace(model, drift=lambda t, x, u: -x ** 3)
        varying = dataclasses.replace(
            model, diffusion=lambda t: [[1.0]] if t < 0.5 else [[2.0]])
        built = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -2.0 * x, diffusion=lambda t: [[1.0]],
            initial_mean=[0.5], initial_cov=[[0.2]], horizon=(0.0, 1.0),
            A=[[-1.0]], sigma=[[1.0]])
        for other, what in ((cubic, r"drift\(0.0\)"),
                            (varying, r"sigma\(0.5\)"),
                            (built, r"drift\(0.0\)")):
            for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
                with pytest.raises(InputError, match=what + " is not the model's"):
                    run(other, 100, seed=1)
        # without the matrices, the other drift is what is simulated
        cubic = dataclasses.replace(cubic, A=None, sigma=None)
        euler = dataclasses.replace(model, A=None, sigma=None)
        assert not np.array_equal(
            diffusion.simulate_ensemble(cubic, 100, seed=1).r,
            diffusion.simulate_ensemble(euler, 100, seed=1).r)

    def test_matrices_take_no_control_law(self):
        # the linear drift ignores u: a control law would do nothing
        model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
        with pytest.raises(InputError, match="takes no control_law"):
            dataclasses.replace(model, control_law=lambda t, x: -2 * x)
        with pytest.raises(InputError, match="A and sigma must be given together"):
            dataclasses.replace(model, sigma=None)

    def test_callbacks_give_the_same_model(self):
        # the callback route on the model's own callbacks has the same
        # exact moments to first order: the Euler recursion
        n_paths, dt = 20000, 0.02
        model = diffusion.linear_model(A3, SIGMA3, [0.1, 0.0, -0.2], P3, (0.0, 2.0))
        model = dataclasses.replace(model, A=None, sigma=None)
        stats = diffusion.simulate_ensemble(model, n_paths, dt=dt, seed=2)
        means, rs = euler_moments(A3, SIGMA3, [0.1, 0.0, -0.2], P3, dt, 100)
        assert_moments_within(stats, means, rs, n_paths)

    def test_matrices_read_only_copies(self):
        a = np.array([[-1.0, 0.2], [0.0, -0.5]])
        mean, cov = np.zeros(2), np.eye(2)
        model = diffusion.linear_model(a, np.eye(2), mean, cov, (0.0, 1.0))
        a[0, 0] = 5.0
        assert model.A[0, 0] == -1.0 and not model.A.flags.writeable
        assert not model.sigma.flags.writeable
        assert model.drift(0.0, np.ones((1, 2)), None)[0, 0] == -0.8
        # the initial law too: a negative variance written into the
        # caller's cov used to reach the simulator past the PSD check
        mean[0], cov[0, 0] = 1.0, -5.0
        assert model.initial_mean[0] == 0.0 and model.initial_cov[0, 0] == 1.0
        assert not (model.initial_mean.flags.writeable
                    or model.initial_cov.flags.writeable)

    def test_divergence_on_the_matrix_route(self):
        # a growing mode at dt = 1e297: M overflows, and the first step is
        # refused by its time
        model = diffusion.linear_model(1.0, 1.0, 1.0, 0.0, (0.0, 1e300))
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(SimulationDivergedError) as exc, \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                run(model, 10, seed=1)
            assert exc.value.t_bad == 1e300 * 1e-2 / 10
        # 100 x1 - 100 x2 overflows from the first point: to NaN where BLAS
        # adds the two products (OpenBLAS's Nehalem kernels), to inf where
        # it fuses them.  The callback's A x and the kernel's agree either
        # way, and the run goes on until the ensemble leaves the float range
        model = diffusion.linear_model([[100.0, -100.0], [0.0, -1.0]], np.eye(2),
                                       [1e307, 1e307], np.zeros((2, 2)), (0.0, 1.0))
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(SimulationDivergedError) as exc, \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                run(model, 10, seed=1)
            assert 0 < exc.value.t_bad < 1
