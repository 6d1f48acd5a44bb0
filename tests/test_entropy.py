import math

import numpy as np
import pytest

from ipflab import diffusion, entropy
from ipflab.errors import (DegenerateFunctionalError, InputError,
                           SimulationDivergedError, SingularDiffusionError)


def growth_model(u0=1.0, sigma=1.0, horizon=(0.0, 1.0)):
    return diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: u0 * x, diffusion=lambda t: [[sigma]],
        initial_mean=[1.0], initial_cov=[[0.0]], horizon=horizon)


def analytic_r(grid, u0=1.0, sigma=1.0, r0=1.0):
    # moment equation rdot = 2 u0 r + sigma^2 from a deterministic start
    return (r0 + sigma ** 2 / (2 * u0)) * np.exp(2 * u0 * grid) - sigma ** 2 / (2 * u0)


ORACLE = 0.75 * (math.exp(2.0) - 1.0) / 2.0 - 0.25  # = 2.1459...


class TestMonteCarlo:
    def test_zero_drift_exactly_zero(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: 0.0 * x, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        est = entropy.entropy_mc(model, 2000, dt=0.01, seed=1)
        assert est.value == 0.0

    def test_growth_oracle(self):
        est = entropy.entropy_mc(growth_model(), 20000, dt=1e-3, seed=9)
        assert abs(est.value - ORACLE) <= 3 * est.std_error + 0.01 * ORACLE

    def test_sigma_doubling_quarters_value(self):
        # constant drift keeps the quadratic form path-independent, so the
        # (2b)^{-1} scaling is exact: S = T / (2 sigma^2)
        def model(sigma):
            return diffusion.DiffusionModel(
                n=1, drift=lambda t, x, u: np.ones_like(x),
                diffusion=lambda t: [[sigma]], initial_mean=[0.0],
                initial_cov=[[0.0]], horizon=(0.0, 1.0))
        a = entropy.entropy_mc(model(1.0), 200, dt=2e-3, seed=4)
        b = entropy.entropy_mc(model(2.0), 200, dt=2e-3, seed=4)
        assert a.value == pytest.approx(0.5, rel=1e-10)
        assert b.value == pytest.approx(a.value / 4.0, rel=1e-10)

    def test_nonnegative(self):
        est = entropy.entropy_mc(growth_model(u0=-1.0), 2000, dt=2e-3, seed=2)
        assert est.value >= 0.0

    def test_std_error_reported(self):
        est = entropy.entropy_mc(growth_model(), 1000, dt=2e-3, seed=0)
        assert est.std_error is not None and est.std_error > 0


def sigma_mutated_in_place():
    """sigma(t) returning one array, made singular in place from t = 0.5."""
    s = np.eye(2)

    def sigma(t):
        s[1, 1] = 1.0 if t < 0.5 else 0.0
        return s

    return sigma


class TestMonteCarloInputs:
    def test_zero_dt_rejected(self):
        with pytest.raises(InputError):
            entropy.entropy_mc(growth_model(), 100, dt=0.0, seed=0)

    def test_dt_not_dividing_horizon_rejected(self):
        # 0.3 does not divide 1: the integral would stop at t = 0.9
        with pytest.raises(InputError):
            entropy.entropy_mc(growth_model(), 100, dt=0.3, seed=0)

    def test_too_few_paths_rejected(self):
        with pytest.raises(InputError):
            entropy.entropy_mc(growth_model(), 1, dt=0.01, seed=0)

    @pytest.mark.parametrize("seed", [1.7, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be an integer"):
            entropy.entropy_mc(growth_model(), 100, dt=0.01, seed=seed)

    def test_divergence_raises(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: 1e4 * x ** 3, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 2.0))
        with pytest.raises(SimulationDivergedError) as exc, \
                np.errstate(over="ignore"):
            entropy.entropy_mc(model, 50, dt=0.05, seed=2)
        assert exc.value.t_bad > 0

    def test_sigma_turning_singular_midway_rejected(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: x,
            diffusion=lambda t: [[1.0]] if t < 0.5 else [[0.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        with pytest.raises(SingularDiffusionError, match="t=0.5"):
            entropy.entropy_mc(model, 100, dt=0.01, seed=0)

    @pytest.mark.parametrize("sigma", [
        lambda t: np.eye(2) if t < 0.5 else np.diag([1.0, 0.0]),
        # 2b is formed again only where sigma changes, which a kept
        # reference to this one array would not see
        sigma_mutated_in_place(),
    ], ids=["new array", "one array"])
    def test_constant_sigma_turning_singular_rejected(self, sigma):
        model = diffusion.DiffusionModel(
            n=2, drift=lambda t, x, u: x, diffusion=sigma,
            initial_mean=[1.0, 1.0], initial_cov=np.zeros((2, 2)),
            horizon=(0.0, 1.0))
        with pytest.raises(SingularDiffusionError, match="t=0.5"):
            entropy.entropy_mc(model, 100, dt=0.01, seed=0)


class TestCovarianceForm:
    def test_zero_control(self):
        grid = np.linspace(0, 1, 101)
        stats = diffusion.stats_from_covariance(grid, np.ones_like(grid))
        est = entropy.entropy_covariance_form(0.0, stats, 1.0)
        assert est.value == 0.0

    def test_growth_oracle(self):
        grid = np.linspace(0, 1, 20001)
        stats = diffusion.stats_from_covariance(grid, analytic_r(grid))
        est = entropy.entropy_covariance_form(1.0, stats, 1.0)
        assert est.value == pytest.approx(ORACLE, abs=1e-6)
        assert est.value == pytest.approx(2.1459, abs=1e-3)

    def test_constant_integrand(self):
        grid = np.linspace(0, 2, 101)
        stats = diffusion.stats_from_covariance(grid, np.ones_like(grid))
        est = entropy.entropy_covariance_form(1.0, stats, 1.0)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_sigma_rejected(self):
        grid = np.linspace(0, 1, 11)
        stats = diffusion.stats_from_covariance(grid, np.ones_like(grid))
        with pytest.raises(DegenerateFunctionalError):
            entropy.entropy_covariance_form(1.0, stats, 0.0)

    def test_vector_stats_rejected(self):
        grid = np.linspace(0, 1, 11)
        r = np.tile(np.eye(2), (11, 1, 1))
        stats = diffusion.stats_from_covariance(grid, r)
        with pytest.raises(InputError):
            entropy.entropy_covariance_form(1.0, stats, 1.0)

    def test_additivity_in_time(self):
        grid = np.linspace(0, 1, 10001)
        r = analytic_r(grid)
        total = entropy.entropy_covariance_form(
            1.0, diffusion.stats_from_covariance(grid, r), 1.0).value
        mid = 5000
        left = entropy.entropy_covariance_form(
            1.0, diffusion.stats_from_covariance(grid[:mid + 1], r[:mid + 1]), 1.0).value
        right = entropy.entropy_covariance_form(
            1.0, diffusion.stats_from_covariance(grid[mid:], r[mid:]), 1.0).value
        assert total == pytest.approx(left + right, abs=1e-10)


class TestAgreement:
    def test_mc_matches_covariance_form(self):
        mc = entropy.entropy_mc(growth_model(), 20000, dt=1e-3, seed=13)
        grid = np.linspace(0, 1, 20001)
        stats = diffusion.stats_from_covariance(grid, analytic_r(grid))
        cf = entropy.entropy_covariance_form(1.0, stats, 1.0)
        assert abs(mc.value - cf.value) <= 3 * mc.std_error + 0.01 * cf.value
