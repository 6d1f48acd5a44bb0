import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ipflab import control, diffusion, invariants
from ipflab.errors import (DegenerateEnsembleError, InputError,
                           UndefinedAngleError)


class TestStartingControl:
    def _stats(self, mean, r_at_tau, rdot, tau):
        # linear ramp hitting r_at_tau at tau with slope rdot everywhere
        grid = np.linspace(0, 1, 101)
        rr = r_at_tau + rdot * (grid - tau)
        return diffusion.covariance_derivative(
            diffusion.stats_from_covariance(
                grid, rr, mean=np.full((len(grid), 1), mean)))

    def test_zero_mean_zero_control(self):
        out = control.starting_control(self._stats(0.0, 0.5, 1.0, 1.0), 1.0)
        assert np.allclose(out["v"], 0.0)

    def test_scalar_reference_values(self):
        # r = 0.5 and b = 0.5 at tau: u = (b/r) v = v = -2, start sqrt(0.5)
        out = control.starting_control(self._stats(1.0, 0.5, 1.0, 0.5), 0.5)
        assert out["v"][0] == pytest.approx(-2.0)
        assert out["u"][0] == pytest.approx(-2.0, rel=1e-6)
        assert out["x_start"][0, 0] == pytest.approx(math.sqrt(0.5), rel=1e-6)

    def test_identity_operators(self):
        grid = np.linspace(0, 1, 101)
        r = np.tile(np.eye(2), (101, 1, 1)) * (1.0 + grid[:, None, None] * 2.0)
        mean = np.tile([1.0, 2.0], (101, 1))
        stats = diffusion.covariance_derivative(
            diffusion.stats_from_covariance(grid, r, mean=mean))
        out = control.starting_control(stats, 0.0)
        assert np.allclose(out["v"], [-2.0, -4.0])
        assert np.allclose(out["u"], [-2.0, -4.0], rtol=1e-6)

    def test_moments_not_psd_refused(self):
        # invertible and well conditioned, but of eigenvalues 3 and -1
        r = np.tile([[1.0, 2.0], [2.0, 1.0]], (2, 1, 1))
        stats = diffusion.stats_from_covariance([0.0, 1.0], r)
        with pytest.raises(DegenerateEnsembleError, match="moment matrix not PSD"):
            control.starting_control(stats, 0.5)


class TestStepAndNeedle:
    def test_zero_state(self):
        assert np.allclose(control.step_control(0.0), 0.0)

    def test_vector_scaling(self):
        assert np.allclose(control.step_control([1.0, -0.5]), [-2.0, 1.0])

    def test_needle_no_jump(self):
        e = control.needle_control(1.0, 1.0, tau=2.0)
        assert np.allclose(e.delta_v, 0.0) and e.tau == 2.0

    def test_needle_jump_arithmetic(self):
        e = control.needle_control(1.0, 1.2)
        assert e.v_minus == pytest.approx(-2.0)
        assert e.v_plus == pytest.approx(-2.4)
        assert e.delta_v == pytest.approx(-0.4)


class TestSegmentTrajectory:
    def test_matches_noiseless_integration(self):
        lam, x0 = 0.8, 1.3
        dt = 1e-5
        t = np.arange(0.0, 0.5, dt)
        x = np.empty_like(t)
        x[0] = x0
        v = -2.0 * x0
        for k in range(len(t) - 1):
            x[k + 1] = x[k] + lam * (x[k] + v) * dt
        closed = control.segment_trajectory(x0, lam, t)
        assert np.allclose(x, closed, atol=5e-5)

    def test_start_value(self):
        assert control.segment_trajectory(2.0, 1.0, 0.0) == pytest.approx(2.0)


class TestDetectDp:
    @staticmethod
    def modes(t):
        x1 = 2.0 - np.exp(0.5 * t)
        x2 = 2.0 - np.exp(-t)
        d1 = -0.5 * np.exp(0.5 * t)
        d2 = np.exp(-t)
        return np.column_stack([x1, x2]), np.column_stack([d1, d2])

    @staticmethod
    def exact_crossing():
        f = lambda t: (0.5 * math.exp(0.5 * t) / (2 - math.exp(0.5 * t))
                       - math.exp(-t) / (2 - math.exp(-t)))
        return optimize.brentq(f, 0.01, 1.0, xtol=1e-14)

    def test_two_mode_crossing_matches_analytic_root(self):
        grid = np.arange(0.0, 1.0, 2e-5)
        x, xdot = self.modes(grid)
        hits = control.detect_dp(grid, x, xdot)
        taus = [h["tau"] for h in hits if h.get("tau") is not None]
        assert taus, "no crossing found"
        assert min(abs(t - self.exact_crossing()) for t in taus) <= 1e-8

    def test_identical_modes_report_start(self):
        grid = np.linspace(0.1, 0.5, 100)
        x = np.column_stack([np.exp(grid), np.exp(grid)])
        hits = control.detect_dp(grid, x)
        assert hits and hits[0]["tau"] == pytest.approx(0.1)

    @pytest.mark.parametrize("first", [np.zeros_like, np.exp])
    def test_no_finite_speed_difference_no_dp(self, first):
        # a mode at zero throughout has no finite speed: its pairs used to
        # be reported as "identical speeds throughout" at grid[0]
        grid = np.linspace(0, 1, 5)
        assert control.detect_dp(grid, np.column_stack([first(grid), np.zeros(5)])) == []

    def test_disjoint_speeds_no_dp(self):
        grid = np.linspace(0, 1, 200)
        x = np.column_stack([np.exp(grid), np.exp(3 * grid)])
        xdot = np.column_stack([np.exp(grid), 3 * np.exp(3 * grid)])
        hits = control.detect_dp(grid, x, xdot)
        assert [h for h in hits if h.get("tau") is not None and h["tau"] > grid[0]] == []

    def test_zero_crossing_bracket_skipped(self):
        grid = np.linspace(0, 2, 400)
        x = np.column_stack([grid - 1.0, np.exp(grid)])  # first mode hits zero
        hits = control.detect_dp(grid, x)
        notes = [h for h in hits if h.get("tau") is None]
        assert all("zero" in h["note"] for h in notes)

    def test_modes_given_either_way_round(self):
        grid = np.linspace(0, 2, 400)
        x = np.column_stack([grid - 1.0, np.exp(grid)])
        assert control.detect_dp(grid, x.T) == control.detect_dp(grid, x)

    @pytest.mark.parametrize("modes_shape, dot_shape, match", [
        ((99, 2), None, "grid"), ((2, 101), None, "grid"),
        ((100, 2), (99, 2), "grid"), ((100, 2), (2, 3), "grid"),
        ((100, 2, 1), None, r"modes has shape \(100, 2, 1\), not \(any, any\)")],
        ids=["modes_shape0-None", "modes_shape1-None", "modes_shape2-dot_shape2",
             "modes_shape3-dot_shape3", "modes_shape4-None"])
    def test_no_axis_as_long_as_the_grid_refused(self, modes_shape, dot_shape,
                                                 match):
        # used to escape as a ValueError from np.gradient or an IndexError
        grid = np.linspace(0, 1, 100)
        modes = np.ones(modes_shape)
        modes_dot = None if dot_shape is None else np.ones(dot_shape)
        with pytest.raises(InputError, match=match):
            control.detect_dp(grid, modes, modes_dot)

    @pytest.mark.parametrize("grid", [[0.5], np.zeros((3, 3))])
    def test_grid_not_a_line_refused(self, grid):
        with pytest.raises(InputError, match="grid"):
            control.detect_dp(grid, np.ones((3, 2)))


class TestRotation:
    def test_already_equal(self):
        out = control.consolidate_rotation(1.0, 1.0)
        assert out["phi"] == 0.0 and out["z_hat"] == (1.0, 1.0)

    def test_reference_pair(self):
        out = control.consolidate_rotation(1.0, 3.0)
        assert out["phi"] == pytest.approx(math.atan(0.5), rel=1e-12)
        assert out["z_hat"][0] == pytest.approx(math.sqrt(5), rel=1e-9)
        assert out["z_hat"][1] == pytest.approx(math.sqrt(5), rel=1e-9)

    def test_degenerate_axis_pair(self):
        out = control.consolidate_rotation(0.0, 1.0)
        assert out["phi"] == pytest.approx(math.pi / 4)
        assert out["z_hat"][0] == pytest.approx(math.sqrt(0.5), rel=1e-9)

    def test_antisymmetric_rejected(self):
        with pytest.raises(UndefinedAngleError):
            control.consolidate_rotation(1.0, -1.0)

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=300)
    def test_equalizes_and_preserves_norm(self, zi, zj):
        if abs(zi + zj) < 1e-9:
            return
        out = control.consolidate_rotation(zi, zj)
        a, b = out["z_hat"]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        assert math.hypot(a, b) == pytest.approx(math.hypot(zi, zj), rel=1e-12)


class TestSchedule:
    def test_invariant_of_segments(self):
        inv = invariants.invariant_set(0.5)
        spec = invariants.optimal_spectrum(4, 1.0)
        sched = control.schedule_from_invariants(inv, spec)
        products = [s.eigenvalue * s.duration for s in sched.segments]
        assert np.allclose(products, inv.ao_abs, rtol=1e-12)

    def test_dps_increasing_and_json(self):
        import json
        inv = invariants.invariant_set(0.5)
        sched = control.schedule_from_invariants(inv, invariants.optimal_spectrum(3, 1.0))
        assert all(b > a for a, b in zip(sched.dps, sched.dps[1:]))
        doc = json.loads(sched.to_json())
        assert len(doc["segments"]) == 3 and len(doc["needle_events"]) == 3

    @pytest.mark.parametrize("spec, match", [
        ([1.0, math.nan], "spectrum must be finite"),
        ([math.inf], "spectrum must be finite"),
        ([1.0, -math.inf], "spectrum must be finite"),
        ([0.0], "spectrum entries must be nonzero")],
        ids=["nan", "inf", "minus-inf", "zero"])
    def test_zero_or_non_finite_spectrum_refused(self, spec, match):
        # [1.0, nan] used to give a NaN switch moment, and [inf] a
        # zero-length segment after a RuntimeWarning
        inv = invariants.invariant_set(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                control.schedule_from_invariants(inv, spec)

    def test_unsorted_dps_rejected(self):
        with pytest.raises(InputError):
            control.SegmentSchedule(dps=[1.0, 0.5], segments=[], needle_events=[])
        with pytest.raises(InputError, match="dps must increase strictly, as it "
                                             "does not from 1.0 to 1.0"):
            control.SegmentSchedule(dps=[0.5, 1.0, 1.0], segments=[], needle_events=[])
