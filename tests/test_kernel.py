"""The streaming Euler-Maruyama kernel against the loop it replaced.

The reference below draws the whole (steps, paths, n) noise tensor at once,
steps with fresh arrays and solves against 2b at every grid point, as the
simulator and the entropy estimator did before they shared one kernel.
Bit-reproducibility for a fixed (seed, n_paths, dt) requires the kernel to
match it exactly, not within a tolerance.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipflab import diffusion, entropy
from ipflab.errors import InputError, SimulationDivergedError

A3 = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
P3 = -np.linalg.inv(A3) / 2          # stationary covariance, positive definite


def stream2(seed):
    """Stream 2's generators for the initial law and for the noise, written
    out here rather than taken from the kernel."""
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    return (np.random.Generator(np.random.SFC64(init_seq)),
            np.random.Generator(np.random.SFC64(noise_seq)))


def reference_paths(model, n_paths, dt, seed):
    """Grid and ensemble at every grid point, from the whole noise tensor."""
    s, t_end = model.horizon
    n_steps = int(round((t_end - s) / dt))
    grid = s + dt * np.arange(n_steps + 1)
    rng0, gen = stream2(seed)
    if np.allclose(model.initial_cov, 0.0):
        x = np.tile(model.initial_mean, (n_paths, 1))
    else:
        x = rng0.multivariate_normal(model.initial_mean, model.initial_cov,
                                     size=n_paths, method="cholesky" if
                                     np.min(np.linalg.eigvalsh(model.initial_cov)) > 0 else "eigh")
    dW = gen.standard_normal((n_steps, n_paths, model.n)) * np.sqrt(dt)
    xs = [x]
    for k in range(n_steps):
        t = grid[k]
        u = model.control_law(t, x) if model.control_law is not None else None
        a = model.drift(t, x, u)
        sig = np.atleast_2d(np.asarray(model.diffusion(t), dtype=float))
        x = x + a * dt + dW[k] @ sig.T
        xs.append(x)
    return grid, xs


def reference_moments(x):
    """Mean and E[x x^T] summed chunk by chunk, with one np.sum and one
    einsum per chunk of diffusion._REDUCE_CHUNK paths; the simulator's
    reduction must give these bytes."""
    n_paths = x.shape[0]
    sums_m = []
    sums_r = []
    for lo in range(0, n_paths, diffusion._REDUCE_CHUNK):
        c = x[lo:lo + diffusion._REDUCE_CHUNK]
        sums_m.append(c.sum(axis=0))
        sums_r.append(np.einsum("pi,pj->ij", c, c))
    mean = np.add.reduce(sums_m) / n_paths
    r = np.add.reduce(sums_r) / n_paths
    return mean, 0.5 * (r + r.T)


def reference_entropy(model, n_paths, dt, seed):
    """(value, std_error) with drift, cond and solve at every grid point."""
    grid, xs = reference_paths(model, n_paths, dt, seed)

    def quadratic(t, x):
        u = model.control_law(t, x) if model.control_law is not None else None
        a = model.drift(t, x, u)
        sig = np.atleast_2d(np.asarray(model.diffusion(t), dtype=float))
        twob = sig @ sig.T
        assert np.linalg.cond(twob) <= 1e12
        return np.einsum("pi,pi->p", a, np.linalg.solve(twob, a.T).T)

    integral = np.zeros(n_paths)
    prev_q = quadratic(grid[0], xs[0])
    for k in range(len(grid) - 1):
        q = quadratic(grid[k + 1], xs[k + 1])
        integral += 0.5 * dt * (prev_q + q)
        prev_q = q
    half = 0.5 * integral
    return float(np.mean(half)), float(np.std(half, ddof=1) / math.sqrt(n_paths))


def model3(**kw):
    return diffusion.DiffusionModel(
        n=3, drift=lambda t, x, u: x @ A3.T,
        diffusion=lambda t: [[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.1, 0.8]],
        initial_mean=[0.1, 0.0, -0.2], horizon=(0.0, 1.0), **kw)


class TestStreamMatchesWholeTensor:
    def test_scalar_with_control_law(self):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -x + u, diffusion=lambda t: [[0.7]],
            initial_mean=[0.5], initial_cov=[[0.0]], horizon=(0.0, 1.0),
            control_law=lambda t, x: 0.3 * np.sin(t) * x)
        stats = diffusion.simulate_ensemble(model, 3000, dt=0.01, seed=5)
        grid, xs = reference_paths(model, 3000, 0.01, 5)
        moments = [reference_moments(x) for x in xs]
        assert np.array_equal(stats.grid, grid)
        assert np.array_equal(stats.mean, np.array([m for m, _ in moments]))
        assert np.array_equal(stats.r, np.array([r for _, r in moments]))

    def test_three_dim_initial_law_keep_paths(self):
        model = model3(initial_cov=P3)
        stats = diffusion.simulate_ensemble(model, 2000, dt=0.01, seed=9,
                                            keep_paths=True)
        _, xs = reference_paths(model, 2000, 0.01, 9)
        assert np.array_equal(stats.paths, np.stack(xs, axis=1))
        moments = [reference_moments(x) for x in xs]
        assert np.array_equal(stats.mean, np.array([m for m, _ in moments]))
        assert np.array_equal(stats.r, np.array([r for _, r in moments]))

    def test_entropy_time_varying_sigma(self):
        # the drift returns x itself, and sigma changes at every grid point,
        # so the cached (2b)^{-1} is refreshed at every step
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: x, diffusion=lambda t: [[1.0 + t]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        est = entropy.entropy_mc(model, 5000, dt=0.01, seed=3)
        value, se = reference_entropy(model, 5000, 0.01, 3)
        assert np.array_equal([est.value, est.std_error], [value, se])

    def test_entropy_piecewise_constant_sigma(self):
        # sigma returns to an earlier value: the cache must compare values,
        # not remember only the first matrix
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -2.0 * x,
            diffusion=lambda t: [[2.0]] if 0.3 <= t < 0.6 else [[0.5]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        est = entropy.entropy_mc(model, 2000, dt=0.01, seed=8)
        value, se = reference_entropy(model, 2000, 0.01, 8)
        assert np.array_equal([est.value, est.std_error], [value, se])


class TestKernel:
    def test_one_drift_per_grid_point(self):
        calls = {"drift": 0, "sigma": 0}

        def drift(t, x, u):
            calls["drift"] += 1
            return -x

        def sigma(t):
            calls["sigma"] += 1
            return [[1.0]]

        model = diffusion.DiffusionModel(
            n=1, drift=drift, diffusion=sigma, initial_mean=[0.0],
            initial_cov=[[0.0]], horizon=(0.0, 1.0))
        diffusion.simulate_ensemble(model, 10, dt=0.01, seed=0)
        # the simulator never evaluates the drift at the last grid point
        assert calls == {"drift": 100, "sigma": 100}
        calls.update(drift=0, sigma=0)
        entropy.entropy_mc(model, 10, dt=0.01, seed=0)
        assert calls == {"drift": 101, "sigma": 101}

    @pytest.mark.parametrize("n,sigma", [(1, [[1.0, 0.0]]), (2, [[1.0]])])
    def test_sigma_of_wrong_shape_refused(self, n, sigma):
        model = diffusion.DiffusionModel(
            n=n, drift=lambda t, x, u: -x, diffusion=lambda t: sigma,
            initial_mean=[0.0] * n, initial_cov=np.zeros((n, n)),
            horizon=(0.0, 0.1))
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(InputError, match="shape"):
                run(model, 10, dt=0.01, seed=0)

    def test_same_initial_ensemble_in_both_entry_points(self):
        seen = {}

        def drift(t, x, u):
            if t == 0.0:
                seen["x0"] = x.copy()
            return x @ A3.T

        model = diffusion.DiffusionModel(
            n=3, drift=drift, diffusion=lambda t: np.eye(3),
            initial_mean=[0.1, 0.0, -0.2], initial_cov=P3, horizon=(0.0, 0.1))
        stats = diffusion.simulate_ensemble(model, 500, dt=0.01, seed=4,
                                            keep_paths=True)
        entropy.entropy_mc(model, 500, dt=0.01, seed=4)
        assert np.array_equal(seen["x0"], stats.paths[:, 0, :])


def scalar_model(drift=lambda t, x, u: -x):
    return diffusion.DiffusionModel(
        n=1, drift=drift, diffusion=lambda t: [[1.0]], initial_mean=[1.0],
        initial_cov=[[0.0]], horizon=(0.0, 1.0))


def within(seconds, fn):
    """fn() run on a watchdog thread: its result, or its exception raised
    here; fails instead of hanging if fn does not return in time."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc

    watchdog = threading.Thread(target=run, daemon=True)
    watchdog.start()
    watchdog.join(seconds)
    assert not watchdog.is_alive(), f"no return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestNoiseThread:
    """The noise is drawn one step ahead on one helper thread, which never
    outlives the kernel call, however the call ends."""

    def test_one_extra_thread_during_a_run_none_after(self):
        before = threading.active_count()
        seen = []

        def drift(t, x, u):
            seen.append(threading.active_count())
            return -x

        diffusion.simulate_ensemble(scalar_model(drift), 100, dt=0.01, seed=1)
        assert threading.active_count() == before
        entropy.entropy_mc(scalar_model(drift), 100, dt=0.01, seed=1)
        assert threading.active_count() == before
        assert max(seen) <= before + 1

    def test_closed_generator_joins_its_thread(self):
        before = threading.active_count()
        _, _, steps = diffusion._euler_maruyama(scalar_model(), 100, 0.01, 0)
        next(steps)
        next(steps)
        assert threading.active_count() == before + 1
        within(30, steps.close)
        assert threading.active_count() == before

    def test_raising_drift_propagates_and_joins(self):
        class Boom(Exception):
            pass

        def drift(t, x, u):
            if t >= 0.03 - 1e-12:
                raise Boom(t)
            return -x

        before = threading.active_count()
        with pytest.raises(Boom):
            within(30, lambda: diffusion.simulate_ensemble(
                scalar_model(drift), 100, dt=0.01, seed=1))
        assert threading.active_count() == before

    def test_divergence_reports_first_bad_time_and_joins(self):
        # x is 1, then about 1e299, then inf at the second step
        model = scalar_model(lambda t, x, u: 1e300 * x)

        def diverge(run):
            # errstate holds only in the thread that sets it
            with np.errstate(over="ignore", invalid="ignore"):
                run(model, 50, dt=0.1, seed=2)

        before = threading.active_count()
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(SimulationDivergedError) as exc:
                within(30, lambda: diverge(run))
            assert exc.value.t_bad == 0.1 * 2
            assert threading.active_count() == before

    def test_failing_draw_raised_in_caller(self, monkeypatch):
        class Failing(np.random.Generator):
            calls = 0
            threads = []

            def standard_normal(self, *args, **kwargs):
                Failing.calls += 1
                Failing.threads.append(threading.current_thread())
                if Failing.calls == 3:
                    raise RuntimeError("draw failed")
                return super().standard_normal(*args, **kwargs)

        def run():
            Failing.caller = threading.current_thread()
            diffusion.simulate_ensemble(scalar_model(), 100, dt=0.01, seed=1)

        monkeypatch.setattr(diffusion.np.random, "Generator", Failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            within(30, run)
        assert threading.active_count() == before
        # the draws ran on the helper thread, not in the caller's
        assert Failing.calls == 3 and Failing.caller not in Failing.threads


class TestDrawCount:
    """The stream is drawn once per step, never more than two steps ahead."""

    @staticmethod
    def counting(monkeypatch):
        class Counting(np.random.Generator):
            calls = 0

            def standard_normal(self, *args, **kwargs):
                Counting.calls += 1
                return super().standard_normal(*args, **kwargs)

        monkeypatch.setattr(diffusion.np.random, "Generator", Counting)
        return Counting

    @pytest.mark.parametrize("steps", [1, 2, 3, 50])
    def test_full_run_draws_once_per_step(self, monkeypatch, steps):
        counting = self.counting(monkeypatch)
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[1.0]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 0.1 * steps))
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            counting.calls = 0
            within(30, lambda: run(model, 100, dt=0.1, seed=1))
            assert counting.calls == steps

    def test_closed_generator_drew_at_most_two_ahead(self, monkeypatch):
        counting = self.counting(monkeypatch)
        _, _, steps = diffusion._euler_maruyama(scalar_model(), 100, 0.01, 0)
        next(steps)
        next(steps)
        within(30, steps.close)
        assert counting.calls <= 3


A3_SIGMA = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.1, 0.8]])


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), steps=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       n_paths=st.integers(2, 300) | st.sampled_from([4095, 4096, 4097]),
       initial_law=st.booleans(), scale=st.floats(0.5, 2.0))
def test_entry_points_equal_reference_loop(n, steps, seed, n_paths,
                                           initial_law, scale):
    """Horizons shorter than the two-buffer ring, and ensembles across the
    moment reduction's chunk boundary, give the reference loop's bits."""
    a = A3[:n, :n]
    sigma = scale * A3_SIGMA[:n, :n]
    model = diffusion.DiffusionModel(
        n=n, drift=lambda t, x, u: x @ a.T, diffusion=lambda t: sigma,
        initial_mean=[0.1, 0.0, -0.2][:n],
        initial_cov=-np.linalg.inv(a) / 2 if initial_law else np.zeros((n, n)),
        horizon=(0.0, 0.1 * steps))
    stats = diffusion.simulate_ensemble(model, n_paths, dt=0.1, seed=seed)
    _, xs = reference_paths(model, n_paths, 0.1, seed)
    moments = [reference_moments(x) for x in xs]
    assert np.array_equal(stats.mean, np.array([m for m, _ in moments]))
    assert np.array_equal(stats.r, np.array([r for _, r in moments]))
    est = entropy.entropy_mc(model, n_paths, dt=0.1, seed=seed)
    est = [est.value, est.std_error]
    ref = reference_entropy(model, n_paths, 0.1, seed)
    if n == 1:
        assert np.array_equal(est, ref)
    else:
        # at n > 1 the estimator applies (2b)^{-1} as a product where the
        # reference solves, and einsum sums the quadratic form in an order
        # that depends on its operand's memory layout, which differs too
        np.testing.assert_allclose(est, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("special", ["none", "zeros", "signed zeros", "tiny",
                                     "infs", "nan", "huge"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_moment_reduction_equals_chunked_reference(special, seed):
    """The per-run reducer gives the chunk-by-chunk reference's bytes, signed
    zeros included, whichever of its layouts (n, n_paths) selects."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5, 8):
        # each side of the one-pass layout's bound on paths at n = 2 and 3
        bound = {2: (49152, 49153), 3: (28672, 28673)}.get(n, ())
        for n_paths in (2, 3, 4095, 4096, 4097, 8193, 20000) + bound:
            x = special_ensemble(rng, n_paths, n, special)
            mean, r = np.empty(n), np.empty((n, n))
            with np.errstate(all="ignore"):
                ref_mean, ref_r = reference_moments(x)
                diffusion._moment_reducer(n_paths, n)(x, mean, r)
            for got, want in ((mean, ref_mean), (r, ref_r)):
                if special == "nan":
                    # the sign of a NaN depends on which operand an add
                    # propagates, which differs between einsum and the ufunc
                    # loops.  The kernel never yields a NaN state, and the
                    # NaNs a reduction makes of finite or infinite states are
                    # all the one default NaN, so the other cases compare raw
                    # bytes
                    assert np.array_equal(np.isnan(got), np.isnan(want))
                    got, want = got.copy(), want.copy()
                    got[np.isnan(got)] = want[np.isnan(want)] = np.nan
                assert got.tobytes() == want.tobytes(), (n, n_paths)


def special_ensemble(rng, n_paths, n, special):
    """A normal (n_paths, n) ensemble, with the special values named."""
    x = rng.standard_normal((n_paths, n))
    mask = rng.integers(0, 4, size=x.shape)
    if special == "zeros":
        x[mask == 0] = 0.0
        x[mask == 1] = -0.0
    elif special == "signed zeros":
        # every sum of x_0 x_j is a sum of -0.0, which einsum starts at +0.0
        x[:] = -0.0
        x[:, 0] = 0.0
    elif special == "tiny":
        # products underflow to zeros of both signs
        x *= 1e-200
    elif special == "infs":
        x[mask == 0] = np.copysign(np.inf, x[mask == 0])
        x[mask == 1] = -0.0
    elif special == "nan":
        x[mask == 0] = np.nan
        x[mask == 1] = np.copysign(np.inf, x[mask == 1])
    elif special == "huge":
        # products and sums overflow to inf, of both signs
        x *= 1e160
    return x
