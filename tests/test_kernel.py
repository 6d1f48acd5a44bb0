"""The streaming Euler-Maruyama kernel against the loop it replaced.

The reference below draws the whole (steps, paths, n) noise tensor at once,
steps with fresh arrays and solves against 2b at every grid point, as the
simulator and the entropy estimator did before they shared one kernel.
Bit-reproducibility for a fixed (seed, n_paths, dt) requires the kernel to
match it exactly, not within a tolerance.
"""

import math

import numpy as np

from ipflab import diffusion, entropy

A3 = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
P3 = -np.linalg.inv(A3) / 2          # stationary covariance, positive definite


def reference_paths(model, n_paths, dt, seed):
    """Grid and ensemble at every grid point, from the whole noise tensor."""
    s, t_end = model.horizon
    n_steps = int(round((t_end - s) / dt))
    grid = s + dt * np.arange(n_steps + 1)
    rng0 = np.random.Generator(np.random.Philox(key=np.uint64(seed) ^ np.uint64(0x9E3779B9)))
    if np.allclose(model.initial_cov, 0.0):
        x = np.tile(model.initial_mean, (n_paths, 1))
    else:
        x = rng0.multivariate_normal(model.initial_mean, model.initial_cov,
                                     size=n_paths, method="cholesky" if
                                     np.min(np.linalg.eigvalsh(model.initial_cov)) > 0 else "eigh")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
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
        moments = [diffusion._moments(x) for x in xs]
        assert np.array_equal(stats.grid, grid)
        assert np.array_equal(stats.mean, np.array([m for m, _ in moments]))
        assert np.array_equal(stats.r, np.array([r for _, r in moments]))

    def test_three_dim_initial_law_keep_paths(self):
        model = model3(initial_cov=P3)
        stats = diffusion.simulate_ensemble(model, 2000, dt=0.01, seed=9,
                                            keep_paths=True)
        _, xs = reference_paths(model, 2000, 0.01, 9)
        assert np.array_equal(stats.paths, np.stack(xs, axis=1))
        moments = [diffusion._moments(x) for x in xs]
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
