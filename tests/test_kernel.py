"""The streaming Euler kernel against the loop it replaced.

The reference below draws every step's noise words at once, reads their
bits by integer shifts, steps the whole ensemble with fresh arrays and
solves against 2b at every grid point, as the simulator and the entropy
estimator did before they shared one kernel.  Bit-reproducibility for a
fixed (seed, n_paths, dt) requires the kernel to match it exactly, not
within a tolerance.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ipflab import diffusion, entropy
from ipflab.errors import InputError, SimulationDivergedError
from kernel_states import kernel_states

A3 = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
P3 = -np.linalg.inv(A3) / 2          # stationary covariance, positive definite

# paths per block of the moment reduction
BLOCK = 2 ** 15


def stream5(seed):
    """Stream 5's generators, written out here rather than taken from the
    kernel: one for the initial law, and the noise's bit generator, from
    the two children of the seed's SeedSequence."""
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.Generator(np.random.SFC64(init_seq)), np.random.SFC64(noise_seq)


def reference_paths(model, n_paths, dt, seed):
    """Grid and ensemble at every grid point, from every step's noise words
    drawn at once: each step takes ceil(paths * n / 64) words, and bit j
    of a step is bit j % 64 of its word j // 64, the sign of the j-th
    increment in (path, component) order, 1 for -sqrt(dt).  A model with
    A and sigma is stepped as x M^T + dW g^T, M and g = G sigma formed as
    the matrix route forms them; any other as x + a dt + dW sigma^T."""
    s, t_end = model.horizon
    n_steps = int(round((t_end - s) / dt))
    grid = s + dt * np.arange(n_steps + 1)
    rng0, noise = stream5(seed)
    if not model.initial_cov.any():
        x = np.tile(model.initial_mean, (n_paths, 1))
    else:
        x = rng0.multivariate_normal(model.initial_mean, model.initial_cov,
                                     size=n_paths, method="cholesky" if
                                     np.min(np.linalg.eigvalsh(model.initial_cov)) > 0 else "eigh")
    size = n_paths * model.n
    words = noise.random_raw(n_steps * -(-size // 64)).reshape(n_steps, -1)
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    bits = bits.reshape(n_steps, -1)[:, :size].reshape(n_steps, n_paths, model.n)
    dW = np.where(bits == 1, -math.sqrt(dt), math.sqrt(dt))
    xs = [x]
    if model.A is not None:
        ad = model.A * dt
        M = np.eye(model.n) + ad + (ad @ ad) / 2
        g = (np.eye(model.n) + ad / 2) @ model.sigma
        for k in range(n_steps):
            x = x @ M.T + dW[k] @ g.T
            xs.append(x)
        return grid, xs
    for k in range(n_steps):
        t = grid[k]
        u = model.control_law(t, x) if model.control_law is not None else None
        a = model.drift(t, x, u)
        sig = np.atleast_2d(np.asarray(model.diffusion(t), dtype=float))
        x = x + a * dt + dW[k] @ sig.T
        xs.append(x)
    return grid, xs


def reference_moments(x):
    """Mean and E[x x^T] as the simulator's reduction defines them: per
    block of BLOCK paths, each column and each product column x_i x_j
    (i <= j) summed by its own contiguous np.add.reduce; the block sums
    added in block order; r[j, i] = r[i, j].  The simulator's reduction
    must give these bytes."""
    n_paths, n = x.shape
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    total = None
    for lo in range(0, n_paths, BLOCK):
        block = x[lo:lo + BLOCK]
        cols = [np.ascontiguousarray(block[:, i]) for i in range(n)]
        sums = np.array([np.add.reduce(c) for c in cols]
                        + [np.add.reduce(cols[i] * cols[j]) for i, j in pairs])
        total = sums if total is None else total + sums
    total = total / n_paths
    r = np.empty((n, n))
    for k, (i, j) in enumerate(pairs):
        r[i, j] = r[j, i] = total[n + k]
    return total[:n], r


def reference_entropy(model, n_paths, dt, seed):
    """(value, std_error) with drift, cond and inverse at every grid point;
    the quadratic form is made as the estimator makes it, so the two give
    the same bits at every n."""
    grid, xs = reference_paths(model, n_paths, dt, seed)

    def quadratic(t, x):
        u = model.control_law(t, x) if model.control_law is not None else None
        a = model.drift(t, x, u)
        sig = np.atleast_2d(np.asarray(model.diffusion(t), dtype=float))
        twob = sig @ sig.T
        assert np.linalg.cond(twob) <= 1e12
        return np.einsum("pi,pi->p", a, a @ np.linalg.inv(twob).T)

    # q/2 at the ends, q inside, in grid order; times dt at the end
    qs = [quadratic(t, x) for t, x in zip(grid, xs)]
    integral = 0.5 * qs[0]
    for q in qs[1:-1]:
        integral = integral + q
    integral = (integral + 0.5 * qs[-1]) * dt
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
        # the states the kernel steps through, and the moments reduced from them
        model = model3(initial_cov=P3)
        stats = diffusion.simulate_ensemble(model, 2000, dt=0.01, seed=9)
        _, xs = reference_paths(model, 2000, 0.01, 9)
        assert np.array_equal(kernel_states(model, 2000, 0.01, 9), np.stack(xs))
        moments = [reference_moments(x) for x in xs]
        assert np.array_equal(stats.mean, np.array([m for m, _ in moments]))
        assert np.array_equal(stats.r, np.array([r for _, r in moments]))

    def test_entropy_time_varying_sigma(self):
        # the drift returns x itself, and sigma changes at every grid point,
        # so (2b)^{-1} differs at every step
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: x, diffusion=lambda t: [[1.0 + t]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        est = entropy.entropy_mc(model, 5000, dt=0.01, seed=3)
        value, se = reference_entropy(model, 5000, 0.01, 3)
        assert np.array_equal([est.value, est.std_error], [value, se])

    def test_entropy_piecewise_constant_sigma(self, monkeypatch):
        # sigma jumps and returns to an earlier value: each grid point
        # uses the (2b)^{-1} of its own sigma, formed once per constant
        # piece, where the kernel's sig is a new object
        calls = []
        inv = entropy.guarded_inv

        def counting(mat, what, error):
            calls.append(what)
            return inv(mat, what, error)

        monkeypatch.setattr(entropy, "guarded_inv", counting)
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: -2.0 * x,
            diffusion=lambda t: [[2.0]] if 0.3 <= t < 0.6 else [[0.5]],
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        est = entropy.entropy_mc(model, 2000, dt=0.01, seed=8)
        assert calls == ["2b at t=0.0", "2b at t=0.3", "2b at t=0.6"]
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
        # both entry points evaluate every callback at all 101 grid points,
        # the last one included
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            calls.update(drift=0, sigma=0)
            run(model, 10, dt=0.01, seed=0)
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

    @pytest.mark.parametrize("bad, name", [
        ("sigma", "sigma(1.0) must be finite"),
        ("drift", "drift(1.0) has shape (10, 2), not (10, 1)")],
        ids=["sigma", "drift"])
    def test_bad_callback_at_the_last_point_refused(self, bad, name):
        # sigma(T) and drift(T) are checked as at every other grid point
        def drift(t, x, u):
            return np.hstack([x, x]) if bad == "drift" and t == 1.0 else -x

        def sigma(t):
            return [[np.nan if bad == "sigma" and t == 1.0 else 1.0]]

        model = diffusion.DiffusionModel(
            n=1, drift=drift, diffusion=sigma, initial_mean=[0.0],
            initial_cov=[[0.0]], horizon=(0.0, 1.0))
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(InputError, match=re.escape(name)):
                run(model, 10, dt=0.1, seed=0)

    def test_same_initial_ensemble_in_both_entry_points(self):
        seen = []

        def drift(t, x, u):
            if t == 0.0:
                seen.append(x.copy())
            return x @ A3.T

        model = diffusion.DiffusionModel(
            n=3, drift=drift, diffusion=lambda t: np.eye(3),
            initial_mean=[0.1, 0.0, -0.2], initial_cov=P3, horizon=(0.0, 0.1))
        diffusion.simulate_ensemble(model, 500, dt=0.01, seed=4)
        entropy.entropy_mc(model, 500, dt=0.01, seed=4)
        assert len(seen) == 2 and seen[0].any()
        assert seen[0].tobytes() == seen[1].tobytes()


def scalar_model(drift=lambda t, x, u: -x):
    return diffusion.DiffusionModel(
        n=1, drift=drift, diffusion=lambda t: [[1.0]], initial_mean=[1.0],
        initial_cov=[[0.0]], horizon=(0.0, 1.0))


class TestOneThread:
    """The kernel runs in the caller's thread and starts no other."""

    def test_no_thread_started(self):
        before = threading.enumerate()
        seen = []

        def drift(t, x, u):
            seen.append(threading.enumerate())
            return -x

        diffusion.simulate_ensemble(scalar_model(drift), 100, dt=0.01, seed=1)
        entropy.entropy_mc(scalar_model(drift), 100, dt=0.01, seed=1)
        assert len(seen) == 101 + 101
        # and on the matrix route: look at every grid point it yields, at
        # n = 1 and at n = 3, where it multiplies by BLAS
        for model in (diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 1.0)),
                      diffusion.linear_model(A3, A3_SIGMA, [0.1, 0.0, -0.2], P3,
                                             (0.0, 1.0))):
            for _ in diffusion._euler_maruyama(model, 100, None, 1)[2]:
                seen.append(threading.enumerate())
        assert len(seen) == 2 * 101 + 2 * 101
        assert all(threads == before for threads in seen)

    def test_raising_drift_propagates(self):
        class Boom(Exception):
            pass

        def drift(t, x, u):
            if t >= 0.03 - 1e-12:
                raise Boom(t)
            return -x

        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(Boom):
                run(scalar_model(drift), 100, dt=0.01, seed=1)

    def test_divergence_reports_first_bad_time(self):
        # x is 1, then about 1e299, then inf at the second step
        model = scalar_model(lambda t, x, u: 1e300 * x)
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with pytest.raises(SimulationDivergedError) as exc, \
                    np.errstate(over="ignore", invalid="ignore"):
                run(model, 50, dt=0.1, seed=2)
            assert exc.value.t_bad == 0.1 * 2


# four blocks of the moment reduction, the last of 5 paths
SHARED_PATHS = 3 * BLOCK + 5


def test_bits_under_thread_contention():
    """Three kernel calls at once, each in its own thread, on two cores or
    fewer, with the interpreter switching threads every microsecond, give
    the bytes of one call alone: the kernel shares no state between calls."""
    sigma = A3_SIGMA[:1, :1]
    model = diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: x @ A3[:1, :1].T, diffusion=lambda t: sigma,
        initial_mean=[0.1], initial_cov=-np.linalg.inv(A3[:1, :1]) / 2,
        horizon=(0.0, 2.0))
    alone = diffusion.simulate_ensemble(model, SHARED_PATHS, dt=0.1, seed=3)
    results = [None] * 3

    def run(i):
        results[i] = diffusion.simulate_ensemble(model, SHARED_PATHS, dt=0.1,
                                                 seed=3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls = [threading.Thread(target=run, args=(i,), daemon=True)
                 for i in range(3)]
        for call in calls:
            call.start()
        for call in calls:
            call.join(60)
        assert not any(call.is_alive() for call in calls)
    finally:
        sys.setswitchinterval(interval)
    for res in results:
        assert res.mean.tobytes() == alone.mean.tobytes()
        assert res.r.tobytes() == alone.r.tobytes()


def test_callbacks_and_consumer_run_in_the_caller(monkeypatch):
    """Every callback, the consumer of the kernel and the moment reducer run
    in the calling thread: cProfile counts only the calling thread on
    Python 3.10 and 3.11, but every thread from 3.12, so the traced
    benchmark run alone cannot show this."""
    threads = set()

    def record(fn):
        def wrapped(*args):
            threads.add(threading.current_thread())
            return fn(*args)
        return wrapped

    reducer = diffusion._moment_reducer
    monkeypatch.setattr(diffusion, "_moment_reducer",
                        lambda *args: record(reducer(*args)))
    a, sigma = A3[:3, :3], A3_SIGMA[:3, :3]
    model = diffusion.DiffusionModel(
        n=3, drift=record(lambda t, x, u: x @ a.T + u),
        diffusion=record(lambda t: sigma),
        control_law=record(lambda t, x: -0.1 * x),
        initial_mean=[0.1, 0.0, -0.2], initial_cov=P3, horizon=(0.0, 0.5))
    for _, _, _, _ in diffusion._euler_maruyama(model, SHARED_PATHS, 0.1, 2)[2]:
        threads.add(threading.current_thread())
    diffusion.simulate_ensemble(model, SHARED_PATHS, dt=0.1, seed=2)
    entropy.entropy_mc(model, SHARED_PATHS, dt=0.1, seed=2)
    assert threads == {threading.current_thread()}


class TestDrawCount:
    """The noise generator is drawn once per step, ceil(paths * n / 64)
    words at a time, and never ahead of the step that needs it."""

    @staticmethod
    def counting(monkeypatch):
        class Counting(np.random.SFC64):
            sizes = []

            def random_raw(self, size=None, output=True):
                Counting.sizes.append(size)
                return super().random_raw(size, output)

        monkeypatch.setattr(diffusion.np.random, "SFC64", Counting)
        return Counting

    @pytest.mark.parametrize("steps", [1, 2, 3, 50])
    def test_full_run_draws_once_per_step(self, monkeypatch, steps):
        counting = self.counting(monkeypatch)
        for n, n_paths, words in ((1, 100, 2), (1, SHARED_PATHS, 1537),
                                  (3, 64, 3), (3, 2000, 94)):
            model = diffusion.DiffusionModel(
                n=n, drift=lambda t, x, u: -x, diffusion=lambda t: np.eye(n),
                initial_mean=np.ones(n), initial_cov=np.eye(n),
                horizon=(0.0, 0.1 * steps))
            for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
                counting.sizes.clear()
                run(model, n_paths, dt=0.1, seed=1)
                assert counting.sizes == [words] * steps

    def test_closed_generator_drew_at_most_two_ahead(self, monkeypatch):
        counting = self.counting(monkeypatch)
        _, _, steps = diffusion._euler_maruyama(scalar_model(), 100, 0.01, 0)
        next(steps)
        assert counting.sizes == []
        next(steps)
        steps.close()
        # step 0 was added to reach the second grid point; no step ahead
        assert counting.sizes == [2]


A3_SIGMA = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.1, 0.8]])


# the dispersions the reference loop is run with: A3_SIGMA's block, a
# multiple of the identity and a diagonal, each times the drawn scale
SIGMAS = {"A3": lambda n: A3_SIGMA[:n, :n], "identity": np.eye,
          "diagonal": lambda n: np.diag([1.0, 0.7, 1.3][:n])}
# drifts whose results are row-major (a BLAS product) or, as the kernel's x
# is, column-major
DRIFTS = {"blas": lambda a: lambda t, x, u: x @ a.T,
          "negate": lambda a: lambda t, x, u: -x}


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), steps=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       n_paths=st.integers(2, 300) | st.sampled_from([32767, 32768, 32769]),
       initial_law=st.booleans(), scale=st.floats(0.5, 2.0),
       sigma_form=st.sampled_from(sorted(SIGMAS)),
       drift_form=st.sampled_from(sorted(DRIFTS)))
# two paths whose integrals cancel in the standard error
@example(n=3, steps=1, seed=600914, n_paths=2, initial_law=False, scale=1.9,
         sigma_form="A3", drift_form="blas")
def test_entry_points_equal_reference_loop(n, steps, seed, n_paths,
                                           initial_law, scale, sigma_form,
                                           drift_form):
    """Horizons of one to six steps, ensembles across a noise word's and
    the moment reduction's block boundary, dispersions with and without
    cross terms, and drifts of either memory layout give the reference
    loop's bits."""
    a = A3[:n, :n]
    sigma = scale * SIGMAS[sigma_form](n)
    model = diffusion.DiffusionModel(
        n=n, drift=DRIFTS[drift_form](a), diffusion=lambda t: sigma,
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
    assert np.array_equal(est, reference_entropy(model, n_paths, 0.1, seed))


# diagonal dispersions: positive entries, a negative one, and a zero one
DIAGONALS = {"positive": [0.7, 1.3, 1.1], "negative": [0.7, -1.3, 1.1],
             "zero": [0.7, 0.0, 1.1]}


@pytest.mark.parametrize("route", ["callbacks", "matrices"])
@pytest.mark.parametrize("entries", sorted(DIAGONALS))
@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_sigma_equals_reference_loop(n, entries, route):
    """A diagonal sigma, or G sigma on the matrix route of a diagonal A,
    scales each component's signs without mixing them, and the states
    are the reference loop's bytes.  Component 1 starts at -0.0 with no
    spread; with a zero sigma_11 it stays a zero whose sign is the
    reference's at every grid point."""
    a = np.diag([-1.0, -2.0, -0.5][:n])
    sigma = np.diag(DIAGONALS[entries][:n])
    mean, cov = [0.1, -0.0, -0.2][:n], np.diag([0.5, 0.0, 1.0][:n])
    if route == "matrices":
        model = diffusion.linear_model(a, sigma, mean, cov, (0.0, 0.5))
    else:
        model = diffusion.DiffusionModel(
            n=n, drift=lambda t, x, u: x @ a.T, diffusion=lambda t: sigma,
            initial_mean=mean, initial_cov=cov, horizon=(0.0, 0.5))
    states = kernel_states(model, 300, 0.1, 5)
    _, xs = reference_paths(model, 300, 0.1, 5)
    assert states.tobytes() == np.stack(xs).tobytes()
    if entries == "zero":
        assert not states[:, :, 1].any()


def test_sigma_changing_form_in_place_equals_reference_loop():
    """A sigma that turns from diagonal to mixing and back, changed in
    place in the one array the callback returns, is read anew at every
    grid point and gives the reference loop's bytes."""
    held = np.empty((2, 2))

    def sigma(t):
        held[:] = A3_SIGMA[:2, :2] if 0.2 <= t < 0.4 else np.diag([0.7, -1.3])
        return held

    model = diffusion.DiffusionModel(
        n=2, drift=lambda t, x, u: x @ A3[:2, :2].T, diffusion=sigma,
        initial_mean=[0.1, 0.0], initial_cov=P3[:2, :2], horizon=(0.0, 0.6))
    states = kernel_states(model, 300, 0.1, 3)
    _, xs = reference_paths(model, 300, 0.1, 3)
    assert states.tobytes() == np.stack(xs).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_only_off_diagonal_sigma_mixes_by_matmul(monkeypatch, n):
    """The noise of a diagonal sigma takes no np.matmul; a sigma with an
    off-diagonal entry is mixed by one at every step."""
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(diffusion.np, "matmul", counting)
    for sigma, mixes in ((np.diag([0.7, -1.3, 0.0][:n]), 0),
                         (A3_SIGMA[:n, :n], 5)):
        calls.clear()
        model = diffusion.DiffusionModel(
            n=n, drift=DRIFTS["negate"](None), diffusion=lambda t: sigma,
            initial_mean=np.ones(n), initial_cov=np.eye(n), horizon=(0.0, 0.5))
        for _ in diffusion._euler_maruyama(model, 100, 0.1, 1)[2]:
            pass
        assert calls == [(n, n)] * mixes


def yielded_sigmas(sigma):
    """The sig the kernel yields at each of the six points of a scalar
    model on [0, 0.5] at dt = 0.1."""
    model = diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: -x, diffusion=sigma, initial_mean=[0.0],
        initial_cov=[[0.0]], horizon=(0.0, 0.5))
    return [sig for _, _, _, sig in diffusion._euler_maruyama(model, 10, 0.1, 1)[2]]


def test_sig_is_one_read_only_object_while_sigma_repeats():
    """A callback that returns a fresh [[1.0]] at every point gives one
    read-only sig throughout, a copy the callback cannot reach."""
    sigs = yielded_sigmas(lambda t: [[1.0]])
    assert all(sig is sigs[0] for sig in sigs)
    assert not sigs[0].flags.writeable and sigs[0].tolist() == [[1.0]]


def test_sig_is_new_where_sigma_bytes_change():
    """A callback that changes one array in place gives the same sig while
    its bytes repeat and a new one where they change: to 2.0, back to
    1.0, and to -0.0 after 0.0, which compares equal but is other bytes.
    Each sig keeps the value it was yielded with."""
    held = np.empty((1, 1))
    values = {0.0: 1.0, 0.1: 1.0, 0.2: 2.0, 0.3: 0.0, 0.4: -0.0, 0.5: -0.0}

    def sigma(t):
        held[0, 0] = values[round(t, 9)]
        return held

    sigs = yielded_sigmas(sigma)
    fresh = [k for k in range(1, 6) if sigs[k] is not sigs[k - 1]]
    assert fresh == [2, 3, 4]
    assert all(sig is not held and not sig.flags.writeable for sig in sigs)
    assert [sig.tobytes() for sig in sigs] == [
        np.float64(v).tobytes() for v in values.values()]


def test_fortran_ordered_mixing_sigma_equals_reference_loop():
    """A column-major sigma with cross terms at n = 3 is mixed in that
    layout, as the reference mixes it, in both entry points."""
    sigma = np.asfortranarray(A3_SIGMA)
    model = diffusion.DiffusionModel(
        n=3, drift=lambda t, x, u: x @ A3.T, diffusion=lambda t: sigma,
        initial_mean=[0.1, 0.0, -0.2], initial_cov=P3, horizon=(0.0, 0.5))
    sigs = [sig for _, _, _, sig in diffusion._euler_maruyama(model, 300, 0.1, 2)[2]]
    assert sigs[0].flags.f_contiguous and all(sig is sigs[0] for sig in sigs)
    _, xs = reference_paths(model, 300, 0.1, 2)
    assert kernel_states(model, 300, 0.1, 2).tobytes() == np.stack(xs).tobytes()
    est = entropy.entropy_mc(model, 300, dt=0.1, seed=2)
    assert np.array_equal([est.value, est.std_error],
                          reference_entropy(model, 300, 0.1, 2))


def test_matrix_route_refuses_sigma_of_other_bytes():
    """The matrix route holds sigma(t) to the model's sigma bit for bit: a
    -0.0 where sigma holds 0.0 is refused, though it compares equal."""
    model = diffusion.linear_model(A3, A3_SIGMA, [0.1, 0.0, -0.2], P3, (0.0, 1.0))
    signed = np.where(A3_SIGMA == 0.0, -0.0, A3_SIGMA)
    assert np.array_equal(signed, model.sigma)
    model = dataclasses.replace(model, diffusion=lambda t: signed)
    for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
        with pytest.raises(InputError, match=re.escape(
                "sigma(0.0) is not the model's sigma")):
            run(model, 10, dt=0.1, seed=1)


# diagonal dispersions whose increments +-sqrt(dt) sigma_ii are finite at
# dt = 1, but twice them not
HUGE_SIGMAS = {"9e307": np.diag([9e307, 1.0]), "1e308": np.diag([1e308, 1.0]),
               "scalar": np.array([[1e308]])}


@pytest.mark.parametrize("run", [diffusion.simulate_ensemble, entropy.entropy_mc])
@pytest.mark.parametrize("route", ["callbacks", "matrices"])
@pytest.mark.parametrize("sigma", sorted(HUGE_SIGMAS))
def test_sigma_too_large_for_dt_refused_by_name(sigma, route, run):
    """The noise is formed as v - 2 v bit, and such a sigma used to end
    the run as SimulationDivergedError at t = dt, or in entropy_mc as a
    2b that is not finite.  It is refused by name, with the dt; on the
    matrix route, with A = 0, G sigma is sigma."""
    sigma = HUGE_SIGMAS[sigma]
    n = len(sigma)
    if route == "matrices":
        model = diffusion.linear_model(np.zeros((n, n)), sigma, np.zeros(n),
                                       np.zeros((n, n)), (0.0, 2.0))
        name = "(I + A dt/2) sigma is too large for dt=1.0"
    else:
        model = diffusion.DiffusionModel(
            n=n, drift=lambda t, x, u: -x, diffusion=lambda t: sigma,
            initial_mean=np.zeros(n), initial_cov=np.zeros((n, n)),
            horizon=(0.0, 2.0))
        name = "sigma(0.0) is too large for dt=1.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=re.escape(name)):
            run(model, 10, dt=1.0, seed=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_yields_column_major_views(n):
    """Every x the kernel yields, and passes to the callbacks, is the
    (paths, n) view of a C-contiguous (n, paths) buffer."""
    seen = []

    def drift(t, x, u):
        seen.append(x.T.flags.c_contiguous and u.T.flags.c_contiguous)
        return x @ A3[:n, :n].T + u

    def control_law(t, x):
        seen.append(x.T.flags.c_contiguous)
        return -0.1 * x

    model = diffusion.DiffusionModel(
        n=n, drift=drift, diffusion=lambda t: A3_SIGMA[:n, :n],
        control_law=control_law, initial_mean=[0.1, 0.0, -0.2][:n],
        initial_cov=P3[:n, :n], horizon=(0.0, 0.5))
    steps = diffusion._euler_maruyama(model, BLOCK + 5, 0.1, 7)[2]
    for _, x, _, _ in steps:
        assert x.shape == (BLOCK + 5, n)
        seen.append(x.T.flags.c_contiguous)
    # six grid points, each seen by the consumer and both callbacks
    assert len(seen) == 3 * 6 and all(seen)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_moment_reduction_ignores_layout(n):
    """Row-major and column-major copies of one ensemble give the same
    bytes, on each side of the block bound and across it."""
    rng = np.random.default_rng(n)
    for n_paths in (2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        x = rng.standard_normal((n_paths, n))
        got = []
        for copy in (np.ascontiguousarray(x), np.asfortranarray(x)):
            mean, r = np.empty(n), np.empty((n, n))
            diffusion._moment_reducer(n_paths, n)(copy, mean, r)
            got.append(mean.tobytes() + r.tobytes())
        assert got[0] == got[1], (n, n_paths)


@pytest.mark.parametrize("special", ["none", "zeros", "signed zeros", "tiny",
                                     "infs", "nan", "huge"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_moment_reduction_equals_chunked_reference(special, seed):
    """The per-run reducer gives the block-by-block reference's bytes,
    signed zeros and NaNs included, on each side of the block bound, and
    an r that is exactly symmetric."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5, 8):
        for n_paths in (2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
            x = special_ensemble(rng, n_paths, n, special)
            mean, r = np.empty(n), np.empty((n, n))
            with np.errstate(all="ignore"):
                ref_mean, ref_r = reference_moments(x)
                diffusion._moment_reducer(n_paths, n)(x, mean, r)
            for got, want in ((mean, ref_mean), (r, ref_r)):
                assert got.tobytes() == want.tobytes(), (n, n_paths)
            assert r.tobytes() == r.T.tobytes()


def test_moment_reduction_silent_on_overflow():
    """Products and sums that overflow, and inf - inf, raise no warning."""
    x = np.full((BLOCK + 1, 3), 1e160)
    x[::2, 1] = np.inf
    x[1::2, 1] = -np.inf
    mean, r = np.empty(3), np.empty((3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diffusion._moment_reducer(len(x), 3)(x, mean, r)
    assert np.isnan(mean[1]) and np.isnan(r[0, 1]) and np.isinf(r[0, 0])


@pytest.mark.parametrize("n", [1, 3])
def test_moment_reduction_sums_pairwise(n):
    """Against math.fsum of the same terms, every moment is off by at most
    2 eps log2(N) of the mean magnitude of its terms: the pairwise sums
    within a block, the block sums and the division add up to about
    1.3 eps log2(N) at worst.  A sum in path order over the whole ensemble
    breaks the bound on several of these moments, at both n.  Nine blocks,
    so the block sums are also checked to add in block order past numpy's
    eight-way unrolled pairwise sum."""
    n_paths = 9 * BLOCK - 5
    rng = np.random.default_rng(11)
    x = 1.0 + 0.1 * rng.standard_normal((n_paths, n))
    mean, r = np.empty(n), np.empty((n, n))
    diffusion._moment_reducer(n_paths, n)(x, mean, r)
    ref_mean, ref_r = reference_moments(x)
    assert mean.tobytes() == ref_mean.tobytes() and r.tobytes() == ref_r.tobytes()
    bound = 2 * np.finfo(float).eps * math.log2(n_paths)
    for i in range(n):
        terms = x[:, i]
        exact = math.fsum(terms) / n_paths
        assert abs(mean[i] - exact) <= bound * math.fsum(abs(terms)) / n_paths
        for j in range(n):
            terms = x[:, i] * x[:, j]
            exact = math.fsum(terms) / n_paths
            assert abs(r[i, j] - exact) <= bound * math.fsum(abs(terms)) / n_paths


def golden_ensemble(n):
    """A fixed (BLOCK + 5, n) ensemble made by exact integer arithmetic and
    one correctly rounded division, so its values are the same everywhere."""
    k = np.arange((BLOCK + 5) * n, dtype=np.int64).reshape(-1, n)
    return ((k * 7919) % 10007 - 4000) / 1013.0


# mean, then r[i, j] for i <= j, of golden_ensemble(n), as float.hex()
GOLDEN_MOMENTS = {
    1: ["0x1.fb0656a6148a8p-1", "0x1.23a0aca35d4c3p+3"],
    3: ["0x1.fb23f2eef0583p-1", "0x1.facc699735422p-1", "0x1.fb12e8bb742d1p-1",
        "0x1.23a4a1e503938p+3", "0x1.0ee7773414693p+0", "-0x1.60285ea679baap+1",
        "0x1.23951f198d188p+3", "0x1.0de07b0bd0fd2p+0", "0x1.239bbd813b6e2p+3"],
}


@pytest.mark.parametrize("n", sorted(GOLDEN_MOMENTS))
def test_moments_pinned(n):
    x = golden_ensemble(n)
    mean, r = np.empty(n), np.empty((n, n))
    diffusion._moment_reducer(len(x), n)(x, mean, r)
    got = list(mean) + [r[i, j] for i in range(n) for j in range(i, n)]
    assert [float(v).hex() for v in got] == GOLDEN_MOMENTS[n]


# run in a fresh process: the SIMD targets numpy dispatches to there, and
# SHA-256 digests of the reducer's output on ensembles across the block
# bound and of small n = 1 simulations' moments and entropy estimates, on
# the callback route and on a linear model's matrix route
DISPATCH_PROBE = """
import hashlib, json
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from ipflab import diffusion, entropy

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

digests = {}
rng = np.random.default_rng(5)
for n_paths, n in ((3, 1), (32769, 1), (32769, 3), (65537, 5)):
    x = rng.standard_normal((n_paths, n))
    mean, r = np.empty(n), np.empty((n, n))
    diffusion._moment_reducer(n_paths, n)(x, mean, r)
    digests[f"reduce {n_paths} {n}"] = digest(mean, r)
model = diffusion.DiffusionModel(
    n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[0.7]],
    initial_mean=[0.5], initial_cov=[[0.2]], horizon=(0.0, 1.0))
stats = diffusion.simulate_ensemble(model, 3000, dt=0.02, seed=4)
digests["simulate"] = digest(stats.mean, stats.r)
est = entropy.entropy_mc(model, 3000, dt=0.02, seed=4)
digests["entropy"] = digest(np.array([est.value, est.std_error]))
linear = diffusion.linear_model(-1.0, 0.7, 0.5, 0.2, (0.0, 1.0))
stats = diffusion.simulate_ensemble(linear, 3000, seed=4)
digests["simulate linear"] = digest(stats.mean, stats.r)
est = entropy.entropy_mc(linear, 3000, seed=4)
digests["entropy linear"] = digest(np.array([est.value, est.std_error]))
print(json.dumps({"dispatch": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
                  "digests": digests}))
"""


def dispatch_probe(disabled):
    """DISPATCH_PROBE's output with the named SIMD targets disabled."""
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    src = os.path.dirname(os.path.dirname(diffusion.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", DISPATCH_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_bits_do_not_depend_on_simd_dispatch():
    """The moment reducer, and simulate_ensemble and entropy_mc at n = 1
    on both routes, whose increments are exact, give the same bytes when numpy
    dispatches to fewer SIMD targets, as on an older host: each
    process disables one more of the targets this host has, from the top,
    down to numpy's baseline."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this host")
    default = dispatch_probe([])
    assert default["dispatch"] == targets
    for k in range(len(targets)):
        probe = dispatch_probe(targets[k:])
        assert probe["dispatch"] == targets[:k]
        assert probe["digests"] == default["digests"], targets[k:]


def special_ensemble(rng, n_paths, n, special):
    """A normal (n_paths, n) ensemble, with the special values named."""
    x = rng.standard_normal((n_paths, n))
    mask = rng.integers(0, 4, size=x.shape)
    if special == "zeros":
        x[mask == 0] = 0.0
        x[mask == 1] = -0.0
    elif special == "signed zeros":
        # every sum of x_0 x_j is a sum of -0.0, which np.add.reduce starts
        # at +0.0
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
