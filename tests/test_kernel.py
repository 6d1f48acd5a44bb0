"""The streaming Euler-Maruyama kernel against the loop it replaced.

The reference below draws each block's whole (steps, paths, n) noise tensor
at once, steps the whole ensemble with fresh arrays and solves against 2b
at every grid point, as the simulator and the entropy estimator did before
they shared one kernel.  Bit-reproducibility for a fixed (seed, n_paths,
dt) requires the kernel to match it exactly, not within a tolerance.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipflab import diffusion, entropy
from ipflab.errors import InputError, SimulationDivergedError
from kernel_states import kernel_states

A3 = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
P3 = -np.linalg.inv(A3) / 2          # stationary covariance, positive definite

# paths per block: of the noise streams and of the moment reduction
BLOCK = 2 ** 15


def stream4(seed, n_paths):
    """Stream 4's generators, written out here rather than taken from the
    kernel: one for the initial law, and (first path, generator) for the
    noise of each block of BLOCK paths, spawned from the second child."""
    init_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    starts = range(0, n_paths, BLOCK)
    return (np.random.Generator(np.random.SFC64(init_seq)),
            [(lo, np.random.Generator(np.random.SFC64(seq)))
             for lo, seq in zip(starts, noise_seq.spawn(len(starts)))])


def reference_paths(model, n_paths, dt, seed):
    """Grid and ensemble at every grid point, from each block's whole noise
    tensor."""
    s, t_end = model.horizon
    n_steps = int(round((t_end - s) / dt))
    grid = s + dt * np.arange(n_steps + 1)
    rng0, blocks = stream4(seed, n_paths)
    if not model.initial_cov.any():
        x = np.tile(model.initial_mean, (n_paths, 1))
    else:
        x = rng0.multivariate_normal(model.initial_mean, model.initial_cov,
                                     size=n_paths, method="cholesky" if
                                     np.min(np.linalg.eigvalsh(model.initial_cov)) > 0 else "eigh")
    dW = np.empty((n_steps, n_paths, model.n))
    for lo, gen in blocks:
        block = dW[:, lo:lo + BLOCK]
        block[:] = gen.standard_normal(block.shape)
    dW *= np.sqrt(dt)
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

    def test_entropy_piecewise_constant_sigma(self):
        # sigma jumps and returns to an earlier value: each grid point
        # uses the (2b)^{-1} of its own sigma
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
    """The noise is drawn by one draw thread and by the caller's thread; the
    draw thread never outlives the kernel call, however the call ends."""

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
        # the tenth draw is block 1 of step 2
        steps, blocks, fail_at = 10, 4, 10
        for mode in ("normal", "caller", "draw thread"):
            with monkeypatch.context() as patch:
                recording, hold = draws_by(patch, mode, blocks, steps)
                recording.fail_at = fail_at

                def run():
                    recording.caller = threading.current_thread()
                    diffusion.simulate_ensemble(shared_model(1, hold, steps),
                                                SHARED_PATHS, dt=0.1, seed=1)

                before = threading.active_count()
                with pytest.raises(RuntimeError, match="draw failed"):
                    within(30, run)
                assert threading.active_count() == before
            failing = recording.threads[fail_at - 1]
            if mode == "caller":
                assert failing is recording.caller
            elif mode == "draw thread":
                assert failing is not recording.caller


# four blocks, the last of 5 paths
SHARED_PATHS = 3 * BLOCK + 5


def shared_model(n, hold=lambda: None, steps=3):
    """The n-dimensional model of A3 from its stationary law, with hold()
    called at the start of every drift call."""
    a, sigma = A3[:n, :n], A3_SIGMA[:n, :n]

    def drift(t, x, u):
        hold()
        return x @ a.T

    return diffusion.DiffusionModel(
        n=n, drift=drift, diffusion=lambda t: sigma,
        initial_mean=[0.1, 0.0, -0.2][:n], initial_cov=-np.linalg.inv(a) / 2,
        horizon=(0.0, 0.1 * steps))


def draws_by(monkeypatch, mode, blocks, steps):
    """(recording, hold): the noise generators record the thread of each
    draw in recording.threads, and draw number recording.fail_at, if set,
    raises.  In mode "caller" the draw thread draws nothing, so the caller
    draws every block.  In mode "draw thread", hold(), called at the start
    of the drift at grid point k, returns only once the draw thread has
    started every block of step k, so the caller draws none."""

    class Recording(np.random.Generator):
        cond = threading.Condition()
        threads = []
        fail_at = None
        failed = False

        def standard_normal(self, *args, **kwargs):
            if "out" not in kwargs:
                # the initial law's draw
                return super().standard_normal(*args, **kwargs)
            with Recording.cond:
                Recording.threads.append(threading.current_thread())
                fail = len(Recording.threads) == Recording.fail_at
                Recording.failed |= fail
                Recording.cond.notify_all()
            if fail:
                raise RuntimeError("draw failed")
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(diffusion.np.random, "Generator", Recording)
    if mode == "caller":
        monkeypatch.setattr(diffusion._NoiseDraw, "_run", lambda self: None)
    grid_points = itertools.count()

    def hold():
        if mode != "draw thread":
            return
        target = blocks * min(next(grid_points) + 1, steps)
        with Recording.cond:
            assert Recording.cond.wait_for(
                lambda: Recording.failed or len(Recording.threads) >= target,
                timeout=30)

    return Recording, hold


@pytest.mark.parametrize("n", [1, 3])
def test_bits_do_not_depend_on_who_draws(monkeypatch, n):
    """The draw thread drawing every block, the caller drawing every block
    and a normal run give the same bytes, in both entry points."""
    results = {}
    for mode in ("normal", "caller", "draw thread"):
        outputs = []
        for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
            with monkeypatch.context() as patch:
                recording, hold = draws_by(patch, mode, 4, 3)
                out, caller = within(60, lambda: (
                    run(shared_model(n, hold), SHARED_PATHS, dt=0.1, seed=6),
                    threading.current_thread()))
            assert len(recording.threads) == 4 * 3
            if mode == "caller":
                assert all(t is caller for t in recording.threads)
            elif mode == "draw thread":
                assert all(t is not caller for t in recording.threads)
            outputs += ([out.mean, out.r] if run is diffusion.simulate_ensemble
                        else [np.array([out.value, out.std_error])])
        results[mode] = b"".join(o.tobytes() for o in outputs)
    assert results["caller"] == results["normal"] == results["draw thread"]


def test_bits_under_thread_contention():
    """Three kernel calls at once, each with its own draw thread, on two
    cores or fewer, with the interpreter switching threads every
    microsecond, give the bytes of one call alone."""
    model = shared_model(1, steps=20)
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


def test_each_block_draws_its_steps_in_order(monkeypatch):
    """A block's step is drawn only once its previous step is, also when
    the other thread draws that one slowly.  Block 0's first draw, which
    the draw thread makes, and block 2's first draw sleep, so that the
    caller draws block 2 of step 0 while the draw thread reaches step 1."""
    # a zero initial law: the kernel makes no generator but the blocks'
    model = diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[0.7]],
        initial_mean=[0.5], initial_cov=[[0.0]], horizon=(0.0, 0.3))
    normal = diffusion.simulate_ensemble(model, SHARED_PATHS, dt=0.1, seed=5)
    created = itertools.count()

    class Slow(np.random.Generator):
        def __init__(self, *args):
            super().__init__(*args)
            # the kernel makes the blocks' generators in block order
            self.block, self.draws = next(created), 0

        def standard_normal(self, *args, **kwargs):
            self.draws += 1
            if self.draws == 1 and self.block in (0, 2):
                time.sleep(0.2 * (1 + self.block))
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(diffusion.np.random, "Generator", Slow)
    slow = within(30, lambda: diffusion.simulate_ensemble(
        model, SHARED_PATHS, dt=0.1, seed=5))
    assert slow.r.tobytes() == normal.r.tobytes()


def test_callbacks_and_consumer_run_in_the_caller(monkeypatch):
    """Every callback, the consumer of the kernel and the moment reducer run
    in the calling thread, also while the draw thread draws: cProfile counts
    only the calling thread on Python 3.10 and 3.11, but every thread from
    3.12, so the traced benchmark run alone cannot show this."""
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

    def run():
        for _, _, _, _ in diffusion._euler_maruyama(model, SHARED_PATHS, 0.1, 2)[2]:
            threads.add(threading.current_thread())
        diffusion.simulate_ensemble(model, SHARED_PATHS, dt=0.1, seed=2)
        entropy.entropy_mc(model, SHARED_PATHS, dt=0.1, seed=2)
        return threading.current_thread()

    caller = within(60, run)
    assert threads == {caller}


class TestDrawCount:
    """Each block's stream is drawn once per step, never more than two
    steps ahead."""

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
        for n_paths, blocks in ((100, 1), (SHARED_PATHS, 4)):
            for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
                counting.calls = 0
                within(30, lambda: run(model, n_paths, dt=0.1, seed=1))
                assert counting.calls == steps * blocks

    def test_closed_generator_drew_at_most_two_ahead(self, monkeypatch):
        counting = self.counting(monkeypatch)
        for n_paths, blocks in ((100, 1), (SHARED_PATHS, 4)):
            counting.calls = 0
            _, _, steps = diffusion._euler_maruyama(scalar_model(), n_paths, 0.01, 0)
            next(steps)
            next(steps)
            within(30, steps.close)
            # step 0 was added; steps 1 and 2 may be drawn, not step 3
            assert counting.calls <= 3 * blocks


A3_SIGMA = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.1, 0.8]])


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), steps=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       n_paths=st.integers(2, 300) | st.sampled_from([32767, 32768, 32769]),
       initial_law=st.booleans(), scale=st.floats(0.5, 2.0))
def test_entry_points_equal_reference_loop(n, steps, seed, n_paths,
                                           initial_law, scale):
    """Horizons shorter than the two-buffer ring, and ensembles across the
    moment reduction's block boundary, give the reference loop's bits."""
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
# bound and of a small n = 1 simulation's moments
DISPATCH_PROBE = """
import hashlib, json
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from ipflab import diffusion

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
    """The moment reducer and an n = 1 simulation give the same bytes when
    numpy dispatches to fewer SIMD targets, as on an older host: each
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
