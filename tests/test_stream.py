"""The noise stream, pinned by its bits and checked by the moments of its draws.

The kernel's stream is part of every stochastic output: a fixed (seed,
n_paths, dt) gives the same bits only under the same STREAM_VERSION.  The
golden values below fail on any change to the draws, and such a change
must bump the version.  Stream 4 draws each block of BLOCK paths from its
own generator; the initial law is still drawn as in streams 2 and 3.  The
moment checks read the raw normals back from a driftless model with
sigma = I, whose increments are sqrt(dt) z, through the states the kernel
steps through.
"""

import math

import numpy as np
import pytest

from ipflab import diffusion
from kernel_states import kernel_states


def driftless(n, initial_cov, horizon=1.0):
    return diffusion.DiffusionModel(
        n=n, drift=lambda t, x, u: np.zeros_like(x),
        diffusion=lambda t: np.eye(n), initial_mean=np.zeros(n),
        initial_cov=initial_cov, horizon=(0.0, horizon))


# paths per block, each with its own noise generator
BLOCK = 2 ** 15

# first four noise normals of the first block, the first noise normal of
# the second block and the first initial-law normal, as float.hex()
GOLDEN = {
    0: (["-0x1.410b5ea7ab782p+0", "-0x1.d602202e31498p-5",
         "0x1.771f87e1c69ddp-3", "-0x1.03d701e3bc6a0p-2"],
        "0x1.92c925e6f3c5dp-1", "-0x1.19d8ab59737bap-1"),
    2 ** 64 - 1: (["-0x1.2d5a312c9b533p+0", "0x1.51d6530c8512ep-1",
                   "-0x1.53c95e79fa8d9p-1", "0x1.62e82f6a246dap+0"],
                  "-0x1.208945ae50e19p-1", "-0x1.ba98a9b8b3f58p-1"),
}


def test_stream_version():
    assert diffusion.STREAM_VERSION == "4"


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_first_draws_pinned(seed):
    noise, second_block, initial = GOLDEN[seed]
    # one step of dt = 1 from x0 = 0: the state after it is the noise itself
    states = kernel_states(driftless(1, [[0.0]]), BLOCK + 1, 1.0, seed)
    assert [float(v).hex() for v in states[1, :4, 0]] == noise
    assert float(states[1, BLOCK, 0]).hex() == second_block
    # N(0, 1) by Cholesky: the initial state is the initial-law normal
    states = kernel_states(driftless(1, [[1.0]]), 4, 1.0, seed)
    assert float(states[0, 0, 0]).hex() == initial


PATHS, DT, K = 20000, 0.02, 5.0     # 50 steps of 3 components; K standard errors


def normals(seed, initial_cov=np.zeros((3, 3))):
    """(initial states, z): the ensemble at the start and its increments
    over sqrt(dt), shaped (paths, 3) and (steps, paths, 3)."""
    states = kernel_states(driftless(3, initial_cov), PATHS, DT, seed)
    return states[0], np.diff(states, axis=0) / math.sqrt(DT)


@pytest.fixture(scope="module")
def z7():
    return normals(7)[1]


def assert_uncorrelated(a, b):
    """The mean of a * b is within K standard errors of 0, for a and b
    independent standard normals."""
    prod = (a * b).ravel()
    assert abs(prod.mean()) <= K / math.sqrt(prod.size), prod.mean()


def test_mean_and_variance(z7):
    assert abs(z7.mean()) <= K / math.sqrt(z7.size)
    # the variance of z^2 is 2
    assert abs(z7.var() - 1.0) <= K * math.sqrt(2.0 / z7.size)
    for i in range(3):
        assert abs(z7[..., i].var() - 1.0) <= K * math.sqrt(2.0 / z7[..., i].size)


def test_cross_component_and_lag_one(z7):
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert_uncorrelated(z7[..., i], z7[..., j])
    assert_uncorrelated(z7[:-1], z7[1:])


def test_initial_law_apart_from_noise():
    x0, z = normals(7, initial_cov=np.eye(3))
    assert abs(x0.var() - 1.0) <= K * math.sqrt(2.0 / x0.size)
    # the first step's normals sit at the initial draws' stream positions
    assert_uncorrelated(x0, z[0])
    assert_uncorrelated(x0[None], z)


def test_adjacent_seeds_apart(z7):
    assert_uncorrelated(z7, normals(8)[1])


def test_blocks_apart():
    # the same rows of two blocks' streams, over 5 steps of 3 components
    states = kernel_states(driftless(3, np.zeros((3, 3)), horizon=5 * DT),
                           2 * BLOCK, DT, 7)
    z = np.diff(states, axis=0) / math.sqrt(DT)
    assert abs(z.var() - 1.0) <= K * math.sqrt(2.0 / z.size)
    assert_uncorrelated(z[:, :BLOCK], z[:, BLOCK:])
