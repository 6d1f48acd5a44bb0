"""The noise stream, pinned by its bits and checked by the moments of its draws.

The kernel's stream is part of every stochastic output: a fixed (seed,
n_paths, dt) gives the same bits only under the same STREAM_VERSION.  The
golden values below fail on any change to the draws, and such a change
must bump the version.  Streams 5 and 6 take each step's increments
+-sqrt(dt) from the bits of fresh SFC64 words, bit 0 of each word first
(stream 6 added the matrix route's step map); the initial law is still
drawn as in streams 2 to 4.  The moment checks read the
increments back from a driftless model with sigma = I through the states
the kernel steps through; at dt = 2^-6 the increments are +-1/8, whose
sums are exact, so they are read back exactly.
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


# the moment reduction's block of paths
BLOCK = 2 ** 15

# first four words of the noise generator, the first 16 bits of the first
# word from bit 0 up, and the first initial-law normal as float.hex()
GOLDEN = {
    0: (["0xea5a263479ea1ab0", "0xe5373233b8af4a4a",
         "0x64be7966a0f6cf28", "0x28ed1feed9999dde"],
        "0000110101011000", "-0x1.19d8ab59737bap-1"),
    2 ** 64 - 1: (["0x7760e80b0ece1ea0", "0x7bf8b00dd1255235",
                   "0xaf10d39ee629d1dd", "0xc612a5b798f0a9c6"],
                  "0000010101111000", "-0x1.ba98a9b8b3f58p-1"),
}


def test_stream_version():
    assert diffusion.STREAM_VERSION == "6"


def word_bits(words, count):
    """The first count bits of the words, bit 0 of each word first."""
    return [(int(words[i // 64], 16) >> (i % 64)) & 1 for i in range(count)]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_first_draws_pinned(seed):
    words, bits, initial = GOLDEN[seed]
    # the noise generator, from the second child of the seed's SeedSequence
    noise = np.random.SFC64(np.random.SeedSequence(seed).spawn(2)[1])
    assert [f"{int(w):#018x}" for w in noise.random_raw(4)] == words
    assert "".join(map(str, word_bits(words, 16))) == bits
    # two steps of dt = 1 from x0 = 0 on 100 paths: each step takes two
    # fresh words, and bit 1 is the increment -1
    states = kernel_states(driftless(1, [[0.0]], horizon=2.0), 100, 1.0, seed)
    for k, step_words in enumerate((words[:2], words[2:])):
        want = [-1.0 if b else 1.0 for b in word_bits(step_words, 100)]
        assert list(states[k + 1, :, 0] - states[k, :, 0]) == want
    # N(0, 1) by Cholesky: the initial state is the initial-law normal
    states = kernel_states(driftless(1, [[1.0]]), 4, 1.0, seed)
    assert float(states[0, 0, 0]).hex() == initial


PATHS, DT, K = 20000, 2.0 ** -6, 5.0     # 64 steps of 3 components; K standard errors


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
    independent with mean 0 and variance 1."""
    prod = (a * b).ravel()
    assert abs(prod.mean()) <= K / math.sqrt(prod.size), prod.mean()


def test_increments_are_plus_minus_sqrt_dt(z7):
    assert np.array_equal(np.abs(z7), np.ones_like(z7))
    # one step from x0 = 0 at a dt whose square root is not exact
    states = kernel_states(driftless(3, np.zeros((3, 3)), horizon=0.02),
                           1000, 0.02, 7)
    assert set(states[1].ravel()) == {math.sqrt(0.02), -math.sqrt(0.02)}


def test_scalar_increments_are_plus_minus_s_sigma():
    # at n = 1, z sigma is +-(sqrt(dt) sigma) bit for bit, for either sign
    for sigma in (0.7, -0.7):
        model = diffusion.DiffusionModel(
            n=1, drift=lambda t, x, u: np.zeros_like(x),
            diffusion=lambda t: [[sigma]], initial_mean=[0.0],
            initial_cov=[[0.0]], horizon=(0.0, 0.02))
        states = kernel_states(model, 1000, 0.02, 7)
        step = math.sqrt(0.02) * sigma
        assert set(states[1].ravel()) == {step, -step}


def test_mean_and_variance(z7):
    assert abs(z7.mean()) <= K / math.sqrt(z7.size)
    # a bound for a normal z, whose z^2 has variance 2; a two-point z^2 has 0
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
    # the initial law and the increments come from the seed's two children
    assert_uncorrelated(x0, z[0])
    assert_uncorrelated(x0[None], z)


def test_adjacent_seeds_apart(z7):
    assert_uncorrelated(z7, normals(8)[1])


def test_blocks_apart():
    # the same rows of two blocks of paths, over 5 steps of 3 components
    states = kernel_states(driftless(3, np.zeros((3, 3)), horizon=5 * DT),
                           2 * BLOCK, DT, 7)
    z = np.diff(states, axis=0) / math.sqrt(DT)
    assert abs(z.var() - 1.0) <= K * math.sqrt(2.0 / z.size)
    assert_uncorrelated(z[:, :BLOCK], z[:, BLOCK:])
