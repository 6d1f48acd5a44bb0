"""The ensembles the Euler-Maruyama kernel steps through, for tests that look
inside it: the simulator itself keeps only their moments."""

import numpy as np

from ipflab import diffusion


def kernel_states(model, n_paths, dt, seed):
    """A copy of every ensemble x that diffusion._euler_maruyama yields,
    stacked as (grid points, paths, n).  The kernel reuses its buffers, so
    each x is copied as it comes."""
    steps = diffusion._euler_maruyama(model, n_paths, dt, seed)[2]
    return np.array([x.copy() for _, x, _, _ in steps])
