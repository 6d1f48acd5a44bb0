"""Entropy functional of a controlled diffusion against its driftless twin.

Two estimators of the same quantity:

    S = (1/2) E [ integral of a_u^T (2b)^{-1} a_u dt ],   2b = sigma sigma^T,

by Monte Carlo over a simulated ensemble, and in the scalar linear case by
the covariance closed form (1/2) integral u^2 sigma^{-2} r dt.  The
stochastic-integral part of the additive functional has zero expectation
and is never simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffusion import (COND_MAX, STREAM_VERSION, DiffusionModel,
                        EnsembleStats, Record, _euler_maruyama, stamp_field)
from .errors import (DegenerateFunctionalError, InputError,
                     SingularDiffusionError)


@dataclass(frozen=True)
class EntropyEstimate(Record):
    # what fixes the Monte Carlo value's bits; None for the closed form
    stream_version: Optional[str] = stamp_field()
    seed: Optional[int] = stamp_field()
    n_paths: Optional[int] = stamp_field()
    dt: Optional[float] = stamp_field()
    value: float                  # nats
    method: str                   # "monte-carlo" or "covariance-form"
    horizon: tuple
    std_error: Optional[float] = None


def entropy_mc(model: DiffusionModel, n_paths: int, dt: float = None,
               seed: int = 0) -> EntropyEstimate:
    """Monte Carlo value of the drift quadratic form along simulated paths.

    The integrand a_u^T (2b)^{-1} a_u is accumulated trapezoidally per
    path, from the drift the Euler-Maruyama kernel evaluates at each grid
    point; the reported standard error is the per-path spread of the time
    integral divided by sqrt(n_paths).  Raises the kernel's InputError and
    SimulationDivergedError, and SingularDiffusionError where 2b is
    singular.
    """
    _, dt, steps = _euler_maruyama(model, n_paths, dt, seed, drift_at_end=True)
    integral = np.zeros(n_paths)
    # q at the previous and the current grid point; the trapezoid's sum
    # is formed in the previous one's buffer, which is then free
    qs = (np.empty(n_paths), np.empty(n_paths))
    half_dt = 0.5 * dt
    # 2b, its check and its inverse are formed again only where sigma(t)
    # changes; a copy, as the callback may return one array it mutates
    prev_sig = None
    for k, (t, _, a, sig) in enumerate(steps):
        if prev_sig is None or not np.array_equal(sig, prev_sig):
            twob = sig @ sig.T
            if np.linalg.cond(twob) > COND_MAX:
                raise SingularDiffusionError(f"2b singular at t={t}")
            inv = np.linalg.inv(twob)
            prev_sig = sig.copy()
        q, prev_q = qs[k % 2], qs[1 - k % 2]
        if inv.shape == (1, 1):
            # plain multiplies give the bits of the 1x1 product and of
            # einsum's one-term sum at an eighth of its time, which keeps
            # this thread under the draw's (0.07 against 0.55 ms at 1e5 paths)
            np.multiply(a[:, 0], inv[0, 0], out=q)
            q *= a[:, 0]
        else:
            np.einsum("pi,pi->p", a, a @ inv.T, out=q)
        if k:
            prev_q += q
            prev_q *= half_dt
            integral += prev_q

    half = 0.5 * integral
    value = float(np.mean(half))
    se = float(np.std(half, ddof=1) / math.sqrt(n_paths))
    return EntropyEstimate(value=value, method="monte-carlo",
                           horizon=model.horizon, std_error=se,
                           stream_version=STREAM_VERSION, seed=int(seed),
                           n_paths=int(n_paths), dt=dt)


def entropy_covariance_form(u, stats: EnsembleStats, sigma) -> EntropyEstimate:
    """Scalar closed form (1/2) integral u(t)^2 sigma(t)^{-2} r(t) dt.

    u and sigma are nonrandom scalars or callables of t; r comes from the
    supplied moment record.  sigma is the driftless companion's dispersion
    and must stay away from zero, otherwise the functional degenerates.
    """
    grid = stats.grid
    if stats.n != 1:
        raise InputError("covariance form implemented for scalar processes")
    uu = np.array([u(t) if callable(u) else u for t in grid], dtype=float)
    ss = np.array([sigma(t) if callable(sigma) else sigma for t in grid], dtype=float)
    if np.any(np.abs(ss) < 1e-14):
        raise DegenerateFunctionalError("sigma vanishes; functional degenerates")
    r = stats.r[:, 0, 0]
    integrand = uu * uu * r / (ss * ss)
    value = 0.5 * float(np.trapezoid(integrand, grid))
    return EntropyEstimate(value=value, method="covariance-form",
                           horizon=(float(grid[0]), float(grid[-1])))
