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

from .diffusion import (DiffusionModel, EnsembleStats, Record, _Stamped,
                        _euler_maruyama, guarded_inv, require_finite)
from .errors import (DegenerateFunctionalError, InputError,
                     NonFiniteOutputError, SingularDiffusionError)


@dataclass(frozen=True)
class EntropyEstimate(_Stamped, Record):
    value: float                  # nats
    method: str                   # "monte-carlo" or "covariance-form"
    horizon: tuple
    std_error: Optional[float] = None


def entropy_mc(model: DiffusionModel, n_paths: int, dt: float = None,
               seed: int = 0) -> EntropyEstimate:
    """Monte Carlo value of the drift quadratic form along simulated paths.

    The integrand q = a_u^T (2b)^{-1} a_u is accumulated trapezoidally per
    path, from the drift the kernel evaluates at each grid point: q/2 at
    the first point, q at the inner ones and q/2 at the last, times dt
    once at the end.  The reported standard error is the per-path spread
    of the time integral divided by sqrt(n_paths).  The paths are not
    Gaussian at finite dt, but the estimate is an expectation, which the
    kernel gets to weak order 2 or 1 by its route, on its default grid
    (see :func:`ipflab.diffusion._euler_maruyama`).  (2b)^{-1} is formed
    again only where the kernel's sigma is a new object, which is where
    sigma(t) changed.  Raises the kernel's InputError and
    SimulationDivergedError, SingularDiffusionError where 2b is singular,
    and NonFiniteOutputError where the integral overflows.
    """
    grid, stamp, steps = _euler_maruyama(model, n_paths, dt, seed)
    last = len(grid) - 1
    integral = np.zeros(n_paths)
    q = np.empty(n_paths)
    prev = None
    # a step past the float range is the kernel's SimulationDivergedError,
    # and an integral past it is refused below, not numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t, _, a, sig) in enumerate(steps):
            if sig is not prev:
                inv = guarded_inv(sig @ sig.T, f"2b at t={t}",
                                  SingularDiffusionError)
                prev = sig
            if inv.shape == (1, 1):
                # plain multiplies give the bits of the 1x1 product and of
                # einsum's one-term sum at an eighth of its time
                np.multiply(a[:, 0], inv[0, 0], out=q)
                q *= a[:, 0]
            else:
                # einsum's order of terms follows the layout of a, and the
                # drift may return either layout; row-major fixes the bits
                a = np.ascontiguousarray(a)
                np.einsum("pi,pi->p", a, a @ inv.T, out=q)
            if k in (0, last):
                q *= 0.5
            integral += q
        integral *= stamp["dt"]
        half = 0.5 * integral
        value = float(np.mean(half))
        se = float(np.std(half, ddof=1) / math.sqrt(n_paths))
    require_finite([value, se], "the entropy integral, which overflowed,",
                   error=NonFiniteOutputError)
    return EntropyEstimate(value=value, method="monte-carlo",
                           horizon=model.horizon, std_error=se, **stamp)


def entropy_covariance_form(u, stats: EnsembleStats, sigma) -> EntropyEstimate:
    """Scalar closed form (1/2) integral u(t)^2 sigma(t)^{-2} r(t) dt.

    u and sigma are nonrandom scalars or callables of t; r comes from the
    supplied moment record.  sigma is the driftless companion's dispersion
    and must stay away from zero, otherwise the functional degenerates.
    """
    grid = stats.grid
    if stats.n != 1:
        raise InputError("covariance form implemented for scalar processes")
    uu = require_finite([u(t) if callable(u) else u for t in grid], "u",
                        shape=grid.shape)
    ss = require_finite([sigma(t) if callable(sigma) else sigma for t in grid],
                        "sigma", shape=grid.shape)
    if np.any(np.abs(ss) < 1e-14):
        raise DegenerateFunctionalError("sigma vanishes; functional degenerates")
    r = stats.r[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = uu * uu * r / (ss * ss)
        value = 0.5 * float(np.trapezoid(integrand, grid))
    require_finite(value, "the covariance-form integral", error=NonFiniteOutputError)
    return EntropyEstimate(value=value, method="covariance-form",
                           horizon=(float(grid[0]), float(grid[-1])))
