"""Eigenvalue renovation across control switches and equalization chains.

A segment with eigenvalue lam, run for time t under the fixed doubling
control, renovates the eigenvalue to

    lam' = -lam e^{lam t} (2 - e^{lam t})^{-1}

and scales the state by (2 - e^{lam t}).  Chaining these steps and choosing
each interval so the joined eigenvalue meets the next spectrum entry at
equal phase-speed magnitude produces the cooperation schedule; a final
interval ln 2 / lam zeroes the state exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._roots import bisect, first_bracket
from .diffusion import LN2, Record, require_finite, require_int
from .errors import (InputError, NeedsNeedleControlError, NoCooperationError,
                     NonFiniteOutputError, SimulationDivergedError,
                     SingularRenovationError)

_POLE_TOL = 1e-12
_EXP_MAX = math.log(sys.float_info.max)     # math.exp overflows above it


def eigen_step(lam: float, t: float) -> float:
    """Renovated eigenvalue after a segment of length t.  Past exp's range it
    is its limit lam: from lam t ~ 37 on, 2 - e^{lam t} rounds to -e^{lam t}.
    Refused where lam e^{lam t} overflows before the division."""
    require_finite(lam, "lam", shape=())
    require_finite(t, "t", shape=())
    # in Python floats, whose product overflows to inf without a warning
    out = _renovated(float(lam), float(t))
    require_finite(out, f"the eigenvalue renovated from lam={lam} over t={t}",
                   error=NonFiniteOutputError)
    return out


def _renovated(lam, t):
    """eigen_step's map, unchecked, for the root scans."""
    x = lam * t
    if abs(x - LN2) < _POLE_TOL:
        raise SingularRenovationError(f"lam*t = ln 2 at lam={lam}, t={t}")
    if x > 709.0:
        return lam
    e = math.exp(x)
    return -lam * e / (2.0 - e)


def state_step(z, lam: float, t: float):
    """State multiplier (2 - e^{lam t}) applied segment-wise; zero is legal.
    A state past the float range raises SimulationDivergedError at t."""
    z = require_finite(z, "z")
    require_finite(lam, "lam", shape=())
    require_finite(t, "t", shape=())
    x = float(lam) * float(t)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (2.0 - (math.exp(x) if x <= _EXP_MAX else math.inf)) * z
    if not np.isfinite(z).all():
        raise SimulationDivergedError(t)
    return z


def terminal_time(t_prev: float, lam: float) -> float:
    """Moment the final segment zeroes the state: t_prev + ln 2 / lam."""
    require_finite(t_prev, "t_prev", shape=())
    require_finite(lam, "lam", shape=())
    if lam <= 0:
        raise NeedsNeedleControlError(
            "terminal segment needs a positive eigenvalue; apply a needle control")
    out = float(t_prev) + LN2 / abs(float(lam))
    require_finite(out, f"the terminal time of lam={lam}", error=NonFiniteOutputError)
    return out


def _abs_speed(lam: float, t: float) -> float:
    """|renovated eigenvalue| as a function of segment time, +inf at the pole."""
    try:
        return abs(_renovated(lam, t))
    except SingularRenovationError:
        return math.inf


def _equalization_root(lam_joint: float, lam_next: float, offset: float,
                       t_max: float) -> float:
    """Smallest t > 0 with |speed(lam_joint, t)| = |speed(lam_next, offset+t)|.

    The first sign-change cell of the difference is refined by bisection.
    The scan runs on 20000 points up to t_max plus two points around each
    pole of the two speeds (lam t = ln 2), at p (1 -+ 1e-9): a cell of the
    linear grid can be wider than the distance from a pole to the root,
    and one holding both has no sign change at its ends.
    """
    def f(t):
        return _abs_speed(lam_joint, t) - _abs_speed(lam_next, offset + t)

    grid = np.linspace(1e-9, t_max, 20000)
    poles = [LN2 / lam - t0 for lam, t0 in ((lam_joint, 0.0), (lam_next, offset)) if lam > 0]
    sides = np.sort([p * s for p in poles for s in (1 - 1e-9, 1 + 1e-9)])
    sides = sides[(sides > grid[0]) & (sides < grid[-1])]
    # on the numpy grid, lam t past the float range is inf without a warning;
    # _renovated maps it to its limit
    with np.errstate(over="ignore"):
        cell = first_bracket(f, np.insert(grid, np.searchsorted(grid, sides), sides))
    if cell is None:
        raise NoCooperationError(
            f"no equalization moment for ({lam_joint}, {lam_next}) within t <= {t_max}")
    try:
        return bisect(f, *cell, xtol=1e-13)
    except RuntimeError:    # a cell of the scan too wide for 100 halvings
        raise NoCooperationError(f"the equalization moment for ({lam_joint}, "
                                 f"{lam_next}) is not resolved in {cell}") from None


@dataclass(frozen=True)
class EigenChain(Record):
    """Cooperation schedule: per-stage eigenvalue pairs and interval lengths.

    The record checks its fields once, when it is built, and holds lambdas
    and intervals as lists of floats: n and m must be integers >= 1, the
    intervals n - 1 finite positive numbers, and lambdas one finite triple
    per interval, or [[lam]] at n = 1.  Each is refused by name, so a
    reader trusts them.
    """

    n: int
    m: int
    lambdas: list          # stage k: [joined lam entering, next spectrum lam, lam after join]
    intervals: list        # t_k durations, one per stage

    def __post_init__(self):
        require_int(self.n, "n", lo=1)
        require_int(self.m, "m", lo=1)
        stages = self.n - 1
        intervals = require_finite(self.intervals, "intervals", positive=True,
                                   shape=(stages,))
        lambdas = require_finite(self.lambdas, "lambdas",
                                 shape=(stages, 3) if stages else (1, 1))
        object.__setattr__(self, "intervals", intervals.tolist())
        object.__setattr__(self, "lambdas", lambdas.tolist())


def interval_ratios(chain: EigenChain) -> list:
    """Consecutive cooperation-interval ratios t_{k+1}/t_k."""
    t = chain.intervals
    ratios = [t[k + 1] / t[k] for k in range(len(t) - 1)]
    require_finite(ratios, "the interval ratios", error=NonFiniteOutputError)
    return ratios


def build_equalization_chain(spectrum, n: int) -> EigenChain:
    """Sequentially equalize a ranged spectrum into a single eigenvalue.

    Stage k holds the current joined eigenvalue (its segment clock restarts
    at the join) against the next spectrum entry, whose clock has been
    running since t = 0; the interval solves the equal-magnitude condition
    on the renovated speeds.  The chain is well posed only with as many
    intervals as dimensions, so len(spectrum) must equal n.
    """
    require_int(n, "n", lo=1)
    spec = [float(s) for s in require_finite(spectrum, "spectrum", shape=(n,))]
    mags = [abs(s) for s in spec]
    if any(m == 0 for m in mags):
        raise InputError("spectrum entries must be nonzero")
    if any(mags[i] <= mags[i + 1] for i in range(len(mags) - 1)):
        raise InputError("spectrum must be strictly ranged by magnitude")
    if n == 1:
        return EigenChain(lambdas=[[spec[0]]], intervals=[], n=1, m=1)

    t_max = 1e3 / min(mags)
    require_finite(t_max, "the scan horizon 1e3 / min |spectrum|")
    lam_joint = spec[0]
    elapsed = 0.0
    stages = []
    intervals = []
    for k in range(1, n):
        lam_next = spec[k]
        t_k = _equalization_root(lam_joint, lam_next, elapsed, t_max)
        lam_after = abs(eigen_step(lam_joint, t_k))
        stages.append([lam_joint, lam_next, lam_after])
        intervals.append(t_k)
        elapsed += t_k
        lam_joint = lam_after
    return EigenChain(lambdas=stages, intervals=intervals, n=n, m=n)


def chain_state_trace(chain: EigenChain, z0: float) -> dict:
    """Propagate a scalar state through the chain and the zeroing tail.

    Returns the per-stage states, the terminal time, and the final state
    (exactly zero when the tail lands on lam*t = ln 2).  A state past the
    float range raises SimulationDivergedError at its stage's length.
    """
    require_finite(z0, "z0", shape=())
    z = float(z0)
    states = [z]
    t = 0.0
    for stage, dt in zip(chain.lambdas, chain.intervals):
        z = float(state_step(z, stage[0], dt))
        t += dt
        states.append(z)
    lam_final = chain.lambdas[-1][2] if chain.intervals else chain.lambdas[0][0]
    T = terminal_time(t, lam_final)
    z = float(state_step(z, lam_final, T - t))
    states.append(z)
    return {"states": states, "terminal_time": T, "final_state": z}
