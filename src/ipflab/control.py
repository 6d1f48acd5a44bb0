"""Optimal control synthesis: starting, step-wise, and needle actions.

The whole control family reduces to doubling feedback v = -2x applied at
switch moments.  Under it a scalar segment with eigenvalue lam follows

    x(t) = x(tau) (2 - e^{lam (t - tau)}),

switch moments are detected where two modes reach equal relative phase
speed |xdot/x|, and equalized components are consolidated by a plane
rotation that preserves the norm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._roots import bisect
from .diffusion import (EnsembleStats, Record, guarded_inv, require_finite,
                        require_times)
from .errors import (DegenerateEnsembleError, InputError, NonFiniteOutputError,
                     UndefinedAngleError)

# the largest state magnitude taken: it keeps the control -2x, a needle's
# jump and a rotated pair finite
_X_MAX = sys.float_info.max / 4


@dataclass(frozen=True)
class NeedleEvent:
    tau: float
    v_minus: np.ndarray
    v_plus: np.ndarray
    delta_v: np.ndarray


@dataclass(frozen=True)
class Segment:
    t_start: float
    t_end: float
    eigenvalue: float
    start_state: float
    control: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class SegmentSchedule(Record):
    """Switch moments, per-segment records, and needle events between them."""

    dps: list
    segments: list
    needle_events: list

    def __post_init__(self):
        if len(self.dps):
            require_times(self.dps, "dps")


def starting_control(stats: EnsembleStats, at: float) -> dict:
    """Starting step control from the observed moments at one time.

    Reduced form v = -2 E[x], external form u = b r^{-1} v, the nonrandom
    starting state |r^{1/2}|, and the starting operator b r^{-1}.
    """
    r = stats.r_at(at)
    b = 0.5 * stats.r_dot_at(at)
    r_inv = guarded_inv(r, "r", DegenerateEnsembleError)
    mean = stats.mean[stats.index_of(at)]
    v = -2.0 * mean
    u = b @ r_inv @ v
    # principal square root of the PSD moment matrix
    w, q = np.linalg.eigh(r)
    if np.min(w) < -1e-12:
        raise DegenerateEnsembleError("moment matrix not PSD")
    x_start = q @ np.diag(np.sqrt(np.clip(w, 0, None))) @ q.T
    return {"v": v, "u": u, "x_start": np.abs(x_start),
            "A_start": b @ r_inv}


def step_control(x_at_dp) -> np.ndarray:
    """Doubling feedback v = -2 x(tau), held fixed over the next segment."""
    return -2.0 * require_finite(x_at_dp, "x_at_dp", lo=-_X_MAX, hi=_X_MAX)


def needle_control(x_minus, x_plus, tau: float = 0.0) -> NeedleEvent:
    """Needle action between tau-o and tau: jump of the held control."""
    require_finite(tau, "tau", shape=())
    v_m = np.atleast_1d(step_control(x_minus))
    v_p = np.atleast_1d(step_control(x_plus))
    if v_m.shape != v_p.shape:
        raise InputError(f"x_minus {v_m.shape} and x_plus {v_p.shape} differ in shape")
    return NeedleEvent(tau=tau, v_minus=v_m, v_plus=v_p, delta_v=v_p - v_m)


def segment_trajectory(x_at_dp: float, lam: float, t, tau: float = 0.0):
    """Closed-form scalar segment under the doubling control; refused where
    it leaves the float range."""
    require_finite(x_at_dp, "x_at_dp", shape=())
    require_finite(lam, "lam", shape=())
    t = require_finite(t, "t")
    require_finite(tau, "tau", shape=())
    with np.errstate(over="ignore", invalid="ignore"):
        x = x_at_dp * (2.0 - np.exp(lam * (t - tau)))
    require_finite(x, f"the segment of lam={lam} from tau={tau}",
                   error=NonFiniteOutputError)
    return x


def relative_phase_speed(x: np.ndarray, xdot: np.ndarray) -> np.ndarray:
    """|xdot / x| with zeros of x mapped to +inf (condition undefined there),
    as is a ratio past the float range."""
    x = require_finite(x, "x")
    xdot = require_finite(xdot, "xdot", shape=x.shape)
    out = np.full_like(x, np.inf)
    nz = np.abs(x) > 1e-300
    with np.errstate(over="ignore"):
        out[nz] = np.abs(xdot[nz] / x[nz])
    return out


_DP_TOL = 1e-10  # speeds this close are equal; a crossing's relative width


def detect_dp(grid, modes, modes_dot=None) -> list:
    """Moments where two modes have equal relative phase speed.

    modes is (T, n) or (n, T) on a T-point grid; derivatives default to
    central differences.  One mask picks the cells with finite ends where
    the speed difference is 0 at the left end (a hit) or changes sign
    (bisected on the interpolated traces; noted if a mode crosses zero)."""
    grid = require_times(grid, "grid")
    if len(grid) < 2:
        raise InputError("grid must have at least 2 points")
    modes = _time_major(modes, grid, "modes")
    hits = []
    # a speed is +inf where its mode is zero or the ratio overflows, and a
    # difference of two such is NaN: the mask keeps finite cells only
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if modes_dot is None:
            modes_dot = np.gradient(modes, grid, axis=0)
            require_finite(modes_dot, "the central differences of modes")
        else:
            modes_dot = _time_major(modes_dot, grid, "modes_dot")
        n = modes.shape[1]
        for i in range(n):
            for j in range(i + 1, n):
                si = relative_phase_speed(modes[:, i], modes_dot[:, i])
                sj = relative_phase_speed(modes[:, j], modes_dot[:, j])
                d = si - sj
                finite = np.isfinite(d)
                # speeds that are never both finite are not identical
                if finite.any() and np.all(np.abs(d[finite]) <= _DP_TOL):
                    hits.append({"pair": (i, j), "tau": float(grid[0]),
                                 "note": "identical speeds throughout"})
                    continue
                cells = (finite[:-1] & finite[1:]
                         & ((d[:-1] == 0.0) | (d[:-1] * d[1:] < 0)))
                for k in np.flatnonzero(cells):
                    if d[k] == 0.0:
                        hits.append({"pair": (i, j), "tau": float(grid[k])})
                        continue
                    if modes[k, i] * modes[k + 1, i] < 0 or modes[k, j] * modes[k + 1, j] < 0:
                        hits.append({"pair": (i, j), "tau": None,
                                     "note": f"mode zero inside [{grid[k]}, {grid[k+1]}]"})
                        continue
                    def f(t, k=k, i=i, j=j):
                        w = (t - grid[k]) / (grid[k + 1] - grid[k])
                        xi = (1 - w) * modes[k, i] + w * modes[k + 1, i]
                        xj = (1 - w) * modes[k, j] + w * modes[k + 1, j]
                        vi = (1 - w) * modes_dot[k, i] + w * modes_dot[k + 1, i]
                        vj = (1 - w) * modes_dot[k, j] + w * modes_dot[k + 1, j]
                        return abs(vi / xi) - abs(vj / xj)
                    tau = bisect(f, grid[k], grid[k + 1],
                                 xtol=_DP_TOL * max(abs(grid[k]), 1.0))
                    hits.append({"pair": (i, j), "tau": float(tau)})
    return hits


def _time_major(arr, grid, name):
    """arr as (T, n) for the T-point grid, transposed if given as (n, T)."""
    arr = require_finite(arr, name, shape=(None, None))
    arr = arr if arr.shape[0] == len(grid) else arr.T
    if arr.shape[0] != len(grid):
        raise InputError(f"{name} has no axis as long as the grid ({len(grid)} points)")
    return arr


def consolidate_rotation(z_i: float, z_j: float) -> dict:
    """Equalize a pair by rotating through -arctan((z_j - z_i)/(z_j + z_i))."""
    require_finite(z_i, "z_i", lo=-_X_MAX, hi=_X_MAX, shape=())
    require_finite(z_j, "z_j", lo=-_X_MAX, hi=_X_MAX, shape=())
    if z_i + z_j == 0.0:
        raise UndefinedAngleError("z_i + z_j = 0; rotation angle undefined")
    phi = math.atan2(z_j - z_i, z_j + z_i)
    c, s = math.cos(phi), math.sin(phi)
    # rotation by -phi
    zi_hat = c * z_i + s * z_j
    zj_hat = -s * z_i + c * z_j
    return {"phi": phi, "z_hat": (zi_hat, zj_hat)}


def schedule_from_invariants(inv, spectrum) -> SegmentSchedule:
    """Segment schedule on the invariant grid t_i = a_o / |alpha_i|, a_o
    being the ao_abs of the InvariantSet inv.

    Each segment carries its spectrum eigenvalue and the doubling control
    from a unit start state; so eigenvalue * duration = a_o on every
    segment by construction.
    """
    spec = require_finite(spectrum, "spectrum", shape=(None,))
    if np.any(spec == 0):
        raise InputError(f"spectrum entries must be nonzero, not {spec.tolist()}")
    with np.errstate(over="ignore"):
        durations = inv.ao_abs / np.abs(spec)
        ends = np.cumsum(durations)     # the switch moments, summed as below
    require_finite(ends, "the switch moments, sums of a_o / |spectrum|,")
    t = 0.0
    dps = []
    segments = []
    needles = []
    x = 1.0
    for lam, dt in zip(spec, durations):
        seg_end = t + dt
        segments.append(Segment(t_start=t, t_end=seg_end, eigenvalue=float(lam),
                                start_state=x, control=float(-2.0 * x)))
        x_end = float(segment_trajectory(x, lam, seg_end, tau=t))
        needles.append(needle_control(x_end, x_end, tau=seg_end))
        dps.append(seg_end)
        t = seg_end
        x = x_end
    return SegmentSchedule(dps=dps, segments=segments, needle_events=needles)
