"""Local Lyapunov exponents and the path-functional production rate.

A segment's local exponent is the least-squares slope of ln|x| over a
window, which equals the segment eigenvalue for pure exponentials; the
production rate is the trace of the identified operator, positive at
optimal switch moments.  A needle event flips the exponent's sign in the
noiseless replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import Record, require_finite, require_times
from .errors import InputError, NonFiniteOutputError, UndefinedLogError


def lce_local(grid, x, window: float = None) -> float:
    """Least-squares slope of ln|x(t)| over the window starting at grid[0]."""
    # a time may repeat: the CLI's segment traces meet at shared moments
    grid = require_times(grid, "grid", strict=False)
    x = require_finite(x, "x", shape=grid.shape)
    if window is not None:
        require_finite(window, "window", shape=())
        with np.errstate(over="ignore"):
            mask = grid <= grid[0] + window
        grid, x = grid[mask], x[mask]
    # min and max, not np.unique, whose first call adds 1.5 MB of peak RSS
    if len(grid) < 2 or grid.min() == grid.max():
        raise InputError("window too short: need samples at 2 distinct times")
    if x[0] == 0:
        raise InputError("reference state must be nonzero")
    if np.any(np.sign(x) != np.sign(x[0])):
        raise UndefinedLogError("state ratio non-positive inside window")
    # exactly zero for a constant trace regardless of fit roundoff
    if np.allclose(x, x[0]):
        return 0.0
    # polyfit divides the column of times by its norm, and its columns t
    # and 1 are of rank 1 where the times are too close for their size
    with np.errstate(all="ignore"):
        require_finite(np.sqrt(np.sum(grid * grid)), "the norm of the times",
                       positive=True)
        slope, _, rank, _, _ = np.polyfit(grid, np.log(np.abs(x)), 1, full=True)
    if rank < 2:
        raise InputError("the times are too close together to fit a slope")
    return float(slope[0])


def pfr(A) -> float:
    """Production rate Tr A of an identified operator."""
    A = require_finite(A, "A", shape=(None, None))
    if A.shape[0] != A.shape[1]:
        raise InputError(f"A has shape {A.shape}, not square")
    with np.errstate(over="ignore"):
        tr = float(np.trace(A))
    require_finite(tr, "Tr A", error=NonFiniteOutputError)
    return tr


_STEADY_TOL = 1e-12  # exponents within this of zero are steady


def classify(sigma: float) -> str:
    require_finite(sigma, "sigma", shape=())
    if sigma > _STEADY_TOL:
        return "instable"
    if sigma < -_STEADY_TOL:
        return "asymptotically-stable"
    return "steady"


@dataclass(frozen=True)
class DiagnosticsReport(Record):
    lce_per_segment: list
    sign_flips: list
    classification: list


def diagnose_segments(grid, x, dps) -> DiagnosticsReport:
    """Per-segment exponents and flip records for a scalar trace.

    dps, strictly increasing moments in [grid[0], grid[-1]], split the grid
    into segments; each segment's exponent is fitted over its interior, and
    consecutive exponents of opposite sign are recorded as flips.
    """
    grid = require_times(grid, "grid", strict=False)
    x = require_finite(x, "x", shape=grid.shape)
    dps = require_finite(dps, "dps", shape=(None,))
    if dps.size:
        require_times(dps, "dps")
    if np.any((dps < grid[0]) | (dps > grid[-1])):
        raise InputError(f"dps must increase strictly within [{grid[0]}, {grid[-1]}]")
    bounds = [grid[0]] + list(dps) + [grid[-1]]
    lces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = (grid >= lo) & (grid <= hi)
        if np.count_nonzero(mask) < 2:
            continue
        lces.append(lce_local(grid[mask], x[mask]))
    flips = [{"after_dp_index": k, "before": lces[k], "after": lces[k + 1]}
             for k in range(len(lces) - 1)
             if lces[k] * lces[k + 1] < 0]
    return DiagnosticsReport(lce_per_segment=lces, sign_flips=flips,
                             classification=[classify(s) for s in lces])
