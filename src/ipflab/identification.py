"""Operator identification from ensemble covariances at switch moments.

All four identification routes reduce to ratios of the local drift matrix
b and a covariance: reduced-control A = -b r_v^{-1} and the closed loop
A = b r^{-1}, with b = (1/2) sigma sigma^T from the caller; covariance
ratio A = (1/2) rdot_- r^{-1} and dispersion window A = b (2 int b dt)^{-1},
with b = (1/2) rdot.  The conjugate-vector constraint E[2 X X^T + dX/dx] = 0
serves as the switch-moment diagnostic.  All read only grid, mean and r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import EnsembleStats, Record, guarded_inv, require_finite
from .errors import DegenerateEnsembleError, InputError, NonFiniteOutputError


@dataclass(frozen=True)
class IdentifiedOperator(Record):
    """Operator A identified at tau; its eigenvalues are stored complex."""

    tau: float
    method: str
    A: np.ndarray
    eigenvalues: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _make(tau, A, method, diagnostics=None) -> IdentifiedOperator:
    require_finite(A, f"A at tau={tau}", error=NonFiniteOutputError)
    return IdentifiedOperator(tau=float(tau), method=method, A=A,
                              eigenvalues=np.linalg.eigvals(A).astype(complex),
                              diagnostics=diagnostics or {})


def _b_over_r(stats: EnsembleStats, tau: float, b) -> np.ndarray:
    """b r(tau)^{-1}: the closed loop's operator, and minus the reduced one
    under the doubling feedback; past the float range it is inf, which
    _make refuses."""
    b = require_finite(b, "b", shape=(stats.n, stats.n))
    r_inv = guarded_inv(stats.r_at(tau), "r", DegenerateEnsembleError)
    with np.errstate(over="ignore", invalid="ignore"):
        return b @ r_inv


def identify_reduced(stats: EnsembleStats, v, tau: float,
                     b: np.ndarray) -> IdentifiedOperator:
    """A(tau) = -b r_v^{-1} with r_v the shifted second moment E[(x+v)(x+v)^T].

    v is the applied reduced control (callable of t or constant vector of
    length n), nonrandom at tau, so r_v = r + m v^T + v m^T + v v^T, which
    is r(tau) to the bit at v = 0.  b is the caller's local drift matrix
    b = (1/2) sigma sigma^T at tau; the moments' estimate (1/2) rdot would
    collapse to noise near stationarity and repeat identify_covariance_ratio.
    """
    i, n = stats.index_of(tau), stats.n
    b = require_finite(b, "b", shape=(n, n))
    vv = require_finite(v(tau) if callable(v) else v, "v", shape=(n,))
    with np.errstate(over="ignore", invalid="ignore"):
        mv = np.outer(stats.mean[i], vv)
        # m v^T + v m^T is exactly symmetric, so r_v is
        r_v = stats.r[i] + (mv + mv.T) + np.outer(vv, vv)
        A = -b @ guarded_inv(r_v, "r_v", DegenerateEnsembleError)
    return _make(tau, A, "reduced-control", {"r_v": r_v})


def identify_reduced_feedback(stats: EnsembleStats, tau: float,
                              b: np.ndarray) -> IdentifiedOperator:
    """Reduced identification under the doubling feedback v = -2x.

    v is random here, but x + v = -x, so the shifted moment equals r and
    A = -b r^{-1}; b = (1/2) sigma sigma^T at tau is the caller's.
    """
    return _make(tau, -_b_over_r(stats, tau, b), "reduced-control",
                 {"feedback": "v=-2x"})


def identify_covariance_ratio(stats: EnsembleStats, tau: float) -> IdentifiedOperator:
    """A_-(tau) = (1/2) rdot(tau-) r(tau)^{-1}, rdot taken from the left."""
    r = stats.r_at(tau)
    rdot = stats.r_dot_at(tau)
    r_inv = guarded_inv(r, "r", DegenerateEnsembleError)
    with np.errstate(over="ignore", invalid="ignore"):
        A = 0.5 * rdot @ r_inv
        comm = 0.5 * rdot @ r_inv - 0.5 * r_inv @ rdot
    return _make(tau, A, "covariance-ratio",
                 {"commutator_norm": float(np.linalg.norm(comm))})


def identify_dispersion_window(stats: EnsembleStats, tau: float,
                               window: float) -> IdentifiedOperator:
    """A(tau) = b(tau) (2 int_{tau-w}^{tau} b dt)^{-1} with b = (1/2) rdot and
    2 int b dt = r(tau) - r(tau - w); a window shorter than a step, or that
    starts before the grid, is refused."""
    require_finite(window, "window", positive=True, shape=())
    grid = stats.grid
    i = stats.index_of(tau)
    lo_t = float(tau) - float(window)  # Python floats overflow without a warning
    if lo_t < grid[0] - 1e-9 * (grid[-1] - grid[0]):
        raise InputError(f"window={window} before tau={tau} starts at {lo_t}, "
                         f"before the grid start {grid[0]}")
    j = stats.index_of(lo_t)
    if j == i or window < (1 - 1e-9) * (grid[i] - grid[i - 1]):
        raise InputError(f"window={window} is shorter than the grid step")
    b_tau = 0.5 * stats.r_dot_at(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        A = b_tau @ guarded_inv(
            stats.r[i] - stats.r[j], "window integral", DegenerateEnsembleError)
    return _make(tau, A, "dispersion-window", {"window": window})


def identify_closed_loop(stats: EnsembleStats, tau: float,
                         b: np.ndarray) -> IdentifiedOperator:
    """A^v(tau) = b r^{-1}, the closed loop's operator; b = (1/2) sigma
    sigma^T at tau is the caller's."""
    return _make(tau, _b_over_r(stats, tau, b), "closed-loop", {})


def check_constraint(stats: EnsembleStats, tau: float,
                     grad: np.ndarray) -> float:
    """Residual norm of E[2 X X^T] + dX/dx at tau, for the conjugate vector
    X = -(1/2) r^{-1} x, whose E[2 X X^T] is (1/2) r^{-1}.

    grad is the state gradient of X; it equals -(1/2) (int sigma sigma^T
    dt)^{-1}, which matches -(1/2) r^{-1} only at a genuine switch moment,
    so the residual separates switch moments from mid-segment times.
    """
    grad = require_finite(grad, "grad", shape=(stats.n, stats.n))
    exx = 0.5 * guarded_inv(stats.r_at(tau), "r", DegenerateEnsembleError)
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.linalg.norm(exx + grad))
    require_finite(res, "the constraint residual", error=NonFiniteOutputError)
    return res
