"""Operator identification from ensemble covariances at switch moments.

All four identification routes reduce to ratios of the local drift matrix
b and a covariance: reduced-control A = -b r_v^{-1} and the closed loop
A = b r^{-1}, with b = (1/2) sigma sigma^T from the caller; covariance
ratio A = (1/2) rdot_- r^{-1} and dispersion window A = b (2 int b dt)^{-1},
with b = (1/2) rdot.  The conjugate-vector constraint E[2 X X^T + dX/dx] = 0
serves as the switch-moment diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import COND_MAX, EnsembleStats, Record, _moment_reducer
from .errors import DegenerateEnsembleError, InputError


def _guarded_inv(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.atleast_2d(mat)
    if np.linalg.cond(mat) > COND_MAX:
        raise DegenerateEnsembleError(f"{what} is numerically singular")
    return np.linalg.inv(mat)


@dataclass(frozen=True)
class IdentifiedOperator(Record):
    """Operator A identified at tau; its eigenvalues are stored complex."""

    tau: float
    method: str
    A: np.ndarray
    eigenvalues: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _make(tau, A, method, diagnostics=None) -> IdentifiedOperator:
    A = np.atleast_2d(A)
    return IdentifiedOperator(tau=float(tau), method=method, A=A,
                              eigenvalues=np.linalg.eigvals(A).astype(complex),
                              diagnostics=diagnostics or {})


def identify_reduced(stats: EnsembleStats, v, tau: float,
                     b: np.ndarray) -> IdentifiedOperator:
    """A(tau) = -b r_v^{-1} with r_v the shifted second moment E[(x+v)(x+v)^T].

    v is the applied reduced control (callable of t or constant vector of
    length n).  b is the caller's local drift matrix b = (1/2) sigma
    sigma^T at tau; the moments' estimate (1/2) rdot would collapse to noise
    near stationarity and repeat identify_covariance_ratio.
    """
    i = stats.index_of(tau)
    if stats.paths is None:
        raise InputError("identify_reduced needs retained paths for r_v")
    x = stats.paths[:, i, :]
    n_paths, n = x.shape
    vv = np.atleast_1d(np.asarray(v(tau) if callable(v) else v, dtype=float))
    if vv.shape != (n,):
        raise InputError(f"shift v has length {vv.size}, not the ensemble's n={n}")
    shifted = x + vv
    # the simulator's own reduction, so r_v at v = 0 has the bits of r(tau)
    r_v = np.empty((n, n))
    _moment_reducer(n_paths, n)(shifted, np.empty(n), r_v)
    A = -np.atleast_2d(b) @ _guarded_inv(r_v, "r_v")
    return _make(tau, A, "reduced-control", {"r_v": r_v})


def identify_reduced_feedback(stats: EnsembleStats, tau: float,
                              b: np.ndarray) -> IdentifiedOperator:
    """Reduced identification under the doubling feedback v = -2x.

    With x + v = -x the shifted moment equals r, so A = -b r^{-1} needs no
    retained paths; b = (1/2) sigma sigma^T at tau is the caller's.
    """
    A = -(np.atleast_2d(b) @ _guarded_inv(stats.r_at(tau), "r"))
    return _make(tau, A, "reduced-control", {"feedback": "v=-2x"})


def identify_covariance_ratio(stats: EnsembleStats, tau: float) -> IdentifiedOperator:
    """A_-(tau) = (1/2) rdot(tau-) r(tau)^{-1}, rdot taken from the left."""
    r = stats.r_at(tau)
    rdot = stats.r_dot_at(tau)
    r_inv = _guarded_inv(r, "r")
    A = 0.5 * rdot @ r_inv
    comm = 0.5 * rdot @ r_inv - 0.5 * r_inv @ rdot
    return _make(tau, A, "covariance-ratio",
                 {"commutator_norm": float(np.linalg.norm(comm))})


def identify_dispersion_window(stats: EnsembleStats, tau: float,
                               window: float) -> IdentifiedOperator:
    """A(tau) = b(tau) (2 int_{tau-w}^{tau} b dt)^{-1} with b = (1/2) rdot;
    a window that starts before the grid is refused, not cut short."""
    if window <= 0:
        raise InputError("window must be positive")
    grid = stats.grid
    if stats.r_dot is None:
        raise InputError("r_dot not filled; call covariance_derivative first")
    lo_t = tau - window
    if lo_t < grid[0] - 1e-9 * (grid[-1] - grid[0]):
        raise InputError(f"window={window} before tau={tau} starts at {lo_t}, "
                         f"before the grid start {grid[0]}")
    mask = (grid >= lo_t - 1e-12) & (grid <= tau + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise InputError("window too short for the grid")
    b_t = 0.5 * stats.r_dot[mask]
    tt = grid[mask]
    integral = np.trapezoid(b_t, tt, axis=0)
    b_tau = 0.5 * stats.r_dot_at(tau)
    A = np.atleast_2d(b_tau) @ _guarded_inv(2.0 * integral, "window integral")
    return _make(tau, A, "dispersion-window", {"window": window})


def identify_closed_loop(stats: EnsembleStats, tau: float,
                         b: np.ndarray) -> IdentifiedOperator:
    """A^v(tau) = b r^{-1}, the closed loop's operator; b = (1/2) sigma
    sigma^T at tau is the caller's."""
    A = np.atleast_2d(b) @ _guarded_inv(stats.r_at(tau), "r")
    return _make(tau, A, "closed-loop", {})


def conjugate_vector(stats: EnsembleStats, tau: float) -> np.ndarray:
    """Per-path conjugate vector X = -(1/2) r^{-1} x at tau."""
    if stats.paths is None:
        raise InputError("conjugate_vector needs retained paths")
    i = stats.index_of(tau)
    r_inv = _guarded_inv(stats.r_at(tau), "r")
    return -0.5 * (stats.paths[:, i, :] @ r_inv.T)


def check_constraint(stats: EnsembleStats, X: np.ndarray, tau: float,
                     grad: np.ndarray) -> float:
    """Residual norm of E[2 X X^T] + dX/dx at tau.

    grad is the state gradient of X; with X = -(1/2) r^{-1} x it equals
    -(1/2) (int sigma sigma^T dt)^{-1}, which matches -(1/2) r^{-1} only at
    a genuine switch moment, so the residual separates switch moments from
    mid-segment times.
    """
    X = np.atleast_2d(X)
    exx = 2.0 * X.T @ X / X.shape[0]
    return float(np.linalg.norm(exx + np.atleast_2d(grad)))
