"""Microlevel controlled diffusion: weak-scheme ensembles and their moments.

The model is the Ito equation

    dx = a(t, x, u) dt + sigma(t) dW,      u = control_law(t, x),

simulated over an ensemble of paths, by the weak Euler scheme or, for a
linear model held as matrices, by a weak order-2 step.  The ensemble is
reduced to the time grid of second-moment matrices r(t) = E[x x^T] and
means, which is all the identification and entropy machinery downstream
needs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NonFiniteOutputError, SimulationDivergedError

# constants shared by every module; this one imports no other ipflab module
SCHEMA_VERSION = "2"
# the definition of the simulated numbers: a fixed (seed, n_paths, dt) gives
# the same bits only under the same stream version, which covers both the
# noise draws and the step map of each route (see _steps) and the moment
# reduction (see _moment_reducer)
STREAM_VERSION = "6"
LN2 = math.log(2.0)
# condition number above which a matrix that must be inverted is refused
COND_MAX = 1e12

# the moment sums run over blocks of this many paths, so their order
# depends on n_paths alone
_BLOCK = 2 ** 15
# how the matrix route's refusal of other callbacks ends
_OTHER = ("a model with A and sigma is stepped from them: set both to None "
          "to simulate other dynamics")
# array kinds that require_finite refuses, though floats can be read from them
_NOT_NUMBERS = {"b": "bools", "U": "strings", "S": "bytes", "O": "objects"}


def guarded_inv(mat, what: str, error) -> np.ndarray:
    """Inverse of the matrix mat; raises error (an IpfError subclass) naming
    what when mat is not finite or its condition number exceeds COND_MAX."""
    mat = np.atleast_2d(mat)
    require_finite(mat, what, error=error)
    if np.linalg.cond(mat) > COND_MAX:
        raise error(f"{what} is numerically singular")
    return np.linalg.inv(mat)


def require_int(val, name: str, lo=None, hi=None):
    """Refuse val unless it is an integer in [lo, hi]; a bool is not one."""
    if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
        raise InputError(f"{name} must be an integer, not {val!r}")
    require_finite(val, name, lo, hi)


def require_finite(val, name: str, lo=None, hi=None, positive=False,
                   error=InputError, shape=None) -> np.ndarray:
    """val as a float array (0-d for a number), refused unless it is a
    number or an array of numbers (no bool, string, bytes or other
    object, also inside a sequence) whose every entry is finite, in
    [lo, hi] and, if positive, > 0; error is the IpfError raised.  Given
    a shape, missing leading axes are added first, as np.atleast_2d adds
    them, and a value that still has another shape is refused with
    InputError; None in shape stands for any length."""
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    # None reads as NaN, which the shape fit would take before the message
    if arr is None or val is None or isinstance(val, (bool, np.bool_, str, bytes)):
        raise error(f"{name} must be a finite number, not {val!r}")
    # floats are read from bools and strings inside a sequence too
    if arr.ndim or isinstance(val, np.ndarray):
        kind = np.asarray(val).dtype.kind
        if kind in _NOT_NUMBERS:
            raise error(f"{name} must be finite numbers, not {_NOT_NUMBERS[kind]}")
    if shape is not None and arr.shape != shape:
        fit = arr.reshape((1,) * (len(shape) - arr.ndim) + arr.shape)
        if fit.ndim != len(shape) or any(
                w not in (None, d) for w, d in zip(shape, fit.shape)):
            raise InputError(f"{name} has shape {arr.shape}, not "
                             + str(shape).replace("None", "any"))
        arr = fit
    if not (np.isfinite(arr).all() if arr.ndim else math.isfinite(arr)):
        raise error(f"{name} must be finite" + ("" if arr.ndim else f", not {val}"))
    if lo is None and hi is None and not positive:
        return arr
    if arr.ndim:
        low, high = arr.min(initial=math.inf), arr.max(initial=-math.inf)
    else:
        # a number compares as a Python one: quicker, and exact for an
        # integer, as float(2**64 - 1) is 2**64
        low = high = int(val) if isinstance(val, (int, np.integer)) else float(arr)
    if lo is not None and low < lo:
        raise error(f"{name} must be >= {lo}")
    if positive and low <= 0:
        raise error(f"{name} must be positive")
    if hi is not None and high > hi:
        raise error(f"{name} must be <= {hi}")
    return arr


def require_times(val, name: str, strict=True) -> np.ndarray:
    """val as a 1-D float array of times (see require_finite), refused by
    name unless it is not empty, increases (strictly, or if not strict
    never decreases) and spans a finite t[-1] - t[0], which bounds every
    difference a reader takes.  Neighbours are compared, not differenced."""
    t = require_finite(val, name, shape=(None,))
    if not t.size:
        raise InputError(f"{name} must not be empty")
    drops = np.flatnonzero(t[1:] <= t[:-1] if strict else t[1:] < t[:-1])
    if drops.size:
        k = drops[0]
        rule = "increase strictly, as it does not" if strict else "not decrease, as it does"
        raise InputError(f"{name} must {rule} from {t[k]} to {t[k + 1]}")
    # in Python floats, whose difference overflows to inf without a warning
    require_finite(float(t[-1]) - float(t[0]), f"the span of {name}")
    return t


def plain(obj):
    """JSON-ready copy of a record, array or container.

    A dataclass becomes a dict of its fields in declaration order, leaving
    out those marked ``metadata={"json": "unless None"}`` while they are
    None; a complex array field x is written as x_real and x_imag; arrays
    become lists.
    """
    if is_dataclass(obj):
        doc = {}
        for f in fields(obj):
            val = getattr(obj, f.name)
            if val is None and f.metadata.get("json") == "unless None":
                continue
            if isinstance(val, np.ndarray) and np.iscomplexobj(val):
                doc[f.name + "_real"] = val.real.tolist()
                doc[f.name + "_imag"] = val.imag.tolist()
            else:
                doc[f.name] = plain(val)
        return doc
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def document(obj) -> str:
    """Every JSON document ipflab writes: schema_version, then a Monte Carlo
    result's stream stamp, then the body (obj, a record or a dict).  A NaN or
    infinity, which JSON lacks, raises NonFiniteOutputError with its key path."""
    doc = {"schema_version": SCHEMA_VERSION, **plain(obj)}
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteOutputError(f"{_non_finite(doc)} is not a finite number")


def _non_finite(val, path=""):
    """Key path of the first NaN or infinity in a plain document, or None."""
    if isinstance(val, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in val.items())
    elif isinstance(val, list):
        items = ((f"{path}[{k}]", v) for k, v in enumerate(val))
    else:
        return path if isinstance(val, float) and not math.isfinite(val) else None
    return next(filter(None, (_non_finite(v, p) for p, v in items)), None)


def stamp_field():
    """A keyword-only field of the stream stamp (see :class:`_Stamped`):
    None, and left out of the JSON, in records of analytic results."""
    return field(default=None, kw_only=True, metadata={"json": "unless None"})


def stream_stamp(record) -> dict:
    """The stamp fields of a :class:`_Stamped` record that are set, in
    declaration order: empty for an analytic result."""
    return {f.name: getattr(record, f.name) for f in fields(_Stamped)
            if getattr(record, f.name) is not None}


class Record:
    """Base of the result records, which are frozen dataclasses."""

    def to_json(self) -> str:
        """The record as a JSON document (see :func:`document`)."""
        return document(self)


@dataclass(frozen=True)
class DiffusionModel:
    """Controlled Ito diffusion on a finite horizon.

    drift(t, x, u) must accept x of shape (paths, n) and u of the same shape
    (or None when no control is installed) and return (paths, n).
    diffusion(t) returns the n x n matrix sigma(t).  control_law(t, x) maps
    the ensemble state to the control; None means zero control.  A and
    sigma, set together or not at all, are the constant n x n matrices of
    a linear model dx = A x dt + sigma dW; such a model takes no
    control_law (see :func:`linear_model`, which builds it).  The record
    checks its fields when it is built and holds the initial law, A and
    sigma as read-only copies.

    The simulator steps a model with A and sigma from them, at weak order
    2, and any other by the weak Euler scheme, order 1; the routes and
    their default grids are set out at :func:`_euler_maruyama`.  Both
    use two-point increments +-sqrt(dt), so the paths are not Gaussian
    at finite dt, and ipflab reads only expectations of them.  The
    simulator runs in one thread and calls every callback in it, once
    per grid point, the last included, on the whole ensemble: a callback
    may read all of it and needs no locking.  It compares sigma(t) by
    its bytes with the sigma in force, and its consumers get a read-only
    array of that sigma, the same object until the bytes change.  On the
    matrix route sigma(t) must have sigma's bytes and the drift must give
    A x bit for bit, as linear_model's callbacks and wrappers of them do:
    the simulator refuses a model whose callbacks give other dynamics,
    rather than step the matrices they contradict.  x is a column-major
    view, x.T being C-contiguous, of a buffer the simulator reuses, so a
    callback that keeps the state beyond the call must copy it.
    """

    n: int
    drift: Callable
    diffusion: Callable
    initial_mean: np.ndarray
    initial_cov: np.ndarray
    horizon: tuple
    control_law: Optional[Callable] = None
    A: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        require_int(self.n, "n", lo=1)
        mean = require_finite(self.initial_mean, "initial_mean", shape=(self.n,))
        cov = require_finite(self.initial_cov, "initial_cov",
                             shape=(self.n, self.n))
        if not np.allclose(cov, cov.T):
            raise InputError("initial_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-12:
            raise InputError("initial_cov must be positive semi-definite")
        # the horizon itself is kept as given: EntropyEstimate writes it
        s, t_end = require_finite(self.horizon, "horizon", shape=(2,))
        require_finite(float(t_end) - float(s), "horizon length T - s",
                       positive=True)
        arrays = {"initial_mean": mean, "initial_cov": cov}
        if self.A is not None or self.sigma is not None:
            if self.A is None or self.sigma is None:
                missing = "A" if self.A is None else "sigma"
                raise InputError(f"{missing} must be a finite number, not None, "
                                 "as A and sigma must be given together")
            if self.control_law is not None:
                raise InputError("a model with A and sigma takes no control_law: "
                                 "give the controlled model its own drift")
            for name in ("A", "sigma"):
                arrays[name] = require_finite(getattr(self, name), name,
                                              shape=(self.n, self.n))
        _hold(self, arrays)


def _hold(record, arrays: dict):
    """Set the record's fields to read-only copies of the arrays it has
    checked: the caller's arrays stay the caller's, and no later write
    to them gets past the record's checks."""
    for name, arr in arrays.items():
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def linear_model(A, sigma, mean0, cov0, horizon) -> DiffusionModel:
    """The linear model dx = A x dt + sigma dW from N(mean0, cov0) on the
    horizon (s, T), with constant n x n matrices A and sigma (numbers at
    n = 1).

    The record carries A and sigma, so the simulator steps it at weak
    order 2 from them (see :func:`_steps`).  Its drift and diffusion
    callbacks read the record's own read-only copies, so they give the
    same model to any other reader, the drift by the simulator's own
    product (see :func:`_times`), so it has the bits of the simulator's
    A x.  The model takes no control law: a controlled model needs its
    own drift.  Under the doubling feedback v = -2x, A (x + v) is (-A) x:
    pass -A for it.  Refuses a non-square A here, n being its size; the
    record refuses the rest (see :class:`DiffusionModel`).
    """
    A = require_finite(A, "A", shape=(None, None))
    if A.shape[0] != A.shape[1]:
        raise InputError(f"A has shape {A.shape}, not square")

    def drift(t, x, u):
        return _times(model.A, x.T).T

    model = DiffusionModel(n=len(A), drift=drift,
                           diffusion=lambda t: model.sigma,
                           initial_mean=mean0, initial_cov=cov0,
                           horizon=horizon, A=A, sigma=sigma)
    return model


def _times(mat, v, out=None):
    """mat v, for an n x n mat and an (n, paths) v: one matmul, but at
    n = 1 a plain multiply by the number mat[0, 0], with no 1 x 1 BLAS
    product, whose bits could depend on the host."""
    if len(mat) == 1:
        return np.multiply(v, mat[0, 0], out=out)
    return np.matmul(mat, v, out=out)


@dataclass(frozen=True)
class _Stamped:
    """First base of the records of Monte Carlo results: the stream stamp
    that :func:`_euler_maruyama` returns and that fixes the result's bits
    (stream version, scheme, seed, paths, dt).  Its fields come first in
    such a record, so the record's JSON carries the stamp at its head."""

    stream_version: Optional[str] = stamp_field()
    scheme: Optional[str] = stamp_field()
    seed: Optional[int] = stamp_field()
    n_paths: Optional[int] = stamp_field()
    dt: Optional[float] = stamp_field()


@dataclass(frozen=True)
class EnsembleStats(_Stamped, Record):
    """Per-time moments of an ensemble, simulated or analytic.

    r is the (non-centered) second-moment matrix E[x x^T]; grid, mean and r
    are all that identification and control read.  r_dot, its derivative,
    is filled by :func:`covariance_derivative` for the written record, and
    r_dot_method names how it was formed.  A simulated ensemble's JSON
    carries its stream stamp, an analytic one's none.

    The record checks its arrays once, when it is built, and holds
    read-only float copies of them: a grid of strictly increasing times
    (see :func:`require_times`); a finite r of shape (T, n, n) with
    n >= 1 for the grid's T points; a finite mean of shape (T, n); and an
    r_dot, when set, finite and of r's shape.  Each is refused by name,
    so a reader trusts them.
    """

    grid: np.ndarray            # (T,)
    mean: np.ndarray            # (T, n)
    r: np.ndarray               # (T, n, n)
    r_dot_method: Optional[str] = field(default=None,
                                        metadata={"json": "unless None"})
    r_dot: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = require_times(self.grid, "grid")
        r = require_finite(self.r, "r")
        n = r.shape[-1] if r.ndim == 3 else 0
        if n < 1 or r.shape != (len(grid), n, n):
            raise InputError(f"r has shape {r.shape}, not (T, n, n) with n >= 1 "
                             f"for the grid's T = {len(grid)}")
        arrays = dict(grid=grid, r=r,
                      mean=require_finite(self.mean, "mean", shape=(len(grid), n)))
        if self.r_dot is not None:
            arrays["r_dot"] = require_finite(self.r_dot, "r_dot", shape=r.shape)
        _hold(self, arrays)

    @property
    def n(self) -> int:
        return self.mean.shape[1]

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest t, a number on the grid's span up
        to a relative 1e-9."""
        require_finite(t, "t", shape=())
        lo, hi = self.grid[0], self.grid[-1]
        tol = 1e-9 * (hi - lo)
        if not lo - tol <= t <= hi + tol:
            raise InputError(f"t={t} is outside the grid [{lo}, {hi}]")
        return int(np.argmin(np.abs(self.grid - t)))

    def r_at(self, t: float) -> np.ndarray:
        return self.r[self.index_of(t)]

    def r_dot_at(self, t: float) -> np.ndarray:
        """Backward difference of r at t, symmetrized: the correct branch at a
        control-switch moment.  Forward at grid[0], as r_dot[0] is.  Refused
        where it overflows, on a cell too short for the change of r."""
        if len(self.grid) < 2:
            raise InputError("r_dot needs at least 2 grid points")
        i = max(self.index_of(t), 1)
        with np.errstate(over="ignore", invalid="ignore"):
            d = (self.r[i] - self.r[i - 1]) / (self.grid[i] - self.grid[i - 1])
            d = 0.5 * (d + d.T)
        require_finite(d, f"r_dot at t={t}")
        return d

    def to_csv(self) -> str:
        n = self.n
        out = io.StringIO()
        w = csv.writer(out)
        header = (["t"] + [f"mean_{i}" for i in range(n)]
                  + [f"r_{i}{j}" for i in range(n) for j in range(n)]
                  + [f"rdot_{i}{j}" for i in range(n) for j in range(n)])
        w.writerow(header)
        for k, t in enumerate(self.grid):
            row = [t] + list(self.mean[k]) + list(self.r[k].ravel())
            if self.r_dot is not None:
                row += list(self.r_dot[k].ravel())
            else:
                row += [""] * (n * n)
            w.writerow(row)
        return out.getvalue()


def _euler_maruyama(model: DiffusionModel, n_paths: int, dt, seed: int):
    """The one kernel: returns (grid, stamp, steps).

    Checks the arguments at once.  A linear model held as its matrices
    takes the matrix route, weak order 2, and every other model the
    callback route, the weak Euler scheme of order 1 (see :func:`_steps`).
    dt defaults to a thousandth of the horizon on the callback route, and
    on the matrix route to horizon/(100 m) for the smallest m with
    rho(A) dt <= 0.1, m at most 10: a stiff A takes at most the callback
    route's thousand steps, and the quarter points of the horizon stay
    on the grid.  dt must divide the horizon, and on the matrix route a
    dt under which the step grows a decaying mode of A more than twofold
    over the horizon is refused.  stamp holds the record's stream stamp
    fields, the route's scheme ("weak2-linear" or "euler") among them.
    steps is a generator of (t, x, a, sig) at every grid point, the last
    included: the ensemble x, the drift a there as the callback gives it,
    and sig, a read-only array of the sigma in force, the same object
    until sigma(t)'s bytes change.  x lives in one of two buffers that
    the kernel reuses: it stays valid until the point after next is
    requested, and consumers never write to it.  x is the (paths, n) view
    of a component-major (n, paths) buffer, so x.T is C-contiguous.  The
    generator raises SimulationDivergedError with the first bad time if
    any path leaves the finite range, and InputError naming t where
    drift(t) is not (paths, n), sigma(t) is not a finite n x n matrix or
    too large for dt (see :func:`_steps`), or, on the matrix route,
    either differs from A x or sigma.  Everything runs in the caller's
    thread; the kernel starts no other.
    """
    require_int(n_paths, "n_paths", lo=2)
    require_int(seed, "seed", lo=0, hi=2 ** 64 - 1)
    s, t_end = model.horizon
    matrices = model.A is not None
    if matrices:
        lam = np.linalg.eigvals(model.A)
    if dt is None and matrices:
        # an order-2 step reaches a smaller bias with a tenth of the
        # steps, while |A dt| stays small
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.abs(lam).max() * (t_end - s)
        refine = max(1, math.ceil(span / 10)) if span <= 100 else 10
        dt = (t_end - s) * 1e-2 / refine
    elif dt is None:
        dt = (t_end - s) * 1e-3
    require_finite(dt, "dt", positive=True, shape=())
    steps = float(t_end - s) / float(dt)
    # past 2**53 a step count is not exact in a float: no dt that small divides
    require_finite(steps, f"the step count of dt={dt}", hi=2 ** 53)
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * dt - (t_end - s)) > 1e-9 * (t_end - s):
        raise InputError(f"dt={dt} does not divide the horizon {model.horizon}")
    if matrices:
        # the step multiplies a mode of A with eigenvalue lam by
        # 1 + w + w^2/2, w = lam dt, which for a real w is below 1 in
        # modulus on (-2, 0) only; near the imaginary axis it is just
        # above 1, so a lightly damped mode may grow a little
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = lam * dt
            growth = n_steps * np.log(np.abs(1 + w + w * w / 2))
        bad = (lam.real < 0) & ~(growth <= LN2)
        if bad.any():
            raise InputError(f"dt={dt} is too coarse for A: the order-2 step "
                             "would grow a decaying mode of A more than "
                             "twofold over the horizon; take a smaller dt")
    grid = s + dt * np.arange(n_steps + 1)
    stamp = dict(stream_version=STREAM_VERSION,
                 scheme="weak2-linear" if matrices else "euler",
                 seed=int(seed), n_paths=int(n_paths), dt=dt)
    return grid, stamp, _steps(model, grid, dt, n_paths, seed, matrices)


def _steps(model, grid, dt, n_paths, seed, matrices):
    """Generator behind :func:`_euler_maruyama`; z below has independent
    components +-sqrt(dt), each sign with probability 1/2.

    Two routes, chosen from the model alone.  The matrix route, for a
    model that carries A and sigma, steps x' = M x + (G sigma) z with
    M = I + A dt + (A dt)^2 / 2 and G = I + A dt / 2, both formed once
    per run.  For additive noise this is Platen's explicit weak order-2.0
    scheme evaluated exactly on a linear drift (Kloeden & Platen,
    Numerical Solution of SDEs, 1992, sec. 15.1).  Its mean and E[x x^T]
    follow m' = M m, R' = M R M^T + G sigma sigma^T G^T dt, which use
    only E z = 0 and E z z^T = dt I, and each step matches the exact law
    to O(dt^3); so the two-point increments keep weak order 2 here.  A
    nonlinear drift would need three-point increments for order 2
    (+-sqrt(3 dt) with probability 1/6 each, 0 with 2/3; sec. 14.2).
    Every other model takes the callback route, x' = x + a dt + sig z:
    the simplified weak Euler scheme (sec. 14.1), whose increments match
    the first three moments of N(0, dt I), which is all weak order 1
    needs.  On both routes the paths are not Gaussian at finite dt, and
    ipflab reads only expectations of them (moments and the entropy
    functional's mean).  Both call the callbacks at every grid point and
    compare sigma(t) once there, by its bytes, with the sigma in force;
    the one branch where they differ refuses it on the matrix route, and
    on the callback route takes it and forms its noise.  The matrix
    route also refuses a drift other than A x, bit for bit, formed by
    :func:`_times` into the noise buffer before the noise is drawn.

    Stream STREAM_VERSION: SeedSequence(seed) spawns two children.  The
    first drives an SFC64 generator: the initial law is mean + z F^T, z
    standard normal (paths, n), F the Cholesky factor if eigvalsh finds the
    covariance positive definite, else eigh's vectors times sqrt(s), with
    the eigenvalues in [-1e-12, 0) the model admits as zero (numpy's
    multivariate_normal, whose bits these are otherwise, takes sqrt(|s|)).
    The second drives one SFC64 bit generator.  Each step takes
    ceil(n_paths * n / 64) fresh words from it, read as little-endian bytes
    on every host; bit i of the step (bit i % 64 of word i // 64) is the
    sign of z's i-th entry in row-major (path, component) order, 0 for
    +sqrt(dt) and 1 for -sqrt(dt).  z is formed as s - 2 s bit with s =
    sqrt(dt), which is exact.  The noise term is g z, with g = sig on the
    callback route and g = G sigma on the matrix route.  For a diagonal
    g, as every g is at n = 1, component i of it is formed the same way
    from +-(s g_ii): the exact products (+-s) g_ii, which are the bits of
    g z, its other terms being signed zeros.  Only a g with an
    off-diagonal entry mixes the noise as g z, one matmul of the n x n g
    by the (n, paths) z, into a buffer made when first needed.  A
    diagonal g whose +-(s g_ii) are finite but whose 2 s g_ii overflows
    would give a NaN z, and is refused by name.  At
    n = 1 the matrix route's M x and A x are plain multiplies by the
    numbers M and A.  So the bits depend on (seed, n_paths, dt) and the
    scheme, all in the stamp; the noise of a diagonal g takes no BLAS
    product at any n, and at n = 1 the bits do not depend on the host's
    SIMD or BLAS either.

    The ensemble and the step buffers are held component-major, as
    C-contiguous (n, paths) arrays; callbacks and the consumer get the
    (paths, n) view x.T.  At n >= 2 the matrix route forms M x and A x
    as matmuls, and the callback route reads the drift through its
    transpose.  The layout moves no bit: tests/test_kernel.py holds both
    entry points on the callback route to a row-major x + a dt + z sig^T
    loop, and the matrix route, for diagonal matrices, to x M^T + z g^T.

    The callbacks, the noise draw, the update and the consumer all run in
    the caller's thread, once per grid point (the last included) on the
    whole ensemble; the kernel starts no thread.
    """
    init_seq, noise_seq = np.random.SeedSequence(int(seed)).spawn(2)
    n = model.n
    cov = model.initial_cov
    if not cov.any():
        x = np.tile(model.initial_mean, (n_paths, 1))
    else:
        # eigvalsh decides: eigh's eigenvalues can differ in sign on a singular cov
        if np.linalg.eigvalsh(cov).min() > 0:
            factor = np.linalg.cholesky(cov)
        else:
            s, u = np.linalg.eigh(cov)
            factor = u * np.sqrt(np.where(s > 0, s, 0.0))
        rng0 = np.random.Generator(np.random.SFC64(init_seq))
        x = model.initial_mean + rng0.standard_normal((n_paths, n)) @ factor.T
    x = np.ascontiguousarray(x.T)
    shape = (n_paths, n)
    signs = np.random.SFC64(noise_seq)
    size = x.size
    words = -(-size // 64)
    scale = math.sqrt(dt)
    nxt = np.empty_like(x)
    z = np.empty_like(x)
    # dw, the mixed noise, is made when a g with an off-diagonal entry
    # first needs it; held is the bytes of the sigma in force
    dw = held = None
    finite = np.empty(x.shape, dtype=bool)
    off = ~np.eye(n, dtype=bool)
    last = len(grid) - 1
    for k, t in enumerate(grid):
        xt = x.T
        u = model.control_law(t, xt) if model.control_law is not None else None
        a = model.drift(t, xt, u)
        if np.shape(a) != shape:
            raise InputError(f"drift({t}) has shape {np.shape(a)}, not {shape}")
        sig = require_finite(model.diffusion(t), f"sigma({t})", shape=(n, n))
        form = sig.tobytes()
        if form != held:
            # the one place sigma is decided: on the matrix route at the
            # first point only, as later bytes must be the model's
            if matrices and form != model.sigma.tobytes():
                raise InputError(f"sigma({t}) is not the model's sigma; {_OTHER}")
            # order "K" keeps the layout, and so the bits of BLAS products
            held, fixed = form, model.sigma if matrices else sig.copy(order="K")
            fixed.setflags(write=False)
            g = fixed
            if matrices:
                # overflow here is caught by the finiteness check of the first step
                ad = model.A * dt
                step = np.eye(n) + ad + (ad @ ad) / 2
                g = (np.eye(n) + ad / 2) @ fixed
            # a diagonal g's g z is (+-s) g_ii plus signed zeros, so
            # component i picks from +-(s g_ii) directly: no matmul
            mixes = g[off].any()
            v = scale if mixes else scale * g.diagonal()[:, None]
            w = -2.0 * v
            if np.isfinite(v).all() and not np.isfinite(w).all():
                what = "(I + A dt/2) sigma" if matrices else f"sigma({t})"
                raise InputError(f"{what} is too large for dt={dt}: twice "
                                 "sqrt(dt) times a diagonal entry overflows")
            if mixes and dw is None:
                dw = np.empty_like(x)
        # z and finite are free until the step: A x and the compare go there
        if matrices and not _same(a, _times(model.A, x, out=z).T, finite.T):
            raise InputError(f"drift({t}) is not the model's A x; {_OTHER}")
        yield t, xt, a, fixed
        if k == last:
            return
        if matrices:
            _times(step, x, out=nxt)
        else:
            # same operations, in the same order, as x + a * dt + z @ sig.T
            # on rows; nxt is never x, so a drift that returns x itself
            # stays intact
            np.multiply(np.transpose(a), dt, out=nxt)
            nxt += x
        # no step reads the drift again: the next drift call may take its
        # memory, which keeps the peak RSS down
        del a
        raw = signs.random_raw(words).astype("<u8", copy=False)
        bits = np.unpackbits(raw.view(np.uint8), count=size, bitorder="little")
        # v - 2 v bit is +-v exactly
        np.multiply(bits.reshape(shape).T, w, out=z)
        z += v
        nxt += np.matmul(g, z, out=dw) if mixes else z
        if not np.isfinite(nxt, out=finite).all():
            raise SimulationDivergedError(grid[k + 1])
        x, nxt = nxt, x


def _same(a, b, out) -> bool:
    """a and b, of one shape, hold the same numbers, a NaN matching a NaN:
    BLAS kernels that add two overflowing products of opposite sign make
    one.  The compare writes into the bool buffer out; equal_nan's pass
    runs only on a mismatch, as it costs thirty times a plain compare."""
    return (np.equal(a, b, out=out).all()
            or np.array_equal(a, b, equal_nan=True))


def _moment_reducer(n_paths: int, n: int):
    """reduce(x, mean, r): the mean and E[x x^T] of an (n_paths, n) ensemble,
    written into mean and r.

    Built once per run, with its buffers; the one reducer for every n and
    every path count.  It reads the components as the rows of x.T, which
    is the kernel's own buffer and costs no copy; any other x is copied
    component-major once.  The paths are taken in blocks of _BLOCK, the
    last one shorter.  Each component row of a block, and each product
    row x_i x_j for i <= j, formed in one reused (block,) buffer, is
    summed by a contiguous np.add.reduce: numpy's pairwise sum, whose
    error grows like eps log N, not eps N as a sum in path order does.
    The block sums are then added in block order, and r is filled
    symmetrically from the sums for i <= j.  The bits depend on
    (n_paths, n) only, also across numpy's SIMD dispatch levels and the
    layout of x, and the extra memory is one block of doubles.  Silent
    when a product or a sum overflows: that moment is then inf or NaN.
    """
    size = min(n_paths, _BLOCK)
    starts = range(0, n_paths, _BLOCK)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    prod = np.empty(size)
    sums = np.empty((len(starts), n + len(pairs)))
    # r[i, j] = r[j, i] is the sum of x_i x_j for i <= j
    upper = np.array([[n + pairs.index((min(i, j), max(i, j)))
                       for j in range(n)] for i in range(n)])

    def reduce(x, mean, r):
        rows = np.ascontiguousarray(x.T)
        with np.errstate(over="ignore", invalid="ignore"):
            for s, lo in zip(sums, starts):
                c = rows[:, lo:lo + size]
                np.add.reduce(c, axis=1, out=s[:n])
                p = prod[:c.shape[1]]
                for k, (i, j) in enumerate(pairs):
                    s[n + k] = np.add.reduce(np.multiply(c[i], c[j], out=p))
            total = np.add.reduce(sums, axis=0)
        total /= n_paths
        mean[:] = total[:n]
        r[:] = total[upper]

    return reduce


def simulate_ensemble(model: DiffusionModel, n_paths: int, dt: float = None,
                      seed: int = 0) -> EnsembleStats:
    """Moments of a weak-scheme ensemble of the controlled diffusion, by
    the route and on the default grid the kernel picks (see
    :func:`_euler_maruyama`).  Deterministic for a fixed stamp: (seed,
    n_paths, dt) and the scheme.  Raises the kernel's InputError and
    SimulationDivergedError, and NonFiniteOutputError if a moment
    overflows.
    """
    grid, stamp, steps = _euler_maruyama(model, n_paths, dt, seed)
    n = model.n
    means = np.empty((len(grid), n))
    rs = np.empty((len(grid), n, n))
    reduce = _moment_reducer(n_paths, n)
    # a step past the float range is the kernel's SimulationDivergedError,
    # not numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (_, x, _, _) in enumerate(steps):
            reduce(x, means[k], rs[k])
    require_finite(rs, "the second moments r", error=NonFiniteOutputError)
    return EnsembleStats(grid=grid, mean=means, r=rs, **stamp)


def covariance_derivative(stats: EnsembleStats) -> EnsembleStats:
    """Fill r_dot by finite differences: central inside, one-sided at the ends.

    Raises InputError if r_dot is not finite, as when the grid spacing is so
    small that np.gradient's products of spacings underflow to zero.
    """
    grid = stats.grid
    if len(grid) < 3:
        raise InputError("grid needs at least 3 points for differentiation")
    r = stats.r
    with np.errstate(all="ignore"):
        r_dot = np.gradient(r, grid, axis=0)
        r_dot = 0.5 * (r_dot + np.transpose(r_dot, (0, 2, 1)))
    if not np.isfinite(r_dot).all():
        bad = int(np.argmin(np.isfinite(r_dot).all(axis=(1, 2))))
        raise InputError(f"r_dot is not finite at t={grid[bad]:.6g} on a grid "
                         f"of spacing {np.min(np.diff(grid)):.6g}")
    return replace(stats, r_dot=r_dot, r_dot_method="central-difference")


def stats_from_covariance(grid, r, mean=None) -> EnsembleStats:
    """Wrap analytically known moments in the EnsembleStats container.

    r is (T, n, n), or (T,) for n = 1, taken as (T, 1, 1); mean is (T, n),
    zero by default.  The record checks them and holds read-only copies
    (see :class:`EnsembleStats`); the caller's arrays are untouched.
    """
    r = require_finite(r, "r")
    if r.ndim == 1:
        r = r[:, None, None]
    # a mean for a bad r is not needed: the record refuses r first
    if mean is None and r.ndim == 3:
        mean = np.zeros(r.shape[:2])
    return EnsembleStats(grid=grid, mean=mean, r=r)
