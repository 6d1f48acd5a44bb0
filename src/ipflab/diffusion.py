"""Microlevel controlled diffusion: Euler-Maruyama ensembles and their moments.

The model is the Ito equation

    dx = a(t, x, u) dt + sigma(t) dW,      u = control_law(t, x),

simulated over an ensemble of paths.  The ensemble is reduced to the time
grid of second-moment matrices r(t) = E[x x^T] and means, which is all the
identification and entropy machinery downstream needs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import threading
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NonFiniteOutputError, SimulationDivergedError

# constants shared by every module; this one imports no other ipflab module
SCHEMA_VERSION = "2"
# the definition of the simulated numbers: a fixed (seed, n_paths, dt) gives
# the same bits only under the same stream version, which covers both the
# noise draws (see _steps) and the moment reduction (see _moment_reducer)
STREAM_VERSION = "4"
LN2 = math.log(2.0)
# condition number above which a matrix that must be inverted is refused
COND_MAX = 1e12

# the paths are taken in blocks of this many: each block draws its noise
# from its own stream, and the moment sums run over the same blocks, so the
# draws and the order of the sums depend on n_paths alone
_BLOCK = 2 ** 15


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
    """A keyword-only record field for what fixes the bits of a Monte Carlo
    result (stream version, seed, paths, dt): None, and left out of the
    JSON, in records of analytic results.  Records declare these fields
    first, in that order, so their JSON carries the stamp at its head."""
    return field(default=None, kw_only=True,
                 metadata={"json": "unless None", "stamp": True})


def stream_stamp(record) -> dict:
    """The record's stamp fields that are set, in declaration order: empty
    for an analytic result."""
    return {f.name: getattr(record, f.name) for f in fields(record)
            if f.metadata.get("stamp") and getattr(record, f.name) is not None}


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
    the ensemble state to the control; None means zero control.  The
    simulator calls every callback in the calling thread, once per grid
    point, on the whole ensemble, so a callback may read the whole
    ensemble and needs no locking.  It reuses the array it passes as x, so
    a callback that keeps the state beyond the call must copy it.
    """

    n: int
    drift: Callable
    diffusion: Callable
    initial_mean: np.ndarray
    initial_cov: np.ndarray
    horizon: tuple
    control_law: Optional[Callable] = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.initial_mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.initial_cov, dtype=float))
        if mean.shape != (self.n,) or cov.shape != (self.n, self.n):
            raise InputError(f"initial law has wrong shape for n={self.n}")
        if not np.allclose(cov, cov.T):
            raise InputError("initial_cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-12:
            raise InputError("initial_cov must be positive semi-definite")
        s, t_end = self.horizon
        if not (math.isfinite(s) and math.isfinite(t_end)):
            raise InputError(f"horizon {self.horizon} must be finite")
        if not t_end > s:
            raise InputError("horizon must satisfy T > s")
        object.__setattr__(self, "initial_mean", mean)
        object.__setattr__(self, "initial_cov", cov)


@dataclass(frozen=True)
class EnsembleStats(Record):
    """Per-time moments of an ensemble, simulated or analytic.

    r is the (non-centered) second-moment matrix E[x x^T]; grid, mean and r
    are all that identification and control read.  r_dot, its derivative,
    is filled by :func:`covariance_derivative` for the written record, and
    r_dot_method names how it was formed.  A simulated ensemble's JSON
    carries its stream stamp, an analytic one's none.
    """

    stream_version: Optional[str] = stamp_field()
    seed: Optional[int] = stamp_field()
    n_paths: Optional[int] = stamp_field()
    dt: Optional[float] = stamp_field()
    grid: np.ndarray            # (T,)
    mean: np.ndarray            # (T, n)
    r: np.ndarray               # (T, n, n)
    r_dot_method: Optional[str] = field(default=None,
                                        metadata={"json": "unless None"})
    r_dot: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.mean.shape[1]

    def index_of(self, t: float) -> int:
        """Index of the grid point nearest t; t must lie on the grid's span
        up to a relative 1e-9."""
        lo, hi = self.grid[0], self.grid[-1]
        tol = 1e-9 * (hi - lo)
        if not lo - tol <= t <= hi + tol:
            raise InputError(f"t={t} is outside the grid [{lo}, {hi}]")
        return int(np.argmin(np.abs(self.grid - t)))

    def r_at(self, t: float) -> np.ndarray:
        return self.r[self.index_of(t)]

    def r_dot_at(self, t: float) -> np.ndarray:
        """Backward difference of r at t, symmetrized: the correct branch at a
        control-switch moment.  Forward at grid[0], as r_dot[0] is."""
        if len(self.grid) < 2:
            raise InputError("r_dot needs at least 2 grid points")
        i = max(self.index_of(t), 1)
        d = (self.r[i] - self.r[i - 1]) / (self.grid[i] - self.grid[i - 1])
        return 0.5 * (d + d.T)

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


def _euler_maruyama(model: DiffusionModel, n_paths: int, dt, seed: int,
                    drift_at_end: bool = False):
    """The one Euler-Maruyama kernel: returns (grid, dt, steps).

    Checks the arguments at once.  dt defaults to a thousandth of the
    horizon and must divide it.  steps is a generator of (t, x, a, sig) at
    every grid point: the ensemble x, and the drift a and dispersion sig
    evaluated there, which the next step uses.  At the last point a and
    sig are None unless drift_at_end.  x lives in one of two buffers that
    the kernel reuses: it stays valid until the point after next is
    requested, and consumers never write to it.  The generator raises
    SimulationDivergedError with the first bad time if any path leaves the
    finite range.  The noise is drawn by one draw thread, up to two steps
    ahead, and by the caller's thread where the draw thread has not
    started a block of the step it needs; the draw thread lives only while
    the generator runs.  The callbacks and the consumer run in the
    caller's thread (see :func:`_steps`).
    """
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)):
        raise InputError(f"n_paths must be an integer, not {n_paths!r}")
    if n_paths < 2:
        raise InputError("n_paths must be >= 2")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InputError(f"seed must be an integer, not {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise InputError(f"seed={seed} is outside [0, 2**64)")
    s, t_end = model.horizon
    if dt is None:
        dt = (t_end - s) * 1e-3
    if not dt > 0:
        raise InputError("dt must be positive")
    n_steps = int(round((t_end - s) / dt))
    if n_steps < 1 or abs(n_steps * dt - (t_end - s)) > 1e-9 * (t_end - s):
        raise InputError(f"dt={dt} does not divide the horizon {model.horizon}")
    grid = s + dt * np.arange(n_steps + 1)
    return grid, dt, _steps(model, grid, dt, n_paths, seed, drift_at_end)


def _steps(model, grid, dt, n_paths, seed, drift_at_end):
    """Generator behind :func:`_euler_maruyama`.

    Stream STREAM_VERSION: SeedSequence(seed) spawns two children.  The
    first drives an SFC64 generator that samples the initial law, by
    Cholesky when its covariance is positive definite and by eigh
    otherwise, as numpy's multivariate_normal does, except that the
    eigenvalues in [-1e-12, 0) the model admits are sampled as zero
    (numpy scales by sqrt(|s|)).  The second spawns one child per block of
    _BLOCK paths, the last block shorter, and each drives an SFC64
    generator that draws its block's (path, component) normals one step
    at a time.  For a sequential generator that is the same sequence, bit
    for bit, as drawing the block's whole (step, path, component) tensor
    at once, so memory stays O(paths * n), and the bits depend on
    (seed, n_paths, dt) alone: not on which thread drew a block, on the
    number of CPUs or on timing (see :class:`_NoiseDraw`).

    Drift, sigma and control callbacks, the Euler update and the consumer
    all run in the caller's thread, once per grid point on the whole
    ensemble.  An exception raised by a draw is raised here, whichever
    thread drew, and the draw thread is joined when the generator ends,
    is closed or raises.
    """
    init_seq, noise_seq = np.random.SeedSequence(int(seed)).spawn(2)
    if not model.initial_cov.any():
        x = np.tile(model.initial_mean, (n_paths, 1))
    else:
        rng0 = np.random.Generator(np.random.SFC64(init_seq))
        if np.min(np.linalg.eigvalsh(model.initial_cov)) > 0:
            x = rng0.multivariate_normal(model.initial_mean, model.initial_cov,
                                         size=n_paths, method="cholesky")
        else:
            s, u = np.linalg.eigh(model.initial_cov)
            factor = u * np.sqrt(np.where(s > 0, s, 0.0))
            x = model.initial_mean + rng0.standard_normal((n_paths, model.n)) @ factor.T
    starts = range(0, n_paths, _BLOCK)
    gens = [np.random.Generator(np.random.SFC64(seq))
            for seq in noise_seq.spawn(len(starts))]
    nxt = np.empty_like(x)
    # at n = 1 the noise is scaled in place: no (paths, n) buffer, 0.8 MB of
    # peak RSS at 1e5 paths
    dw = np.empty_like(x) if model.n > 1 else None
    finite = np.empty(x.shape, dtype=bool)
    last = len(grid) - 1
    noise = _NoiseDraw(gens, x, starts, np.sqrt(dt), last)
    try:
        for k, t in enumerate(grid):
            if k == last and not drift_at_end:
                yield t, x, None, None
                return
            u = model.control_law(t, x) if model.control_law is not None else None
            a = model.drift(t, x, u)
            sig = np.atleast_2d(np.asarray(model.diffusion(t), dtype=float))
            if sig.shape != (model.n, model.n):
                raise InputError(f"sigma({t}) has shape {sig.shape}, not "
                                 f"({model.n}, {model.n})")
            yield t, x, a, sig
            if k == last:
                return
            # same operations, in the same order, as x + a * dt + z @ sig.T;
            # nxt is never x, so a drift that returns x itself stays intact
            np.multiply(a, dt, out=nxt)
            nxt += x
            z = noise.take(k)
            if dw is None:
                nxt += np.multiply(z, sig[0, 0], out=z)
            else:
                nxt += np.matmul(z, sig.T, out=dw)
            noise.release(k)
            if not np.isfinite(nxt, out=finite).all():
                raise SimulationDivergedError(grid[k + 1])
            x, nxt = nxt, x
    finally:
        noise.close()


class _NoiseDraw:
    """The scaled noise of every step, drawn by one draw thread and by the
    caller's thread.

    Block b has its own generator gens[b], which draws the block's normals
    step after step into rows of one of two (paths, n) buffers, step k's
    into bufs[k % 2], and scales them by sqrt(dt).  The draw thread takes
    the (step, block) pieces in order, at most two steps ahead of the
    caller.  take(k), called when step k needs its noise, draws every
    block of step k that the draw thread has not started, from the last
    block down, and waits for the rest; a caller that would wait draws
    instead.  The draw thread takes the blocks of a step from the first
    up, so the two meet in between.  A piece is drawn only after its
    block's previous step, by whichever thread: each generator still
    draws its steps in order.  The draws release the interpreter lock.
    """

    def __init__(self, gens, x, starts, scale, steps):
        self.gens, self.scale, self.steps = gens, scale, steps
        self.bufs = (np.empty_like(x), np.empty_like(x))
        self.blocks = [[buf[lo:lo + _BLOCK] for lo in starts] for buf in self.bufs]
        self.cond = threading.Condition()
        # per block: steps taken by either thread, and steps drawn
        self.claimed = [0] * len(gens)
        self.drawn = [0] * len(gens)
        # steps whose buffer the caller has finished with
        self.released = 0
        self.error = None
        self.stopped = False
        self.thread = threading.Thread(target=self._run, name="ipflab-noise",
                                       daemon=True)
        self.thread.start()

    def _draw(self, k, b):
        z = self.blocks[k % 2][b]
        self.gens[b].standard_normal(out=z)
        z *= self.scale
        with self.cond:
            self.drawn[b] = k + 1
            self.cond.notify_all()

    def _run(self):
        try:
            for k in range(self.steps):
                for b in range(len(self.gens)):
                    with self.cond:
                        self.cond.wait_for(lambda: (
                            self.stopped or self.claimed[b] > k
                            or (k < self.released + 2 and self.drawn[b] == k)))
                        if self.stopped:
                            return
                        if self.claimed[b] > k:
                            continue
                        self.claimed[b] = k + 1
                    self._draw(k, b)
        except BaseException as exc:
            # raised again in the caller's thread, by take
            with self.cond:
                self.error = exc
                self.cond.notify_all()

    def take(self, k):
        """Step k's noise, once each of its blocks is drawn."""
        for b in reversed(range(len(self.gens))):
            with self.cond:
                if self.claimed[b] > k:
                    # the draw thread has this block and every one below it
                    break
                self.claimed[b] = k + 1
            self._draw(k, b)
        with self.cond:
            self.cond.wait_for(lambda: self.error is not None
                               or min(self.drawn) > k)
            if self.error is not None:
                raise self.error
        return self.bufs[k % 2]

    def release(self, k):
        """The caller is done with step k's buffer: step k + 2 may fill it."""
        with self.cond:
            self.released = k + 1
            self.cond.notify_all()

    def close(self):
        """Stop the draw thread after its current piece, and join it."""
        with self.cond:
            self.stopped = True
            self.cond.notify_all()
        self.thread.join()


def _moment_reducer(n_paths: int, n: int):
    """reduce(x, mean, r): the mean and E[x x^T] of an (n_paths, n) ensemble,
    written into mean and r.

    Built once per run, with its buffers; the one reducer for every n and
    every path count.  The paths are taken in blocks of _BLOCK, the
    last one shorter.  Each block is copied component-major into one reused
    (n, block) buffer.  Each component row, and each product row x_i x_j
    for i <= j, formed in one reused (block,) buffer, is summed by a
    contiguous np.add.reduce: numpy's pairwise sum, whose error grows like
    eps log N, not eps N as a sum in path order does.  The block sums are
    then added in block order, and r is filled symmetrically from the sums
    for i <= j.  The bits depend on (n_paths, n) only, also across numpy's
    SIMD dispatch levels, and the extra memory is at most (n + 1) blocks
    of doubles.  Silent when a product or a sum overflows: that moment is
    then inf or NaN.
    """
    size = min(n_paths, _BLOCK)
    starts = range(0, n_paths, _BLOCK)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = np.empty((n, size))
    prod = np.empty(size)
    sums = np.empty((len(starts), n + len(pairs)))
    # r[i, j] = r[j, i] is the sum of x_i x_j for i <= j
    upper = np.array([[n + pairs.index((min(i, j), max(i, j)))
                       for j in range(n)] for i in range(n)])

    def reduce(x, mean, r):
        with np.errstate(over="ignore", invalid="ignore"):
            for s, lo in zip(sums, starts):
                c = cols[:, :min(size, n_paths - lo)]
                np.copyto(c, x[lo:lo + size].T)
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
    """Euler-Maruyama ensemble of the controlled diffusion.

    Deterministic for fixed (seed, n_paths, dt).  dt must divide the
    horizon.  Raises SimulationDivergedError with the first bad time if any
    path leaves the finite range.
    """
    grid, dt, steps = _euler_maruyama(model, n_paths, dt, seed)
    n = model.n
    means = np.empty((len(grid), n))
    rs = np.empty((len(grid), n, n))
    reduce = _moment_reducer(n_paths, n)
    for k, (_, x, _, _) in enumerate(steps):
        reduce(x, means[k], rs[k])
    for arr in (grid, means, rs):
        arr.setflags(write=False)
    return EnsembleStats(grid=grid, mean=means, r=rs, seed=int(seed),
                         n_paths=int(n_paths), dt=dt,
                         stream_version=STREAM_VERSION)


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
    r_dot.setflags(write=False)
    return replace(stats, r_dot=r_dot, r_dot_method="central-difference")


def stats_from_covariance(grid, r, mean=None) -> EnsembleStats:
    """Wrap analytically known moments in the EnsembleStats container.

    The record holds read-only copies; the caller's arrays are untouched.
    """
    grid = np.array(grid, dtype=float)
    r = np.array(r, dtype=float)
    if r.ndim == 1:
        r = r[:, None, None]
    mean = (np.zeros((len(grid), r.shape[1])) if mean is None
            else np.array(mean, dtype=float))
    for arr in (grid, mean, r):
        arr.setflags(write=False)
    return EnsembleStats(grid=grid, mean=mean, r=r)
