"""The input contract, swept over every public entry point.

Each public callable of the eight modules ipflab exports (all but
``errors``) has one row in ROWS: a hypothesis strategy per parameter that
mixes valid values with NaN, +-inf, 0, negatives, the smallest subnormal,
1e308, bools, floats where integers are due, sequences, None and strings
where numbers are due, and arrays of the wrong shape.
Record arguments come from small pools of records, most of them built by
ipflab itself; callbacks are well behaved, except sigma(t), which the
kernel checks.  A call passes if it returns only finite floats (or None
where its docstring says so), or raises an IpfError subclass.  Any other
exception fails it, and so do a RuntimeWarning and any output on stderr
(LAPACK writes its complaints there).  The examples are derandomized and
their number is fixed, and Hypothesis draws some from the constants of
the ipflab modules, all of which tests/conftest.py loads first, so the
sweep is the same on every run, alone or in the full suite.
"""

from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ipflab
from ipflab import (control, diagnostics, diffusion, eigenchain, entropy,
                    identification, invariants, network)
from ipflab.errors import IpfError

NAN, INF = math.nan, math.inf
EDGES = [NAN, INF, -INF, 0.0, -1.0, 5e-324, 1e308, -1e308, True]
# what a scalar parameter must refuse as well: sequences, None and text,
# also text and bools inside a sequence
NOT_NUMBERS = [[0.5, 0.5], np.array([0.5, 0.5]), None, "0.5", ["0.5"],
               ("0.5", "1"), np.array(["0.5"], dtype=object), [True, False]]


def reals(lo=-10.0, hi=10.0):
    """A float in [lo, hi], an edge value or one that is not a number; each
    number drawn as a Python float or as np.float64, whose arithmetic warns
    on overflow where a Python float's gives inf silently."""
    return st.one_of(st.sampled_from(EDGES + NOT_NUMBERS), st.floats(lo, hi)).flatmap(
        lambda v: st.sampled_from([v, np.float64(v)]) if isinstance(v, float)
        else st.just(v))


def ints(lo, hi):
    """An integer in [lo, hi], or 0, a negative, a bool or a float."""
    return st.one_of(st.integers(lo, hi),
                     st.sampled_from([0, -1, True, False, 2.0, 2.5, NAN, INF]))


def _with_edge(args):
    arr, val, k = args
    arr = arr.copy()
    arr.flat[k % arr.size] = val
    return arr


WRONG_SHAPES = [np.ones(()), np.ones(7), np.ones((2, 3)), np.ones((3, 3, 2)),
                np.zeros((0, 2))]


def arrays(shape, lo=-10.0, hi=10.0, good=None):
    """An array of the shape from [lo, hi], or from good if given, with or
    without one entry set to an edge value; or an array of a wrong shape."""
    size = math.prod(shape)
    if good is None:
        good = st.lists(st.floats(lo, hi), min_size=size,
                        max_size=size).map(lambda v: np.reshape(v, shape))
    return st.one_of(good, st.tuples(good, st.sampled_from(EDGES),
                                     st.integers(0, size - 1)).map(_with_edge),
                     st.sampled_from(WRONG_SHAPES))


def squares(*sizes):
    """A square matrix of one of the sizes (see arrays)."""
    return st.one_of(*(arrays((k, k)) for k in sizes))


def increasing(size, lo=-10.0, hi=10.0):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size,
                    unique=True).map(lambda v: np.array(sorted(v)))


def wide(size):
    """size increasing finite times whose middle step, from -1e308 to 1e308,
    leaves the float range, as does their span."""
    return np.concatenate([-np.linspace(1.5e308, 1e308, size // 2),
                           np.linspace(1e308, 1.5e308, size - size // 2)])


# -- pools of record arguments --------------------------------------------

def _model(drift, sigma, mean=(1.0,), cov=((0.0,),), horizon=(0.0, 0.5),
           control_law=None):
    return diffusion.DiffusionModel(
        n=len(mean), drift=drift, diffusion=sigma, initial_mean=list(mean),
        initial_cov=[list(row) for row in cov], horizon=horizon,
        control_law=control_law)


_A2 = np.array([[-1.0, 0.5], [0.0, -2.0]])
MODELS = [
    _model(lambda t, x, u: -x, lambda t: [[1.0]]),
    _model(lambda t, x, u: x @ _A2.T, lambda t: [[1.0, 0.3], [0.0, 0.5]],
           mean=(0.0, 1.0), cov=((1.0, 0.0), (0.0, 0.5))),
    _model(lambda t, x, u: -(x + u), lambda t: [[0.5]],
           control_law=lambda t, x: -2.0 * x),
    # diverges: Euler steps of length 1e297 on dx = -x dt
    _model(lambda t, x, u: -x, lambda t: [[1.0]], horizon=(0.0, 1e300)),
    # finite paths whose moments overflow
    _model(lambda t, x, u: -x, lambda t: [[1.0]], mean=(1e200,)),
    _model(lambda t, x, u: np.full_like(x, 1e200), lambda t: [[1.0]]),
    # sigma(t) is NaN from t = 0.25 on
    _model(lambda t, x, u: -x, lambda t: [[NAN if t >= 0.25 else 1.0]]),
    _model(lambda t, x, u: -x, lambda t: [[0.0]]),
    # linear models, stepped from their matrices
    diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 0.5)),
    diffusion.linear_model(_A2, [[1.0, 0.3], [0.0, 0.5]], [0.0, 1.0],
                           [[1.0, 0.0], [0.0, 0.5]], (0.0, 0.5)),
    # diverges: M = I + A dt + (A dt)^2 / 2 overflows at dt = 1e298
    diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 1e300)),
    diffusion.linear_model(-1.0, 0.0, 1.0, 0.0, (0.0, 0.5)),
]


def _stats():
    grid = np.linspace(0.0, 1.0, 11)
    r1 = 0.5 + 0.5 * np.exp(-2.0 * grid)
    r2 = np.einsum("t,ij->tij", 1.0 + grid, [[1.0, 0.2], [0.2, 0.5]])
    mean2 = np.column_stack([np.exp(-grid), 0.5 * grid])
    pool = [diffusion.stats_from_covariance(grid, r1),
            diffusion.stats_from_covariance(grid, r2, mean=mean2),
            diffusion.stats_from_covariance(grid, np.zeros(11)),
            diffusion.stats_from_covariance(grid, 1e-300 * r1),
            diffusion.stats_from_covariance(grid, 1e300 * r1),
            diffusion.stats_from_covariance(grid * 1e-310, r1),
            diffusion.stats_from_covariance([0.5], [1.0]),
            diffusion.simulate_ensemble(MODELS[0], 8, dt=0.1, seed=1)]
    return pool + [diffusion.covariance_derivative(s) for s in pool[:2]]


STATS = _stats()
SPECTRA = [invariants.optimal_spectrum(n, a) for n in (1, 2, 3, 4)
           for a in (1.0, -1.0, 1e-300)]
INVS = [invariants.invariant_set(g) for g in (0.0, 0.5, 0.8, 1.0)]
# records the constructor takes, outside triplet_accounting's 0 < a <= 3 or
# at its edge; a non-finite field and an ao_abs outside [1e-6, 3] are the
# constructor's named refusals
INVS += [dataclasses.replace(INVS[1], a=val) for val in (-1.0, 5e-324)]
CHAINS = [eigenchain.build_equalization_chain(s, len(s)) for s in SPECTRA[::3]]
SCHEDULES = [control.schedule_from_invariants(INVS[1], SPECTRA[6]),
             network.build_in(5, 0.5, 1.0), 1.0, None, "AB"]

models = st.sampled_from(MODELS)
stats = st.sampled_from(STATS)
n_paths = ints(2, 8)
seeds = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.sampled_from([-1, 2 ** 64, True, 1.0, 1.5, NAN]))
# explicit, as a float strategy could draw a small dt that divides the
# horizon into millions of steps
steps = st.sampled_from([None, 0.1, 0.125, 0.25, 0.3, 1e-77] + EDGES)
taus = reals(0.0, 1.0)
vectors = st.one_of(reals(), arrays((1,)), arrays((2,)))
modes = st.one_of(arrays((20, 2)), st.just(np.column_stack(
    [np.exp(-np.linspace(0, 1, 20)), 2.0 - np.exp(0.5 * np.linspace(0, 1, 20))])))
lines = st.one_of(increasing(20), arrays((20,)),
                  st.sampled_from([np.linspace(0, 1, 20), wide(20)]))

# one row per public callable: a strategy for each of its parameters
ROWS = {
    "diffusion.DiffusionModel": dict(
        n=ints(1, 3), drift=st.just(lambda t, x, u: -x),
        diffusion=st.just(lambda t: 1.0),
        initial_mean=st.one_of(arrays((1,)), arrays((2,))),
        initial_cov=st.one_of(squares(1, 2), st.sampled_from(
            [[[1.0]], np.eye(2), [[-1.0]], [[1.0, 2.0], [3.0, 4.0]]])),
        horizon=st.one_of(st.tuples(reals(), reals()), st.sampled_from(
            [(0.0, 1.0), (-1e308, 1e308), (0.0,), (0.0, 1.0, 2.0), 1.0, True]))),
    "diffusion.linear_model": dict(
        A=st.one_of(squares(1, 2), reals(), st.just(np.ones((2, 3)))),
        sigma=st.one_of(squares(1, 2), reals()),
        mean0=st.one_of(arrays((1,)), arrays((2,)), reals()),
        cov0=st.one_of(squares(1, 2), st.sampled_from(
            [0.0, [[1.0]], np.eye(2), [[-1.0]], [[1.0, 2.0], [3.0, 4.0]]])),
        horizon=st.one_of(st.tuples(reals(), reals()), st.sampled_from(
            [(0.0, 1.0), (0.0,), 1.0]))),
    "diffusion.simulate_ensemble": dict(model=models, n_paths=n_paths,
                                        dt=steps, seed=seeds),
    "diffusion.covariance_derivative": dict(stats=stats),
    # the records that check their own fields
    "diffusion.EnsembleStats": dict(
        grid=st.one_of(increasing(5), arrays((5,))),
        mean=st.one_of(arrays((5, 1)), arrays((5, 2))),
        r=st.one_of(arrays((5, 1, 1)), arrays((5, 2, 2))),
        r_dot=st.one_of(st.none(), arrays((5, 1, 1)), arrays((5, 2, 2)))),
    "invariants.InvariantSet": dict(
        gamma=reals(0.0, 1.0), ao_signed=reals(-3.0, 0.0),
        ao_abs=reals(0.0, 3.0), a=reals(0.0, 1.0), a_formula=reals(0.0, 1.0),
        b_o=reals(), b=reals(), delta_star=reals(), defect=reals()),
    "eigenchain.EigenChain": dict(
        n=ints(1, 4), m=ints(1, 4),
        lambdas=st.one_of(arrays((1, 1)), arrays((1, 3)), arrays((2, 3)),
                          arrays((3, 3))),
        intervals=st.one_of(st.just([]), arrays((1,), 0.0, 10.0),
                            arrays((2,), 0.0, 10.0), arrays((3,), 0.0, 10.0))),
    "diffusion.require_times": dict(
        val=st.one_of(increasing(5), arrays((5,)), st.just(wide(5)),
                      st.sampled_from([[], [0.0, 1.0, 1.0], [[0.0, 1.0]]])),
        name=st.just("t"), strict=st.booleans()),
    "diffusion.stats_from_covariance": dict(
        grid=st.one_of(increasing(5), arrays((5,))),
        r=st.one_of(arrays((5,), 0, 10), arrays((5, 1, 1)), arrays((5, 2, 2))),
        mean=st.one_of(st.none(), arrays((5, 1)), arrays((5, 2)))),
    "entropy.entropy_mc": dict(model=models, n_paths=n_paths, dt=steps,
                               seed=seeds),
    "entropy.entropy_covariance_form": dict(
        u=st.one_of(reals(), st.just(lambda t: 1.0 + t)), stats=stats,
        sigma=st.one_of(reals(), st.just(lambda t: 2.0 - t))),
    "identification.identify_reduced": dict(
        stats=stats, v=st.one_of(vectors, st.just(lambda t: [0.5])),
        tau=taus, b=squares(1, 2)),
    "identification.identify_reduced_feedback": dict(stats=stats, tau=taus,
                                                     b=squares(1, 2)),
    "identification.identify_covariance_ratio": dict(stats=stats, tau=taus),
    "identification.identify_dispersion_window": dict(stats=stats, tau=taus,
                                                      window=reals(0.0, 1.0)),
    "identification.identify_closed_loop": dict(stats=stats, tau=taus,
                                                b=squares(1, 2)),
    "identification.check_constraint": dict(stats=stats, tau=taus,
                                            grad=squares(1, 2)),
    "control.starting_control": dict(stats=stats, at=taus),
    "control.step_control": dict(x_at_dp=vectors),
    "control.needle_control": dict(x_minus=vectors, x_plus=vectors, tau=reals()),
    "control.segment_trajectory": dict(x_at_dp=reals(), lam=reals(),
                                       t=st.one_of(reals(), arrays((5,))),
                                       tau=reals()),
    "control.relative_phase_speed": dict(x=st.one_of(reals(), arrays((3,))),
                                         xdot=st.one_of(reals(), arrays((3,)))),
    "control.detect_dp": dict(grid=lines, modes=modes,
                              modes_dot=st.one_of(st.none(), modes)),
    "control.consolidate_rotation": dict(z_i=reals(), z_j=reals()),
    "control.schedule_from_invariants": dict(
        inv=st.sampled_from(INVS),
        spectrum=st.one_of(st.sampled_from(SPECTRA), arrays((3,)))),
    "eigenchain.eigen_step": dict(lam=reals(), t=reals()),
    "eigenchain.state_step": dict(z=st.one_of(reals(), arrays((3,))),
                                  lam=reals(), t=reals()),
    "eigenchain.terminal_time": dict(t_prev=reals(), lam=reals()),
    "eigenchain.interval_ratios": dict(chain=st.sampled_from(CHAINS)),
    "eigenchain.build_equalization_chain": dict(
        spectrum=st.one_of(st.sampled_from(SPECTRA), arrays((3,)), reals()),
        n=ints(1, 4)),
    "eigenchain.chain_state_trace": dict(chain=st.sampled_from(CHAINS),
                                         z0=reals()),
    "invariants.solve_ao": dict(gamma=reals(0.0, 1.0)),
    "invariants.invariant_a": dict(gamma=reals(0.0, 1.0), ao_abs=reals(0.0, 3.0)),
    "invariants.delta_star": dict(ao_abs=reals(0.0, 3.0), a=reals(0.0, 1.0)),
    "invariants.balance_defect": dict(ao_abs=reals(0.0, 3.0), a=reals(0.0, 1.0)),
    "invariants.lifetime_ratio": dict(
        delta=reals(0.0, 1.0),
        t_intervals=st.one_of(reals(0.0, 1e4), arrays((2,), 0.0, 1e4))),
    "invariants.gamma_ratios": dict(a=reals(0.0, 1.0)),
    "invariants.optimal_spectrum": dict(n=ints(1, 8), alpha1=reals()),
    "invariants.invariant_set": dict(gamma=reals(0.0, 1.0)),
    "network.triplet_accounting": dict(inv=st.sampled_from(INVS)),
    "network.build_in": dict(n=ints(1, 7), gamma=reals(0.0, 1.0),
                             alpha1=reals()),
    "network.emit_code": dict(obj=st.sampled_from(SCHEDULES)),
    "network.max_ratio_check": dict(n=ints(-3, 2000)),
    "diagnostics.lce_local": dict(
        grid=st.one_of(increasing(5), arrays((5,)), st.just(wide(5))),
        x=st.one_of(arrays((5,)), arrays((5,), 0.5, 2.0)),
        window=st.one_of(st.none(), reals())),
    "diagnostics.pfr": dict(A=squares(1, 2)),
    "diagnostics.classify": dict(sigma=reals()),
    "diagnostics.diagnose_segments": dict(
        grid=lines, x=st.one_of(arrays((20,)), arrays((20,), 0.5, 2.0)),
        dps=st.one_of(st.lists(reals(0.0, 1.0), max_size=3), arrays((2,)))),
}

# records that only hold results, and the helpers of the contract and the
# writer, which take what ipflab itself hands them
EXEMPT = {"diffusion.Record", "diffusion.plain",
          "diffusion.document", "diffusion.stamp_field",
          "diffusion.stream_stamp", "diffusion.guarded_inv",
          "diffusion.require_int", "diffusion.require_finite",
          "entropy.EntropyEstimate", "identification.IdentifiedOperator",
          "control.NeedleEvent", "control.Segment", "control.SegmentSchedule",
          "network.TripletReport", "network.InfoNetwork",
          "diagnostics.DiagnosticsReport"}
MODULES = [m for m in ipflab.__all__ if m != "errors"]
# the one documented infinity: the speed at a zero state
INFINITE_OK = {"control.relative_phase_speed"}
# the Monte Carlo rows draw four arguments, each valid about half the time,
# so they take more examples; test_every_model_at_valid_arguments runs each
# model once with all four valid
EXAMPLES = {"diffusion.simulate_ensemble": 50, "entropy.entropy_mc": 50}


def test_every_public_callable_has_a_row():
    public = {f"{m}.{name}" for m in MODULES
              for name, obj in vars(getattr(ipflab, m)).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == f"ipflab.{m}"}
    assert len(MODULES) == 8
    assert public - EXEMPT == set(ROWS), "a public callable without a row"
    assert EXEMPT <= public


def _finite(val, inf_ok=False) -> bool:
    """Whether every float in a result is finite (+inf also, if inf_ok)."""
    if dataclasses.is_dataclass(val):
        return all(_finite(getattr(val, f.name), inf_ok)
                   for f in dataclasses.fields(val))
    if isinstance(val, dict):
        return all(_finite(v, inf_ok) for v in val.values())
    if isinstance(val, (list, tuple)):
        return all(_finite(v, inf_ok) for v in val)
    if isinstance(val, (float, complex, np.ndarray, np.number)):
        arr = np.asarray(val)
        if arr.dtype.kind not in "fc":
            return True
        return bool(np.all(np.isfinite(arr) | (inf_ok & (arr == np.inf))))
    return True


@pytest.mark.parametrize("name", sorted(ROWS))
def test_contract(name, capfd):
    module, attr = name.split(".")
    fn = getattr(getattr(ipflab, module), attr)

    @settings(max_examples=EXAMPLES.get(name, 20), derandomize=True, database=None,
              deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.fixed_dictionaries(ROWS[name]))
    def sweep(kwargs):
        with warnings.catch_warnings():
            # build_in's UserWarning for n < 3 is documented
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", RuntimeWarning)
            try:
                out = fn(**kwargs)
            except IpfError:
                out = None
        assert _finite(out, name in INFINITE_OK), f"{name}(**{kwargs!r}) -> {out!r}"
        assert capfd.readouterr().err == "", f"{name}(**{kwargs!r}) wrote to stderr"

    sweep()


@pytest.mark.parametrize("run", [diffusion.simulate_ensemble, entropy.entropy_mc])
@pytest.mark.parametrize("model", range(len(MODELS)))
def test_every_model_at_valid_arguments(run, model, capfd):
    # the sweep's draws reach a model with all four arguments valid only now
    # and then; here each one runs so
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = run(MODELS[model], 8, dt=0.125, seed=1)
        except IpfError:
            out = None
    assert _finite(out)
    assert capfd.readouterr().err == ""


def _fields(record, **change):
    """The record's fields in declaration order, some changed: the
    positional arguments of its constructor."""
    return tuple({**vars(record), **change}.values())


# the escapes found before the sweep, each refused by an IpfError that names
# its argument
_SIGMA_NAN_AT_HALF = _model(lambda t, x, u: -x,
                            lambda t: [[NAN if t == 0.5 else 1.0]],
                            horizon=(0.0, 1.0))
_DRIFT_1E200 = _model(lambda t, x, u: np.full_like(x, 1e200), lambda t: [[1.0]],
                      horizon=(0.0, 1.0))
_SIGMA_TEXT = _model(lambda t, x, u: -x, lambda t: "a")
_START2 = dict(mean=(0.0, 1.0), cov=((0.0, 0.0), (0.0, 0.0)))
# drifts whose results are not (paths, n): numpy used to broadcast them
_BAD_DRIFTS = [
    (_model(lambda t, x, u: -x[0], lambda t: [[1.0]]), "(1,), not (8, 1)"),
    (_model(lambda t, x, u: -x[0], lambda t: np.eye(2), **_START2),
     "(2,), not (8, 2)"),
    (_model(lambda t, x, u: -x[0, 0], lambda t: np.eye(2), **_START2),
     "(), not (8, 2)"),
    (_model(lambda t, x, u: -x[:1], lambda t: np.eye(2), **_START2),
     "(1, 2), not (8, 2)"),
]
# dispersions whose increments +-sqrt(dt) sigma_ii are finite at dt = 1
# but twice them not: the noise is formed as v - 2 v bit, and such a run
# used to end as SimulationDivergedError at t = 1, or in entropy_mc as a
# 2b that is not finite
_TOO_LARGE = "is too large for dt=1.0"
_HUGE_SIGMAS = [
    (_model(lambda t, x, u: -x, lambda t: np.diag([9e307, 1.0]),
            horizon=(0.0, 2.0), **_START2), f"sigma(0.0) {_TOO_LARGE}"),
    (_model(lambda t, x, u: -x, lambda t: np.diag([1e308, 1.0]),
            horizon=(0.0, 2.0), **_START2), f"sigma(0.0) {_TOO_LARGE}"),
    (_model(lambda t, x, u: -x, lambda t: [[1e308]], horizon=(0.0, 2.0)),
     f"sigma(0.0) {_TOO_LARGE}"),
    (diffusion.linear_model(np.zeros((2, 2)), np.diag([1e308, 1.0]), [0.0, 1.0],
                            np.zeros((2, 2)), (0.0, 2.0)),
     f"(I + A dt/2) sigma {_TOO_LARGE}"),
]
NAMED = [
    (diagnostics.lce_local, ([0.0, NAN, 1.0], [1.0, 2.0, 3.0]), "grid"),
    (diagnostics.lce_local, ([0.0, 0.5, 1.0], [1.0, INF, 3.0]), "x"),
    (diagnostics.pfr, ([[NAN]],), "A"),
    (diagnostics.classify, (NAN,), "sigma"),
    (eigenchain.build_equalization_chain,
     (invariants.optimal_spectrum(3, 1.0), 3.0), "n must be an integer"),
    # interval_ratios used to refuse this chain; its constructor does now
    (eigenchain.EigenChain, (3, 3, [[1.0, 0.5, 0.8], [0.8, 0.2, 0.3]],
                             [0.0, 1.0]), "intervals must be positive"),
    (eigenchain.eigen_step, (NAN, 1.0), "lam"),
    (eigenchain.terminal_time, (NAN, 1.0), "t_prev"),
    (network.build_in, (2.5, 0.5, 1.0), "n must be an integer"),
    (network.build_in, (True, 0.5, 1.0), "n must be an integer"),
    (network.build_in, (2, NAN, NAN), "gamma"),
    (invariants.invariant_a, (NAN, 0.7), "gamma"),
    (invariants.delta_star, (NAN, 0.2), "ao_abs"),
    (invariants.delta_star, (1e200, 0.1), "ao_abs"),
    (invariants.lifetime_ratio, (NAN, [1.0]), "delta"),
    (invariants.solve_ao, (1e308,), "gamma"),
    (invariants.gamma_ratios, (1e308,), "a must be"),
    (invariants.optimal_spectrum, (3, 5e-324), "alpha1=5e-324"),
    (control.segment_trajectory, (NAN, 1.0, [0.0, 1.0]), "x_at_dp"),
    (control.segment_trajectory, (1.0, 1e3, [0.0, 1.0]), "lam=1000.0"),
    (control.step_control, (NAN,), "x_at_dp"),
    (control.needle_control, (NAN, 1.0), "x_at_dp"),
    (control.consolidate_rotation, (NAN, 1.0), "z_i"),
    (control.relative_phase_speed, ([NAN], [1.0]), "x"),
    (control.detect_dp, ([0.0, NAN, 1.0], np.ones((3, 2))), "grid"),
    (entropy.entropy_covariance_form, (1.0, STATS[0], NAN), "sigma"),
    (identification.check_constraint, (STATS[0], 0.5, [[NAN]]), "grad"),
    (diffusion.stats_from_covariance, ([0.0, 1.0], [NAN, 1.0]), "r"),
    (identification.identify_closed_loop, (STATS[0], 0.5, [[NAN]]), "b"),
    (identification.identify_reduced, (STATS[0], [NAN], 0.5, [[0.5]]), "v"),
    # sigma(t) is the one callback the kernel checks
    (diffusion.simulate_ensemble, (_SIGMA_NAN_AT_HALF, 8, 0.25, 1), "sigma(0.5)"),
    (entropy.entropy_mc, (_SIGMA_NAN_AT_HALF, 8, 0.25, 1), "sigma(0.5)"),
    # used to return inf with a NaN standard error after 12 RuntimeWarnings
    (entropy.entropy_mc, (_DRIFT_1E200, 100, 0.1, 1), "overflow"),
    # finite arguments whose results leave the float range
    (entropy.entropy_mc, (_model(lambda t, x, u: -x, lambda t: [[1e200]]),
                          8, 0.25, 1), "2b at t=0.0 must be finite"),
    (entropy.entropy_covariance_form, (1e200, STATS[0], 1.0), "covariance-form"),
    (identification.identify_reduced, (STATS[0], [1e200], 0.5, [[0.5]]),
     "r_v must be finite"),
    (identification.identify_closed_loop, (STATS[3], 0.5, [[1e10]]),
     "A at tau=0.5"),
    (identification.identify_covariance_ratio, (STATS[5], 5e-311), "r_dot at t="),
    (diagnostics.pfr, ([[1e308, 0.0], [0.0, 1e308]],), "Tr A"),
    (eigenchain.eigen_step, (1e300, 1e-298), "renovated from lam=1e+300"),
    (eigenchain.terminal_time, (0.0, 5e-324), "terminal time of lam=5e-324"),
    (eigenchain.interval_ratios,
     (eigenchain.EigenChain(n=3, m=3, lambdas=[[1.0, 0.5, 0.8], [0.8, 0.2, 0.3]],
                            intervals=[5e-324, 1.0]),), "interval ratios"),
    (control.schedule_from_invariants, (INVS[1], [1.0, 5e-324]), "switch moments"),
    (control.schedule_from_invariants, (INVS[0], [-1.113e-308] * 3), "switch moments"),
    (control.detect_dp, (np.linspace(0.0, 1.0, 3), [[NAN, 1.0]] * 3), "modes"),
    (diagnostics.lce_local, ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], NAN), "window"),
    # a window past the float range takes the whole trace, without a warning,
    # whose times are too large for the fit
    (diagnostics.lce_local, ([1e308, 1.5e308, 1.7e308], [1.0, 2.0, 3.0], 1e308),
     "the norm of the times"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], (-1e308, 1e308)),
     "horizon length"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], (0.0, 1.0, 2.0)),
     "horizon has shape (3,), not (2,)"),
    (entropy.entropy_covariance_form, (lambda t: [1.0, 2.0], STATS[0], 1.0),
     "u has shape (11, 2), not (11,)"),
    (diagnostics.lce_local, ([1.0, 1.0000000000000002], [1.0, 2.0]), "too close"),
    (eigenchain.build_equalization_chain, ([-1.0, -0.1726, 1.113e-308], 3),
     "scan horizon"),
    (eigenchain.build_equalization_chain, ([1e308, -5.953, 0.252], 3),
     "no equalization moment"),
    # used to escape as the bisection's RuntimeError
    (eigenchain.build_equalization_chain, ([-6.805, 5.085e-117, 6.788e-138], 3),
     "(-6.805, 5.085e-117) is not resolved"),
    # a sequence given for a scalar used to escape as a TypeError or as
    # numpy's "truth value is ambiguous" ValueError, or to be accepted
    (eigenchain.eigen_step, ([0.5, 0.5], 1.0), "lam has shape (2,), not ()"),
    (eigenchain.eigen_step, (np.array([0.5, 0.5]), 1.0), "lam has shape (2,)"),
    (invariants.solve_ao, ([0.5, 0.5],), "gamma has shape (2,)"),
    (invariants.delta_star, ([0.5, 0.5], 0.2), "ao_abs has shape (2,)"),
    (invariants.invariant_a, ([0.5, 0.5], 0.7), "gamma has shape (2,)"),
    (diagnostics.classify, ([0.5, 0.5],), "sigma has shape (2,)"),
    (eigenchain.terminal_time, ([0.5, 0.5], 1.0), "t_prev has shape (2,)"),
    (eigenchain.state_step, (1.0, [0.5, 0.5], 1.0), "lam has shape (2,)"),
    (control.consolidate_rotation, ([0.5, 0.5], 1.0), "z_i has shape (2,)"),
    (invariants.gamma_ratios, ([0.5, 0.5],), "a has shape (2,)"),
    (network.build_in, (3, [0.5, 0.5], 1.0), "gamma has shape (2,)"),
    (invariants.optimal_spectrum, (3, [0.5, 0.5]), "alpha1 has shape (2,)"),
    (control.segment_trajectory, (1.0, [0.5, 0.5], [0.0, 1.0]),
     "lam has shape (2,)"),
    (diagnostics.lce_local, ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.5, 0.5]),
     "window has shape (2,)"),
    (invariants.lifetime_ratio, ([0.5, 0.5], [1.0]), "delta has shape (2,)"),
    (diffusion.simulate_ensemble, (MODELS[0], 8, [0.25, 0.25], 1),
     "dt has shape (2,)"),
    (identification.identify_dispersion_window, (STATS[0], 0.5, [0.5, 0.5]),
     "window has shape (2,)"),
    # every time a record is read at goes through EnsembleStats.index_of(t)
    (identification.identify_covariance_ratio, (STATS[0], [0.5, 0.6]),
     "t has shape (2,), not ()"),
    (STATS[0].r_at, ([0.5, 0.6],), "t has shape (2,), not ()"),
    # used to return a NeedleEvent whose tau is a list
    (control.needle_control, (1.0, 2.0, [0.0, 1.0]), "tau has shape (2,)"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], ("a", 1.0)),
     "horizon must be a finite number"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], (None, 1.0)),
     "horizon must be finite"),
    (diffusion.DiffusionModel, (2, None, None, [[0.0], [0.0, 1.0]], np.eye(2),
                                (0.0, 1.0)), "initial_mean must be a finite number"),
    (diffusion.simulate_ensemble, (_SIGMA_TEXT, 8, 0.25, 1),
     "sigma(0.0) must be a finite number"),
    (control.schedule_from_invariants, (INVS[1], ["a"]),
     "spectrum must be a finite number"),
    # the kernel reads the drift through its transpose; a result of another
    # shape used to be broadcast, or to escape as an IndexError or ValueError
    *[(run, (model, 8, 0.25, 1), f"drift(0.0) has shape {shapes}")
      for model, shapes in _BAD_DRIFTS
      for run in (diffusion.simulate_ensemble, entropy.entropy_mc)],
    # strings and bools inside a sequence used to be read as numbers
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], ("0", "1")),
     "horizon must be finite numbers, not strings"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], (False, True)),
     "horizon must be finite numbers, not bools"),
    (entropy.entropy_covariance_form, ("0.5", STATS[0], 1.0),
     "u must be finite numbers, not strings"),
    # switch moments out of order used to be fitted over overlapping windows
    (diagnostics.diagnose_segments, (np.linspace(0.0, 2.0, 5), np.ones(5),
                                     [1.5, 0.5]), "dps must increase strictly"),
    # an empty grid used to escape as numpy's IndexError, and a decreasing
    # one to give an empty report without a word
    (diagnostics.diagnose_segments, ([], [], []), "grid must not be empty"),
    (diagnostics.diagnose_segments, ([1.0, 0.5, 0.0], [1, 2, 3], []),
     "grid must not decrease, as it does from 1.0 to 0.5"),
    (diagnostics.lce_local, ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
     "grid must not decrease"),
    # a linear model's matrices, and its n across A, sigma and the initial law
    (diffusion.linear_model, (np.ones((2, 3)), 1.0, 0.0, 0.0, (0.0, 1.0)),
     "A has shape (2, 3), not square"),
    (diffusion.linear_model, ([[NAN]], 1.0, 0.0, 0.0, (0.0, 1.0)), "A must be finite"),
    (diffusion.linear_model, (-1.0, INF, 0.0, 0.0, (0.0, 1.0)),
     "sigma must be finite"),
    (diffusion.linear_model, (-np.eye(2), [[1.0]], [0.0, 0.0], np.zeros((2, 2)),
                              (0.0, 1.0)), "sigma has shape (1, 1), not (2, 2)"),
    (diffusion.linear_model, (-np.eye(2), np.eye(2), [0.0], np.zeros((2, 2)),
                              (0.0, 1.0)), "initial_mean has shape (1,), not (2,)"),
    (diffusion.linear_model, (-np.eye(2), np.eye(2), [0.0, 0.0], [[0.0]],
                              (0.0, 1.0)), "initial_cov has shape (1, 1), not (2, 2)"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], (0.0, 1.0), None,
                                [[-1.0]]), "A and sigma must be given together"),
    (diffusion.DiffusionModel, (1, None, None, [0.0], [[1.0]], (0.0, 1.0),
                                lambda t, x: x, [[-1.0]], [[1.0]]),
     "a model with A and sigma takes no control_law"),
    (diffusion.simulate_ensemble, (diffusion.linear_model(
        -1.0, 1.0, 1.0, 0.0, (0.0, 300.0)), 10, 3.0), "dt=3.0 is too coarse for A"),
    # a missing sigma used to be refused as "sigma must be finite"
    (diffusion.linear_model, (-1.0, None, 1.0, 0.0, (0.0, 1.0)),
     "sigma must be a finite number, not None"),
    # records refuse a bad field when they are built, by name; the reader
    # named after each used to take the record
    (eigenchain.EigenChain, (2, 2, [[1.0, 0.5, NAN]], [0.5]),
     "lambdas must be finite"),        # chain_state_trace
    *[(invariants.InvariantSet, _fields(INVS[1], **change), name)
      for change, name in (({"defect": NAN}, "defect must be finite"),
                           ({"ao_abs": INF}, "ao_abs must be finite"),
                           ({"ao_abs": 0.0}, "ao_abs must be >= 1e-06"))],
    # identify_reduced_feedback and starting_control used to raise numpy's
    # ValueError on the mismatched n
    (diffusion.EnsembleStats, ([0.0, 1.0], np.zeros((2, 2)), np.ones((2, 1, 1))),
     "mean has shape (2, 2), not (2, 1)"),
    # chain_state_trace used to return a 3-state trace from one stage, and
    # interval_ratios two ratios
    (eigenchain.EigenChain, (3, 5, [[1.0, 0.5, 0.8]], [0.5, 0.2, 0.1]),
     "intervals has shape (3,), not (2,)"),
    (eigenchain.EigenChain, (3, 3, [[1.0, 0.5, 0.8]], [0.5, 0.2]),
     "lambdas has shape (1, 3), not (2, 3)"),
    # r_dot_at(1.0) used to call 1.0 outside the grid [0.0, 0.5]
    (diffusion.EnsembleStats, ([0.0, 1.0, 0.5], np.zeros((3, 1)), np.ones((3, 1, 1))),
     "grid must increase strictly, as it does not from 1.0 to 0.5"),
    # used to pass through triplet_accounting into its report
    (invariants.InvariantSet, _fields(invariants.invariant_set(0.3), gamma=NAN),
     "gamma must be finite"),
    # every time axis passes require_times.  A span past the float range
    # used to escape as numpy's RuntimeWarning from np.diff, or, taken by the
    # record, from index_of, r_dot_at and identify_dispersion_window
    (diffusion.EnsembleStats, ([-1e308, 0.0, 1e308], np.zeros((3, 1)),
                               np.ones((3, 1, 1))), "the span of grid must be finite"),
    (diffusion.stats_from_covariance, ([-1e308, 0.0, 1e308], np.ones(3)),
     "the span of grid must be finite"),
    (diagnostics.diagnose_segments, ([-1e308, 1e308], [1.0, 2.0], []),
     "the span of grid must be finite"),
    (diagnostics.diagnose_segments, (np.linspace(0.0, 2.0, 5), np.ones(5),
                                     [-1e308, 1e308]), "the span of dps must be finite"),
    (diagnostics.lce_local, ([-1e308, 1e308], [1.0, 2.0]),
     "the span of grid must be finite"),
    (control.detect_dp, ([-1e308, 1e308], np.ones((2, 2))),
     "the span of grid must be finite"),
    (diffusion.EnsembleStats, ([], np.zeros((0, 1)), np.ones((0, 1, 1))),
     "grid must not be empty"),
    # a numpy tau used to overflow in tau - window with a RuntimeWarning
    (identification.identify_dispersion_window,
     (diffusion.stats_from_covariance([-1e308, 0.0, 7e307], np.ones(3)),
      np.float64(-1e308), 1e308), "before the grid start -1e+308"),
    # switch moments are named by their field, as every record's are
    (control.SegmentSchedule, ([1.0, 0.5], [], []),
     "dps must increase strictly, as it does not from 1.0 to 0.5"),
    *[(run, (model, 8, 1.0, 1), name) for model, name in _HUGE_SIGMAS
      for run in (diffusion.simulate_ensemble, entropy.entropy_mc)],
    # a callback that cannot be called is refused when the record is built,
    # not met at grid point 0 as TypeError; only a model with A and sigma
    # may leave both drift and diffusion to the record
    (diffusion.DiffusionModel, (1, None, lambda t: [[1.0]], [0.0], [[1.0]],
                                (0.0, 1.0)), "drift must be callable, not None"),
    (diffusion.DiffusionModel, (1, lambda t, x, u: -x, 1.0, [0.0], [[1.0]],
                                (0.0, 1.0)), "diffusion must be callable, not 1.0"),
    (diffusion.DiffusionModel, (1, lambda t, x, u: -x, lambda t: [[1.0]], [0.0],
                                [[1.0]], (0.0, 1.0), 0.5),
     "control_law must be callable, not 0.5"),
    (diffusion.DiffusionModel, (1, lambda t, x, u: -x, None, [0.0], [[1.0]],
                                (0.0, 1.0), None, [[-1.0]], [[1.0]]),
     "diffusion must be callable, not None"),
]


@pytest.mark.parametrize("fn, args, name", NAMED,
                         ids=[f"{fn.__name__}-{k}" for k, (fn, _, _) in enumerate(NAMED)])
def test_named_refusal(fn, args, name, capfd):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IpfError, match=re.escape(name)):
            fn(*args)
    assert capfd.readouterr().err == ""


# numpy scalars used to overflow with numpy's RuntimeWarning where Python
# floats give inf silently, which these functions refuse by name or map to
# a limit
NUMPY_SCALARS = [
    (eigenchain.eigen_step, (1e308, 1e308)),
    (eigenchain.state_step, (1.0, 1e308, 1e308)),
    (eigenchain.terminal_time, (0.0, 5e-324)),
    (invariants.lifetime_ratio, (1e308, [2.0])),
    (invariants.invariant_a, (0.0, 1e308)),
]


@pytest.mark.parametrize("fn, args", NUMPY_SCALARS,
                         ids=[fn.__name__ for fn, _ in NUMPY_SCALARS])
def test_numpy_scalars_act_as_python_floats(fn, args):
    def outcome(args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return fn(*args)
            except IpfError as exc:
                return type(exc), str(exc)

    as_numpy = [np.float64(a) if isinstance(a, float) else a for a in args]
    assert outcome(as_numpy) == outcome(args)
