"""The three benchmark workloads, their inputs, checks and expected spans.

Every workload builds its inputs from the benchmark seed and hands the
program only those inputs.  A pass runs the workload's operations through
an :class:`Ops` ledger, which times each operation, sorts its outcome into
ok, refused (an ``IpfError``) or failed (any other exception, or an output
that fails its check), and feeds every output into a SHA-256 fingerprint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import struct
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ipflab import (cli, control, diffusion, eigenchain, entropy,
                    identification, invariants, network)
from ipflab.errors import IpfError


class Ops:
    """Outcome ledger and output fingerprint of one workload pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.busy_s = 0.0
        self.wrong = 0              # outputs that failed their check
        self.problems = []
        self.outcomes = []          # (operation, "ok" | "refused" | "failed")
        self.rel_err = None
        self.rel_err_tol = None
        self.artifact_bytes = 0
        self._digest = hashlib.sha256()

    def run(self, name, fn, check=None):
        """Time ``fn()``; return its output, or None if it raised or failed ``check``.

        ``check(output)`` returns a problem string or None; it runs outside
        the timed region.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except IpfError as exc:
            self.busy_s += time.perf_counter() - start
            self.refused += 1
            self.outcomes.append((name, "refused"))
            self.feed(name, "refused", type(exc).__name__)
            return None
        except Exception as exc:
            self.busy_s += time.perf_counter() - start
            self._fail(name, f"{type(exc).__name__}: {exc}", wrong=False)
            self.feed(name, "raised", type(exc).__name__)
            return None
        self.busy_s += time.perf_counter() - start
        try:
            problem = check(out) if check is not None else None
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self._fail(name, problem)
            return None
        self.outcomes.append((name, "ok"))
        return out

    def _fail(self, name, problem, wrong=True):
        self.failed += 1
        self.wrong += wrong
        self.outcomes.append((name, "failed"))
        self.problems.append(f"{name}: {problem}")

    def feed(self, *objs):
        for obj in objs:
            _feed(self._digest, obj)

    def fingerprint(self) -> str:
        return self._digest.hexdigest()


def _feed(h, obj):
    """Hash a result exactly: array bytes, float bit patterns, sorted keys."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"nd{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (str, bytes)):
        data = obj.encode() if isinstance(obj, str) else obj
        h.update(f"s{len(data)}:".encode() + data)
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def _all_finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _floats(obj):
    """Every float inside a record, dict or list."""
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _floats(item)]
    return [obj] if isinstance(obj, float) else []


def _quiet_cli(argv):
    """Run one CLI command; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- pipeline ----------------------------------------------------------------

class Pipeline:
    """The ``ipflab pipeline`` command users run, scalar n=1, 1e5 paths."""

    name = "pipeline"
    work_unit = "path-steps"
    varies_per_pass = False
    n_paths = 100_000
    steps = 1000                     # horizon 1 at the default dt 1e-3
    path_steps = steps * n_paths
    work_per_pass = path_steps
    # the (steps, paths, n) float64 noise tensor diffusion._noise draws whole
    noise_bytes = path_steps * 1 * 8
    rel_err_tol = 0.05
    ARTIFACTS = ("diagnostics.json", "ensemble.json", "manifest.json",
                 "network.json", "operators.json", "schedule.json")

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def run_pass(self, index, ops):
        out = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.scratch))
        try:
            argv = ["pipeline", "--seed", str(self.seed), "--n-paths",
                    str(self.n_paths), "--n", "5", "--out", str(out)]
            ops.run("cli.pipeline", lambda: _quiet_cli(argv)[0],
                    lambda code: self._check(code, out, ops))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, code, out, ops):
        if code != 0:
            return f"exit code {code}"
        names = tuple(sorted(p.name for p in out.iterdir()))
        if names != self.ARTIFACTS:
            return f"artifacts {names}"
        for name in names:
            data = (out / name).read_bytes()
            ops.artifact_bytes += len(data)
            ops.feed(name, data)
        doc = json.loads((out / "ensemble.json").read_text())
        t = np.asarray(doc["grid"])
        r_hat = np.asarray(doc["r"])[:, 0, 0]
        r = np.exp(-2 * t) + 0.5 * (1 - np.exp(-2 * t))
        ops.rel_err = float(np.max(np.abs(r_hat - r) / r))
        ops.rel_err_tol = self.rel_err_tol
        if not ops.rel_err <= self.rel_err_tol:
            return f"rel_err {ops.rel_err:.4g} > {self.rel_err_tol}"
        return None

    def expected_calls(self, index, ops) -> Counter:
        return Counter({
            "cli.main": 1, "diffusion.simulate_ensemble": 1,
            "diffusion.drift": self.steps, "diffusion.sigma": self.steps,
            "diffusion.covariance_derivative": 1,
            "identification.identify_covariance_ratio": 4,
            # invariant_set in the command and in build_in; solve_ao once
            # in each of those and once in triplet_accounting
            "invariants.invariant_set": 2, "invariants.solve_ao": 3,
            "invariants.optimal_spectrum": 2,
            "control.schedule_from_invariants": 1, "network.build_in": 1,
            "network.triplet_accounting": 1,
            "diagnostics.diagnose_segments": 1,
            # ensemble, four operators, schedule, network, diagnostics
            "cli.to_json": 8,
        })


# -- entropy -----------------------------------------------------------------

def _identity_drift(t, x, u):
    return x


def _unit_sigma(t):
    return [[1.0]]


class Entropy:
    """Criterion-8 model dx = x dt + dW through ``entropy.entropy_mc``."""

    name = "entropy"
    work_unit = "path-steps"
    varies_per_pass = False
    n_paths = 100_000
    dt = 1e-3
    steps = 1000
    path_steps = steps * n_paths
    work_per_pass = path_steps
    noise_bytes = path_steps * 1 * 8

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.model = diffusion.DiffusionModel(
            n=1, drift=_identity_drift, diffusion=_unit_sigma,
            initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 1.0))
        # exact second moment of the linear model: r = 1.5 e^{2t} - 0.5
        grid = np.linspace(0.0, 1.0, 10001)
        exact = diffusion.stats_from_covariance(grid, 1.5 * np.exp(2 * grid) - 0.5)
        self.exact = entropy.entropy_covariance_form(1.0, exact, 1.0).value

    def run_pass(self, index, ops):
        ops.run("entropy.entropy_mc",
                lambda: entropy.entropy_mc(self.model, self.n_paths,
                                           dt=self.dt, seed=self.seed),
                lambda est: self._check(est, ops))

    def _check(self, est, ops):
        ops.feed(est.value, est.std_error)
        ops.rel_err = abs(est.value - self.exact) / self.exact
        # five standard errors of sampling plus the Euler bias allowance
        # of acceptance criterion 8
        ops.rel_err_tol = (5.0 * est.std_error + 2.0 * self.dt * self.exact) / self.exact
        if not ops.rel_err <= ops.rel_err_tol:
            return f"rel_err {ops.rel_err:.4g} > {ops.rel_err_tol:.4g}"
        return None

    def expected_calls(self, index, ops) -> Counter:
        # one drift and sigma evaluation per Euler step, plus one per grid
        # point in the quadratic form
        return Counter({"entropy.entropy_mc": 1,
                        "entropy.drift": 2 * self.steps + 1,
                        "entropy.sigma": 2 * self.steps + 1})


# -- ensemble3 ---------------------------------------------------------------

_A3 = np.array([[-1.0, 0.3, 0.0], [0.3, -2.0, 0.2], [0.0, 0.2, -0.5]])
_A3.setflags(write=False)


def _linear_drift3(t, x, u):
    return x @ _A3.T


def _identity_sigma3(t):
    return np.eye(3)


class Ensemble3:
    """n=3 stationary linear ensemble, identification and starting control,
    then one :class:`Sweep` of the deterministic machinery.

    The ensemble's inputs are the same on every pass; the sweep's are drawn
    from (seed, pass index).
    """

    name = "ensemble3"
    work_unit = "path-steps"
    varies_per_pass = True
    n_paths = 20_000
    dt = 2e-3
    steps = 1000                     # horizon 2
    path_steps = steps * n_paths
    work_per_pass = path_steps
    noise_bytes = path_steps * 3 * 8
    taus = (0.5, 1.0, 1.5, 2.0)
    window = 0.5
    rel_err_tol = 0.1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        # N(0, P) with P = -A^{-1}/2 is stationary for symmetric A, sigma = I
        cov = -0.5 * np.linalg.inv(_A3)
        self.model = diffusion.DiffusionModel(
            n=3, drift=_linear_drift3, diffusion=_identity_sigma3,
            initial_mean=np.zeros(3), initial_cov=0.5 * (cov + cov.T),
            horizon=(0.0, 2.0))
        self.b = 0.5 * np.eye(3)
        self.sweep = Sweep(seed)

    def run_pass(self, index, ops):
        self._identify(ops)
        self.sweep.run(index, ops)

    def _identify(self, ops):
        stats = ops.run("diffusion.simulate_ensemble",
                        lambda: diffusion.simulate_ensemble(
                            self.model, self.n_paths, dt=self.dt, seed=self.seed),
                        lambda s: self._check_stats(s, ops))
        if stats is None:
            return
        stats = ops.run("diffusion.covariance_derivative",
                        lambda: diffusion.covariance_derivative(stats),
                        lambda s: self._check_arrays(ops, s.r_dot))
        if stats is None:
            return
        errs = []
        for tau in self.taus:
            ops.run("identification.identify_reduced_feedback",
                    lambda: identification.identify_reduced_feedback(
                        stats, tau, b=self.b),
                    lambda op: self._check_reduced(ops, op, errs))
            ops.run("identification.identify_covariance_ratio",
                    lambda: identification.identify_covariance_ratio(stats, tau),
                    lambda op: self._check_arrays(ops, op.A))
            ops.run("identification.identify_dispersion_window",
                    lambda: identification.identify_dispersion_window(
                        stats, tau, window=self.window),
                    lambda op: self._check_arrays(ops, op.A))
            ops.run("identification.identify_closed_loop",
                    lambda: identification.identify_closed_loop(stats, tau, b=self.b),
                    lambda op: self._check_arrays(ops, op.A))
            ops.run("control.starting_control",
                    lambda: control.starting_control(stats, tau),
                    lambda d: self._check_arrays(ops, *(d[k] for k in sorted(d))))
        if errs:
            ops.rel_err = max(errs)
            ops.rel_err_tol = self.rel_err_tol

    def _check_reduced(self, ops, op, errs):
        # with symmetric A and sigma = I, -b P^{-1} = A exactly
        err = float(np.linalg.norm(op.A - _A3) / np.linalg.norm(_A3))
        errs.append(err)
        if not err <= self.rel_err_tol:
            return f"rel_err {err:.4g} > {self.rel_err_tol}"
        return self._check_arrays(ops, op.A)

    def _check_stats(self, stats, ops):
        return self._check_arrays(ops, stats.grid, stats.mean, stats.r)

    @staticmethod
    def _check_arrays(ops, *arrays):
        ops.feed(*arrays)
        return None if _all_finite(*arrays) else "non-finite output"

    def expected_calls(self, index, ops) -> Counter:
        k = len(self.taus)
        return self.sweep.expected_calls(index, ops) + Counter({
            "diffusion.simulate_ensemble": 1,
            "diffusion.drift": self.steps, "diffusion.sigma": self.steps,
            "diffusion.covariance_derivative": 1,
            "identification.identify_reduced_feedback": k,
            "identification.identify_covariance_ratio": k,
            "identification.identify_dispersion_window": k,
            "identification.identify_closed_loop": k,
            "control.starting_control": k,
        })


# -- sweep -------------------------------------------------------------------

class Sweep:
    """Deterministic machinery only: invariants, chains, network, CLI, diagnostics.

    Each run draws fresh points from (seed, pass index): for every
    n in 2..8 one gamma in GAMMA_DIAPASON and one alpha1 in [0.5, 2].
    It runs inside every ``ensemble3`` pass rather than as a workload of its
    own: its interpreter-bound passes slowed by up to 2x for stretches of
    5-30 s on a shared host, too much for a bounded time of their own.
    """

    n_values = tuple(range(2, 9))
    dp_points = 50_000
    # the two rows documented in cli.reproduction_rows as expected FLAG
    EXPECTED_FLAGS = ("a formula at gamma=0.5 vs tabulated 0.25",
                      "spread formula vs spectrum ratio (n=2)")

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, index):
        rng = np.random.default_rng([self.seed, index])
        lo, hi = invariants.GAMMA_DIAPASON
        points = [(float(rng.uniform(lo, hi)), float(rng.uniform(0.5, 2.0)), n)
                  for n in self.n_values]
        # two modes whose relative phase speeds cross once: e^{-alpha t}
        # (constant speed alpha) against the doubling-control segment
        # 2 - e^{lam t} with lam < alpha, before its zero at ln 2 / lam
        alpha = float(rng.uniform(0.5, 2.0))
        lam = alpha * float(rng.uniform(0.2, 0.8))
        grid = np.linspace(0.0, 0.9 * math.log(2.0) / lam, self.dp_points)
        modes = np.column_stack([np.exp(-alpha * grid), 2.0 - np.exp(lam * grid)])
        t_cross = math.log(2.0 * alpha / (lam + alpha)) / lam
        return points, (grid, modes, t_cross)

    def run(self, index, ops):
        points, (grid, modes, t_cross) = self.inputs(index)
        for gamma, alpha1, n in points:
            inv = ops.run("invariants.invariant_set",
                          lambda: invariants.invariant_set(gamma),
                          lambda v: self._check_record(ops, v))
            if inv is not None:
                ops.run("invariants.gamma_ratios",
                        lambda: invariants.gamma_ratios(inv.a),
                        lambda v: self._check_ratios(ops, v))
                ops.run("network.triplet_accounting",
                        lambda: network.triplet_accounting(inv),
                        lambda v: self._check_record(ops, v))
            chain = ops.run("eigenchain.build_equalization_chain",
                            lambda: eigenchain.build_equalization_chain(
                                invariants.optimal_spectrum(n, alpha1), n),
                            lambda v: self._check_record(ops, v))
            if chain is not None:
                ops.run("eigenchain.chain_state_trace",
                        lambda: eigenchain.chain_state_trace(chain, 1.0),
                        lambda v: self._check_trace(ops, v))
            ops.run("network.build_in",
                    lambda: network.build_in(n, gamma, alpha1),
                    lambda v: self._check_network(ops, v, n))
            for command in ("schedule", "network", "diagnose"):
                argv = [command, "--n", str(n), "--gamma", repr(gamma),
                        "--alpha1", repr(alpha1)]
                ops.run(f"cli.{command}", lambda: _quiet_cli(argv),
                        lambda res: self._check_cli(ops, res))
        ops.run("control.detect_dp", lambda: control.detect_dp(grid, modes),
                lambda hits: self._check_dp(ops, hits, t_cross, grid[-1]))
        ops.run("cli.reproduction_table", cli.reproduction_table,
                lambda table: self._check_table(ops, table))

    @staticmethod
    def _check_record(ops, rec):
        ops.feed(rec)
        return None if _all_finite(_floats(rec)) else "non-finite field"

    @staticmethod
    def _check_ratios(ops, res):
        ops.feed(res)
        if res["converged"] and not abs(res["residuals"]["eq1_at_solution"]) <= 1e-8:
            return f"residual {res['residuals']['eq1_at_solution']:.3g}"
        return None

    @staticmethod
    def _check_trace(ops, res):
        ops.feed(res)
        scale = max(abs(s) for s in res["states"])
        # the zeroing tail lands on lam t = ln 2 up to rounding of the stage states
        if not abs(res["final_state"]) <= 1e-9 * scale:
            return f"final state {res['final_state']:.3g} of scale {scale:.3g}"
        return None

    @staticmethod
    def _check_network(ops, net, n):
        ops.feed(net.nodes, net.code, net.totals, net.flags)
        nodes = (n - 1) // 2 if n >= 3 else 0
        if len(net.nodes) != nodes or len(net.code) != 4 * nodes:
            return f"{len(net.nodes)} nodes, code {net.code!r} for n={n}"
        return None

    @staticmethod
    def _check_cli(ops, res):
        code, text = res
        ops.feed(code, text)
        ops.artifact_bytes += len(text.encode())
        if code != 0:
            return f"exit code {code}"
        doc, _ = json.JSONDecoder().raw_decode(text)
        if doc.get("schema_version") is None:
            return "document without schema_version"
        return None

    @staticmethod
    def _check_dp(ops, hits, t_cross, horizon):
        ops.feed(hits)
        taus = [h["tau"] for h in hits]
        if len(taus) != 1 or taus[0] is None or abs(taus[0] - t_cross) > 1e-6 * horizon:
            return f"switch moments {taus}, exact {t_cross:.9g}"
        return None

    def _check_table(self, ops, table):
        ops.feed(table)
        flags = tuple(r["name"] for r in table if r["status"] != "PASS")
        if flags != self.EXPECTED_FLAGS:
            return f"FLAG rows {flags}"
        return None

    def expected_calls(self, index, ops) -> Counter:
        points, _ = self.inputs(index)
        chain_ok = [ok == "ok" for name, ok in ops.outcomes
                    if name == "eigenchain.build_equalization_chain"]
        c = Counter()
        for (gamma, alpha1, n), ok in zip(points, chain_ok):
            build_in = Counter({"network.build_in": 1})
            if n >= 3:
                build_in.update({"invariants.invariant_set": 1,
                                 "invariants.solve_ao": 2,
                                 "network.triplet_accounting": 1,
                                 "invariants.optimal_spectrum": 1})
            # direct calls: invariant_set, gamma_ratios, triplet, chain, build_in
            c.update({"invariants.invariant_set": 1, "invariants.solve_ao": 2,
                      "invariants.gamma_ratios": 1,
                      "network.triplet_accounting": 1,
                      "invariants.optimal_spectrum": 1,
                      "eigenchain.build_equalization_chain": 1,
                      "eigenchain.chain_state_trace": int(ok)})
            c.update(build_in)
            # cli schedule stops at the chain when it raises
            c.update({"cli.main": 1, "invariants.optimal_spectrum": 1,
                      "eigenchain.build_equalization_chain": 1})
            if ok:
                c.update({"invariants.invariant_set": 1, "invariants.solve_ao": 1,
                          "control.schedule_from_invariants": 1, "cli.to_json": 2})
            # cli network
            c.update({"cli.main": 1, "cli.to_json": 1})
            c.update(build_in)
            # cli diagnose
            c.update({"cli.main": 1, "invariants.invariant_set": 1,
                      "invariants.solve_ao": 1, "invariants.optimal_spectrum": 1,
                      "control.schedule_from_invariants": 1,
                      "diagnostics.diagnose_segments": 1, "cli.to_json": 1})
        c.update({"control.detect_dp": 1,
                  # reproduction_rows: solve_ao at 0, 0.5 and 1, plus one
                  # each inside invariant_set(0.5) and triplet_accounting
                  "invariants.solve_ao": 5, "invariants.invariant_set": 1,
                  "network.triplet_accounting": 1,
                  "invariants.optimal_spectrum": 2})
        return +c


WORKLOADS = {cls.name: cls for cls in (Pipeline, Entropy, Ensemble3)}
