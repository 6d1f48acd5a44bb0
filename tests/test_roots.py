"""The root layer against the four bracket scans it replaced, and its
bisection against the scipy solver it ports.

The reference functions below are the bracket scans that solve_ao,
gamma_ratios, the equalization chain and detect_dp each ran on their own
before the root layer: solve_ao and gamma_ratios evaluated their whole
grid before looking for a sign change, and detect_dp visited every grid
cell in Python.  Every root refined by bisection must keep its bits, so
those outputs are compared exactly, exceptions included.  The equalization
chain was refined by scipy's brentq and scanned a plain linear grid; it is
now bisected on a grid that also holds the speeds' poles, so its intervals
are compared to 2e-12 relative where the old scan found a chain.
"""

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import ipflab
from ipflab import _roots, control, eigenchain, invariants
from ipflab.errors import NoCooperationError, NoRootError
from ipflab.invariants import _ao_residual, _gamma2_of_gamma1, _ratio_residual


def reference_solve_ao(gamma):
    lo, hi = -3.0, -1e-6
    f_lo, f_hi = _ao_residual(lo, gamma), _ao_residual(hi, gamma)
    if f_lo * f_hi > 0:
        grid = np.linspace(hi, lo, 3001)
        vals = [_ao_residual(g, gamma) for g in grid]
        for k in range(len(grid) - 1):
            if vals[k] * vals[k + 1] <= 0:
                hi, lo = grid[k], grid[k + 1]
                break
        else:
            raise NoRootError(f"no sign change on [-3, -1e-6] for gamma={gamma}")
    return optimize.bisect(_ao_residual, lo, hi, args=(gamma,), xtol=1e-12)


def reference_gamma_ratios(a):
    result = {"gamma1": None, "gamma2": None, "converged": False,
              "residuals": {}}
    grid = np.linspace(1.02, 8.0, 1400)
    vals = [_ratio_residual(g, a) for g in grid]
    for k in range(len(grid) - 1):
        if math.isfinite(vals[k]) and math.isfinite(vals[k + 1]) and vals[k] * vals[k + 1] < 0:
            g1 = optimize.bisect(_ratio_residual, grid[k], grid[k + 1],
                                 args=(a,), xtol=1e-12)
            result["gamma1"] = g1
            result["gamma2"] = _gamma2_of_gamma1(g1, a)
            result["converged"] = True
            break
    g1_ref = 3.896
    g2_ref = _gamma2_of_gamma1(g1_ref, a)
    ea = math.exp(a)
    eq1_ref = g1_ref - (math.exp(a * g1_ref * g2_ref) - 0.5 * ea) / (math.exp(a * g2_ref) - 0.5 * ea)
    result["residuals"] = {
        "eq1_at_solution": (_ratio_residual(result["gamma1"], a)
                            if result["converged"] else None),
        "gamma2_from_gamma1_ref": g2_ref,
        "eq1_at_reference": eq1_ref,
    }
    return result


def reference_equalization_root(lam_joint, lam_next, offset, t_max):
    def f(t):
        return (eigenchain._abs_speed(lam_joint, t)
                - eigenchain._abs_speed(lam_next, offset + t))

    grid = np.linspace(1e-9, t_max, 20000)
    prev_t, prev_v = grid[0], f(grid[0])
    for t in grid[1:]:
        v = f(t)
        if math.isfinite(prev_v) and math.isfinite(v) and prev_v * v < 0:
            return optimize.brentq(f, prev_t, t, xtol=1e-13, rtol=1e-14)
        prev_t, prev_v = t, v
    raise NoCooperationError(
        f"no equalization moment for ({lam_joint}, {lam_next}) within t <= {t_max}")


def reference_detect_dp(grid, modes, modes_dot=None, tolerance=1e-10):
    grid = np.asarray(grid, dtype=float)
    modes = np.atleast_2d(np.asarray(modes, dtype=float))
    if modes.shape[0] != grid.shape[0]:
        modes = modes.T
    if modes_dot is None:
        modes_dot = np.gradient(modes, grid, axis=0)
    else:
        modes_dot = np.atleast_2d(np.asarray(modes_dot, dtype=float))
        if modes_dot.shape[0] != grid.shape[0]:
            modes_dot = modes_dot.T
    n = modes.shape[1]
    hits = []
    for i in range(n):
        for j in range(i + 1, n):
            si = control.relative_phase_speed(modes[:, i], modes_dot[:, i])
            sj = control.relative_phase_speed(modes[:, j], modes_dot[:, j])
            d = si - sj
            if np.all(np.abs(d[np.isfinite(d)]) <= tolerance):
                hits.append({"pair": (i, j), "tau": float(grid[0]),
                             "note": "identical speeds throughout"})
                continue
            for k in range(len(grid) - 1):
                if not (np.isfinite(d[k]) and np.isfinite(d[k + 1])):
                    continue
                if d[k] == 0.0:
                    hits.append({"pair": (i, j), "tau": float(grid[k])})
                    continue
                if d[k] * d[k + 1] < 0:
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
                    tau = optimize.bisect(f, grid[k], grid[k + 1],
                                          xtol=tolerance * max(abs(grid[k]), 1.0))
                    hits.append({"pair": (i, j), "tau": float(tau)})
    return hits


def outcome(fn, *args, **kwargs):
    """repr of the result (exact for floats), or the exception raised."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestFirstBracket:
    def test_first_sign_change(self):
        grid = np.linspace(0.0, 4.0, 9)
        assert _roots.first_bracket(lambda x: math.cos(2.0 * x), grid) == (0.5, 1.0)

    def test_none_without_sign_change(self):
        assert _roots.first_bracket(lambda x: 1.0 + x * x, [-1.0, 0.0, 1.0]) is None

    def test_non_finite_end_skipped(self):
        # a pole between 0 and 1 flips the sign but is no root
        f = lambda x: math.inf if x == 1.0 else (x - 0.5 if x < 1.0 else x - 2.5)
        assert _roots.first_bracket(f, [0.0, 1.0, 2.0, 3.0]) == (2.0, 3.0)
        g = lambda x: math.nan if x == 1.0 else -1.0 if x < 1.0 else 1.0
        assert _roots.first_bracket(g, [0.0, 1.0, 2.0]) is None

    def test_zero_end_is_not_a_sign_change(self):
        assert _roots.first_bracket(lambda x: x, [-1.0, 0.0, 1.0]) is None

    def test_underflowing_product_still_a_sign_change(self):
        f = lambda x: 1e-200 * x
        assert _roots.first_bracket(f, [-1.0, 1.0]) == (-1.0, 1.0)

    def test_stops_at_the_cell(self):
        calls = []

        def f(x):
            calls.append(x)
            if x > 2.0:
                raise OverflowError("evaluated past the bracket")
            return x - 1.5

        assert _roots.first_bracket(f, [0.0, 1.0, 2.0, 3.0]) == (1.0, 2.0)
        assert calls == [0.0, 1.0, 2.0]


class TestRootsKeepTheirBits:
    def test_solve_ao(self):
        # gamma > 1.367 takes the bracket fallback; 3 and 5 do not
        gammas = np.concatenate([np.linspace(0.0, 4.6, 231),
                                 np.linspace(1.36, 1.38, 21), [5.0, 8.0]])
        fallback = 0
        for gamma in gammas.tolist():
            fallback += _ao_residual(-3.0, gamma) * _ao_residual(-1e-6, gamma) > 0
            assert outcome(invariants.solve_ao, gamma) == outcome(reference_solve_ao, gamma)
        assert fallback > 100

    def test_gamma_ratios(self):
        converged = 0
        for a in np.linspace(0.0025, 0.5, 200).tolist():
            new = invariants.gamma_ratios(a)
            assert repr(new) == repr(reference_gamma_ratios(a))
            converged += new["converged"]
        assert 0 < converged < 200

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equalization_chain(self, n, monkeypatch):
        spectra = [invariants.optimal_spectrum(n, a1) for a1 in (0.5, 1.0, 2.0)]
        new = [eigenchain.build_equalization_chain(s, n) for s in spectra]
        monkeypatch.setattr(eigenchain, "_equalization_root", reference_equalization_root)
        for chain, spec in zip(new, spectra):
            if n >= 6:
                # the old scan overflowed here; the chain must now exist
                assert len(chain.intervals) == n - 1
                continue
            old = eigenchain.build_equalization_chain(spec, n)
            assert (chain.n, chain.m, len(chain.intervals)) == (old.n, old.m, n - 1)
            for t_new, t_old in zip(chain.intervals, old.intervals):
                assert abs(t_new - t_old) <= 2e-12 * abs(t_old)

    @staticmethod
    def dp_cases():
        t = np.arange(0.0, 1.0, 2e-5)
        two = np.column_stack([2.0 - np.exp(0.5 * t), 2.0 - np.exp(-t)])
        two_dot = np.column_stack([-0.5 * np.exp(0.5 * t), np.exp(-t)])
        yield t, two, two_dot
        t = np.arange(0.0, 1.0, 1e-4)
        yield t, np.column_stack([2.0 - np.exp(0.5 * t), 2.0 - np.exp(-t)]), None
        t = np.linspace(0.1, 0.5, 100)
        yield t, np.column_stack([np.exp(t), np.exp(t)]), None
        t = np.linspace(0, 1, 200)
        yield (t, np.column_stack([np.exp(t), np.exp(3 * t)]),
               np.column_stack([np.exp(t), 3 * np.exp(3 * t)]))
        t = np.linspace(0, 2, 400)
        yield t, np.column_stack([t - 1.0, np.exp(t)]), None
        # speeds 2t and 1 are equal exactly on the grid point t = 0.5
        t = np.linspace(0, 1, 11)
        yield t, np.ones((11, 2)), np.column_stack([2.0 * t, np.ones(11)])
        # three modes, given time-minor, with a zero and a crossing
        t = np.linspace(0, 2, 1000)
        yield t, np.vstack([t - 1.0, np.exp(-t), 2.0 - np.exp(0.3 * t)]), None
        # the benchmark sweep's grids: e^{-alpha t} against 2 - e^{lam t}
        for seed in range(3):
            rng = np.random.default_rng(seed)
            alpha = float(rng.uniform(0.5, 2.0))
            lam = alpha * float(rng.uniform(0.2, 0.8))
            t = np.linspace(0.0, 0.9 * math.log(2.0) / lam, 50_000)
            yield t, np.column_stack([np.exp(-alpha * t), 2.0 - np.exp(lam * t)]), None

    def test_detect_dp(self):
        for grid, modes, modes_dot in self.dp_cases():
            new = control.detect_dp(grid, modes, modes_dot)
            assert repr(new) == repr(reference_detect_dp(grid, modes, modes_dot))
            if len(grid) == 11:
                assert new == [{"pair": (0, 1), "tau": 0.5}]


class TestPortsMatchScipy:
    """bisect against scipy.optimize.bisect, bit for bit."""

    SOLVERS = [(_roots.bisect, optimize.bisect)]

    @staticmethod
    def random_functions(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            c0, c1, c2 = rng.uniform(-3.0, 3.0, 3).tolist()
            power = float(rng.choice([0.1, 2.0]))
            family = [
                lambda x: c0 + c1 * x + c2 * x ** 3,
                lambda x: math.exp(c0 * x) - 2.0 + c1,
                lambda x: math.sin(3.0 * c0 * x + c1) + 1e-3 * c2,
                lambda x: math.atan(c0 * (x - c1)) ** 3,
                lambda x: 1.0 if x > c0 else -1.0,
                lambda x: (x - c0) * abs(x - c0) ** power,
            ]
            yield family[int(rng.integers(6))], rng.uniform(-5.0, 5.0, 2).tolist()

    @pytest.mark.parametrize("tols", [{"xtol": 2e-12}, {"xtol": 1e-13}, {"xtol": 1e-3},
                                      {"xtol": 1e-300}])
    def test_random_functions_both_bracket_orders(self, tols):
        roots = 0
        for f, (a, b) in self.random_functions(7, 300):
            for port, ref in self.SOLVERS:
                for lo, hi in ((a, b), (b, a)):
                    got = outcome(port, f, lo, hi, **tols)
                    assert got == outcome(ref, f, lo, hi, **tols), (port.__name__, lo, hi)
                    roots += "Error" not in got
        assert roots > 150

    @pytest.mark.parametrize("port,ref", SOLVERS)
    def test_exact_zero_at_either_end(self, port, ref):
        f = lambda x: x * (x - 1.0)
        for a, b in ((0.0, 0.5), (0.5, 1.0), (-0.0, -1.0), (1.0, 2.0)):
            assert (repr(port(f, a, b, xtol=1e-12)) == repr(ref(f, a, b, xtol=1e-12))
                    == repr(float(a if f(a) == 0 else b)))

    @pytest.mark.parametrize("port,ref", SOLVERS)
    @pytest.mark.parametrize("tols", [{"xtol": 0.0}, {"xtol": -1e-12}, {"xtol": -0.0},
                                      {"xtol": -math.inf}])
    def test_bad_tolerances_refused(self, port, ref, tols):
        got = outcome(port, lambda x: x - 0.3, 0.0, 1.0, **tols)
        assert got.startswith("ValueError: xtol too small")
        assert got == outcome(ref, lambda x: x - 0.3, 0.0, 1.0, **tols)

    @pytest.mark.parametrize("port,ref", SOLVERS)
    def test_nan_from_f(self, port, ref):
        f = lambda x: math.nan if x > 0.45 else x - 0.3
        got = outcome(port, f, 0.0, 1.0, xtol=1e-12)
        assert got.startswith("ValueError") and "NaN" in got
        assert got == outcome(ref, f, 0.0, 1.0, xtol=1e-12)

    @pytest.mark.parametrize("port,ref", SOLVERS)
    def test_no_sign_change(self, port, ref):
        got = outcome(port, lambda x: 1.0 + x * x, -1.0, 2.0, xtol=1e-12)
        assert got == "ValueError: f(a) and f(b) must have different signs"
        assert got == outcome(ref, lambda x: 1.0 + x * x, -1.0, 2.0, xtol=1e-12)

    @pytest.mark.parametrize("port,ref", SOLVERS)
    def test_no_convergence(self, port, ref, monkeypatch):
        # the cap is a module constant; scipy's maxiter=3 is the same cap
        monkeypatch.setattr(_roots, "_MAXITER", 3)
        got = outcome(port, math.atan, -1.0, 3.1, xtol=1e-12)
        assert got == "RuntimeError: Failed to converge after 3 iterations."
        assert got == outcome(ref, math.atan, -1.0, 3.1, xtol=1e-12, maxiter=3)

    @pytest.mark.parametrize("port", [_roots.bisect])
    def test_underflowing_values_keep_their_signs(self, port):
        # f(a) f(b) underflows to 0 here: signs are compared, as C's signbit
        f = lambda x: 1e-200 * (x - 0.3)
        assert abs(port(f, 0.0, 1.0, xtol=1e-12) - 0.3) < 1e-11
        with pytest.raises(ValueError, match="different signs"):
            port(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, xtol=1e-12)

    def test_defaults_are_scipys(self):
        # the constants bisect fixes are the defaults of the scipy call it matches
        sig = inspect.signature(optimize.bisect).parameters
        assert sig["rtol"].default == _roots._RTOL
        assert sig["maxiter"].default == _roots._MAXITER
        assert list(inspect.signature(_roots.bisect).parameters) == ["f", "a", "b", "xtol"]
        assert _roots.__all__ == ["bisect", "first_bracket"]


def test_no_module_imports_scipy():
    src = Path(ipflab.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.add(path.name)
    assert importers == set()


def run_fresh(code, cwd):
    """Run code in a fresh interpreter that imports ipflab from this tree."""
    env = dict(os.environ)
    src = str(Path(ipflab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = run_fresh("import sys, ipflab.cli\n"
                     "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']", tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["invariants", "--gamma", "0.5"], ["schedule"], ["network"], ["diagnose"],
    ["reproduce", "--out", "out"],
    ["pipeline", "--seed", "3", "--n-paths", "200", "--dt", "0.01", "--horizon", "0.5",
     "--out", "out"]])
def test_commands_run_without_scipy(tmp_path, argv):
    # a None entry in sys.modules makes every scipy import raise ImportError
    proc = run_fresh('import sys; sys.modules["scipy"] = None\n'
                     f"from ipflab.cli import main\nsys.exit(main({argv!r}))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout
