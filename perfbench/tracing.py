"""Span recording for the traced benchmark run.

The traced run swaps each listed public ipflab function for a wrapper that
records one span per call: name, start, end, parent span and outcome.  A
function is replaced at every module attribute it can be looked up
through (``network`` imports ``solve_ao``, ``invariant_set`` and
``optimal_spectrum`` by name), every record class's ``to_json`` method is
wrapped under the one name ``cli.to_json``, and the drift, sigma and
control callbacks of each model passed to ``simulate_ensemble`` or
``entropy_mc`` are wrapped for the duration of that call.  Nothing in the
program changes; ``uninstall`` restores every original binding.

Completeness is checked against an independent count: ``count_check``
runs one pass under ``cProfile`` with the wrappers installed and compares,
for every wrapped function, the calls its wrapper saw with the calls
cProfile saw on the original code.  A binding the wrapper missed makes the
two differ, so it fails loudly instead of reading as zero time.
"""

from __future__ import annotations

import cProfile
import dataclasses
import resource
import time
from collections import Counter, defaultdict

import ipflab
from ipflab.errors import IpfError

# (span name, module, attribute): the public functions the per-layer
# metrics are taken from
FUNCTIONS = [
    ("diffusion.simulate_ensemble", "diffusion", "simulate_ensemble"),
    ("diffusion.covariance_derivative", "diffusion", "covariance_derivative"),
    ("entropy.entropy_mc", "entropy", "entropy_mc"),
    ("identification.identify_reduced_feedback", "identification",
     "identify_reduced_feedback"),
    ("identification.identify_covariance_ratio", "identification",
     "identify_covariance_ratio"),
    ("identification.identify_dispersion_window", "identification",
     "identify_dispersion_window"),
    ("identification.identify_closed_loop", "identification",
     "identify_closed_loop"),
    ("invariants.solve_ao", "invariants", "solve_ao"),
    ("invariants.gamma_ratios", "invariants", "gamma_ratios"),
    ("invariants.invariant_set", "invariants", "invariant_set"),
    ("invariants.optimal_spectrum", "invariants", "optimal_spectrum"),
    ("eigenchain.build_equalization_chain", "eigenchain",
     "build_equalization_chain"),
    ("eigenchain.chain_state_trace", "eigenchain", "chain_state_trace"),
    ("network.build_in", "network", "build_in"),
    ("network.triplet_accounting", "network", "triplet_accounting"),
    ("diagnostics.diagnose_segments", "diagnostics", "diagnose_segments"),
    ("control.detect_dp", "control", "detect_dp"),
    ("control.schedule_from_invariants", "control", "schedule_from_invariants"),
    ("control.starting_control", "control", "starting_control"),
    ("cli.main", "cli", "main"),
]

# functions whose model argument gets its callbacks wrapped, by span prefix
_MODEL_TAKERS = {"diffusion.simulate_ensemble": "diffusion",
                 "entropy.entropy_mc": "entropy"}

MODULES = ["cli", "control", "diagnostics", "diffusion", "eigenchain",
           "entropy", "identification", "invariants", "network"]

OK, REFUSED, FAILED = "ok", "refused", "failed"


def _code_key(obj):
    """(file, first line, name) of a function or code object; None for builtins."""
    code = getattr(obj, "__code__", obj)
    if not hasattr(code, "co_filename"):
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _modules():
    return [getattr(ipflab, m) for m in MODULES if hasattr(ipflab, m)]


class Tracer:
    """Holds the spans of the traced passes in memory.

    A span is ``[name, start, end, parent, outcome]`` with ``parent`` the
    index of the enclosing span (-1 at top level) and times from
    ``time.perf_counter``.
    """

    def __init__(self):
        self.spans = []
        self.rss_rise_mb = {}       # name -> ru_maxrss rise across first call
        self.wrapper_calls = Counter()   # code key of original -> calls
        self.originals = set()      # code keys of every wrapped original
        self.absent = []            # listed functions this program lacks
        self._stack = []
        self._restore = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        self.wrapper_calls[_code_key(fn)] += 1
        first = name not in self.rss_rise_mb
        if first:
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        idx = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, OK]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except IpfError:
            span[4] = REFUSED
            raise
        except Exception:
            span[4] = FAILED
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if first:
                rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.rss_rise_mb[name] = (rss1 - rss0) / 1024.0

    def wrap(self, name, fn):
        self.originals.add(_code_key(fn))

        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_model_taker(self, name, prefix, fn):
        self.originals.add(_code_key(fn))

        def traced(*args, **kwargs):
            if args:
                args = (self._instrument(prefix, args[0]),) + args[1:]
            else:
                kwargs["model"] = self._instrument(prefix, kwargs["model"])
            return self._call(name, fn, args, kwargs)
        return traced

    def _instrument(self, prefix, model):
        wrapped = {"drift": self.wrap(f"{prefix}.drift", model.drift),
                   "diffusion": self.wrap(f"{prefix}.sigma", model.diffusion)}
        if model.control_law is not None:
            wrapped["control_law"] = self.wrap(f"{prefix}.control",
                                               model.control_law)
        return dataclasses.replace(model, **wrapped)

    # -- installation ----------------------------------------------------

    def install(self):
        modules = _modules()
        for name, mod_name, attr in FUNCTIONS:
            orig = getattr(getattr(ipflab, mod_name, None), attr, None)
            if orig is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if name in _MODEL_TAKERS:
                wrapper = self._wrap_model_taker(name, _MODEL_TAKERS[name], orig)
            else:
                wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for cls in _record_classes(modules):
            orig = cls.__dict__["to_json"]
            self._restore.append((cls, "to_json", orig))
            setattr(cls, "to_json", self.wrap("cli.to_json", orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- completeness ----------------------------------------------------

    def count_check(self, run_pass):
        """Run one pass under cProfile; return the bindings the wrappers missed.

        Each entry is ``(function, wrapper_calls, profiled_calls)`` for an
        original whose wrapper saw fewer or more calls than cProfile did.
        """
        self.wrapper_calls.clear()
        prof = cProfile.Profile()
        prof.enable()
        try:
            run_pass()
        finally:
            prof.disable()
        profiled = Counter()
        for entry in prof.getstats():
            profiled[_code_key(entry.code)] += entry.callcount
        missed = []
        for key in sorted(self.originals, key=str):
            if key is None:
                continue
            seen = self.wrapper_calls[key]
            actual = profiled[key]
            if actual != seen:
                missed.append((f"{key[2]} ({key[0]}:{key[1]})", seen, actual))
        return missed


def _record_classes(modules):
    seen = []
    for mod in modules:
        for val in vars(mod).values():
            if (isinstance(val, type) and val.__module__ == mod.__name__
                    and "to_json" in val.__dict__ and val not in seen):
                seen.append(val)
    return seen


def span_summary(spans, first=0):
    """Per span name: calls, busy time, self time and outcome counts.

    ``spans`` is a slice of ``Tracer.spans`` starting at index ``first``.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                               REFUSED: 0, FAILED: 0})
    for idx, (name, start, end, parent, outcome) in enumerate(spans, first):
        rec = out[name]
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += (end - start) - child_time[idx]
        if outcome != OK:
            rec[outcome] += 1
    return dict(out)
