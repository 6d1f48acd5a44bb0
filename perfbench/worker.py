"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``; not meant to be run by hand.  It imports ipflab
(through ``workloads``), builds the workload's inputs from the seed and
prints ``ready``; the parent times process start to that line as set-up.  With ``--setup-only``
it exits there.  Otherwise it runs passes for ``--seconds`` and writes a
JSON result to ``--result``.

Untraced (``--trace 0``): an untimed warm-up pass, then timed passes back
to back with nothing wrapped; every pass with the same inputs as the
warm-up must reproduce its fingerprint.  Traced (``--trace 1``): passes alternate between
traced and untraced on the same inputs, so the traced time over the
untraced time is the tracing overhead; a last pass runs under cProfile to
check the wrappers saw every call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import workloads
from tracing import FUNCTIONS, Tracer, span_summary

MIN_PASSES = 2


def _run_pass(wl, index):
    ops = workloads.Ops()
    wl.run_pass(index, ops)
    return ops


def _pass_record(wl, index, ops):
    return {"index": index, "wall_s": ops.busy_s,
            "attempted": ops.attempted, "failed": ops.failed,
            "wrong": ops.wrong,
            "refused": ops.refused, "problems": ops.problems,
            "rel_err": ops.rel_err, "rel_err_tol": ops.rel_err_tol,
            "artifact_bytes": ops.artifact_bytes,
            "fingerprint": ops.fingerprint()}


def _fingerprint_check(records):
    """Problems where two passes with the same inputs disagree."""
    first = {}
    problems = []
    for rec in records:
        ref = first.setdefault(rec["index"], rec["fingerprint"])
        if rec["fingerprint"] != ref:
            problems.append(f"pass with inputs {rec['index']} gave fingerprint "
                            f"{rec['fingerprint'][:16]}, earlier {ref[:16]}")
    return problems


def measure_untraced(wl, seconds):
    # The first pass in a process pays one-time costs (first touch of the
    # large arrays, lazy initialisation) and ran up to 25% slower than the
    # passes after it, so it runs untimed; its fingerprint is the reference
    # the timed passes with the same inputs must reproduce.
    warmup = _pass_record(wl, 0, _run_pass(wl, 0))
    records = []
    start = time.perf_counter()
    while len(records) < MIN_PASSES or time.perf_counter() - start < seconds:
        index = len(records) if wl.varies_per_pass else 0
        records.append(_pass_record(wl, index, _run_pass(wl, index)))
    return {"passes": records, "warmup_wall_s": warmup["wall_s"],
            "fingerprint_problems": _fingerprint_check([warmup] + records)}


def measure_traced(wl, seconds):
    tracer = Tracer()
    traced, plain, summaries, count_notes = [], [], [], []
    start = time.perf_counter()
    turn = 0
    while (not traced or not plain or time.perf_counter() - start < seconds):
        index = turn // 2 if wl.varies_per_pass else 0
        if turn % 2 == 0:
            mark = len(tracer.spans)
            tracer.install()
            try:
                ops = _run_pass(wl, index)
            finally:
                tracer.uninstall()
            summary = span_summary(tracer.spans[mark:], mark)
            summaries.append(summary)
            traced.append(_pass_record(wl, index, ops))
            measured = Counter({k: v["calls"] for k, v in summary.items()})
            expected = wl.expected_calls(index, ops)
            for name in sorted(set(measured) | set(expected)):
                if measured[name] != expected[name]:
                    count_notes.append(f"pass {len(traced) - 1}: {name} "
                                       f"{measured[name]} calls, expected "
                                       f"{expected[name]}")
        else:
            plain.append(_pass_record(wl, index, _run_pass(wl, index)))
        turn += 1

    # independent call count on the first traced inputs
    tracer.install()
    try:
        missed = tracer.count_check(lambda: _run_pass(wl, traced[0]["index"]))
    finally:
        tracer.uninstall()

    layer = _layer_metrics(wl, summaries, tracer, traced)
    # the first traced pass also pays the process's warm-up; leave it out
    # of the overhead when there are others
    warm = traced[1:] or traced
    layer["trace_overhead"] = (statistics.median(r["wall_s"] for r in warm)
                               / statistics.median(r["wall_s"] for r in plain))
    return {"passes": traced, "untraced_passes": plain,
            "fingerprint_problems": _fingerprint_check(traced + plain),
            "missed_calls": missed, "count_notes": count_notes,
            "absent_functions": tracer.absent, "layer": layer,
            "spans": tracer.spans}


CALLBACKS = ["diffusion.drift", "diffusion.sigma", "diffusion.control",
             "entropy.drift", "entropy.sigma", "entropy.control"]


def _layer_metrics(wl, summaries, tracer, traced):
    names = [f[0] for f in FUNCTIONS] + CALLBACKS + ["cli.to_json"]
    out = {}
    for name in names:
        for kind in ("calls", "busy_s", "self_s", "refused", "failed"):
            vals = [s[name][kind] if name in s else 0 for s in summaries]
            out[f"{name}.{kind}"] = statistics.median(vals)
        out[f"{name}.rss_mb"] = tracer.rss_rise_mb.get(name, 0.0)
    out["identification.refused"] = sum(
        out[f"{n}.refused"] for n in names if n.startswith("identification."))
    out["diffusion.noise_bytes"] = wl.noise_bytes
    out["diffusion.path_steps"] = wl.path_steps
    out["cli.artifact_bytes"] = statistics.median(r["artifact_bytes"] for r in traced)
    return out


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            shared = (idx / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = {"size": size, "shared_cpu_list": shared}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process": "each workload in its own fresh single process",
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # build_in warns once for n < 3; its record already carries the flag
    warnings.filterwarnings("ignore", message="fewer than three eigenvalues")
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = measure_traced(wl, args.seconds)
    else:
        result = measure_untraced(wl, args.seconds)
    result.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "work_unit": wl.work_unit, "work_per_pass": wl.work_per_pass,
        "noise_bytes": wl.noise_bytes, "path_steps": wl.path_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
