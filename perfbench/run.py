"""ipflab benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: pipeline, entropy, ensemble3 (see perfbench/README.md).
With ``--trace 0`` the run is untraced and reports the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it is a separate traced run and
reports the per-layer metrics.  Each workload runs in its own fresh
process; set-up is timed over several more fresh processes.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the
environment, fingerprints and (traced) spans, is written under
perfbench/out/.

This file uses only the standard library; ipflab runs in the worker.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("pipeline", "entropy", "ensemble3")
SETUP_PROBES = 4          # timed set-up processes besides the worker itself
DEADLINE_S = 170.0        # whole run, set-up included


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = int(env.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        threads = nproc
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    return env


def _spawn(argv, env, deadline):
    """Run one worker; return seconds from start to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {line.strip()!r}")
        proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup_s
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_workload(name, seed, seconds, trace, spec, deadline):
    env = _worker_env()
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--scratch", str(scratch)]
    setup = []
    if not trace:
        _spawn(common + ["--setup-only"], env, deadline)    # warm the caches
        for _ in range(SETUP_PROBES):
            setup.append(_spawn(common + ["--setup-only"], env, deadline))
    result_path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    setup.append(_spawn(common + ["--seconds", str(seconds), "--trace", str(trace),
                                  "--result", str(result_path)], env, deadline))
    res = json.loads(result_path.read_text())
    result_path.unlink()
    return summarize(res, setup, spec)


def summarize(res, setup, spec):
    passes = res["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    refused = sum(p["refused"] for p in passes)
    rel_errs = [p["rel_err"] for p in passes]
    problems = sorted({q for p in passes for q in p["problems"]})
    checks = list(res["fingerprint_problems"])
    if any(p["wrong"] for p in passes):
        checks.append("an output failed its check")
    if any(r is None for r in rel_errs):
        checks.append("rel_err could not be computed on every pass")
    for fn, seen, actual in res.get("missed_calls", []):
        checks.append(f"tracing missed calls of {fn}: wrapper saw {seen}, "
                      f"cProfile saw {actual}")
    fingerprint = passes[0]["fingerprint"]
    baseline = json.loads((HERE / "fingerprints.json").read_text())
    recorded = baseline.get(res["workload"], {}).get(str(res["seed"]))
    tols = [p["rel_err_tol"] for p in passes if p["rel_err_tol"] is not None]

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": res["work_per_pass"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
        "rel_err": max((r for r in rel_errs if r is not None), default=None),
        "failed_frac": failed / attempted,
    }
    values.update(res.get("layer", {}))
    group = "per_layer" if res["trace"] else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if values.get(m["name"]) is None:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = {
        "workload": res["workload"], "seed": res["seed"], "trace": res["trace"],
        "correct": not checks, "checks_failed": checks,
        "attempted": attempted, "failed": failed, "refused": refused,
        "failed_operations": problems,
        "metrics": metrics, "all_values": values,
        "setup_samples_s": setup, "pass_walls_s": [p["wall_s"] for p in passes],
        "untraced_pass_walls_s": [p["wall_s"] for p in res.get("untraced_passes", [])],
        "warmup_wall_s": res.get("warmup_wall_s"),
        "work_per_pass": res["work_per_pass"], "work_unit": res["work_unit"],
        "rel_err_tol": min(tols) if tols else None,
        "noise_bytes": res["noise_bytes"], "path_steps": res["path_steps"],
        "fingerprint": fingerprint, "fingerprint_baseline": recorded,
        "fingerprint_stable": not res["fingerprint_problems"],
        "count_notes": res.get("count_notes", []),
        "absent_functions": res.get("absent_functions", []),
        "env": res["env"],
    }
    stem = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if res["trace"]:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "outcome"],
             "spans": res["spans"]}))
    return record


def report(rec):
    v = rec["all_values"]
    n = len(rec["pass_walls_s"])
    env = rec["env"]
    l3 = env["caches"].get("L3", {}).get("size", "?")
    lines = [f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"]
    if not rec["trace"]:
        lines += [
            f"  setup_s      {v['setup_s']:.4f} s      median of "
            f"{len(rec['setup_samples_s'])} fresh processes",
            f"  wall_s       {v['wall_s']:.4f} s      median of {n} passes after an "
            f"untimed warm-up pass of {rec['warmup_wall_s']:.4f} s",
            f"  work_per_s   {v['work_per_s']:.6g} 1/s  {rec['work_unit']} per second, "
            f"{rec['work_per_pass']:.6g} per pass",
            f"  peak_rss_mb  {v['peak_rss_mb']:.1f} MB",
        ]
    tol = rec["rel_err_tol"]
    lines += [
        f"  failed_frac  {v['failed_frac']:.4g} ratio  {rec['failed']} failed, "
        f"{rec['refused']} refused of {rec['attempted']} operations",
        "  rel_err      " + ("n/a" if v["rel_err"] is None else f"{v['rel_err']:.4g}")
        + " ratio  tolerance " + (f"{tol:.4g}" if tol is not None else "each row's own"),
    ]
    if rec["noise_bytes"]:
        lines.append(f"  noise        {rec['noise_bytes'] / 1e6:.0f} MB per pass "
                     f"({rec['noise_bytes'] / 2**20:.0f} MiB), L3 {l3}")
    base = rec["fingerprint_baseline"]
    lines.append(f"  fingerprint  {rec['fingerprint'][:16]}  "
                 + ("stable" if rec["fingerprint_stable"] else "UNSTABLE")
                 + "; baseline " + ("not recorded" if base is None else
                                    "match" if base == rec["fingerprint"] else
                                    f"differs ({base[:16]})"))
    if rec["trace"]:
        lines.append(f"  trace_overhead {v['trace_overhead']:.4f} ratio  traced "
                     f"over untraced pass wall, {n} traced, "
                     f"{len(rec['untraced_pass_walls_s'])} untraced")
        for name, m in rec["metrics"].items():
            if m["value"] and name not in ("rel_err", "failed_frac", "trace_overhead"):
                lines.append(f"  {name:<52} {m['value']:.6g} {m['unit']}")
        for note in rec["count_notes"][:20]:
            lines.append(f"  NOTE span count differs from the input-derived one: {note}")
    for op in rec["failed_operations"]:
        lines.append(f"  failed operation: {op}")
    for check in rec["checks_failed"]:
        lines.append(f"  CHECK FAILED: {check}")
    lines.append(f"  env: nproc {env['nproc']}, L2 "
                 f"{env['caches'].get('L2', {}).get('size', '?')}, L3 {l3}, "
                 f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"{env['blas']} with {env['blas_threads']} threads")
    print("\n".join(lines))
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ipflab" / "__init__.py").is_file():
        print(f"perfbench: no ipflab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        try:
            rec = run_workload(name, args.seed, args.seconds, args.trace, spec,
                               deadline)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
