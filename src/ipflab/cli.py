"""Command-line front end for reproducible experiments.

Subcommands: simulate, entropy, identify, schedule, invariants, network,
diagnose, reproduce, pipeline; each takes only the flags it reads.
Parameters come from an optional JSON config document whose keys must be
flags of the chosen command and whose values must have the flag's type;
a flag given on the command line beats the config.  The default output
directory is taken from the IPFLAB_OUT environment variable when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import diffusion, diagnostics, entropy, identification, invariants
from . import control, eigenchain, network
from .diffusion import LN2, SCHEMA_VERSION, document, stream_stamp
from .errors import IpfError


def _outdir(args) -> Path:
    out = args.out or os.environ.get("IPFLAB_OUT", ".")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write(path: Path, text: str):
    path.write_text(text)
    print(f"wrote {path}")


def cmd_simulate(args) -> int:
    model = diffusion.linear_model(args.theta, args.sigma, args.x0, 0.0,
                                   (0.0, args.horizon))
    stats = diffusion.simulate_ensemble(model, args.n_paths, dt=args.dt,
                                        seed=args.seed)
    stats = diffusion.covariance_derivative(stats)
    out = _outdir(args)
    if args.format == "csv":
        head = {"schema_version": SCHEMA_VERSION, **stream_stamp(stats)}
        _write(out / "ensemble.csv",
               "# " + " ".join(f"{k}={v}" for k, v in head.items()) + "\n"
               + stats.to_csv())
    else:
        _write(out / "ensemble.json", stats.to_json())
    return 0


def cmd_entropy(args) -> int:
    model = diffusion.linear_model(args.theta, args.sigma, args.x0, 0.0,
                                   (0.0, args.horizon))
    mc = entropy.entropy_mc(model, args.n_paths, dt=args.dt, seed=args.seed)
    grid = np.linspace(0.0, args.horizon, 2001)
    # closed-form covariance of the linear model from its moment equation
    r0 = args.x0 ** 2
    s2 = args.sigma ** 2
    th = args.theta
    if abs(th) > 1e-14:
        # expm1 keeps what (r0 + s2/2th) e^{2th t} - s2/2th cancels at small th
        r = r0 * np.exp(2 * th * grid) + s2 * np.expm1(2 * th * grid) / (2 * th)
    else:
        r = r0 + s2 * grid
    stats = diffusion.stats_from_covariance(grid, r)
    cf = entropy.entropy_covariance_form(args.theta, stats, args.sigma)
    print(document({**stream_stamp(mc),
                    "monte_carlo": {"value": mc.value,
                                    "std_error": mc.std_error},
                    "covariance_form": {"value": cf.value},
                    "gap": abs(mc.value - cf.value)}))
    return 0


def cmd_identify(args) -> int:
    model = diffusion.linear_model(args.theta, args.sigma, args.x0, 0.0,
                                   (0.0, args.horizon))
    stats = diffusion.simulate_ensemble(model, args.n_paths, dt=args.dt,
                                        seed=args.seed)
    tau = args.horizon
    b = np.array([[0.5 * args.sigma ** 2]])
    reports = [
        identification.identify_reduced_feedback(stats, tau, b=b),
        identification.identify_covariance_ratio(stats, tau),
        identification.identify_dispersion_window(stats, tau,
                                                  window=args.horizon),
        identification.identify_closed_loop(stats, tau, b=b),
    ]
    print(document({**stream_stamp(stats), "reports": reports}))
    return 0


def cmd_schedule(args) -> int:
    spec = invariants.optimal_spectrum(args.n, args.alpha1)
    chain = eigenchain.build_equalization_chain(spec, args.n)
    inv = invariants.invariant_set(args.gamma)
    sched = control.schedule_from_invariants(inv, spec)
    print(document({"chain": chain, "schedule": sched}))
    return 0


def cmd_invariants(args) -> int:
    inv = invariants.invariant_set(args.gamma)
    print(inv.to_json())
    return 0


def cmd_network(args) -> int:
    net = network.build_in(args.n, args.gamma, args.alpha1)
    print(net.to_json())
    print(net.to_outline())
    return 0


def _segment_trace(sched):
    """Noiseless per-segment traces, stopping short of the in-segment zero.

    A positive-eigenvalue segment crosses zero at lam*(t - tau) = ln 2;
    the trace is cut at 90% of that moment so log-based diagnostics stay
    defined.
    """
    grid_parts, x_parts, dps = [], [], []
    for seg in sched.segments:
        t_end = seg.t_end
        if seg.eigenvalue > 0:
            t_end = min(t_end, seg.t_start + 0.9 * LN2 / seg.eigenvalue)
        t = np.linspace(seg.t_start, t_end, 200)
        grid_parts.append(t)
        x_parts.append(control.segment_trajectory(seg.start_state,
                                                  seg.eigenvalue, t,
                                                  tau=seg.t_start))
        # split point placed inside the unsampled gap after the cut
        dps.append(0.5 * (t_end + seg.t_end))
    return np.concatenate(grid_parts), np.concatenate(x_parts), dps[:-1]


def cmd_diagnose(args) -> int:
    inv = invariants.invariant_set(args.gamma)
    spec = invariants.optimal_spectrum(args.n, args.alpha1)
    sched = control.schedule_from_invariants(inv, spec)
    grid, x, dps = _segment_trace(sched)
    report = diagnostics.diagnose_segments(grid, x, dps)
    print(report.to_json())
    return 0


def reproduction_rows() -> list:
    """Every desk-checkable constant: (name, reference, computed, tol, kind).

    kind 'abs' or 'rel' for the tolerance; a row exceeding its tolerance is
    FLAG, never a silent failure.  Two rows are expected FLAG: the direct
    companion-equation value at gamma = 0.5 against the tabulated 0.25, and
    the spread-growth formula against the ranged-spectrum ratio.
    """
    ao0 = abs(invariants.solve_ao(0.0))
    a0 = invariants.invariant_a(0.0, ao0)
    ao5 = abs(invariants.solve_ao(0.5))
    a5_formula = invariants.invariant_a(0.5, ao5)
    inv5 = invariants.invariant_set(0.5)
    rep = network.triplet_accounting(inv5)
    spec = invariants.optimal_spectrum(3, 1.0)
    r12 = spec[0] / spec[1]
    r23 = spec[1] / spec[2]
    mrc = network.max_ratio_check(2)
    life_min = invariants.lifetime_ratio(0.089179639, [5284.0])
    life_max = invariants.lifetime_ratio(0.848, [5284.0])
    ao1 = abs(invariants.solve_ao(1.0))

    rows = [
        ("ao at gamma=0", 0.768, ao0, 0.001, "abs"),
        ("a at gamma=0", 0.23193, a0, 0.002, "abs"),
        ("ao at gamma=0.5 vs ln 2", LN2, ao5, 0.03, "rel"),
        ("a at gamma=1", 0.0, invariants.invariant_a(1.0, ao1), 1e-12, "abs"),
        ("ao decreasing toward gamma=1", 1.0, float(ao1 < ao5 < ao0), 0.0, "abs"),
        ("a formula at gamma=0.5 vs tabulated 0.25", 0.25, a5_formula, 0.02, "abs"),
        ("delta_star at gamma=0.5", 0.089179639, inv5.delta_star, 1e-4, "abs"),
        ("defect delta*ao^2", 0.044465455, inv5.defect, 1e-3, "abs"),
        ("lifetime T_irr minimal", 471.225, life_min["T_irr"], 0.5, "abs"),
        ("lifetime T_irr maximal", 4480.832, life_max["T_irr"], 1.0, "abs"),
        ("spectrum ratio alpha1/alpha2", 3.8956, r12, 1e-3, "abs"),
        ("spectrum ratio alpha2/alpha3", 1.7585, r23, 1e-3, "abs"),
        ("spread formula vs spectrum ratio (n=2)", mrc["formula_value"],
         mrc["spectrum_ratio"], 0.10, "rel"),
        ("triplet total nats", 2.75, rep.total_nats, 0.02, "rel"),
        ("triplet total bits", 3.96, rep.total_bits, 0.02, "rel"),
        ("delivered 1", 0.7708, rep.contributions["deliver1"], 0.01, "rel"),
        ("delivered 2", 0.306, rep.contributions["deliver2"], 0.01, "rel"),
        ("consumed 1", 0.232, rep.contributions["consumed1"], 0.02, "rel"),
        ("consumed 2", 0.1797, rep.contributions["consumed2"], 0.02, "rel"),
        ("doublet closure vs ao^2", 0.50088, rep.contributions["closure"], 0.02, "rel"),
        ("node transfer nats", 0.70535, rep.node_transfer_nats, 0.02, "rel"),
        ("node bits", 1.0157, rep.node_bits, 0.02, "rel"),
    ]
    return rows


def reproduction_table() -> list:
    table = []
    for name, ref, val, tol, kind in reproduction_rows():
        gap = abs(val - ref)
        rel = gap / abs(ref) if ref != 0 else gap
        ok = gap <= tol if kind == "abs" else rel <= tol
        table.append({"name": name, "reference": ref, "computed": val,
                      "relative_gap": rel, "status": "PASS" if ok else "FLAG"})
    return table


def cmd_reproduce(args) -> int:
    table = reproduction_table()
    width = max(len(r["name"]) for r in table)
    for r in table:
        print(f"{r['name']:<{width}}  ref={r['reference']:<12.8g} "
              f"computed={r['computed']:<12.8g} gap={r['relative_gap']:.2e} "
              f"{r['status']}")
    out = _outdir(args)
    _write(out / "reproduction.json", document({"rows": table}))
    return 0


def cmd_pipeline(args) -> int:
    """Six documents, written once every stage has run: a stage that fails
    leaves no partial set of artifacts behind."""
    model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, args.horizon))
    stats = diffusion.simulate_ensemble(model, args.n_paths, dt=args.dt,
                                        seed=args.seed)
    stats = diffusion.covariance_derivative(stats)
    ops = [identification.identify_covariance_ratio(stats, t)
           for t in np.linspace(args.horizon / 4, args.horizon, 4)]
    inv = invariants.invariant_set(args.gamma)
    spec = invariants.optimal_spectrum(args.n, args.alpha1)
    sched = control.schedule_from_invariants(inv, spec)
    net = network.build_in(args.n, args.gamma, args.alpha1)
    report = diagnostics.diagnose_segments(*_segment_trace(sched))
    docs = {"ensemble.json": stats.to_json(),
            "operators.json": document({"operators": ops}),
            "schedule.json": sched.to_json(), "network.json": net.to_json(),
            "diagnostics.json": report.to_json()}
    # the ensemble's stamp carries seed, n_paths and the dt actually used
    docs["manifest.json"] = document(
        {**stream_stamp(stats), "artifacts": list(docs),
         "config": {"n": args.n, "gamma": args.gamma,
                    "alpha1": args.alpha1, "horizon": args.horizon}})
    out = _outdir(args)
    # every file first, then the lines: a closed stdout cannot cut the set
    for name, text in docs.items():
        (out / name).write_text(text)
    for name in docs:
        print(f"wrote {out / name}")
    return 0


def build_parser(config: dict = None) -> argparse.ArgumentParser:
    """The ipflab parser; config values, if given, replace built-in defaults."""
    parser = argparse.ArgumentParser(prog="ipflab")
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its fields")
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {name: sub.add_parser(name) for name in _DISPATCH}
    for name in ("simulate", "reproduce", "pipeline"):
        cmds[name].add_argument("--out", default=None, help="output directory")
    for name in ("simulate", "entropy", "identify", "pipeline"):
        p = cmds[name]
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n-paths", dest="n_paths", type=int, default=10000)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--horizon", type=float, default=1.0)
    for name in ("simulate", "entropy", "identify"):
        p = cmds[name]
        p.add_argument("--theta", type=float, default=-1.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--x0", type=float, default=1.0)
    cmds["simulate"].add_argument("--format", choices=("json", "csv"),
                                  default="json")
    for name in ("schedule", "network", "diagnose", "pipeline"):
        p = cmds[name]
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--gamma", type=float, default=0.5)
        p.add_argument("--alpha1", type=float, default=1.0)
    cmds["invariants"].add_argument("--gamma", type=float, default=None)
    if config:
        for p in cmds.values():
            # argparse lists a parser's flags only in its private _actions
            for action in p._actions:
                if action.dest in config:
                    want = _config_misfit(action, config[action.dest])
                    if want:
                        parser.error(f"config key {action.dest} must be "
                                     f"{want}, not {config[action.dest]!r}")
            p.set_defaults(**config)
    return parser


def _config_misfit(action, val):
    """What a config value for this flag must be, or None if it fits.

    Values are refused, never converted: an int (not a bool) for an int
    flag, an int or a float for a float flag, one of the choices where the
    flag has them, a string otherwise; null only where the flag's default
    is None.
    """
    if action.type is int:
        want, ok = "an integer", isinstance(val, int) and not isinstance(val, bool)
    elif action.type is float:
        want, ok = "a number", (isinstance(val, (int, float))
                                and not isinstance(val, bool))
    elif action.choices is not None:
        want, ok = "one of " + ", ".join(action.choices), val in action.choices
    else:
        want, ok = "a string", isinstance(val, str)
    return None if ok or (val is None and action.default is None) else want


_DISPATCH = {
    "simulate": cmd_simulate, "entropy": cmd_entropy,
    "identify": cmd_identify, "schedule": cmd_schedule,
    "invariants": cmd_invariants, "network": cmd_network,
    "diagnose": cmd_diagnose, "reproduce": cmd_reproduce,
    "pipeline": cmd_pipeline,
}


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """build_parser() with no config, built once per process; parsing
    never changes it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _default_parser()
    args = parser.parse_args(argv)
    if args.config:
        # precedence: explicit flags > config file > built-in defaults
        def refuse(name):
            parser.error(f"config file {args.config} holds {name}, which is not JSON")

        try:
            raw = json.loads(Path(args.config).read_text(), parse_constant=refuse)
        except (OSError, ValueError) as exc:
            parser.error(f"config file {args.config} cannot be read: {exc}")
        if not isinstance(raw, dict):
            parser.error(f"config file {args.config} must hold a JSON object, "
                         f"not {type(raw).__name__}")
        cfg = {key.replace("-", "_"): val for key, val in raw.items()}
        unknown = set(cfg) - (set(vars(args)) - {"config", "command"})
        if unknown:
            parser.error(f"config keys not taken by {args.command}: "
                         + ", ".join(sorted(unknown)))
        parser = build_parser(cfg)
        args = parser.parse_args(argv)
    if args.command in ("simulate", "entropy", "identify", "pipeline") and args.seed is None:
        parser.error(f"{args.command} requires --seed (or a seed config field)")
    if args.command == "invariants" and args.gamma is None:
        parser.error("invariants requires --gamma")
    try:
        code = _DISPATCH[args.command](args)
        # what is still buffered fails here, not in the exit's own flush
        sys.stdout.flush()
        return code
    except IpfError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: the exit's flush of what is left would
        # fail again, so stdout goes to the null device
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):   # a stdout with no file descriptor
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
