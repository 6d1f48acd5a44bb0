"""Byte-stable CLI artifacts and the per-command flag sets.

The reference renderers below are frozen copies of the hand-written
``to_json`` bodies and CLI document layouts that the shared record writer
replaced, under schema 2's one head layout: schema_version first, then a
Monte Carlo result's stream stamp, then the body.  Every subcommand's
stdout and files must match them byte for byte, so a change to field
order, array conversion or stamp position shows up here before it reaches
a user's files.
"""

import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipflab import (cli, control, diagnostics, diffusion, eigenchain, entropy,
                    identification, invariants, network)
from ipflab.errors import NonFiniteOutputError

SCHEMA = "2"
STREAM = "6"


# -- reference renderers ------------------------------------------------------

def stream_stamp(seed, n_paths, dt, scheme="weak2-linear"):
    """A Monte Carlo document's stamp; the linear models here take the
    matrix route's scheme, a model given by callbacks alone "euler"."""
    return {"stream_version": STREAM, "scheme": scheme, "seed": seed,
            "n_paths": n_paths, "dt": dt}


def stamped(text, stamp=None):
    """The document of a body: schema_version first, then the stamp."""
    return json.dumps({"schema_version": SCHEMA, **(stamp or {}),
                       **json.loads(text)}, indent=2)


def ref_ensemble(s, dt=None):
    """A simulated ensemble's document when its dt is given, otherwise an
    analytic one's, which has no stream stamp."""
    body = {"grid": s.grid.tolist(), "mean": s.mean.tolist(),
            "r": s.r.tolist()}
    if s.r_dot is not None:
        body["r_dot_method"] = "central-difference"
    body["r_dot"] = None if s.r_dot is None else s.r_dot.tolist()
    return stamped(json.dumps(body), None if dt is None
                   else stream_stamp(s.seed, s.n_paths, dt))


def ref_operator(op):
    return json.dumps({
        "tau": op.tau, "method": op.method,
        "A": np.atleast_2d(op.A).tolist(),
        "eigenvalues_real": np.real(op.eigenvalues).tolist(),
        "eigenvalues_imag": np.imag(op.eigenvalues).tolist(),
        "diagnostics": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                        for k, v in op.diagnostics.items()},
    }, indent=2)


def ref_chain(c):
    return json.dumps({"n": c.n, "m": c.m, "lambdas": c.lambdas,
                       "intervals": c.intervals}, indent=2)


def ref_invariants(inv):
    doc = {k: getattr(inv, k) for k in
           ("gamma", "ao_signed", "ao_abs", "a", "a_formula",
            "b_o", "b", "delta_star", "defect")}
    doc["provenance"] = inv.provenance
    return json.dumps(doc, indent=2)


def ref_triplet(rep):
    doc = {k: getattr(rep, k) for k in
           ("gamma", "ao_abs", "a", "delta_star", "gamma13", "gamma23",
            "total_nats", "total_bits", "node_transfer_nats",
            "node_bits", "balance_residual")}
    doc["contributions"] = rep.contributions
    return json.dumps(doc, indent=2)


def ref_network(net):
    return json.dumps({"nodes": net.nodes, "code": net.code,
                       "totals": net.totals, "flags": net.flags}, indent=2)


def ref_schedule(sched):
    return json.dumps({
        "dps": list(sched.dps),
        "segments": [{"t_start": s.t_start, "t_end": s.t_end,
                      "eigenvalue": s.eigenvalue,
                      "start_state": s.start_state,
                      "control": s.control} for s in sched.segments],
        "needle_events": [{"tau": e.tau,
                           "v_minus": np.atleast_1d(e.v_minus).tolist(),
                           "v_plus": np.atleast_1d(e.v_plus).tolist(),
                           "delta_v": np.atleast_1d(e.delta_v).tolist()}
                          for e in sched.needle_events],
    }, indent=2)


def ref_diagnostics(rep):
    return json.dumps({"lce_per_segment": rep.lce_per_segment,
                       "sign_flips": rep.sign_flips,
                       "classification": rep.classification}, indent=2)


def ref_entropy_estimate(est, stamp=None):
    """The Monte Carlo estimate's document with its stream stamp, the
    closed form's without one."""
    return stamped(json.dumps({"value": est.value, "method": est.method,
                               "horizon": list(est.horizon),
                               "std_error": est.std_error}), stamp)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


# -- library records ----------------------------------------------------------

def test_every_record_matches_its_reference():
    grid = np.linspace(0, 1, 11)
    stats = diffusion.covariance_derivative(
        diffusion.stats_from_covariance(grid, np.exp(grid)))
    assert stats.to_json() == ref_ensemble(stats)
    # a complex pair: the real and imaginary parts go to two keys
    rot = identification._make(0.5, [[0.0, -1.0], [1.0, 0.0]], "test",
                               {"r_v": np.eye(2)})
    for op in (identification.identify_covariance_ratio(stats, 0.5), rot):
        assert op.to_json() == stamped(ref_operator(op))
    inv = invariants.invariant_set(0.5)
    assert inv.to_json() == stamped(ref_invariants(inv))
    rep = network.triplet_accounting(inv)
    assert rep.to_json() == stamped(ref_triplet(rep))
    for n in (5, 6):
        net = network.build_in(n, 0.3, 1.0)
        assert net.to_json() == stamped(ref_network(net))
    spec = invariants.optimal_spectrum(3, 1.0)
    chain = eigenchain.build_equalization_chain(spec, 3)
    assert chain.to_json() == stamped(ref_chain(chain))
    sched = control.schedule_from_invariants(inv, spec)
    assert sched.to_json() == stamped(ref_schedule(sched))
    t = np.linspace(0, 1, 50)
    diag = diagnostics.diagnose_segments(t, np.exp(t), [])
    assert diag.to_json() == stamped(ref_diagnostics(diag))
    model = diffusion.DiffusionModel(
        n=1, drift=lambda t, x, u: -x, diffusion=lambda t: [[1.0]],
        initial_mean=[1.0], initial_cov=[[0.0]], horizon=(0.0, 0.1))
    est = entropy.entropy_mc(model, 20, dt=0.05, seed=1)
    assert est.to_json() == ref_entropy_estimate(est, stream_stamp(1, 20, 0.05,
                                                                   "euler"))
    est = entropy.entropy_covariance_form(1.0, stats, 1.0)
    assert est.to_json() == ref_entropy_estimate(est)


def test_numpy_integer_seed_stamped_as_int():
    # a numpy seed used to end in "Object of type uint64 is not JSON
    # serializable" when the ensemble was written
    model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 0.1))
    for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
        want = run(model, 20, dt=0.05, seed=2 ** 64 - 1).to_json()
        assert run(model, 20, dt=0.05, seed=np.uint64(2 ** 64 - 1)).to_json() == want


def test_numpy_integer_n_paths_stamped_as_int():
    # a numpy n_paths used to end in "Object of type int64 is not JSON
    # serializable" when the record was written
    model = diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 0.1))
    for run in (diffusion.simulate_ensemble, entropy.entropy_mc):
        want = run(model, 20, dt=0.05, seed=1).to_json()
        assert run(model, np.int64(20), dt=0.05, seed=1).to_json() == want


# -- subcommands --------------------------------------------------------------

SIM = ["--seed", "1", "--n-paths", "200", "--dt", "0.02", "--horizon", "0.2"]


def sim_stats(theta=-1.0, sigma=1.0, x0=1.0, horizon=0.2, n_paths=200,
              dt=0.02, seed=1):
    model = diffusion.linear_model(theta, sigma, x0, 0.0, (0.0, horizon))
    stats = diffusion.simulate_ensemble(model, n_paths, dt=dt, seed=seed)
    return diffusion.covariance_derivative(stats)


def test_simulate_json_and_csv(tmp_path):
    stats = sim_stats()
    out = run_cli(["simulate"] + SIM + ["--out", str(tmp_path)])
    assert out == f"wrote {tmp_path / 'ensemble.json'}\n"
    assert (tmp_path / "ensemble.json").read_bytes().decode() == ref_ensemble(stats, 0.02)
    run_cli(["simulate"] + SIM + ["--format", "csv", "--out", str(tmp_path)])
    assert ((tmp_path / "ensemble.csv").read_bytes().decode()
            == "# schema_version=2 stream_version=6 scheme=weak2-linear seed=1 "
               "n_paths=200 dt=0.02\n"
            + stats.to_csv())


def test_entropy_document():
    argv = ["--seed", "3", "--n-paths", "500", "--theta", "1.0", "--dt", "0.01"]
    model = diffusion.linear_model(1.0, 1.0, 1.0, 0.0, (0.0, 1.0))
    mc = entropy.entropy_mc(model, 500, dt=0.01, seed=3)
    grid = np.linspace(0.0, 1.0, 2001)
    r = 1.5 * np.exp(2 * grid) - 0.5
    cf = entropy.entropy_covariance_form(
        1.0, diffusion.stats_from_covariance(grid, r), 1.0)
    doc = {"schema_version": SCHEMA, **stream_stamp(3, 500, 0.01),
           "monte_carlo": {"value": mc.value, "std_error": mc.std_error},
           "covariance_form": {"value": cf.value},
           "gap": abs(mc.value - cf.value)}
    assert run_cli(["entropy"] + argv) == json.dumps(doc, indent=2) + "\n"


def test_identify_document():
    stats = sim_stats(n_paths=2000, dt=0.01, horizon=1.0, seed=5)
    b = np.array([[0.5]])
    reports = [
        identification.identify_reduced_feedback(stats, 1.0, b=b),
        identification.identify_covariance_ratio(stats, 1.0),
        identification.identify_dispersion_window(stats, 1.0, window=1.0),
        identification.identify_closed_loop(stats, 1.0, b=b),
    ]
    doc = {"schema_version": SCHEMA, **stream_stamp(5, 2000, 0.01),
           "reports": [json.loads(ref_operator(r)) for r in reports]}
    out = run_cli(["identify", "--seed", "5", "--n-paths", "2000",
                   "--dt", "0.01"])
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("gamma", ["0", "0.3", "0.5", "1.0"])
def test_invariants_document(gamma):
    inv = invariants.invariant_set(float(gamma))
    out = run_cli(["invariants", "--gamma", gamma])
    assert out == stamped(ref_invariants(inv)) + "\n"


@settings(max_examples=15, deadline=None)
@given(gamma=st.floats(*invariants.GAMMA_DIAPASON),
       n=st.integers(1, 5), alpha1=st.floats(0.5, 2.0))
def test_schedule_network_diagnose_documents(gamma, n, alpha1):
    argv = ["--n", str(n), "--gamma", repr(gamma), "--alpha1", repr(alpha1)]
    inv = invariants.invariant_set(gamma)
    spec = invariants.optimal_spectrum(n, alpha1)
    chain = eigenchain.build_equalization_chain(spec, n)
    sched = control.schedule_from_invariants(inv, spec)
    doc = {"schema_version": SCHEMA, "chain": json.loads(ref_chain(chain)),
           "schedule": json.loads(ref_schedule(sched))}
    assert run_cli(["schedule"] + argv) == json.dumps(doc, indent=2) + "\n"

    with pytest.warns(UserWarning) if n < 3 else contextlib.nullcontext():
        net = network.build_in(n, gamma, alpha1)
        out = run_cli(["network"] + argv)
    assert out == stamped(ref_network(net)) + "\n" + net.to_outline() + "\n"

    report = diagnostics.diagnose_segments(*cli._segment_trace(sched))
    assert run_cli(["diagnose"] + argv) == stamped(ref_diagnostics(report)) + "\n"


def test_reproduce_table_and_file(tmp_path):
    table = cli.reproduction_table()
    width = max(len(r["name"]) for r in table)
    lines = [f"{r['name']:<{width}}  ref={r['reference']:<12.8g} "
             f"computed={r['computed']:<12.8g} gap={r['relative_gap']:.2e} "
             f"{r['status']}" for r in table]
    path = tmp_path / "reproduction.json"
    out = run_cli(["reproduce", "--out", str(tmp_path)])
    assert out == "\n".join(lines) + f"\nwrote {path}\n"
    assert path.read_bytes().decode() == json.dumps(
        {"schema_version": SCHEMA, "rows": table}, indent=2)


def test_pipeline_files(tmp_path):
    argv = ["pipeline", "--seed", "2", "--n-paths", "300", "--dt", "0.01",
            "--horizon", "0.5", "--n", "4", "--gamma", "0.4",
            "--alpha1", "1.2", "--out", str(tmp_path)]
    stats = sim_stats(-1.0, 1.0, 1.0, horizon=0.5, n_paths=300, dt=0.01,
                      seed=2)
    ops = [identification.identify_covariance_ratio(stats, t)
           for t in np.linspace(0.125, 0.5, 4)]
    inv = invariants.invariant_set(0.4)
    sched = control.schedule_from_invariants(
        inv, invariants.optimal_spectrum(4, 1.2))
    net = network.build_in(4, 0.4, 1.2)
    report = diagnostics.diagnose_segments(*cli._segment_trace(sched))
    names = ["ensemble.json", "operators.json", "schedule.json",
             "network.json", "diagnostics.json"]
    expected = {
        "ensemble.json": ref_ensemble(stats, 0.01),
        "operators.json": json.dumps(
            {"schema_version": SCHEMA,
             "operators": [json.loads(ref_operator(o)) for o in ops]},
            indent=2),
        "schedule.json": stamped(ref_schedule(sched)),
        "network.json": stamped(ref_network(net)),
        "diagnostics.json": stamped(ref_diagnostics(report)),
        "manifest.json": json.dumps(
            {"schema_version": SCHEMA, **stream_stamp(2, 300, 0.01),
             "artifacts": names,
             "config": {"n": 4, "gamma": 0.4, "alpha1": 1.2,
                        "horizon": 0.5}}, indent=2),
    }
    out = run_cli(argv)
    assert out == "".join(f"wrote {tmp_path / name}\n"
                          for name in names + ["manifest.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes().decode() == text, name


# SHA-256 of the n = 1 Monte Carlo documents at seed 1 and 1000 paths, on
# stream 6's matrix route: every stage's bits, from the draws to the
# writer.  They are the same with numpy's AVX-512 targets disabled and
# OpenBLAS on its Haswell kernels (NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR", OPENBLAS_CORETYPE=Haswell), and with every SIMD
# target disabled and OpenBLAS on its Nehalem kernels
ENSEMBLE_SHA256 = "27e5cb06b8d1df17ece39549cf7beb19612e5409651967074e184c750503705e"


@pytest.mark.parametrize("argv, digests", [
    (["pipeline"], {
        "ensemble.json": ENSEMBLE_SHA256,
        "operators.json": "30bf5047c132a9e5824211cc4fff17f46d73f3f48fcc3d33fef9cef5416ba6e6",
        "manifest.json": "7b69bd0671bb3ed980c6f71e1c056293b1f4e29380f17603c2c07e2e7daea78c"}),
    (["simulate"], {"ensemble.json": ENSEMBLE_SHA256}),
    (["simulate", "--format", "csv"], {
        "ensemble.csv": "b1fbea6a73dd0d2542d27732b70319d9fd4c6f4fdb90baa9aba7eb49918b9390"}),
], ids=["pipeline", "simulate-json", "simulate-csv"])
def test_n1_monte_carlo_documents_pinned(tmp_path, argv, digests):
    run_cli(argv + ["--seed", "1", "--n-paths", "1000", "--out", str(tmp_path)])
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


# -- every document's head ----------------------------------------------------

# no --dt: every Monte Carlo document must stamp the step the kernel took,
# a hundredth of the horizon on the matrix route of the linear models here
MC = ["--seed", "4", "--n-paths", "50", "--horizon", "0.2"]
MC_STAMP = stream_stamp(4, 50, 0.2 * 1e-2)
SHAPE = ["--n", "3", "--gamma", "0.5", "--alpha1", "1.0"]


def printed(argv):
    return lambda tmp_path: json.JSONDecoder().raw_decode(run_cli(argv))[0]


def written(argv, name):
    def make(tmp_path):
        run_cli(argv + ["--out", str(tmp_path)])
        return json.loads((tmp_path / name).read_text())
    return make


def from_record(build):
    return lambda tmp_path: json.loads(build().to_json())


def mc_model():
    return diffusion.linear_model(-1.0, 1.0, 1.0, 0.0, (0.0, 0.2))


def analytic_stats():
    grid = np.linspace(0, 1, 11)
    return diffusion.covariance_derivative(
        diffusion.stats_from_covariance(grid, np.exp(grid)))


# name: (make(tmp_path) -> parsed document, whether it is a Monte Carlo one);
# a subcommand's name is lower case, a record's starts with its class name
DOCUMENTS = {
    "simulate": (written(["simulate"] + MC, "ensemble.json"), True),
    "entropy": (printed(["entropy"] + MC), True),
    "identify": (printed(["identify"] + MC), True),
    "schedule": (printed(["schedule"] + SHAPE), False),
    "invariants": (printed(["invariants", "--gamma", "0.5"]), False),
    "network": (printed(["network"] + SHAPE), False),
    "diagnose": (printed(["diagnose"] + SHAPE), False),
    "reproduce": (written(["reproduce"], "reproduction.json"), False),
    **{f"pipeline-{name}": (written(["pipeline"] + MC, name),
                            name in ("ensemble.json", "manifest.json"))
       for name in ("ensemble.json", "operators.json", "schedule.json",
                    "network.json", "diagnostics.json", "manifest.json")},
    "EnsembleStats-simulated": (from_record(
        lambda: diffusion.covariance_derivative(
            diffusion.simulate_ensemble(mc_model(), 50, seed=4))), True),
    "EnsembleStats-analytic": (from_record(analytic_stats), False),
    "IdentifiedOperator": (from_record(
        lambda: identification.identify_covariance_ratio(analytic_stats(),
                                                         0.5)), False),
    "InvariantSet": (from_record(lambda: invariants.invariant_set(0.5)), False),
    "TripletReport": (from_record(
        lambda: network.triplet_accounting(invariants.invariant_set(0.5))),
        False),
    "InfoNetwork": (from_record(lambda: network.build_in(5, 0.5, 1.0)), False),
    "EigenChain": (from_record(lambda: eigenchain.build_equalization_chain(
        invariants.optimal_spectrum(3, 1.0), 3)), False),
    "SegmentSchedule": (from_record(lambda: control.schedule_from_invariants(
        invariants.invariant_set(0.5), invariants.optimal_spectrum(3, 1.0))),
        False),
    "DiagnosticsReport": (from_record(lambda: diagnostics.diagnose_segments(
        np.linspace(0, 1, 50), np.exp(np.linspace(0, 1, 50)), [])), False),
    "EntropyEstimate-monte-carlo": (from_record(
        lambda: entropy.entropy_mc(mc_model(), 50, seed=4)), True),
    "EntropyEstimate-covariance-form": (from_record(
        lambda: entropy.entropy_covariance_form(1.0, analytic_stats(), 1.0)),
        False),
}


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_document_head(tmp_path, name):
    """schema_version first; then, on a Monte Carlo document only, the
    stream stamp with the dt actually used."""
    make, monte_carlo = DOCUMENTS[name]
    doc = make(tmp_path)
    items = list(doc.items())
    assert items[0] == ("schema_version", SCHEMA)
    if monte_carlo:
        assert items[1:1 + len(MC_STAMP)] == list(MC_STAMP.items())
    else:
        assert not set(doc) & set(MC_STAMP)


def test_every_record_class_has_a_document_case():
    classes = {cls.__name__ for cls in diffusion.Record.__subclasses__()}
    assert classes == {name.split("-")[0] for name in DOCUMENTS
                       if name[0].isupper()}


@pytest.mark.parametrize("body,path", [
    ({"a": float("nan")}, "a"),
    ({"a": [1.0, {"b": [0.0, float("-inf")]}], "c": float("inf")}, "a[1].b[1]"),
])
def test_non_finite_number_refused_by_key_path(body, path):
    # json.dumps used to write NaN and Infinity, which are not JSON
    with pytest.raises(NonFiniteOutputError,
                       match=f"^{re.escape(path)} is not a finite number"):
        diffusion.document(body)


def test_network_with_an_infinite_time_exits_by_name(capsys):
    # a subnormal alpha1 overflows t_r, which used to be written as Infinity
    # with exit 0; build_in now refuses it before the division
    code = cli.main(["network", "--n", "3", "--alpha1", "1e-320"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error (InputError): alpha1=1e-320 ")


# -- flags --------------------------------------------------------------------

REMOVED = (
    [(cmd, ["--out", "x"]) for cmd in
     ("entropy", "identify", "schedule", "invariants", "network", "diagnose")]
    + [(cmd, ["--format", "json"]) for cmd in
       ("entropy", "identify", "schedule", "invariants", "network",
        "diagnose", "reproduce", "pipeline")]
    + [(cmd, ["--feedback"]) for cmd in
       ("simulate", "entropy", "identify", "pipeline")]
    + [("pipeline", [flag, "1.0"]) for flag in ("--theta", "--sigma", "--x0")]
)


@pytest.mark.parametrize("command,flag", REMOVED,
                         ids=[f"{c}{f[0]}" for c, f in REMOVED])
def test_removed_flag_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
