import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ipflab
from ipflab import cli


class TestInvariantsCommand:
    def test_prints_full_set(self, capsys):
        assert cli.main(["invariants", "--gamma", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"] == 0.252 and "provenance" in doc

    def test_gamma_required(self):
        with pytest.raises(SystemExit):
            cli.main(["invariants"])

    def test_gamma_above_one_refused(self, capsys):
        assert cli.main(["invariants", "--gamma", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "InputError" in captured.err


@pytest.mark.parametrize("argv", [
    ["invariants", "--gamma", "nan"], ["invariants", "--gamma=-inf"],
    ["network", "--gamma", "nan"], ["diagnose", "--gamma", "nan"],
    ["schedule", "--alpha1", "nan"], ["network", "--alpha1", "inf"]])
def test_non_finite_value_refused(capsys, argv):
    # gamma nan used to end in a traceback from scipy, alpha1 nan in a
    # misleading NoCooperationError
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (InputError): ")
    assert "finite" in captured.err


class TestReproduce:
    def test_exit_zero_and_table_written(self, tmp_path, capsys):
        assert cli.main(["reproduce", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "reproduction.json").read_text())
        assert doc["schema_version"] == "2"
        assert len(doc["rows"]) >= 15

    def test_exactly_two_flag_rows(self):
        table = cli.reproduction_table()
        flags = [r["name"] for r in table if r["status"] == "FLAG"]
        assert sorted(flags) == sorted([
            "a formula at gamma=0.5 vs tabulated 0.25",
            "spread formula vs spectrum ratio (n=2)"])


class TestNetworkCommand:
    def test_one_node(self, capsys):
        assert cli.main(["network", "--n", "3", "--gamma", "0.5",
                         "--alpha1", "1.0"]) == 0
        out = capsys.readouterr().out
        assert '"node_count": 1' in out and "code: AAAB" in out


class TestScheduleCommand:
    def test_chain_and_schedule_emitted(self, capsys):
        assert cli.main(["schedule", "--n", "3", "--gamma", "0.5",
                         "--alpha1", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["chain"]["intervals"]) == 2
        assert len(doc["schedule"]["segments"]) == 3

    def test_chain_past_n_five(self, capsys):
        # n >= 6 used to end in an OverflowError traceback
        assert cli.main(["schedule", "--n", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["chain"]["intervals"]) == 8

    @pytest.mark.parametrize("n", [12, 13])
    def test_chain_past_n_nine(self, n, capsys):
        # n = 13 used to end in an OverflowError traceback
        assert cli.main(["schedule", "--n", str(n)]) == 0

        def refuse(name):
            raise ValueError(f"{name} in the document")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert len(doc["chain"]["intervals"]) == n - 1

    def test_negative_alpha1_refused_by_name(self, capsys):
        # used to end in an OverflowError traceback
        assert cli.main(["schedule", "--alpha1=-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error (NoCooperationError): ")
        assert "Traceback" not in captured.err

    def test_negative_alpha1_pair_chained(self, capsys):
        assert cli.main(["schedule", "--n", "2", "--alpha1=-1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["chain"]["intervals"]) == 1


@pytest.mark.parametrize("argv", [
    ["entropy", "--seed", "1", "--n-paths", "100", "--sigma", "nan"],
    ["simulate", "--seed", "1", "--n-paths", "100", "--sigma", "inf"]])
def test_non_finite_sigma_refused(tmp_path, capsys, monkeypatch, argv):
    # entropy used to end in numpy's "SVD did not converge" traceback
    monkeypatch.setenv("IPFLAB_OUT", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error (InputError): sigma must be finite\n"


class TestStochasticCommands:
    def test_seed_mandatory(self):
        with pytest.raises(SystemExit):
            cli.main(["simulate"])

    def test_negative_seed_refused(self, tmp_path, capsys):
        assert cli.main(["simulate", "--seed", "-1", "--n-paths", "10",
                         "--dt", "0.1", "--out", str(tmp_path)]) == 1
        assert "InputError" in capsys.readouterr().err

    def test_infinite_horizon_refused(self, tmp_path, capsys):
        # used to end in a ValueError traceback from the step count
        assert cli.main(["simulate", "--seed", "1", "--horizon", "inf",
                         "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error (InputError): ")
        assert "finite" in captured.err

    def test_tiny_horizon_refused_without_nan(self, tmp_path, capsys):
        # used to print numpy warnings and write an r_dot of NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--seed", "1", "--n-paths", "3",
                             "--horizon", "1e-300", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (InputError): ") and "spacing" in err
        assert not (tmp_path / "ensemble.json").exists()

    @pytest.mark.parametrize("argv, stationary", [
        (["--horizon", "300"], 0.5), (["--theta", "-300"], 1 / 600)],
        ids=["long-horizon", "stiff-theta"])
    def test_default_grid_follows_a(self, tmp_path, argv, stationary):
        # the default grid was a hundredth of the horizon whatever theta:
        # at --horizon 300, dt = 3, the order-2 step grew r to 1e79 with
        # no error.  Now |theta dt| = 0.3, and r stays at sigma^2/(2|theta|)
        assert cli.main(["simulate", "--seed", "1", "--n-paths", "4000",
                         "--out", str(tmp_path)] + argv) == 0
        doc = json.loads((tmp_path / "ensemble.json").read_text())
        assert len(doc["grid"]) == 1001
        r = np.asarray(doc["r"])[:, 0, 0]
        assert np.all(r < 1.1) and abs(r[-1] / stationary - 1) < 0.1

    def test_long_horizon_identifies_a_stable_model(self, capsys):
        # the reduced-control operator -b / r(tau) was -1e-80 at --horizon 300
        assert cli.main(["identify", "--seed", "1", "--n-paths", "4000",
                         "--horizon", "300"]) == 0
        reduced = json.loads(capsys.readouterr().out)["reports"][0]
        assert reduced["A"][0][0] == pytest.approx(-1.0, rel=0.15)

    @pytest.mark.parametrize("argv", [
        ["--horizon", "1e4"], ["--horizon", "300", "--dt", "3"],
        ["--theta", "-300", "--dt", "0.01"]],
        ids=["default", "given-dt", "given-dt-stiff"])
    def test_too_coarse_grid_refused(self, tmp_path, capsys, argv):
        # a step that grows what the model damps is refused, one line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--seed", "1", "--n-paths", "10",
                             "--out", str(tmp_path)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error (InputError): dt=")
        assert "is too coarse for A" in captured.err
        assert not (tmp_path / "ensemble.json").exists()

    def test_simulate_writes_csv(self, tmp_path):
        assert cli.main(["simulate", "--seed", "1", "--n-paths", "200",
                         "--dt", "0.02", "--horizon", "0.2",
                         "--format", "csv", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "ensemble.csv").read_text()
        assert text.startswith("# schema_version=2")

    def test_entropy_reports_both_estimates(self, capsys):
        assert cli.main(["entropy", "--seed", "3", "--n-paths", "2000",
                         "--theta", "1.0", "--dt", "0.005"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monte_carlo"]["value"] > 0
        assert doc["covariance_form"]["value"] == pytest.approx(2.1459, rel=0.01)

    def test_entropy_zero_drift(self, capsys):
        # theta = 0 takes the closed form's r = r0 + sigma^2 t branch; with
        # no drift both estimates vanish exactly
        assert cli.main(["entropy", "--seed", "3", "--n-paths", "200",
                         "--theta", "0", "--dt", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monte_carlo"]["value"] == 0.0
        assert doc["covariance_form"]["value"] == 0.0

    @pytest.mark.parametrize("theta", ["2e-14", "-2e-14"])
    def test_entropy_closed_form_at_tiny_theta(self, capsys, theta):
        # (r0 + s2/2th) e^{2th t} - s2/2th used to cancel, leaving r off by
        # a relative 4e-3 at |theta| = 2e-14
        assert cli.main(["entropy", "--seed", "3", "--n-paths", "200",
                         f"--theta={theta}", "--dt", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        th, grid = float(theta), np.linspace(0.0, 1.0, 2001)
        # x0 = sigma = 1: the two-term series of r, whose next term is O(th^2)
        r = 1.0 + grid + th * (2 * grid + grid ** 2)
        want = 0.5 * np.trapezoid(th * th * r, grid)
        assert doc["covariance_form"]["value"] == pytest.approx(want, rel=1e-12, abs=0)

    def test_identify_reports_four_methods(self, capsys):
        assert cli.main(["identify", "--seed", "5", "--n-paths", "2000",
                         "--dt", "0.005", "--horizon", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        methods = [r["method"] for r in doc["reports"]]
        assert methods == ["reduced-control", "covariance-ratio",
                           "dispersion-window", "closed-loop"]

    def test_identify_simulates_theta_as_given(self, capsys):
        # --theta 1 used to simulate -1, the same document as --theta -1
        docs = {}
        for theta in ("1", "-1"):
            assert cli.main(["identify", "--seed", "5", "--n-paths", "2000",
                             "--dt", "0.005", "--theta", theta]) == 0
            docs[theta] = capsys.readouterr().out
        assert docs["1"] != docs["-1"]
        for theta, text in docs.items():
            # the closed-loop route's A is b r(tau)^{-1} with b = 0.5, so it
            # shows r(1): 10.6 from x0^2 = 1 at theta = 1, 0.57 at theta = -1.
            # The covariance ratio's A, theta + b / r(tau), is -0.12 at
            # theta = -1 with a standard error near 0.4: its sign is no check
            loop = json.loads(text)["reports"][3]
            assert loop["method"] == "closed-loop"
            assert (0.5 / loop["A"][0][0] > 1.0) == (float(theta) > 0)


class TestPipeline:
    ARGS = ["pipeline", "--seed", "2", "--n-paths", "300", "--dt", "0.01",
            "--horizon", "0.5", "--n", "3", "--gamma", "0.5",
            "--alpha1", "1.0"]

    def test_manifest_lists_five_artifacts(self, tmp_path):
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 5
        net = json.loads((tmp_path / "network.json").read_text())
        assert net["totals"]["node_count"] == 1

    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cli.main(self.ARGS + ["--out", str(out1)])
        cli.main(self.ARGS + ["--out", str(out2)])
        for name in json.loads((out1 / "manifest.json").read_text())["artifacts"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_n_paths_rejected(self, tmp_path):
        args = ["pipeline", "--seed", "2", "--n-paths", "0", "--n", "3",
                "--gamma", "0.5", "--alpha1", "1.0", "--dt", "0.01",
                "--horizon", "0.5", "--out", str(tmp_path)]
        assert cli.main(args) == 1

    def test_failed_stage_writes_nothing(self, tmp_path, capsys):
        # gamma > 1 is refused after the ensemble and the operators are
        # formed; their files used to be left behind with no manifest
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--seed", "2", "--n-paths", "20",
                         "--horizon", "0.1", "--gamma", "1.5",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error (InputError): ")
        assert not out.exists()

    def test_closed_stdout_leaves_the_whole_set(self, tmp_path, monkeypatch,
                                                capsys):
        # a reader that closed stdout used to end the run in a
        # BrokenPipeError traceback after the first of the six files
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(self.ARGS + ["--out", str(tmp_path)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "diagnostics.json", "ensemble.json", "manifest.json",
            "network.json", "operators.json", "schedule.json"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n_paths", ["0", "1"])
    def test_n_paths_below_two_one_message(self, tmp_path, capsys, n_paths):
        # the simulator's own check speaks for every command
        args = ["pipeline", "--seed", "2", "--n-paths", n_paths,
                "--dt", "0.01", "--horizon", "0.5", "--out", str(tmp_path)]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            "error (InputError): n_paths must be >= 2\n")


class TestConfigPrecedence:
    SIM = ["simulate", "--seed", "1", "--dt", "0.1", "--horizon", "0.2"]

    def test_config_overrides_default_but_not_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.3}))
        assert cli.main(["--config", str(cfg), "invariants"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == 0.3
        assert cli.main(["--config", str(cfg), "invariants",
                         "--gamma", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == 0.5

    def test_flag_equal_to_default_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_paths": 50}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg)] + self.SIM
                        + ["--n-paths", "10000", "--out", str(out)]) == 0
        assert json.loads((out / "ensemble.json").read_text())["n_paths"] == 10000
        assert cli.main(["--config", str(cfg)] + self.SIM
                        + ["--out", str(out)]) == 0
        assert json.loads((out / "ensemble.json").read_text())["n_paths"] == 50

    @pytest.mark.parametrize("key", ["bogus", "format", "command"])
    def test_key_not_taken_by_command_refused(self, tmp_path, capsys, key):
        # format is a flag of simulate, not of identify
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: 1}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg), "identify"])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,val", [("n_paths", 50.5), ("seed", "x"),
                                         ("format", "xml"), ("n_paths", True),
                                         ("dt", "0.1")])
    def test_value_of_wrong_type_refused(self, tmp_path, capsys, key, val):
        # refused, never converted: 50.5 does not become 50
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: val}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg)] + self.SIM
                     + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"config key {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                             ids=["missing", "malformed", "not-an-object"])
    def test_unusable_config_file_refused(self, tmp_path, capsys, text):
        # each used to end in a traceback and exit code 1
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg), "invariants"])
        assert exc.value.code == 2
        assert f"config file {cfg}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_value_refused(self, tmp_path, capsys, name):
        # used to be read, and the run then failed with exit code 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"gamma": {name}}}')
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg), "invariants"])
        assert exc.value.code == 2
        assert f"config file {cfg} holds {name}, which is not JSON" in capsys.readouterr().err

    def test_values_that_fit_accepted(self, tmp_path):
        # an int for a float flag, a choice, and null for a flag whose
        # default is unset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_paths": 20, "horizon": 1, "dt": None,
                                   "format": "csv", "out": str(tmp_path)}))
        assert cli.main(["--config", str(cfg), "simulate", "--seed", "1"]) == 0
        assert (tmp_path / "ensemble.csv").exists()


class TestCachedParser:
    """main builds its default parser once per process and parses every
    argv without a config file with it."""

    def test_same_argv_twice_same_bytes(self, capsys):
        outs = []
        for _ in range(2):
            assert cli.main(["network", "--n", "5", "--gamma", "0.3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1]

    def test_config_run_leaves_the_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.3, "n": 5}))
        outs = []
        for argv in (["network"], ["--config", str(cfg), "network"], ["network"]):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[2] != outs[1]
        args = cli._default_parser().parse_args(["network"])
        assert (args.gamma, args.n) == (0.5, 3)

    def test_built_once_across_plain_calls(self, monkeypatch, capsys):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda *args: builds.append(args) or build(*args))
        cli._default_parser.cache_clear()
        for _ in range(5):
            assert cli.main(["invariants", "--gamma", "0.5"]) == 0
        assert builds == [()]


STOCHASTIC = ["--seed", "11", "--n-paths", "200", "--dt", "0.01",
              "--horizon", "0.5"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "out"], ["simulate", "--format", "csv", "--out", "out"],
    ["entropy"], ["identify"], ["pipeline", "--out", "out"]])
def test_same_seed_same_bytes_across_processes(tmp_path, argv):
    """Two fresh interpreters with the same seed write the same bytes."""
    env = dict(os.environ)
    src = str(Path(ipflab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cwds = [tmp_path / "run0", tmp_path / "run1"]
    procs = []
    for cwd in cwds:
        cwd.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "ipflab.cli"] + argv + STOCHASTIC, cwd=cwd,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = [proc.communicate(timeout=120) for proc in procs]
    runs = []
    for cwd, proc, (out, err) in zip(cwds, procs, outputs):
        assert proc.returncode == 0, err.decode()
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs.append((out, files))
    assert runs[0][0] and bool(runs[0][1]) == ("--out" in argv)
    assert runs[0] == runs[1]
