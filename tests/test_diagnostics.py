import warnings

import numpy as np
import pytest

from ipflab import diagnostics
from ipflab.errors import InputError, UndefinedLogError


class TestLce:
    def test_pure_exponential(self):
        t = np.linspace(0, 2, 200)
        assert diagnostics.lce_local(t, 1.7 * np.exp(0.5 * t)) == pytest.approx(0.5, abs=1e-10)

    def test_constant_steady(self):
        t = np.linspace(0, 1, 50)
        assert diagnostics.lce_local(t, np.full_like(t, 3.0)) == 0.0

    def test_decay(self):
        t = np.linspace(0, 1, 100)
        assert diagnostics.lce_local(t, np.exp(-2.0 * t)) == pytest.approx(-2.0, abs=1e-10)

    def test_window_restriction(self):
        t = np.linspace(0, 4, 400)
        x = np.where(t <= 2, np.exp(t), np.exp(2) * np.exp(-(t - 2)))
        assert diagnostics.lce_local(t, x, window=1.9) == pytest.approx(1.0, abs=1e-6)

    def test_zero_reference_rejected(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(InputError):
            diagnostics.lce_local(t, 0.0 * t)

    def test_sign_change_inside_window_rejected(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(UndefinedLogError):
            diagnostics.lce_local(t, t - 0.5)

    def test_short_window_rejected(self):
        with pytest.raises(InputError):
            diagnostics.lce_local([0.0], [1.0])

    @pytest.mark.parametrize("x", [np.ones(5), np.exp(np.arange(5.0))])
    def test_window_at_one_time_refused(self, x, capfd):
        # used to print LAPACK DLASCL lines and a polyfit RuntimeWarning,
        # then raise numpy's LinAlgError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="2 distinct times"):
                diagnostics.lce_local(np.zeros(5), x)
        assert capfd.readouterr().err == ""

    def test_constant_trace_skips_the_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("polyfit called on a constant trace")
        monkeypatch.setattr(np, "polyfit", no_fit)
        assert diagnostics.lce_local(np.linspace(0, 1, 5), np.full(5, 2.0)) == 0.0


class TestPfr:
    def test_trace(self):
        assert diagnostics.pfr(np.diag([1.0, 2.0, 3.0])) == 6.0

    def test_scalar(self):
        assert diagnostics.pfr([[1.0]]) == 1.0

    def test_zero(self):
        assert diagnostics.pfr(np.zeros((2, 2))) == 0.0

    def test_nonsquare_rejected(self):
        with pytest.raises(InputError):
            diagnostics.pfr(np.ones((2, 3)))

    def test_additivity_over_eigenvalues(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert diagnostics.pfr(A) == pytest.approx(sum(np.linalg.eigvals(A)).real)


class TestClassify:
    def test_signs(self):
        assert diagnostics.classify(0.1) == "instable"
        assert diagnostics.classify(-0.1) == "asymptotically-stable"
        assert diagnostics.classify(0.0) == "steady"


class TestDiagnoseSegments:
    def test_needle_sign_flip_detected(self):
        # noiseless replay: growth at +1 before the event, -1 after
        t1 = np.linspace(0, 1, 200)
        t2 = np.linspace(1, 2, 200)[1:]
        x = np.concatenate([np.exp(t1), np.exp(1.0) * np.exp(-(t2 - 1.0))])
        grid = np.concatenate([t1, t2])
        rep = diagnostics.diagnose_segments(grid, x, [1.0])
        assert len(rep.lce_per_segment) == 2
        assert rep.lce_per_segment[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.lce_per_segment[1] == pytest.approx(-1.0, abs=1e-2)
        assert len(rep.sign_flips) == 1
        assert rep.classification == ["instable", "asymptotically-stable"]

    @pytest.mark.parametrize("dps", [[1.5, 0.5], [5.0], [1.0, 1.0], [-1.0, 1.0]])
    def test_unordered_or_outside_moments_refused(self, dps):
        # growth at 0.5 up to t = 1, decay at -1 after it; these moments
        # used to be fitted over overlapping windows or past the trace
        grid = np.linspace(0.0, 2.0, 401)
        x = np.exp(np.where(grid <= 1.0, 0.5 * grid, 0.5 - (grid - 1.0)))
        rep = diagnostics.diagnose_segments(grid, x, [1.0])
        assert rep.lce_per_segment == pytest.approx([0.5, -1.0])
        with pytest.raises(InputError, match="dps must increase strictly"):
            diagnostics.diagnose_segments(grid, x, dps)

    def test_one_sample_segment_skipped(self):
        # [0, 0.5] holds the sample at 0 alone: no exponent is fitted there
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        rep = diagnostics.diagnose_segments(grid, np.exp(grid), [0.5])
        assert rep.lce_per_segment == pytest.approx([1.0])
        assert rep.sign_flips == []

    def test_json(self):
        import json
        t = np.linspace(0, 1, 100)
        rep = diagnostics.diagnose_segments(t, np.exp(t), [])
        doc = json.loads(rep.to_json())
        assert doc["classification"] == ["instable"]
