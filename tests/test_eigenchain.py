import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipflab import eigenchain, invariants
from ipflab.errors import (InputError, NeedsNeedleControlError,
                           NoCooperationError, SimulationDivergedError,
                           SingularRenovationError)

LN2 = math.log(2.0)


class TestEigenStep:
    def test_small_t_flips_sign(self):
        assert eigenchain.eigen_step(1.3, 1e-9) == pytest.approx(-1.3, abs=1e-8)

    def test_direct_value(self):
        val = eigenchain.eigen_step(1.0, 0.5)
        assert val == pytest.approx(-math.exp(0.5) / (2 - math.exp(0.5)), rel=1e-12)
        assert val == pytest.approx(-4.6935, abs=1e-4)

    def test_negative_lambda_no_pole(self):
        assert eigenchain.eigen_step(-1.0, LN2) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(SingularRenovationError):
            eigenchain.eigen_step(1.0, LN2)

    @given(st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3))
    def test_double_flip_recovers_lambda(self, lam):
        once = eigenchain.eigen_step(lam, 1e-10)
        twice = eigenchain.eigen_step(once, 1e-10)
        assert twice == pytest.approx(lam, rel=1e-6)


class TestStateStep:
    def test_zero_at_ln2(self):
        assert abs(eigenchain.state_step(3.0, 1.0, LN2)) <= 1e-12

    def test_identity_at_lambda_zero(self):
        assert eigenchain.state_step(2.5, 0.0, 7.0) == 2.5

    def test_direct_value(self):
        assert eigenchain.state_step(2.0, 1.0, 0.5) == pytest.approx(0.70256, abs=1e-5)


class TestTerminalTime:
    def test_unit_lambda(self):
        assert eigenchain.terminal_time(0.0, 1.0) == pytest.approx(LN2, rel=1e-12)

    def test_offset(self):
        assert eigenchain.terminal_time(1.0, 2.0) == pytest.approx(1.34657, abs=1e-5)

    def test_negative_lambda_needs_needle(self):
        with pytest.raises(NeedsNeedleControlError):
            eigenchain.terminal_time(0.0, -1.0)


class TestAbsSpeed:
    def test_infinite_at_pole(self):
        assert eigenchain._abs_speed(2.0, LN2 / 2.0) == math.inf

    def test_limit_past_exp_range(self):
        # e^{lam t} overflows past lam t ~ 709.78; |lam| is the limit
        assert eigenchain._abs_speed(1.0, 800.0) == 1.0
        assert eigenchain._abs_speed(-2.0, 800.0) == 0.0


class TestEqualizationChain:
    def test_single_eigenvalue_empty_chain(self):
        chain = eigenchain.build_equalization_chain([1.0], 1)
        assert chain.intervals == [] and chain.n == 1

    def test_pair_interval_matches_oracle(self):
        # independent bisection froze t1 for the pair (1.0, 0.2567)
        chain = eigenchain.build_equalization_chain([1.0, 0.2567], 2)
        assert chain.intervals[0] == pytest.approx(2.0258680108, abs=1e-8)
        assert chain.lambdas[0][2] == pytest.approx(1.3582502, abs=1e-6)

    def test_triplet_second_interval(self):
        spec = [1.0, 0.2567, 0.2567 ** 2 / 0.4514]
        chain = eigenchain.build_equalization_chain(spec, 3)
        assert len(chain.intervals) == 2
        assert chain.intervals[1] == pytest.approx(2.1002372009, abs=1e-8)

    def test_stage_condition_holds(self):
        spec = [1.0, 0.2567, 0.2567 ** 2 / 0.4514]
        chain = eigenchain.build_equalization_chain(spec, 3)
        elapsed = 0.0
        for (lam_joint, lam_next, _), t in zip(chain.lambdas, chain.intervals):
            lhs = abs(eigenchain.eigen_step(lam_joint, t))
            rhs = abs(eigenchain.eigen_step(lam_next, elapsed + t))
            assert abs(lhs - rhs) / lhs <= 1e-8
            elapsed += t

    def test_state_driven_to_zero(self):
        spec = [1.0, 0.2567, 0.2567 ** 2 / 0.4514]
        chain = eigenchain.build_equalization_chain(spec, 3)
        out = eigenchain.chain_state_trace(chain, 1.0)
        assert abs(out["final_state"]) <= 1e-10

    def test_unranged_spectrum_rejected(self):
        with pytest.raises(InputError):
            eigenchain.build_equalization_chain([0.2, 1.0], 2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            eigenchain.build_equalization_chain([1.0, 0.5], 3)

    def test_zero_entry_rejected(self):
        with pytest.raises(InputError):
            eigenchain.build_equalization_chain([1.0, 0.0], 2)

    def test_json_export(self):
        import json
        chain = eigenchain.build_equalization_chain([1.0, 0.2567], 2)
        doc = json.loads(chain.to_json())
        assert doc["n"] == doc["m"] == 2 and len(doc["intervals"]) == 1

    def test_interval_ratios(self):
        spec = [1.0, 0.2567, 0.2567 ** 2 / 0.4514]
        chain = eigenchain.build_equalization_chain(spec, 3)
        ratios = eigenchain.interval_ratios(chain)
        assert ratios[0] == pytest.approx(chain.intervals[1] / chain.intervals[0])


class TestChainsPastNFive:
    """The ranged spectrum chains at every n up to 9; n >= 6 used to
    overflow in the scan, and a scan cell wider than the distance from a
    pole to the root hid the root."""

    @pytest.mark.parametrize("alpha1", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_chain_zeroes_the_state(self, n, alpha1):
        chain = eigenchain.build_equalization_chain(
            invariants.optimal_spectrum(n, alpha1), n)
        assert len(chain.intervals) == n - 1
        out = eigenchain.chain_state_trace(chain, 1.0)
        assert abs(out["final_state"]) <= 1e-9 * max(abs(z) for z in out["states"])

    def test_interval_ratio_tends_to_spectrum_ratio(self):
        # the tabulated alpha2 / alpha3 of the ranged spectrum
        target = 0.4514 / 0.2567
        gaps = []
        for n in range(5, 10):
            chain = eigenchain.build_equalization_chain(
                invariants.optimal_spectrum(n, 1.0), n)
            gaps.append(abs(eigenchain.interval_ratios(chain)[-1] - target))
        assert gaps[-1] <= 1e-4
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_negative_spectrum(self):
        # the joined eigenvalue turns positive after the first stage, and
        # its speed never falls to the next one's: no cooperation
        chain = eigenchain.build_equalization_chain(
            invariants.optimal_spectrum(2, -1.0), 2)
        assert len(chain.intervals) == 1
        with pytest.raises(NoCooperationError):
            eigenchain.build_equalization_chain(invariants.optimal_spectrum(3, -1.0), 3)


class TestChainsPastNNine:
    """Past n = 9 exp(lam t) leaves the float range: the renovated
    eigenvalue takes its limit, and a state that leaves the range is
    refused by name.  n = 13 used to raise a bare OverflowError, and the
    n = 12 trace returned an infinite final state with a RuntimeWarning."""

    def test_eigen_step_limit(self):
        assert eigenchain.eigen_step(1.0, 800.0) == 1.0
        assert eigenchain.eigen_step(-2.0, -400.0) == -2.0

    @pytest.mark.parametrize("z,lam,t", [(1.0, 1.0, 800.0), (1e307, 1.0, 5.0)])
    def test_state_out_of_range_refused(self, z, lam, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergedError) as exc:
                eigenchain.state_step(z, lam, t)
        assert exc.value.t_bad == t

    @pytest.mark.parametrize("n", [12, 13])
    def test_chain_builds_and_its_trace_is_refused(self, n):
        chain = eigenchain.build_equalization_chain(
            invariants.optimal_spectrum(n, 1.0), n)
        assert len(chain.intervals) == n - 1
        assert all(math.isfinite(t) for t in chain.intervals)
        assert eigenchain.interval_ratios(chain)[-1] == pytest.approx(1.7585, abs=5e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergedError) as exc:
                eigenchain.chain_state_trace(chain, 1.0)
        # the end of the stage whose state overflowed, on the stage's clock
        assert exc.value.t_bad in chain.intervals
