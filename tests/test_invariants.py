import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipflab import invariants
from ipflab.errors import InputError

LN2 = math.log(2.0)


class TestSolveAo:
    def test_gamma_zero_magnitude(self):
        assert abs(abs(invariants.solve_ao(0.0)) - 0.768) <= 0.001

    def test_gamma_zero_degenerate_form(self):
        ao = invariants.solve_ao(0.0)
        assert abs(2.0 * (ao + 1.0) - math.exp(ao)) <= 1e-10

    def test_gamma_half_near_ln2(self):
        ao = abs(invariants.solve_ao(0.5))
        assert abs(ao - LN2) / LN2 <= 0.03

    def test_root_is_negative(self):
        for g in (0.0, 0.1, 0.5, 0.8):
            assert invariants.solve_ao(g) < 0

    def test_residual_small(self):
        for g in (0.01, 0.25, 0.5, 0.75):
            ao = invariants.solve_ao(g)
            resid = 2.0 * (math.sin(g * ao) + g * math.cos(g * ao)) - g * math.exp(ao)
            assert abs(resid) <= 1e-10

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError):
            invariants.solve_ao(-0.1)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # nan used to reach scipy's bisect and fail there with a ValueError
        with pytest.raises(InputError, match="finite"):
            invariants.solve_ao(gamma)

    def test_magnitude_decreases_with_gamma(self):
        mags = [abs(invariants.solve_ao(g)) for g in (0.0, 0.5, 1.0)]
        assert mags[0] > mags[1] > mags[2]


class TestInvariantA:
    def test_gamma_zero(self):
        a = invariants.invariant_a(0.0, 0.768)
        assert abs(a - 0.2320) <= 2e-3

    def test_gamma_one_exact_zero(self):
        assert invariants.invariant_a(1.0, 0.7) == 0.0

    def test_gamma_half_formula_value(self):
        # direct evaluation lands near 0.195, not the tabulated 0.25
        a = invariants.invariant_a(0.5, 0.706)
        assert abs(a - 0.195) <= 5e-3

    def test_gamma_above_one_rejected(self):
        with pytest.raises(InputError):
            invariants.invariant_a(1.1, 0.7)


class TestDeltaStar:
    def test_exact_balance_zero(self):
        ao = 0.6
        assert invariants.delta_star(ao, ao - ao * ao) == 0.0

    def test_reference_point(self):
        ao = abs(invariants.solve_ao(0.5))
        assert abs(invariants.delta_star(ao, 0.252) - 0.089179639) <= 1e-4

    def test_gamma_zero_point(self):
        assert abs(invariants.delta_star(0.768, 0.232) - 0.09126) <= 1e-4

    def test_nonpositive_ao_rejected(self):
        with pytest.raises(InputError):
            invariants.delta_star(0.0, 0.2)

    @given(st.floats(0.1, 1.5), st.floats(0.0, 1.0))
    def test_balance_closes(self, ao, a):
        # ao - a - ao^2 +/- delta*ao^2 = 0 exactly with the computed delta
        ds = invariants.delta_star(ao, a)
        gap = ao - a - ao * ao
        sign = -1.0 if gap > 0 else 1.0
        assert abs(gap + sign * ds * ao * ao) <= 1e-12


class TestBalanceDefect:
    def test_reference(self):
        inv = invariants.invariant_set(0.5)
        assert abs(inv.defect - 0.044465455) <= 1e-3

    def test_exact_balance(self):
        assert invariants.balance_defect(0.6, 0.6 - 0.36) == 0.0

    def test_gamma_zero_value(self):
        assert abs(invariants.balance_defect(0.768, 0.232) - 0.05382) <= 1e-4


class TestLifetime:
    def test_minimal(self):
        out = invariants.lifetime_ratio(0.089179639, [2642.0, 2642.0])
        assert out["T_rev"] == 5284.0
        assert abs(out["T_irr"] - 471.225) <= 0.5

    def test_maximal(self):
        out = invariants.lifetime_ratio(0.848, [5284.0])
        assert abs(out["T_irr"] - 4480.832) <= 1.0

    def test_zero_defect(self):
        assert invariants.lifetime_ratio(0.0, [1.0, 2.0])["T_irr"] == 0.0


class TestGammaRatios:
    def test_trivial_fixed_point(self):
        from ipflab.invariants import _gamma2_of_gamma1
        assert _gamma2_of_gamma1(1.0, 0.3) == 1.0

    def test_second_equation_at_reference(self):
        out = invariants.gamma_ratios(0.252)
        assert abs(out["residuals"]["gamma2_from_gamma1_ref"] - 2.1886) <= 1e-3

    def test_nontrivial_solution_near_quoted_pair(self):
        out = invariants.gamma_ratios(0.252)
        assert out["converged"]
        assert abs(out["gamma1"] - 2.215) <= 0.01
        assert abs(out["gamma2"] - 1.758) <= 0.01

    def test_first_equation_residual_reported_at_reference(self):
        out = invariants.gamma_ratios(0.252)
        assert abs(out["residuals"]["eq1_at_reference"]) > 1.0

    def test_nonpositive_a_rejected(self):
        with pytest.raises(InputError):
            invariants.gamma_ratios(0.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_a_rejected(self, a):
        # nan used to come back as unconverged with nan residuals
        with pytest.raises(InputError, match="finite"):
            invariants.gamma_ratios(a)

    @pytest.mark.parametrize("a", [0.6, 0.65, 0.7, 1.0, 2.0, 10.0, 0.6423489717092866])
    def test_no_overflow_and_no_pole_taken_for_a_root(self, a):
        # a >= 0.6 used to raise a bare OverflowError from exp(a g1 g2); once
        # that counts as infinite, a = 2 and 10 bisected onto a pole of the
        # residual (gamma2 -> inf) and called it converged.  The last a puts
        # the grid point 4.5125 exactly on that pole, where gamma2 raised.
        out = invariants.gamma_ratios(a)
        assert out["converged"] is False and out["gamma1"] is None
        assert not math.isnan(out["residuals"]["eq1_at_reference"])

    def test_reference_ratio_on_the_pole_reported_as_none(self):
        # at this a, g1_ref = 3.896 is gamma2's pole; the report field used
        # to raise InputError and so refuse a valid a
        a = 3.896 / (2 * 2.896)
        out = invariants.gamma_ratios(a)
        assert out["residuals"]["gamma2_from_gamma1_ref"] is None
        assert out["residuals"]["eq1_at_reference"] is None
        assert out["converged"] is False

    def test_reference_residual_past_exp_range_reported_as_none(self):
        # next to gamma2's pole at the reference ratio, e^{a g1 g2} overflows
        # and the residual is +-inf, which the report used to carry
        out = invariants.gamma_ratios(0.6708986929805602)
        assert out["residuals"]["eq1_at_reference"] is None
        assert math.isfinite(out["residuals"]["gamma2_from_gamma1_ref"])

    def test_overflowing_residual_is_signed_infinity(self):
        from ipflab.invariants import _ratio_residual
        # gamma2 -> +inf just below the pole 4/3 at a = 2, -inf just above
        assert _ratio_residual(1.3333, 2.0) == -math.inf
        assert _ratio_residual(1.02, 1000.0) == -math.inf

    def test_poles_are_where_the_residual_blows_up(self):
        from ipflab.invariants import _ratio_poles, _ratio_residual
        assert _ratio_poles(0.5) == []
        assert _ratio_poles(1.0) == [2.0]
        for pole in _ratio_poles(10.0):
            left, right = _ratio_residual(pole - 1e-9, 10.0), _ratio_residual(pole + 1e-9, 10.0)
            assert max(abs(left), abs(right)) > 1e6 and (left < 0) != (right < 0)


class TestOptimalSpectrum:
    def test_first_ratio(self):
        spec = invariants.optimal_spectrum(2, 1.0)
        assert spec[1] == pytest.approx(0.2567, abs=1e-12)

    def test_second_entry(self):
        spec = invariants.optimal_spectrum(3, 1.0)
        assert spec[2] == pytest.approx(0.2567 ** 2 / 0.4514, rel=1e-12)

    def test_quoted_ratios(self):
        spec = invariants.optimal_spectrum(3, 1.0)
        assert abs(spec[0] / spec[1] - 3.8956) <= 1e-3
        assert abs(spec[1] / spec[2] - 1.7585) <= 1e-3

    @given(st.integers(1, 64))
    @settings(max_examples=30)
    def test_strictly_decreasing(self, n):
        spec = invariants.optimal_spectrum(n, 1.0)
        assert np.all(np.abs(spec[1:]) < np.abs(spec[:-1]))

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            invariants.optimal_spectrum(0, 1.0)
        with pytest.raises(InputError):
            invariants.optimal_spectrum(3, 0.0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_non_integer_n_refused(self, n):
        # each used to escape as numpy's TypeError
        with pytest.raises(InputError, match="n must be an integer"):
            invariants.optimal_spectrum(n, 1.0)

    @pytest.mark.parametrize("alpha1", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha1_rejected(self, alpha1):
        # nan used to give a nan spectrum
        with pytest.raises(InputError, match="finite"):
            invariants.optimal_spectrum(3, alpha1)


class TestInvariantSet:
    def test_reference_assembly(self):
        inv = invariants.invariant_set(0.5)
        assert inv.a == 0.252
        assert inv.provenance["a"] == "tabulated"
        assert abs(inv.delta_star - 0.089179639) <= 1e-4

    def test_defect_is_the_balance_defect(self):
        for gamma in np.linspace(0.0, 0.95, 20):
            inv = invariants.invariant_set(float(gamma))
            want = invariants.balance_defect(inv.ao_abs, inv.a)
            assert inv.defect.hex() == want.hex()
            assert inv.defect == inv.delta_star * inv.ao_abs * inv.ao_abs

    def test_formula_value_also_reported(self):
        inv = invariants.invariant_set(0.5)
        assert abs(inv.a_formula - 0.195) <= 5e-3

    def test_derived_by_ratio_imaginary_parts(self):
        inv = invariants.invariant_set(0.5)
        assert inv.b_o == pytest.approx(0.5 * inv.ao_abs)
        assert inv.b == pytest.approx(0.5 * inv.a)
        assert inv.provenance["b_o"] == "derived-by-ratio"

    @pytest.mark.parametrize("gamma", [1.0 + 1e-9, 1.5, 10.0])
    def test_gamma_above_one_rejected(self, gamma):
        # used to return NaN fields with provenance "solved"
        with pytest.raises(InputError, match="gamma"):
            invariants.invariant_set(gamma)

    def test_nan_gamma_rejected(self):
        with pytest.raises(InputError, match="finite"):
            invariants.invariant_set(math.nan)

    def test_json_roundtrip(self):
        import json
        doc = json.loads(invariants.invariant_set(0.3).to_json())
        assert "provenance" in doc and doc["gamma"] == 0.3
