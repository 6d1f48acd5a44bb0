import dataclasses
import math

import numpy as np
import pytest

from ipflab import control, invariants, network
from ipflab.errors import InputError

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def report():
    return network.triplet_accounting(invariants.invariant_set(0.5))


class TestTripletAccounting:
    def test_totals(self, report):
        assert report.total_nats == pytest.approx(2.75, rel=0.02)
        assert report.total_bits == pytest.approx(3.96, rel=0.02)
        assert report.total_nats == pytest.approx(
            4 * report.ao_abs ** 2 + 3 * report.a, rel=1e-12)
        assert report.total_bits == pytest.approx(report.total_nats / LN2, rel=1e-12)

    def test_delivered_contributions(self, report):
        assert report.contributions["deliver1"] == pytest.approx(0.7708, rel=0.01)
        assert report.contributions["deliver2"] == pytest.approx(0.306, rel=0.01)

    def test_consumed_contributions(self, report):
        assert report.contributions["consumed1"] == pytest.approx(0.232, rel=0.02)
        assert report.contributions["consumed2"] == pytest.approx(0.1797, rel=0.02)

    def test_ledger_bits_pinned(self, report):
        # consumed through eigenchain.eigen_step's renovation map, and the
        # defect as invariants.balance_defect forms it
        c = report.contributions
        assert c["consumed1"].hex() == "0x1.db0e58183592ep-3"
        assert c["consumed2"].hex() == "0x1.6d13f62fda0a5p-3"
        assert c["defect"].hex() == "0x1.6c6cb62484650p-5"

    def test_missing_defect_refused(self):
        # by the record, when it is built: no reader sees it
        with pytest.raises(InputError, match="defect must be finite"):
            dataclasses.replace(invariants.invariant_set(0.5), defect=math.nan)

    def test_interval_ratios(self, report):
        assert report.gamma13 == pytest.approx(3.9, rel=0.10)
        assert report.gamma23 == pytest.approx(2.215, rel=0.10)

    def test_doublet_closure(self, report):
        assert report.contributions["closure"] == pytest.approx(0.50088, rel=0.02)
        assert report.contributions["closure"] == pytest.approx(
            report.ao_abs ** 2, rel=0.02)

    def test_node_transfer(self, report):
        assert report.node_transfer_nats == pytest.approx(0.70535, rel=0.02)
        assert report.node_bits == pytest.approx(1.0157, rel=0.02)

    def test_first_delivery_equals_real_invariant(self, report):
        # a * (gamma13 - 1) collapses to the gamma = 0 segment invariant
        assert report.contributions["deliver1"] == pytest.approx(
            abs(invariants.solve_ao(0.0)), rel=1e-12)

    def test_requires_positive_a(self):
        inv = invariants.invariant_set(1.0)
        with pytest.raises(InputError):
            network.triplet_accounting(inv)


class TestBuildIn:
    def test_single_eigenvalue_empty(self):
        with pytest.warns(UserWarning):
            net = network.build_in(1, 0.5, 1.0)
        assert net.nodes == [] and net.code == ""
        assert "no-cooperation" in net.flags

    def test_one_triplet(self):
        net = network.build_in(3, 0.5, 1.0)
        assert net.totals["node_count"] == 1
        assert len(net.nodes) == 1
        assert len(net.code) == 4
        assert net.nodes[0]["info_bits"] == pytest.approx(1.0157, rel=0.02)

    def test_two_triplets_monotone(self):
        net = network.build_in(5, 0.5, 1.0)
        assert net.totals["node_count"] == 2
        mags = [abs(n["alpha_r3"]) for n in net.nodes]
        assert mags[0] > mags[1]
        assert len(net.code) == 8

    def test_even_n_leftover_flagged(self):
        net = network.build_in(4, 0.5, 1.0)
        assert "even-n-leftover-attached" in net.flags
        assert net.nodes[-1].get("leftover_attached")

    def test_node_time_invariant(self):
        inv = invariants.invariant_set(0.5)
        net = network.build_in(3, 0.5, 1.0)
        node = net.nodes[0]
        assert node["t_r"] * node["alpha_r3"] == pytest.approx(inv.ao_abs, rel=1e-12)

    def test_code_scales_with_nodes(self):
        for n in (3, 5, 7, 9):
            net = network.build_in(n, 0.5, 1.0)
            assert len(net.code) == 4 * net.totals["node_count"]

    def test_outline_and_json(self):
        import json
        net = network.build_in(5, 0.5, 1.0)
        doc = json.loads(net.to_json())
        assert doc["totals"]["node_count"] == 2
        assert "node 1" in net.to_outline()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha1", [1e-308, 1e-320, -1e-320, 5e-324])
    def test_alpha1_overflowing_t_r_refused(self, alpha1):
        # t_r = |ao| / alpha_r3 used to overflow to inf, with numpy's
        # overflow warning
        with pytest.raises(InputError, match=f"alpha1={alpha1} .*node 1 overflows"):
            network.build_in(3, 0.5, alpha1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_alpha1_with_finite_t_r_builds(self):
        for n in (3, 9):
            net = network.build_in(n, 0.5, 1e-300)
            assert all(math.isfinite(node["t_r"]) for node in net.nodes)
        # a later node's t_r overflows first
        with pytest.raises(InputError, match="node 3 overflows"):
            network.build_in(9, 0.5, 1e-307)


class TestEmitCode:
    def test_network_passthrough(self):
        net = network.build_in(3, 0.5, 1.0)
        assert network.emit_code(net) == net.code == "AAAB"

    def test_schedule_one_letter_per_interval(self):
        inv = invariants.invariant_set(0.5)
        sched = control.schedule_from_invariants(inv, invariants.optimal_spectrum(5, 1.0))
        assert network.emit_code(sched) == "AAAAA"

    def test_needle_letter_on_jump(self):
        inv = invariants.invariant_set(0.5)
        sched = control.schedule_from_invariants(inv, invariants.optimal_spectrum(2, 1.0))
        seg = sched.segments
        needles = [control.needle_control(1.0, 1.5, tau=s.t_end) for s in seg]
        jumped = control.SegmentSchedule(dps=sched.dps, segments=seg,
                                         needle_events=needles)
        assert network.emit_code(jumped) == "ABAB"

    def test_empty_schedule(self):
        sched = control.SegmentSchedule(dps=[], segments=[], needle_events=[])
        assert network.emit_code(sched) == ""

    def test_wrong_type_rejected(self):
        with pytest.raises(InputError):
            network.emit_code(42)


class TestMaxRatioCheck:
    def test_n2_gap_reported(self):
        out = network.max_ratio_check(2)
        assert out["formula_value"] == pytest.approx(2.21 * 3.89, rel=1e-12)
        assert out["spectrum_ratio"] == pytest.approx(3.8956, abs=1e-3)
        assert out["relative_gap"] > 0.1  # known mismatch, surfaced not asserted

    def test_n4_formula(self):
        assert network.max_ratio_check(4)["formula_value"] == pytest.approx(
            2.21 * 3.89 ** 2, rel=1e-12)

    def test_n0_degenerate(self):
        out = network.max_ratio_check(0)
        assert out["formula_value"] == pytest.approx(2.21)
        assert out["spectrum_ratio"] is None
