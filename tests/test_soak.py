"""Chaos-soak harness tests: overload events, flash crowds, invariants."""

import json

import pytest

from repro.cli import main
from repro.sim.faults import FaultPlan, OverloadEvent
from repro.soak import (
    SOAK_PROTOCOLS,
    build_soak_plan,
    canonical_summary,
    check_soak_invariants,
    compare_rto_policies,
    soak_config,
    soak_matrix,
    soak_run,
)
from repro.verify.history import EventKind


class TestOverloadEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadEvent((), 0.0, 100.0, 10.0)  # no sites
        with pytest.raises(ValueError):
            OverloadEvent((0,), 100.0, 50.0, 10.0)  # end before start
        with pytest.raises(ValueError):
            OverloadEvent((0,), 0.0, 100.0, 0.0)  # non-positive interval
        with pytest.raises(ValueError):
            OverloadEvent((-1,), 0.0, 100.0, 10.0)  # negative site

    def test_sites_sorted_and_deduped(self):
        ov = OverloadEvent([3, 1, 3, 2], 0.0, 100.0, 10.0)
        assert ov.sites == (1, 2, 3)

    def test_ticks_cover_the_window(self):
        ov = OverloadEvent((0,), 100.0, 150.0, 20.0)
        assert ov.ticks() == [100.0, 120.0, 140.0]

    def test_plan_round_trip(self):
        plan = build_soak_plan(5)
        assert plan.overloads
        back = FaultPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert back == plan

    @pytest.mark.parametrize("text", ["[]", '{"default": []}'])
    def test_plan_json_that_is_not_an_object_fails_typed(self, text, tmp_path):
        with pytest.raises(ValueError, match="must be a JSON object"):
            FaultPlan.from_json(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_:
            main(["run", "-n", "3", "--ops", "5", "--fault-plan-json", str(path)])
        message = str(exit_.value.code)
        assert message.startswith("cannot load --fault-plan-json: ")
        assert "\n" not in message


class TestSoakInvariants:
    @pytest.mark.parametrize("protocol", SOAK_PROTOCOLS)
    def test_protocol_survives_the_soak(self, protocol):
        result, _ = soak_run(soak_config(protocol, 1, ops=30))
        assert check_soak_invariants(result) == []

    def test_chaos_counters_engaged(self):
        result, _ = soak_run(soak_config("opt-track", 1, ops=30))
        col = result.collector
        assert col.injected_drops > 0
        assert col.retransmissions > 0
        assert col.overload_injected > 0
        assert result.overload_driver is not None
        # the driver books each write that lands into the collector, and
        # each one is a write the sites executed beyond their schedules
        assert col.ops_write == col.overload_injected + sum(
            op.is_write for site in range(result.workload.n_sites)
            for _, op in result.workload.for_site(site).items)

    def test_same_seed_double_run_is_byte_identical(self):
        a, _ = soak_run(soak_config("optp", 2, ops=30))
        b, _ = soak_run(soak_config("optp", 2, ops=30))
        assert canonical_summary(a) == canonical_summary(b)

    def test_different_seeds_diverge(self):
        a, _ = soak_run(soak_config("optp", 1, ops=30))
        b, _ = soak_run(soak_config("optp", 2, ops=30))
        assert canonical_summary(a) != canonical_summary(b)

    def test_backpressure_defers_but_never_starves(self):
        result, _ = soak_run(soak_config("optp", 1, ops=30))
        assert result.collector.backpressure_delays > 0
        # every site still finished its whole schedule
        undrained = [p.site for p in result.protocols if p.pending_count]
        assert undrained == []

    def test_a_missing_and_a_duplicate_apply_are_both_reported(self):
        result, _ = soak_run(soak_config("opt-track", 1, ops=30))
        events = result.history.events
        applies = [i for i, e in enumerate(events) if e.kind is EventKind.APPLY]
        lost, doubled = events[applies[0]], events[applies[-1]]
        assert lost.write_id != doubled.write_id
        events.append(doubled)
        del events[applies[0]]
        problems = check_soak_invariants(result)
        key = (doubled.site, doubled.write_id)
        assert ("duplicate applies leaked above the transport: "
                f"{ {key: 2} }") in problems
        replicas = sorted(result.placement.replicas(lost.var))
        applied = [s for s in replicas if s != lost.site]
        assert (f"write {lost.write_id} applied at {applied}, "
                f"expected replicas {replicas}") in problems


class TestRtoComparison:
    def test_adaptive_beats_fixed_on_spiky_channels(self):
        comp = compare_rto_policies(ops=30)
        assert comp["fixed"]["spurious_retransmissions"] > 0
        assert comp["adaptive_fewer_spurious"]


class TestSoakMatrix:
    def test_matrix_writes_report_and_artifacts(self, tmp_path):
        report = soak_matrix(
            protocols=("optp",), seeds=(1,), ops=30,
            check_determinism=False, compare_rto=False, out_dir=tmp_path,
        )
        assert report.ok
        data = json.loads((tmp_path / "soak_report.json").read_text())
        assert data["ok"] is True
        assert data["cells"][0]["protocol"] == "optp"
        assert (tmp_path / "soak_optp_s1.prom").exists()
        assert (tmp_path / "soak_optp_s1.json").exists()
