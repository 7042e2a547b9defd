"""Unit tests for schedules, the workload generator, and trace round-trips."""

import json
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.workload.generator import (
    PAPER_GAP_RANGE_MS,
    PAPER_OPS_PER_PROCESS,
    decode_value,
    encode_value,
    generate_workload,
    variable_probabilities,
)
from repro.workload.schedule import Operation, OpKind, SiteSchedule, Workload
from repro.workload.traces import (
    load_history,
    load_workload,
    save_history,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)


class TestOperation:
    def test_write_needs_value(self):
        with pytest.raises(ValueError):
            Operation(OpKind.WRITE, 0)

    def test_read_takes_no_value(self):
        with pytest.raises(ValueError):
            Operation(OpKind.READ, 0, 5)

    def test_is_write(self):
        assert Operation(OpKind.WRITE, 0, 1).is_write
        assert not Operation(OpKind.READ, 0).is_write


class TestSiteSchedule:
    def test_counts(self):
        sched = SiteSchedule(0, (
            (1.0, Operation(OpKind.WRITE, 0, 1)),
            (2.0, Operation(OpKind.READ, 1)),
            (3.0, Operation(OpKind.READ, 2)),
        ))
        assert len(sched) == 3
        assert sched.write_count == 1
        assert sched.read_count == 2

    def test_times_must_be_sorted(self):
        with pytest.raises(ValueError):
            SiteSchedule(0, (
                (2.0, Operation(OpKind.READ, 0)),
                (1.0, Operation(OpKind.READ, 0)),
            ))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SiteSchedule(0, ((-1.0, Operation(OpKind.READ, 0)),))

    def test_columns_and_items_agree(self):
        items = (
            (1.0, Operation(OpKind.WRITE, 3, 7)),
            (1.0, Operation(OpKind.READ, 2)),
            (4.5, Operation(OpKind.READ, 2)),
        )
        sched = SiteSchedule(0, items)
        assert list(sched.times) == [1.0, 1.0, 4.5]
        assert list(sched.variables) == [3, 2, 2]
        assert sched.values == (7, None, None)
        view = sched.items
        assert view == items and tuple(sched) == items
        # reads are interned, one per variable
        assert view[1][1] is view[2][1]

    def test_columns_must_align(self):
        with pytest.raises(ValueError):
            SiteSchedule.from_columns(0, array("d", [1.0, 2.0]),
                                      array("q", [0]), (None, None))


class TestWorkloadValidation:
    def test_site_labels_must_match_position(self):
        sched = SiteSchedule(1, ())
        with pytest.raises(ValueError):
            Workload(schedules=(sched,), n_vars=5)

    def test_vars_must_fit(self):
        sched = SiteSchedule(0, ((1.0, Operation(OpKind.READ, 9)),))
        with pytest.raises(ValueError):
            Workload(schedules=(sched,), n_vars=5)

    def test_var_equal_to_q_rejected(self):
        sched = SiteSchedule(0, ((1.0, Operation(OpKind.READ, 1)),
                                 (2.0, Operation(OpKind.WRITE, 5, 1))))
        with pytest.raises(ValueError, match="var 5"):
            Workload(schedules=(sched,), n_vars=5)

    def test_negative_var_rejected(self):
        sched = SiteSchedule(0, ((1.0, Operation(OpKind.READ, -1)),))
        with pytest.raises(ValueError):
            Workload(schedules=(sched,), n_vars=5)


def _reference_workload(n_sites, *, n_vars, write_rate, ops_per_process,
                        seed, var_distribution):
    """The per-operation generator the columns replaced, kept verbatim:
    the (time, operation) pairs of every site, in site order."""
    gap_range_ms = PAPER_GAP_RANGE_MS
    probabilities = variable_probabilities(n_vars, var_distribution, 1.1)
    streams = np.random.SeedSequence(seed).spawn(n_sites)
    schedules = []
    for site in range(n_sites):
        rng = np.random.default_rng(streams[site])
        gaps = rng.uniform(*gap_range_ms, size=ops_per_process)
        times = np.cumsum(gaps)
        variables = rng.choice(
            n_vars, size=ops_per_process, p=probabilities
        )
        is_write = rng.random(ops_per_process) < write_rate
        items = []
        write_seq = 0
        for k in range(ops_per_process):
            if is_write[k]:
                write_seq += 1
                op = Operation(OpKind.WRITE, int(variables[k]),
                               encode_value(site, write_seq))
            else:
                op = Operation(OpKind.READ, int(variables[k]))
            items.append((float(times[k]), op))
        schedules.append(tuple(items))
    return schedules


class TestAgainstReferenceGenerator:
    """The column generator draws the same numbers in the same order as
    the per-operation loop it replaced, so every schedule is equal."""

    @pytest.mark.parametrize("distribution", ["uniform", "zipf"])
    @pytest.mark.parametrize("write_rate", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_sites,ops,seed,n_vars",
                             [(1, 1, 0, 1), (3, 50, 7, 10), (8, 120, 2024, 100)])
    def test_same_items(self, distribution, write_rate, n_sites, ops, seed,
                        n_vars):
        params = dict(n_vars=n_vars, write_rate=write_rate,
                      ops_per_process=ops, seed=seed,
                      var_distribution=distribution)
        wl = generate_workload(n_sites, **params)
        reference = _reference_workload(n_sites, **params)
        assert [s.items for s in wl.schedules] == reference
        assert wl == Workload(
            schedules=tuple(SiteSchedule(site, items)
                            for site, items in enumerate(reference)),
            n_vars=n_vars, target_write_rate=write_rate, seed=seed)

    def test_file_round_trip_is_equal(self, tmp_path):
        wl = generate_workload(5, write_rate=0.4, ops_per_process=60, seed=3,
                               var_distribution="zipf")
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        assert load_workload(path) == wl


def test_generated_workload_holds_columns():
    """A generated schedule is three flat columns per site.

    ``generate_workload(40, ops_per_process=400)`` holds ~0.64 MiB: one
    ``(float, Operation)`` pair per operation held ~2.46 MiB."""
    # numpy.random's lazy import alone adds ~0.8 MiB to a first reading
    generate_workload(2, ops_per_process=2, seed=0)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        wl = generate_workload(40, ops_per_process=400, seed=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert wl.total_operations == 16_000
    assert held <= 0.8 * 2**20, f"{held / 2**20:.2f} MiB"


class TestGenerator:
    def test_paper_defaults(self):
        wl = generate_workload(3, seed=0)
        assert wl.n_sites == 3
        assert wl.total_operations == 3 * PAPER_OPS_PER_PROCESS
        assert wl.n_vars == 100

    def test_deterministic(self):
        a = generate_workload(4, write_rate=0.4, ops_per_process=50, seed=9)
        b = generate_workload(4, write_rate=0.4, ops_per_process=50, seed=9)
        assert workload_to_dict(a) == workload_to_dict(b)

    def test_seed_changes_schedule(self):
        a = generate_workload(4, ops_per_process=50, seed=1)
        b = generate_workload(4, ops_per_process=50, seed=2)
        assert workload_to_dict(a) != workload_to_dict(b)

    def test_gaps_in_paper_range(self):
        wl = generate_workload(2, ops_per_process=200, seed=0)
        lo, hi = PAPER_GAP_RANGE_MS
        for sched in wl.schedules:
            times = [t for t, _ in sched.items]
            gaps = np.diff([0.0] + times)
            assert (gaps >= lo).all() and (gaps <= hi).all()

    def test_write_rate_statistics(self):
        wl = generate_workload(5, write_rate=0.3, ops_per_process=400, seed=0)
        assert wl.actual_write_rate() == pytest.approx(0.3, abs=0.03)

    def test_extreme_write_rates(self):
        all_w = generate_workload(2, write_rate=1.0, ops_per_process=50, seed=0)
        assert all_w.total_writes == 100 and all_w.total_reads == 0
        all_r = generate_workload(2, write_rate=0.0, ops_per_process=50, seed=0)
        assert all_r.total_writes == 0

    def test_variables_cover_range(self):
        wl = generate_workload(2, n_vars=10, ops_per_process=500, seed=0)
        touched = {op.var for s in wl.schedules for _, op in s.items}
        assert touched == set(range(10))

    def test_values_traceable(self):
        wl = generate_workload(3, write_rate=1.0, ops_per_process=20, seed=0)
        for sched in wl.schedules:
            for k, (_, op) in enumerate(sched.items):
                site, seq = decode_value(op.value)
                assert site == sched.site
                assert seq == k + 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_workload(0)
        with pytest.raises(ValueError):
            generate_workload(2, write_rate=1.5)
        with pytest.raises(ValueError):
            generate_workload(2, ops_per_process=0)
        with pytest.raises(ValueError):
            generate_workload(2, gap_range_ms=(10.0, 5.0))


class TestValueEncoding:
    def test_roundtrip(self):
        for site, seq in [(0, 0), (3, 17), (39, 599)]:
            assert decode_value(encode_value(site, seq)) == (site, seq)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_value(-1, 0)
        with pytest.raises(ValueError):
            decode_value(-5)


class TestTraces:
    def test_workload_roundtrip_dict(self):
        wl = generate_workload(3, write_rate=0.5, ops_per_process=30, seed=4)
        again = workload_from_dict(workload_to_dict(wl))
        assert workload_to_dict(again) == workload_to_dict(wl)
        assert again.n_sites == 3

    def test_workload_roundtrip_file(self, tmp_path):
        wl = generate_workload(2, ops_per_process=10, seed=1)
        path = tmp_path / "wl.json"
        save_workload(wl, path)
        again = load_workload(path)
        assert workload_to_dict(again) == workload_to_dict(wl)
        # and it is real JSON
        json.loads(path.read_text())

    def test_history_roundtrip_file(self, tmp_path):
        from repro import SimulationConfig, run_simulation

        r = run_simulation(SimulationConfig(
            protocol="optp", n_sites=3, n_vars=5, ops_per_process=15,
            seed=0, record_history=True,
        ))
        path = tmp_path / "hist.jsonl"
        save_history(r.history, path)
        again = load_history(path)
        assert len(again) == len(r.history)
        assert [e.kind for e in again.events] == [e.kind for e in r.history.events]

    def test_reloaded_history_still_checkable(self, tmp_path):
        from repro import SimulationConfig, check_causal_consistency, run_simulation

        r = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=4, n_vars=6, ops_per_process=20,
            seed=2, record_history=True,
        ))
        path = tmp_path / "hist.jsonl"
        save_history(r.history, path)
        report = check_causal_consistency(load_history(path), r.placement)
        assert report.ok

    def test_history_file_is_the_one_sorted_key_encoding(self, tmp_path):
        from repro import SimulationConfig, run_simulation
        from repro.verify.history import encode_events

        r = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=3, n_vars=5, ops_per_process=10,
            seed=1, record_history=True,
        ))
        path = tmp_path / "hist.jsonl"
        save_history(r.history, path)
        assert path.read_text() == encode_events(r.history.events)
        # a file written before keys were sorted still loads, blank
        # lines and all
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("".join(json.dumps(e.as_dict()) + "\n\n"
                                  for e in r.history.events))
        assert load_history(legacy).events == r.history.events


class TestZipfDistribution:
    def test_zipf_skews_toward_low_ids(self):
        from repro.workload.generator import generate_workload
        from collections import Counter

        wl = generate_workload(4, n_vars=20, ops_per_process=400, seed=0,
                               var_distribution="zipf", zipf_s=1.2)
        counts = Counter(op.var for s in wl.schedules for _, op in s.items)
        # the hottest variable dominates the coldest decisively
        assert counts[0] > 5 * max(counts.get(19, 0), 1)

    def test_probabilities_normalized_and_monotone(self):
        from repro.workload.generator import variable_probabilities

        probs = variable_probabilities(50, "zipf", 1.1)
        assert probs.sum() == pytest.approx(1.0)
        assert all(probs[i] >= probs[i + 1] for i in range(49))
        uni = variable_probabilities(50, "uniform", 1.0)
        assert uni.max() == uni.min()

    def test_invalid_distribution_rejected(self):
        from repro.workload.generator import generate_workload

        with pytest.raises(ValueError):
            generate_workload(2, var_distribution="pareto")
        with pytest.raises(ValueError):
            generate_workload(2, var_distribution="zipf", zipf_s=0.0)

    def test_runner_accepts_zipf(self):
        from repro import SimulationConfig, check_causal_consistency, run_simulation

        cfg = SimulationConfig(protocol="opt-track", n_sites=5, n_vars=10,
                               write_rate=0.5, ops_per_process=25, seed=0,
                               var_distribution="zipf", record_history=True)
        result = run_simulation(cfg)
        check_causal_consistency(result.history, result.placement).raise_if_violated()
