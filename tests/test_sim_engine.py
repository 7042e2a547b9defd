"""Unit tests for the discrete-event simulation kernel."""

import ast
from pathlib import Path

import pytest

import repro
from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30.0, lambda: fired.append("c"))
        sim.schedule(10.0, lambda: fired.append("a"))
        sim.schedule(20.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(5.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(12.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]
        assert sim.now == 12.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: sim.schedule_at(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == list(range(6))
        assert sim.now == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(10.0, lambda: fired.append("x"))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        assert sim.pending_events == 2
        ev.cancel()
        assert sim.pending_events == 1

    def test_mass_cancellation_compacts_queue(self):
        # regression: cancelled events used to sit in the heap as
        # tombstones until popped, so a retransmit-heavy run kept O(all
        # cancels) dead entries resident.  Compaction must physically
        # shrink the heap once tombstones dominate, without disturbing
        # the surviving events' order.
        sim = Simulator()
        fired = []
        keep = []
        doomed = []
        for i in range(200):
            t = float(i + 1)
            if i % 10 == 0:
                keep.append(sim.schedule(t, lambda t=t: fired.append(t)))
            else:
                doomed.append(sim.schedule(t, lambda: fired.append("dead")))
        for ev in doomed:
            ev.cancel()
        # tombstones (180) outnumber survivors (20): compaction has run,
        # leaving at most the sub-threshold residue it deliberately skips
        assert sim.pending_events == 20
        assert len(sim._queue) < 64
        sim.run()
        assert fired == [float(i + 1) for i in range(0, 200, 10)]
        assert sim._tombstones == 0

    def test_compaction_below_min_queue_is_deferred(self):
        # small queues skip compaction (not worth a heapify); the popped
        # tombstones must still be skipped and accounted for
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(float(i + 1), lambda: fired.append("dead"))
                  for i in range(10)]
        sim.schedule(99.0, lambda: fired.append("live"))
        for ev in doomed:
            ev.cancel()
        assert len(sim._queue) == 11  # tombstones still resident
        sim.run()
        assert fired == ["live"]
        assert sim._tombstones == 0

    def test_cancel_inside_callback_keeps_run_loop_consistent(self):
        # compaction can trigger mid-callback (cancel() during an event);
        # run() must keep draining the same physical queue afterwards
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(50.0 + i, lambda: fired.append("dead"))
                  for i in range(100)]
        sim.schedule(200.0, lambda: fired.append("tail"))

        def cancel_all():
            fired.append("trigger")
            for ev in doomed:
                ev.cancel()

        sim.schedule(1.0, cancel_all)
        sim.run()
        assert fired == ["trigger", "tail"]


class TestRunUntil:
    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.schedule(50.0, lambda: fired.append(2))
        sim.run(until=30.0)
        assert fired == [1]
        assert sim.now == 30.0

    def test_run_can_resume_after_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.schedule(50.0, lambda: fired.append(2))
        sim.run(until=30.0)
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 50.0

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(30.0, lambda: fired.append(1))
        sim.run(until=30.0)
        assert fired == [1]


class TestStep:
    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_processes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestEventBudget:
    def test_budget_exceeded_raises(self):
        sim = Simulator(max_events=10)

        def respawn():
            sim.schedule(1.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_budget_not_hit_for_finite_run(self):
        sim = Simulator(max_events=10)
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 10


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []
            for i in range(20):
                sim.schedule((i * 7) % 5 + 0.5, lambda i=i: trace.append((sim.now, i)))
            sim.run()
            return trace

        assert run_once() == run_once()


def _now_writes(tree):
    """Line numbers of every assignment, ``del`` or ``setattr`` of an
    attribute named ``now`` in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "now" and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "now"):
            lines.append(node.lineno)
    return sorted(lines)


class TestClockIsKernelOwned:
    """``Simulator.now`` is a plain attribute: only the kernel may write it."""

    def test_scan_sees_every_write_form(self):
        tree = ast.parse("a.now = 1\nb.now += 1\nc.now: float = 2\n"
                         "d.x, e.now = 1, 2\ndel f.now\nsetattr(g, 'now', 3)\n"
                         "h = i.now\n")
        assert _now_writes(tree) == [1, 2, 3, 4, 5, 6]

    def test_no_module_outside_the_kernel_writes_now(self):
        package = Path(repro.__file__).resolve().parent
        kernel = package / "sim" / "engine.py"
        writers = {
            f"{path.relative_to(package)}:{line}"
            for path in sorted(package.rglob("*.py")) if path != kernel
            for line in _now_writes(ast.parse(path.read_text(), str(path)))
        }
        assert writers == set()
        assert _now_writes(ast.parse(kernel.read_text())) != []


class TestPostedEntries:
    """``post``: one heap tuple per call, ordered, counted and observed
    exactly like a ``schedule_at`` event drawn from the same counter."""

    @staticmethod
    def _recorder(fired):
        return lambda src, dst, payload: fired.append((src, dst, payload))

    def test_posted_and_scheduled_at_one_time_fire_in_seq_order(self):
        sim = Simulator()
        fired = []
        record = self._recorder(fired)
        sim.post(5.0, record, 0, 1, "a")
        sim.schedule_at(5.0, lambda: fired.append("b"))
        sim.post(5.0, record, 2, 3, "c")
        sim.schedule(5.0, lambda: fired.append("d"))
        sim.post(1.0, record, 4, 5, "first")
        sim.run()
        assert fired == [(4, 5, "first"), (0, 1, "a"), "b", (2, 3, "c"), "d"]

    def test_step_runs_a_posted_entry_and_advances_now(self):
        sim = Simulator()
        fired = []
        sim.post(7.5, self._recorder(fired), 1, 2, "m")
        sim.schedule(9.0, lambda: fired.append("later"))
        assert sim.step() is True
        assert fired == [(1, 2, "m")]
        assert sim.now == 7.5
        assert sim.processed_events == 1

    def test_max_events_counts_posted_entries(self):
        sim = Simulator(max_events=5)
        fired = []

        def bounce(src, dst, payload):
            fired.append(sim.now)
            if len(fired) < 50:
                sim.post(sim.now + 1.0, bounce, dst, src, payload)

        sim.post(0.0, bounce, 0, 1, None)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_observer_sees_every_posted_entry(self):
        sim = Simulator()
        seen = []
        sim.observer = lambda t, pending: seen.append((t, pending))
        noop = lambda src, dst, payload: None  # noqa: E731
        sim.post(2.0, noop, 0, 1, None)
        sim.schedule_at(2.0, lambda: None)
        sim.post(3.0, noop, 0, 1, None)
        sim.run()
        assert seen == [(2.0, 2), (2.0, 1), (3.0, 0)]

    def test_compaction_keeps_every_posted_entry(self):
        sim = Simulator()
        fired = []
        record = self._recorder(fired)
        doomed = []
        for i in range(200):
            t = float(i + 1)
            if i % 10 == 0:
                sim.post(t, record, i, i + 1, t)
            else:
                doomed.append(sim.schedule_at(t, lambda: fired.append("dead")))
        for ev in doomed:
            ev.cancel()
        assert sim.compactions >= 1
        assert len(sim._queue) < 64
        assert sim.pending_events == 20
        sim.run()
        assert fired == [(i, i + 1, float(i + 1)) for i in range(0, 200, 10)]
        assert sim._tombstones == 0

    def test_post_into_the_past_is_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: sim.post(5.0, lambda s, d, p: None, 0, 1, None))
        with pytest.raises(SimulationError, match="before current time"):
            sim.run()

    def test_pending_events_counts_posted_entries(self):
        sim = Simulator()
        sim.post(1.0, lambda s, d, p: None, 0, 1, None)
        ev = sim.schedule(2.0, lambda: None)
        sim.post(3.0, lambda s, d, p: None, 1, 0, None)
        assert sim.pending_events == 3
        ev.cancel()
        assert sim.pending_events == 2
        sim.step()
        assert sim.pending_events == 1
