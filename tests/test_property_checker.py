"""Property tests cross-validating the checker and activation predicates
against brute-force reference implementations."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activation import (
    RETEST,
    crp_sm_blocker,
    full_track_rm_blocker,
    full_track_sm_blocker,
    opt_track_entries_blocker,
    optp_sm_blocker,
)
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry, PiggybackView
from repro.memory.store import WriteId
from repro.verify.causal_checker import check_causal_consistency
from repro.verify.graph import causality_graph, read_node, write_node
from repro.verify.history import HistoryRecorder


# ----------------------------------------------------------------------
# random (possibly inconsistent) histories
# ----------------------------------------------------------------------
@st.composite
def histories(draw):
    """A syntactically valid history: writes first (so rf targets exist),
    then reads referencing arbitrary writes — consistency NOT guaranteed,
    which is the point: the checker must agree with brute force on both
    clean and violating histories."""
    n_sites = draw(st.integers(1, 4))
    n_vars = draw(st.integers(1, 3))
    h = HistoryRecorder()
    writes: list[tuple[int, int, int]] = []  # (site, clock, var)
    clocks = [0] * n_sites
    t = 0.0
    for _ in range(draw(st.integers(1, 10))):
        site = draw(st.integers(0, n_sites - 1))
        var = draw(st.integers(0, n_vars - 1))
        t += 1.0
        clocks[site] += 1
        h.record_write_op(time=t, site=site, var=var,
                          value=f"v{site}.{clocks[site]}",
                          write_id=WriteId(site, clocks[site]))
        writes.append((site, clocks[site], var))
    for _ in range(draw(st.integers(0, 10))):
        site = draw(st.integers(0, n_sites - 1))
        t += 1.0
        if writes and draw(st.booleans()):
            wsite, wclock, wvar = writes[draw(st.integers(0, len(writes) - 1))]
            h.record_read_op(time=t, site=site, var=wvar,
                             value=f"v{wsite}.{wclock}",
                             write_id=WriteId(wsite, wclock))
        else:
            var = draw(st.integers(0, n_vars - 1))
            h.record_read_op(time=t, site=site, var=var, value=None,
                             write_id=None)
    return h


def brute_force_stale_reads(history: HistoryRecorder) -> int:
    """O(V^3) reference: count stale reads via full transitive closure."""
    g = causality_graph(history)
    if not nx.is_directed_acyclic_graph(g):
        return -1  # cycle marker
    closure = nx.transitive_closure_dag(g)
    count = 0
    writes_by_var: dict[int, list] = {}
    for node, data in g.nodes(data=True):
        if data["kind"] == "w":
            writes_by_var.setdefault(data["var"], []).append(node)
    for node, data in g.nodes(data=True):
        if data["kind"] != "r":
            continue
        var = data["var"]
        if data["rf"] is None:
            count += sum(
                1 for w2 in writes_by_var.get(var, ())
                if closure.has_edge(w2, node)
            )
            continue
        w = write_node(*data["rf"])
        for w2 in writes_by_var.get(var, ()):
            if w2 == w:
                continue
            if closure.has_edge(w2, node) and closure.has_edge(w, w2):
                count += 1
    return count


class TestCheckerAgainstBruteForce:
    @given(history=histories())
    @settings(max_examples=150, deadline=None)
    def test_stale_read_counts_agree(self, history):
        report = check_causal_consistency(history)
        expected = brute_force_stale_reads(history)
        if expected == -1:
            assert report.violations
            assert report.violations[0].kind == "cyclic-causality"
        else:
            found = sum(1 for v in report.violations
                        if v.kind in ("stale-read", "stale-bottom-read"))
            assert found == expected


# ----------------------------------------------------------------------
# activation gates vs naive definitions
# ----------------------------------------------------------------------
def applied_lists(n, high=5):
    return st.lists(st.integers(0, high), min_size=n, max_size=n)


def check_gate(data, gate, applied, naive, overshoot=lambda applied: False):
    """The gate contract at ``applied`` and above it.

    ``gate(applied)`` is ``None`` exactly when ``naive(applied)`` holds;
    ``RETEST`` exactly on a FIFO overshoot; otherwise a ``(w, t)`` with
    ``applied[w] < t`` that is necessary: the gate stays blocked at every
    ``applied' >= applied`` that keeps ``applied'[w] < t``.
    """
    answer = gate(applied)
    assert (answer is None) == naive(applied)
    assert (answer is RETEST) == (not naive(applied) and overshoot(applied))
    if answer is None or answer is RETEST:
        return
    w, t = answer
    assert applied[w] < t
    raised = [a + data.draw(st.integers(0, 3)) for a in applied]
    raised[w] = min(raised[w], t - 1)
    saturated = [max(a, 99) for a in applied]
    saturated[w] = t - 1
    for higher in (raised, saturated):
        assert gate(higher) is not None, (answer, higher)


class TestPredicatesAgainstNaive:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_full_track_predicate(self, data):
        n = data.draw(st.integers(2, 5))
        rows = st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                        min_size=n, max_size=n)
        m = MatrixClock(n, np.array(data.draw(rows)))
        sender = data.draw(st.integers(0, n - 1))
        site = data.draw(st.integers(0, n - 1))
        # make the message self-consistent: it counts itself
        if m[sender, site] == 0:
            m.increment(sender, [site])

        def naive(applied):
            return all(applied[j] >= m[j, site] - (1 if j == sender else 0)
                       for j in range(n))

        check_gate(data, lambda a: full_track_sm_blocker(m, sender, site, a),
                   data.draw(applied_lists(n)), naive)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_full_track_rm_predicate(self, data):
        n = data.draw(st.integers(2, 5))
        rows = st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                        min_size=n, max_size=n)
        m = MatrixClock(n, np.array(data.draw(rows)))
        site = data.draw(st.integers(0, n - 1))

        def naive(applied):
            return all(applied[j] >= m[j, site] for j in range(n))

        check_gate(data, lambda a: full_track_rm_blocker(m, site, a),
                   data.draw(applied_lists(n)), naive)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_opt_track_predicate(self, data):
        n = 5
        entries = [
            PiggybackEntry(
                data.draw(st.integers(0, n - 1)),
                data.draw(st.integers(1, 6)),
                frozenset(data.draw(st.frozensets(st.integers(0, n - 1),
                                                  max_size=3))),
            )
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        site = data.draw(st.integers(0, n - 1))
        applied = data.draw(applied_lists(n, high=6))

        def naive(applied):
            return all(applied[e.writer] >= e.clock
                       for e in entries if site in e.dests)

        check_gate(data, lambda a: opt_track_entries_blocker(entries, site, a),
                   applied, naive)
        # an SM's view answers what the flat scan answers
        view = PiggybackView.from_entries(entries)
        check_gate(data, lambda a: view.blocker(site, a), applied, naive)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_crp_predicate(self, data):
        n = data.draw(st.integers(2, 5))
        writer = data.draw(st.integers(0, n - 1))
        clock = data.draw(st.integers(1, 6))
        log = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, 6)), max_size=4))

        def naive(applied):
            return applied[writer] == clock - 1 and all(
                applied[j] >= c for j, c in log)

        check_gate(data, lambda a: crp_sm_blocker(writer, clock, log, a),
                   data.draw(applied_lists(n, high=6)), naive,
                   overshoot=lambda a: a[writer] > clock - 1)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_optp_predicate(self, data):
        n = data.draw(st.integers(2, 5))
        writer = data.draw(st.integers(0, n - 1))
        vec = VectorClock(n, data.draw(
            st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        if vec[writer] == 0:
            vec.increment(writer)

        def naive(applied):
            return applied[writer] == vec[writer] - 1 and all(
                applied[j] >= vec[j] for j in range(n) if j != writer)

        check_gate(data, lambda a: optp_sm_blocker(writer, vec, a),
                   data.draw(applied_lists(n)), naive,
                   overshoot=lambda a: a[writer] > vec[writer] - 1)
