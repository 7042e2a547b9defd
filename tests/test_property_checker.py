"""Property tests cross-validating the checker and activation predicates
against brute-force reference implementations."""

from collections import Counter
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
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
from repro.memory.replication import Placement
from repro.memory.store import WriteId
from repro.verify.causal_checker import (
    LISTED,
    CausalityViolation,
    check_causal_consistency,
)
from repro.verify.graph import causality_graph
from repro.verify.history import EventKind, HistoryRecorder
from repro.verify.sessions import (
    check_monotonic_writes,
    check_writes_follow_reads,
)


# ----------------------------------------------------------------------
# random (possibly inconsistent, possibly cyclic) histories
# ----------------------------------------------------------------------
@st.composite
def histories(draw, min_ops=1):
    """A syntactically valid history: every rf target is some write of
    the history, but reads and writes interleave and a read may return
    a write issued *later* — consistency NOT guaranteed and po ∪ rf
    possibly cyclic, which is the point: the checker must agree with
    brute force on clean, violating and cyclic histories alike."""
    n_sites = draw(st.integers(1, 4))
    n_vars = draw(st.integers(1, 3))
    ops = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, n_sites - 1),
                  st.integers(0, n_vars - 1)),
        min_size=min_ops, max_size=20))
    clocks = [0] * n_sites
    ids = []
    for is_write, site, _ in ops:
        if is_write:
            clocks[site] += 1
            ids.append(clocks[site])
        else:
            ids.append(None)
    writes = [(site, clock, var) for (_, site, var), clock in zip(ops, ids)
              if clock is not None]
    h = HistoryRecorder()
    for t, ((is_write, site, var), clock) in enumerate(zip(ops, ids)):
        if is_write:
            h.record_write_op(time=float(t), site=site, var=var,
                              value=f"v{site}.{clock}",
                              write_id=WriteId(site, clock))
        elif writes and draw(st.booleans()):
            wsite, wclock, wvar = writes[draw(st.integers(0, len(writes) - 1))]
            h.record_read_op(time=float(t), site=site, var=wvar,
                             value=f"v{wsite}.{wclock}",
                             write_id=WriteId(wsite, wclock))
        else:
            h.record_read_op(time=float(t), site=site, var=var, value=None,
                             write_id=None)
    return h


def oracle_graph(history: HistoryRecorder) -> nx.DiGraph:
    """po ∪ rf as an ``nx.DiGraph`` built from the history's events alone,
    so no code under test answers for it.  Nodes are named as the
    checker names them, ``("w", site, clock)`` and ``("r", site, k)``,
    and carry their ``site``, ``var``, ``kind``, ``rf`` and ``dests``."""
    dg = nx.DiGraph()
    last: dict[int, tuple] = {}
    for ev in history.operations():
        k = sum(1 for _ in dg.nodes if dg.nodes[_]["site"] == ev.site)
        write = ev.kind is EventKind.WRITE_OP
        node = ("w", *ev.write_id) if write else ("r", ev.site, k)
        dg.add_node(node, site=ev.site, var=ev.var, kind="w" if write else "r",
                    rf=None if write else ev.write_id, dests=ev.dests)
        if ev.site in last:
            dg.add_edge(last[ev.site], node)
        last[ev.site] = node
    for node, data in list(dg.nodes.items()):
        if data["kind"] == "r" and data["rf"] is not None:
            dg.add_edge(("w", *data["rf"]), node)
    return dg


def first_per_kind(violations: list[CausalityViolation]) -> list[CausalityViolation]:
    """A listing as a report keeps it: the first LISTED of each kind."""
    seen: Counter = Counter()
    kept = []
    for v in violations:
        seen[v.kind] += 1
        if seen[v.kind] <= LISTED:
            kept.append(v)
    return kept


def reference_stale_reads(dg: nx.DiGraph, closure: nx.DiGraph) -> list[CausalityViolation]:
    """Condition 2 from the transitive closure: per read in recorded
    order, each write to its variable in its causal past that is stale."""
    violations = []
    writes = [n for n, d in dg.nodes.items() if d["kind"] == "w"]
    for node, data in dg.nodes.items():
        if data["kind"] != "r":
            continue
        var, rf = data["var"], data["rf"]
        for w2 in writes:
            if dg.nodes[w2]["var"] != var or not closure.has_edge(w2, node):
                continue
            if rf is None:
                violations.append(CausalityViolation(
                    "stale-bottom-read", f"read {node} returned ⊥ but write "
                    f"{w2} to var {var} is in its causal past"))
            elif closure.has_edge(("w", *rf), w2):
                violations.append(CausalityViolation(
                    "stale-read", f"read {node} returned write {('w', *rf)} but "
                    f"{w2} overwrote var {var} in the read's causal past"))
    return violations


class TestCheckerAgainstBruteForce:
    @given(history=histories())
    @settings(max_examples=150, deadline=None)
    def test_stale_read_counts_agree(self, history):
        report = check_causal_consistency(history)
        dg = oracle_graph(history)
        if not nx.is_directed_acyclic_graph(dg):
            assert report.totals == {"cyclic-causality": 1}
            assert report.violations[0].kind == "cyclic-causality"
            return
        expected = reference_stale_reads(dg, nx.transitive_closure_dag(dg))
        assert report.totals == Counter(v.kind for v in expected)
        assert report.violations == first_per_kind(expected)


class TestGraphAgainstNetworkx:
    @given(history=histories())
    @settings(max_examples=150, deadline=None)
    def test_order_cycle_and_ancestry(self, history):
        g = causality_graph(history)
        dg = oracle_graph(history)
        cyclic = not nx.is_directed_acyclic_graph(dg)
        assert (g.stalled is not None) == cyclic
        if cyclic:
            cycle = g.cycle()
            assert cycle
            assert all(dg.has_edge(a, b) for a, b in cycle)
            assert [b for _, b in cycle] == [a for a, _ in cycle[1:] + cycle[:1]]
            with pytest.raises(ValueError, match="cyclic"):
                g.acyclic()
            return
        assert g.cycle() == []
        names = list(dg.nodes)  # recorded order
        closure = nx.transitive_closure_dag(dg)
        for a, name_a in enumerate(names):
            if name_a[0] != "w":
                continue
            for b, name_b in enumerate(names):
                assert g.precedes(a, b) == closure.has_edge(name_a, name_b)


# ----------------------------------------------------------------------
# condition 3 (per-site apply order) vs the per-write loop
# ----------------------------------------------------------------------
class TablePlacement(Placement):
    """A drawn replica set per variable."""

    def __init__(self, n_sites, table):
        self._table = table
        super().__init__(n_sites, len(table), len(table[0]))

    def _compute_replicas(self, var):
        return self._table[var]


@st.composite
def applied_histories(draw):
    """A :func:`histories` history, some writes with recorded ``dests``,
    a placement, and applies in any order: missing, out of causal order,
    repeated at one site, or of a write nobody issued."""
    h = draw(histories(min_ops=6))
    n_sites = 1 + max(e.site for e in h.events)
    n_vars = 1 + max(e.var for e in h.events)
    p = draw(st.integers(1, n_sites))
    table = [draw(st.permutations(range(n_sites)))[:p] for _ in range(n_vars)]
    sites = st.integers(0, n_sites - 1)
    for k, e in enumerate(h.events):
        if e.kind is EventKind.WRITE_OP and draw(st.booleans()):
            h.events[k] = replace(e, dests=tuple(sorted(
                draw(st.sets(sites)))))
    targets = [(e.write_id, e.var) for e in h.writes()]
    targets.append(((n_sites, 99), 0))  # the phantom
    for site in draw(st.permutations(range(n_sites))):
        # a prefix of a shuffle (or of recording order) of the targets,
        # then a few repeats
        seq = draw(st.permutations(range(len(targets))))
        if draw(st.booleans()):
            seq = sorted(seq)
        seq = seq[:draw(st.integers(0, len(seq)))]
        if seq:
            seq += draw(st.lists(st.sampled_from(seq), max_size=3))
        for k in seq:
            wid, var = targets[k]
            h.record_apply(time=100.0, site=site, var=var,
                           write_id=WriteId(*wid))
    return h, TablePlacement(n_sites, table)


def reference_apply_order(history, placement):
    """Condition 3 as one loop over every write per apply, ancestry from
    the networkx closure: O(applies x writes)."""
    dg = oracle_graph(history)
    closure = nx.transitive_closure_dag(dg)
    writes = [n for n, d in dg.nodes.items() if d["kind"] == "w"]
    violations = []
    applies_by_site: dict[int, list[tuple]] = {}
    for ev in history.of_kind(EventKind.APPLY):
        applies_by_site.setdefault(ev.site, []).append(("w", *ev.write_id))
    for site, applied_seq in applies_by_site.items():
        position = {w: k for k, w in enumerate(applied_seq)}
        for w in applied_seq:
            if w not in dg:
                violations.append(CausalityViolation(
                    "phantom-apply", f"site {site} applied unknown write {w}"))
                continue
            for w2 in writes:
                if not closure.has_edge(w2, w):
                    continue
                w2_dests = dg.nodes[w2]["dests"]
                if w2_dests is not None:
                    if site not in w2_dests:
                        continue
                elif not placement.is_replicated_at(dg.nodes[w2]["var"], site):
                    continue
                if w2 not in position:
                    violations.append(CausalityViolation(
                        "missing-apply",
                        f"site {site} applied {w} but not its causal "
                        f"predecessor {w2} destined to it"))
                elif position[w2] > position[w]:
                    violations.append(CausalityViolation(
                        "apply-order",
                        f"site {site} applied {w} before its causal "
                        f"predecessor {w2}"))
    return violations


class TestApplyOrderAgainstReference:
    @given(case=applied_histories())
    @settings(max_examples=300, deadline=None)
    def test_masks_match_the_per_write_loop(self, case):
        history, placement = case
        report = check_causal_consistency(history, placement)
        dg = oracle_graph(history)
        if not nx.is_directed_acyclic_graph(dg):
            assert [v.kind for v in report.violations] == ["cyclic-causality"]
            return
        expected = (reference_stale_reads(dg, nx.transitive_closure_dag(dg))
                    + reference_apply_order(history, placement))
        assert report.totals == Counter(v.kind for v in expected)
        assert report.violations == first_per_kind(expected)


# ----------------------------------------------------------------------
# writes-follow-reads vs the pairwise loop
# ----------------------------------------------------------------------
def reference_writes_follow_reads(history):
    """Writes-follow-reads as one test per pair: each distinct (read
    source, later write of the reading site) pair, at every site that
    applied both, compared by last-apply position."""
    pairs: dict[tuple, None] = {}
    sources: dict[int, list] = {}
    for ev in history.operations():
        if ev.kind is EventKind.READ_OP:
            if ev.write_id is not None:
                sources.setdefault(ev.site, []).append(ev.write_id)
        else:
            for source in sources.get(ev.site, ()):
                pairs[(source, ev.write_id)] = None
    positions: dict[int, dict[tuple, int]] = {}
    for k, ev in enumerate(history.of_kind(EventKind.APPLY)):
        positions.setdefault(ev.site, {})[ev.write_id] = k
    return {
        f"site {site} applied {after} (writes-follow-reads successor) "
        f"before {before}"
        for before, after in pairs
        for site, pos in positions.items()
        if before in pos and after in pos and pos[before] > pos[after]
    }


class TestWritesFollowReadsAgainstReference:
    @given(case=applied_histories())
    @settings(max_examples=300, deadline=None)
    def test_masks_match_the_pairwise_loop(self, case):
        history, _ = case
        if not nx.is_directed_acyclic_graph(oracle_graph(history)):
            with pytest.raises(ValueError, match="cyclic"):
                check_writes_follow_reads(history)
            return
        found = check_writes_follow_reads(history)
        assert len(found) == len(set(found))
        assert set(found) == reference_writes_follow_reads(history)


# ----------------------------------------------------------------------
# monotonic writes vs the per-apply loop
# ----------------------------------------------------------------------
def reference_monotonic_writes(history):
    """Monotonic writes as one loop over every APPLY, a last clock per
    (site, writer)."""
    violations = []
    applies: dict[int, list[tuple[int, int]]] = {}
    for ev in history.of_kind(EventKind.APPLY):
        applies.setdefault(ev.site, []).append(ev.write_id)
    for site, seq in applies.items():
        last_clock: dict[int, int] = {}
        for writer, clock in seq:
            if clock <= last_clock.get(writer, 0):
                violations.append(
                    f"site {site} applied writer {writer}'s clock {clock} "
                    f"after {last_clock[writer]}"
                )
            else:
                last_clock[writer] = clock
    return violations


class TestMonotonicWritesAgainstReference:
    @given(case=applied_histories())
    @settings(max_examples=300, deadline=None)
    def test_columns_match_the_per_apply_loop(self, case):
        history, _ = case
        assert check_monotonic_writes(history) == (
            reference_monotonic_writes(history))

    def test_a_clock_zero_apply_is_judged_not_raised(self):
        h = HistoryRecorder()
        for clock in (0, 0):
            h.record_apply(time=0.0, site=0, var=0,
                           write_id=WriteId(1, clock))
        assert check_monotonic_writes(h) == [
            "site 0 applied writer 1's clock 0 after 0"]


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
