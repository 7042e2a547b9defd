"""Activation predicates — the heart of causal memory (Section II-B).

When an update message arrives, a site may not apply it immediately: the
*activation predicate* A(m, e) stays false until every causally
preceding update destined to this site has been applied.  All four
protocols use the optimal predicate A_OPT of Baldoni et al., evaluated
over whatever metadata the protocol piggybacks:

* Full-Track — the n x n Write matrix column for this site;
* Opt-Track — the piggybacked KS-log records naming this site (an SM's
  log is a :class:`~repro.core.log.PiggybackView`, which already knows
  which records those are: its gate is
  :meth:`~repro.core.log.PiggybackView.blocker`; the scan below serves
  the flat RM logs);
* Opt-Track-CRP — (writer, clock) 2-tuples plus per-writer FIFO counts;
* optP — the size-n Write vector.

The same predicates gate the completion of remote reads (RM messages)
under partial replication: a fetched value may causally depend on writes
destined to the reader that have not yet been applied there, and
returning it early would let the reader observe a causal future it has
not reached — see DESIGN.md, "gating remote-read returns".

These are pure functions of (metadata, local Apply state) so they can be
unit-tested exhaustively and shared between the SM and RM paths.

Each ``*_ready`` predicate has a ``*_blocker`` companion feeding the
dependency-indexed wakeup machinery in :mod:`repro.core.base`: when the
predicate is false, the blocker names the *first* unsatisfied
``(writer, threshold)`` pair — a threshold with ``applied[writer] <
threshold`` such that the predicate cannot become true before
``applied[writer]`` reaches it.  Every predicate here is a conjunction
of monotone per-writer comparisons, so the first failing conjunct is a
sound blocker.  (The one exception is the exact-match FIFO conjunct of
CRP/optP: if ``applied[writer]`` *overshot* the expected value — which
FIFO channels make impossible — the blocker returns ``None`` and the
entry falls back to every-pass re-testing rather than waiting forever.)

The predicates iterate plain Python scalars (``applied`` is a Python
list in the protocols, and clocks expose cached ``tolist`` views):
element-wise NumPy comparisons on size-n arrays cost more in ufunc
dispatch than the whole early-exit loop for the n used in the paper's
experiments — see docs/architecture.md, "Hot path & performance model".
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .clocks import MatrixClock, VectorClock
from .log import PiggybackEntry

__all__ = [
    "full_track_sm_ready",
    "full_track_sm_blocker",
    "full_track_rm_ready",
    "full_track_rm_blocker",
    "opt_track_entries_ready",
    "opt_track_entries_blocker",
    "crp_sm_ready",
    "crp_sm_blocker",
    "optp_sm_ready",
    "optp_sm_blocker",
]


def full_track_sm_ready(
    matrix: MatrixClock,
    sender: int,
    site: int,
    applied_counts: Sequence[int],
) -> bool:
    """A_OPT for a Full-Track SM at ``site``.

    ``applied_counts[j]`` counts updates written by ap_j applied at this
    site.  The piggybacked matrix was incremented for this very message
    before sending, so the sender's own column entry is discounted by
    one: the message is applicable when it is the *next* update from its
    sender destined here and every other writer's destined-here updates
    have all arrived.
    """
    col = matrix.column_list(site)
    for j, c in enumerate(col):
        if applied_counts[j] < (c - 1 if j == sender else c):
            return False
    return True


def full_track_sm_blocker(
    matrix: MatrixClock,
    sender: int,
    site: int,
    applied_counts: Sequence[int],
) -> Optional[tuple[int, int]]:
    """First unsatisfied ``(writer, required count)`` of a false SM gate."""
    col = matrix.column_list(site)
    for j, c in enumerate(col):
        required = c - 1 if j == sender else c
        if applied_counts[j] < required:
            return (j, required)
    return None


def full_track_rm_ready(
    matrix: MatrixClock,
    site: int,
    applied_counts: Sequence[int],
) -> bool:
    """Gate for a Full-Track RM at the reading ``site``.

    The piggybacked ``LastWriteOn`` matrix counts, in column ``site``,
    exactly the updates destined here that causally precede the write
    whose value was fetched; all of them must have been applied before
    the read may complete.  (The fetched write itself is never destined
    to the reader — otherwise no fetch would have been issued.)
    """
    col = matrix.column_list(site)
    for j, c in enumerate(col):
        if applied_counts[j] < c:
            return False
    return True


def full_track_rm_blocker(
    matrix: MatrixClock,
    site: int,
    applied_counts: Sequence[int],
) -> Optional[tuple[int, int]]:
    """First unsatisfied ``(writer, required count)`` of a false RM gate."""
    col = matrix.column_list(site)
    for j, c in enumerate(col):
        if applied_counts[j] < c:
            return (j, c)
    return None


def opt_track_entries_ready(
    entries: Iterable[PiggybackEntry],
    site: int,
    applied_clocks: Sequence[int],
) -> bool:
    """A_OPT for Opt-Track metadata held as a flat log (RM logs).

    ``applied_clocks[j]`` holds the highest write-clock of ap_j applied
    at this site (clocks of one writer increase monotonically along its
    FIFO channels, so "highest applied" identifies the applied prefix of
    the writes destined here).  The message is applicable when every
    piggybacked record naming this site as a destination has been
    applied.
    """
    for e in entries:
        if site in e.dests and applied_clocks[e.writer] < e.clock:
            return False
    return True


def opt_track_entries_blocker(
    entries: Iterable[PiggybackEntry],
    site: int,
    applied_clocks: Sequence[int],
) -> Optional[tuple[int, int]]:
    """First unapplied ``(writer, clock)`` record naming this site."""
    for e in entries:
        if site in e.dests and applied_clocks[e.writer] < e.clock:
            return (e.writer, e.clock)
    return None


def crp_sm_ready(
    writer: int,
    clock: int,
    log: Iterable[tuple[int, int]],
    applied_clocks: Sequence[int],
) -> bool:
    """A_OPT for an Opt-Track-CRP SM.

    Under full replication every write by ``writer`` reaches every site,
    so the local applied clock must be exactly ``clock - 1`` (the message
    is the writer's next update), and every piggybacked dependency must
    already be applied.
    """
    if applied_clocks[writer] != clock - 1:
        return False
    for j, c in log:
        if applied_clocks[j] < c:
            return False
    return True


def crp_sm_blocker(
    writer: int,
    clock: int,
    log: Iterable[tuple[int, int]],
    applied_clocks: Sequence[int],
) -> Optional[tuple[int, int]]:
    """First unsatisfied threshold of a false CRP gate.

    ``None`` on FIFO overshoot (``applied_clocks[writer] > clock - 1``,
    impossible over FIFO channels): the exact-match conjunct can never
    recover, so the entry is left to the every-pass fallback.
    """
    if applied_clocks[writer] < clock - 1:
        return (writer, clock - 1)
    if applied_clocks[writer] != clock - 1:
        return None
    for j, c in log:
        if applied_clocks[j] < c:
            return (j, c)
    return None


def optp_sm_ready(
    writer: int,
    vector: VectorClock,
    applied_counts: Sequence[int],
) -> bool:
    """A_OPT for an optP SM (Baldoni et al.).

    ``W[writer]`` includes the message itself; all other components are
    pure dependencies.
    """
    vec = vector.as_list()
    if applied_counts[writer] != vec[writer] - 1:
        return False
    for j, c in enumerate(vec):
        if j != writer and applied_counts[j] < c:
            return False
    return True


def optp_sm_blocker(
    writer: int,
    vector: VectorClock,
    applied_counts: Sequence[int],
) -> Optional[tuple[int, int]]:
    """First unsatisfied threshold of a false optP gate (``None`` on
    FIFO overshoot, as for :func:`crp_sm_blocker`)."""
    vec = vector.as_list()
    if applied_counts[writer] < vec[writer] - 1:
        return (writer, vec[writer] - 1)
    if applied_counts[writer] != vec[writer] - 1:
        return None
    for j, c in enumerate(vec):
        if j != writer and applied_counts[j] < c:
            return (j, c)
    return None
