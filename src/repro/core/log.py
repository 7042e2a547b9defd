"""Dependency logs for the Opt-Track protocol family.

Opt-Track adapts the Kshemkalyani–Singhal (KS) optimal causal-ordering
algorithm to partially replicated shared memory.  Each site keeps a LOG
of records ``<j, clock_j, Dests>`` — one per write operation in the
causal past whose delivery information is still *necessary* — and prunes
destination information the moment it becomes redundant, using the two
implicit conditions of Section III-B:

1. once update m is applied at site s, "s is a destination of m" is
   useless in the causal future of that apply;
2. once a message is multicast to destination set D, "d in D is a
   destination of m" is useless (for earlier m) in the causal future of
   the send — except in the copy travelling to d itself, which still
   needs it for its activation predicate.

:class:`OptTrackLog` implements the log with MERGE (KS implicit
tracking: absence is *knowledge* — a destination missing from one copy
of a record is dropped from the other, and a record missing from a log
that holds a newer record of its writer is dead on both sides), PURGE
(drop empty-destination records superseded by a newer record from the
same writer; the newest record per writer is retained even when empty,
because its presence is what lets later merges prove older records of
that writer dead), and the per-destination piggyback views used at
multicast time.  It holds one frozen
:class:`PiggybackEntry` per write — the form a record is shipped in is
the form it is stored in, a shrink replaces the record and nothing ever
mutates one — and a write walks it once: ``piggyback_views`` applies
condition 2 to the log as it builds the views, so the stripped record
that ships is the record that stays.

:class:`TupleLog` is the degenerate full-replication log of
Opt-Track-CRP: at most one ``<j, clock_j>`` 2-tuple per writer, reset to
a singleton after every local write.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..memory.value import value_type

__all__ = ["PiggybackEntry", "PiggybackView", "OptTrackLog", "TupleLog"]


@value_type
class PiggybackEntry:
    """Immutable snapshot of one log record as shipped inside a message."""

    writer: int
    clock: int
    dests: frozenset[int]


_NO_DESTS: frozenset[int] = frozenset()
_DESTS = attrgetter("dests")


class PiggybackView:
    """The log piggybacked on one copy of a multicast, delta-encoded.

    The p copies of one write differ from the shared condition-2-stripped
    log ``base`` only in the records that name their own receiver: the
    ``base`` records at indices ``regain`` get ``dest`` back, and the
    dead records ``extra`` — omitted from ``base`` because only ``dest``
    still needs them — follow as ``<writer, clock, {dest}>``.  ``extra``
    holds them emptied, as ``<writer, clock, ∅>``: one record per dead
    log entry, built once per multicast and shared by every copy that
    carries it.
    Since ``base`` has every multicast destination stripped, those are
    the *only* records of the copy that name ``dest``, so sizing, the
    activation gate and the stored ``LastWriteOn`` log are reads of the
    delta, not walks of the log:

    * the copy holds ``len(base) + len(extra)`` records naming
      ``base_dests + len(regain) + len(extra)`` destinations in all;
    * its gate is the regained records by ascending index, then the
      extras — the order a scan of the flat sequence meets them in, so
      :meth:`blocker` names the same first blocker such a scan would;
    * with ``dest`` stripped again (implicit condition 1 at apply) it is
      ``base + extra``, which builds no record.

    As a sequence (iteration, indexing, ``len``, equality with a tuple)
    it is that flat sequence of :class:`PiggybackEntry`, built at
    most once.  Logically immutable: ``_flat`` caches the flat form and
    :meth:`_retarget` re-derives the delta from it, neither changes the
    sequence.
    """

    __slots__ = ("base", "base_dests", "dest", "regain", "extra", "_flat")

    def __init__(
        self,
        base: tuple[PiggybackEntry, ...],
        base_dests: int,
        dest: Optional[int],
        regain: tuple[int, ...],
        extra: tuple[PiggybackEntry, ...],
    ) -> None:
        self.base = base
        self.base_dests = base_dests
        self.dest = dest
        self.regain = regain
        self.extra = extra
        self._flat: Optional[tuple[PiggybackEntry, ...]] = None

    @classmethod
    def from_entries(
        cls, entries: Iterable[PiggybackEntry], dest: Optional[int] = None
    ) -> "PiggybackView":
        """The view whose flat sequence is ``entries``, with the delta
        derived for ``dest`` by one scan — for a log that did not come
        from :meth:`OptTrackLog.piggyback_views` (decoded from the wire,
        or an unpruned snapshot).  ``dest=None`` leaves the receiver open
        until the first site asks."""
        view = cls.__new__(cls)
        view._flat = tuple(entries)
        view._retarget(dest)
        return view

    def _retarget(self, site: Optional[int]) -> None:
        """Re-derive the delta for ``site`` from the flat sequence."""
        flat = self.flat()
        base = list(flat)
        regain: list[int] = []
        total = 0
        for i, e in enumerate(flat):
            dests = e.dests
            total += len(dests)
            if site in dests:
                regain.append(i)
                base[i] = PiggybackEntry(
                    e.writer, e.clock, dests.difference((site,)))
        self.base = tuple(base) if regain else flat
        self.base_dests = total - len(regain)
        self.dest = site
        self.regain = tuple(regain)
        self.extra = ()

    # ------------------------------------------------------------------
    # the three per-SM consumers
    # ------------------------------------------------------------------
    def dest_total(self) -> int:
        """Destinations named over all records (feeds the size model)."""
        return self.base_dests + len(self.regain) + len(self.extra)

    def blocker(
        self, site: int, applied_clocks: Sequence[int]
    ) -> Optional[tuple[int, int]]:
        """First unapplied ``(writer, clock)`` record naming ``site``;
        ``None`` when the copy is applicable there (A_OPT holds)."""
        if site != self.dest:
            self._retarget(site)
        base = self.base
        for i in self.regain:
            e = base[i]
            if applied_clocks[e.writer] < e.clock:
                return (e.writer, e.clock)
        for e in self.extra:
            if applied_clocks[e.writer] < e.clock:
                return (e.writer, e.clock)
        return None

    def stored(self, site: int) -> tuple[PiggybackEntry, ...]:
        """The flat sequence with ``site`` stripped from every record —
        the log kept in ``LastWriteOn`` once the write is applied there.
        The emptied extras stay: a read-merge intersects them away."""
        if site != self.dest:
            self._retarget(site)
        return self.base + self.extra

    # ------------------------------------------------------------------
    # the flat sequence
    # ------------------------------------------------------------------
    def flat(self) -> tuple[PiggybackEntry, ...]:
        """The flat sequence, rebuilt from the delta on first use."""
        flat = self._flat
        if flat is not None:
            return flat
        if not (self.regain or self.extra):
            flat = self.base
        else:
            dest = self.dest
            assert dest is not None  # a non-empty delta has a receiver
            me = frozenset((dest,))
            entries = list(self.base)
            for i in self.regain:
                e = entries[i]
                entries[i] = PiggybackEntry(e.writer, e.clock, e.dests | me)
            for e in self.extra:
                entries.append(PiggybackEntry(e.writer, e.clock, me))
            flat = tuple(entries)
        self._flat = flat
        return flat

    def __len__(self) -> int:
        return len(self.base) + len(self.extra)

    def __iter__(self) -> Iterator[PiggybackEntry]:
        return iter(self.flat())

    def __getitem__(self, index: int) -> PiggybackEntry:
        return self.flat()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiggybackView):
            return self.flat() == other.flat()
        if isinstance(other, tuple):
            return self.flat() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.flat())

    def __repr__(self) -> str:
        return f"PiggybackView({self.flat()!r})"


class OptTrackLog:
    """The KS-style local log of a site running Opt-Track.

    One immutable :class:`PiggybackEntry` per ``(writer, clock)`` in one
    insertion-ordered dict: the record a multicast ships *is* the record
    the log stores.  A destination set only ever shrinks (merge
    intersection, the two implicit conditions) and a shrink *replaces*
    the record — in its dict slot, so :meth:`dest_counts` stays in
    first-insertion order — which means a record that already left in a
    piggyback or sits in a ``LastWriteOn`` snapshot cannot change under
    its holder.  A record first learned in a merge is stored as the
    incoming object itself.

    Pruning bookkeeping is incremental: the newest clock per writer, the
    present clocks per writer and the set of present-but-empty records
    are maintained where a record comes or goes, which turns PURGE from
    two full log scans into a dict walk plus an O(#empty) candidate
    check, and MERGE into one pass over the incoming records plus a look
    at the present clocks of the writers they name — the log is touched
    on every write and every merge-on-read, so this is squarely on the
    hot path (docs/architecture.md).
    """

    __slots__ = ("_records", "_newest", "_clocks", "_empty_keys", "_order",
                 "_order_stale", "purged_records")

    def __init__(self, entries: Optional[Iterable[PiggybackEntry]] = None) -> None:
        # (writer, clock) -> the one record, in first-insertion order
        self._records: dict[tuple[int, int], PiggybackEntry] = {}
        # highest clock per writer among present records; invariant:
        # (j, _newest[j]) is always itself present (a record is only
        # deleted when a strictly newer record from its writer exists).
        # It is all MERGE needs to know of what this site let go: a
        # record (j, c) absent here with c < _newest[j] is dead.
        self._newest: dict[int, int] = {}
        # writer -> ascending clocks of its present records, for MERGE's
        # clause (ii); a list, as a set never gives back a grown table
        self._clocks: dict[int, list[int]] = {}
        # present records whose destination set is empty — purge
        # candidates.  A dict (not a set) so iteration order is the
        # deterministic order emptiness was discovered in.
        self._empty_keys: dict[tuple[int, int], None] = {}
        # every present key, (writer, clock)-sorted — except that while
        # ``_order_stale`` the sorted run may still name records dropped
        # since, and the keys learned since follow it: filtered and
        # sorted lazily (Timsort on a run plus a short tail), once per
        # walk rather than once per drop
        self._order: list[tuple[int, int]] = []
        self._order_stale = False
        # lifetime count of records deleted as superseded — ∅-records by
        # PURGE and the write's strip, dead records by MERGE — an
        # always-on int; sampled by the metrics registry
        self.purged_records = 0
        if entries is not None:
            for e in entries:
                self.insert(e.writer, e.clock, e.dests)

    def _sorted_keys(self) -> list[tuple[int, int]]:
        if self._order_stale:
            records = self._records
            order = sorted([k for k in self._order if k in records])
            if len(order) != len(records):
                # an insert brought back a key dropped since the last
                # sort, so the run and the tail both name it
                order = sorted(records)
            self._order = order
            self._order_stale = False
        return self._order

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._records

    def dests_of(self, writer: int, clock: int) -> frozenset[int]:
        """Remaining destination set recorded for one write (KeyError if absent)."""
        return self._records[(writer, clock)].dests

    def entries(self) -> Iterator[PiggybackEntry]:
        """Iterate records in deterministic (writer, clock) order."""
        return map(self._records.__getitem__, self._sorted_keys())

    def requirements_for(self, target: int) -> tuple[tuple[int, int], ...]:
        """``(writer, clock)`` of every record still naming ``target``,
        in deterministic order — the fetch-requirement hot path, which
        sorts its few hits rather than the log."""
        return tuple(sorted(
            [key for key, e in self._records.items() if target in e.dests]
        ))

    def dest_counts(self) -> list[int]:
        """Destination-list length per record, in first-insertion order
        (one C-level pass; the collector's per-write sample)."""
        return list(map(len, map(_DESTS, self._records.values())))

    def max_clock(self, writer: int) -> int:
        """Highest clock recorded for ``writer`` (0 when none)."""
        return self._newest.get(writer, 0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, writer: int, clock: int, dests: Iterable[int]) -> None:
        """Add one record — a plain union: a duplicate key intersects
        destination sets, and nothing is skipped or deleted.

        Intersection is the MERGE rule for duplicates: each copy of a
        record only ever *loses* destinations as redundancy is learned,
        so the combined knowledge is the intersection.  ``insert`` is for
        a site's own write and for building a log from records; a peer's
        log joins through :meth:`merge`.
        """
        self._absorb((PiggybackEntry(writer, clock, frozenset(dests)),), {})
        if clock > self._newest.get(writer, 0):
            self._newest[writer] = clock

    def _absorb(
        self, incoming: Iterable[PiggybackEntry], known: Mapping[int, int]
    ) -> tuple[dict[int, int], set[tuple[int, int]]]:
        """One pass over ``incoming``: a record present here keeps the
        intersection of the two destination sets; an absent one joins
        unless its clock is below ``known[writer]``.

        Leaves ``_newest`` alone, so ``known`` may be it.  Returns the
        newest incoming clock per writer and the keys that found a
        record already here."""
        records = self._records
        clocks = self._clocks
        empty = self._empty_keys
        order = self._order
        tops: dict[int, int] = {}
        matched: set[tuple[int, int]] = set()
        for e in incoming:
            writer = e.writer
            clock = e.clock
            if clock > tops.get(writer, 0):
                tops[writer] = clock
            key = (writer, clock)
            mine = records.get(key)
            if mine is None:
                if clock < known.get(writer, 0):
                    continue
                dests = e.dests
                if dests.__class__ is not frozenset:
                    e = PiggybackEntry(writer, clock, frozenset(dests))
                records[key] = e
                order.append(key)
                self._order_stale = True
                present = clocks.get(writer)
                if present is None:
                    clocks[writer] = [clock]
                else:
                    insort(present, clock)
                if not dests:
                    empty[key] = None
                continue
            matched.add(key)
            if mine is not e and not mine.dests <= e.dests:
                kept = mine.dests.intersection(e.dests) or _NO_DESTS
                records[key] = PiggybackEntry(writer, clock, kept)
                if not kept:
                    empty[key] = None
        return tops, matched

    def _drop(self, dead: Sequence[tuple[int, int]]) -> None:
        """Delete records, each superseded by a newer record of its
        writer and known here to be dead."""
        records = self._records
        clocks = self._clocks
        empty = self._empty_keys
        for key in dead:
            del records[key]
            clocks[key[0]].remove(key[1])
            empty.pop(key, None)
        self.purged_records += len(dead)
        self._order_stale = True

    def purge(self, *, self_site: Optional[int] = None,
              applied: Optional[Mapping[int, int] | Sequence[int]] = None) -> None:
        """Apply the implicit-knowledge pruning rules in place.

        * With ``self_site`` and ``applied`` (per-writer highest applied
          clock at this site), drop ``self_site`` from any record already
          applied locally (implicit condition 1).
        * Drop empty-destination records superseded by a newer record
          from the same writer; keep the newest record per writer even
          when empty (it is the implicit information the paper insists
          must be retained under partial replication).
        """
        empty = self._empty_keys
        if self_site is not None and applied is not None:
            records = self._records
            for e in [e for e in records.values() if self_site in e.dests]:
                if applied[e.writer] >= e.clock:
                    key = (e.writer, e.clock)
                    kept = e.dests.difference((self_site,)) or _NO_DESTS
                    records[key] = PiggybackEntry(e.writer, e.clock, kept)
                    if not kept:
                        empty[key] = None
        if empty:
            newest = self._newest
            stale = [key for key in empty if newest[key[0]] > key[1]]
            if stale:
                self._drop(stale)

    # ------------------------------------------------------------------
    # protocol operations
    # ------------------------------------------------------------------
    def piggyback_views(
        self, write_dests: frozenset[int]
    ) -> tuple[dict[int, PiggybackView], tuple[PiggybackEntry, ...]]:
        """All per-destination piggyback views for one multicast, at once
        — applying implicit condition 2 to the log in the same walk.

        Semantically destination d receives the log with ``write_dests -
        {d}`` stripped from every record (implicit condition 2 — the new
        write will enforce the dependency there transitively — except
        for d itself, which the receiver still needs for its activation
        predicate); structurally the views differ from the common
        condition-2-stripped log only in the few records that name d, so
        that log is built once and each view is a :class:`PiggybackView`
        delta against it.  Every destination gets a view, with an empty
        delta when no record names it.

        Records whose destination set empties under condition-2 stripping
        are *not* shipped — they carry no gating information and shipping
        them is exactly the "redundant destination information" the
        optimality claim forbids (it also feeds a log-growth loop: dead
        records would circulate through LastWriteOn and read merges
        forever).  The one exception is the newest record per writer,
        which travels even when empty: a receiver intersects away its
        own stale destinations for it, and MERGE reads its presence as
        proof that every older record of the writer it lacks is dead.

        The sender's own log owes the multicast the same strip ("d in
        ``write_dests`` is a destination of m" is useless in the causal
        future of the send), so the stripped record that ships replaces
        the stored one, and a dead record is dropped on the spot — as
        the PURGE after the write's own insert would.

        Returns ``(views, stripped)`` where ``stripped`` is the shared
        fully-stripped log — ``views[d].base`` for every d, exactly the
        log to store alongside a local apply, and record for record the
        log this call leaves behind.
        """
        records = self._records
        newest = self._newest
        empty = self._empty_keys
        stripped: list[PiggybackEntry] = []
        append = stripped.append
        base_dests = 0
        dest_order = sorted(write_dests)
        regain: dict[int, list[int]] = {d: [] for d in dest_order}
        extra: dict[int, list[PiggybackEntry]] = {d: [] for d in dest_order}
        dead: list[tuple[int, int]] = []
        for key in self._sorted_keys():
            e = records[key]
            dests = e.dests
            if write_dests.isdisjoint(dests):
                # common case: record untouched by the stripping — ship
                # the stored record, no destination regains it
                append(e)
                base_dests += len(dests)
                continue
            kept = dests - write_dests or _NO_DESTS
            if not kept and newest[key[0]] != key[1]:
                # dead unless some destination in write_dests still needs
                # it — those copies carry it as an extra gate, all of
                # them the one emptied record
                gone = PiggybackEntry(key[0], key[1], _NO_DESTS)
                for d in sorted(dests):  # dests <= write_dests here
                    extra[d].append(gone)
                dead.append(key)
                continue
            for d in sorted(dests & write_dests):
                regain[d].append(len(stripped))
            e = records[key] = PiggybackEntry(key[0], key[1], kept)
            if not kept:
                empty[key] = None
            append(e)
            base_dests += len(kept)
        if dead:
            self._drop(dead)
        base = tuple(stripped)
        views = {
            d: PiggybackView(base, base_dests, d,
                             tuple(regain[d]), tuple(extra[d]))
            for d in dest_order
        }
        return views, base

    def merge(
        self,
        incoming: Iterable[PiggybackEntry],
        *,
        self_site: Optional[int] = None,
        applied: Optional[Mapping[int, int] | Sequence[int]] = None,
    ) -> None:
        """MERGE a piggybacked log into this one, then PURGE.

        Called when a read operation returns a value: the dependencies
        that travelled with the value join the reader's causal past
        (this is where the ->co tracking happens — *not* at receipt).

        KS implicit tracking: a log that holds writer z's record at clock
        t' and lacks z's record at t < t' knows the latter dead, so
        beside the union/intersection of records both logs hold,
        absence on either side deletes:

        (i)  an incoming ``(z, t)`` absent here with ``t`` below this
             log's newest clock for z is skipped;
        (ii) a record ``(z, t)`` here, absent from ``incoming`` with
             ``t`` below the newest incoming clock for z, is deleted
             (counted in ``purged_records``).

        Both sides are judged as they were before the merge, so the
        order of ``incoming`` does not matter.  One pass over
        ``incoming``; clause (ii) then reads only the present clocks of
        the writers it names.
        """
        newest = self._newest
        clocks = self._clocks
        tops, matched = self._absorb(incoming, newest)
        dead: list[tuple[int, int]] = []
        for writer, top in tops.items():
            before = newest.get(writer, 0)
            if top > before:
                newest[writer] = top
            present = clocks[writer]
            if len(present) > 1:
                # the records here before the merge are the clocks up to
                # ``before``; whatever joined from ``incoming`` is newer
                for clock in present:
                    if (clock < top and clock <= before
                            and (writer, clock) not in matched):
                        dead.append((writer, clock))
        if dead:
            self._drop(dead)
        self.purge(self_site=self_site, applied=applied)

    def snapshot(self) -> tuple[PiggybackEntry, ...]:
        """Immutable copy of the full log (stored in ``LastWriteOn``)."""
        return tuple(self.entries())

    def copy(self) -> "OptTrackLog":
        """Independent copy (the records themselves are immutable and
        shared); crash-recovery checkpoints restore from copies."""
        new = OptTrackLog()
        new._records = dict(self._records)
        new._newest = dict(self._newest)
        new._clocks = {w: c.copy() for w, c in self._clocks.items()}
        new._empty_keys = dict(self._empty_keys)
        new._order = list(self._order)
        new._order_stale = self._order_stale
        new.purged_records = self.purged_records
        return new

    def __repr__(self) -> str:
        return f"OptTrackLog({len(self._records)} entries)"


class TupleLog:
    """Opt-Track-CRP local log: at most one ``(writer, clock)`` per writer.

    A later clock from the same writer subsumes an earlier one (full
    replication + causal application order make the earlier write's
    delivery implied everywhere), so only the max clock per writer is
    kept — this is why the log holds at most ``d + 1`` entries, with d
    the number of reads since the last local write.
    """

    __slots__ = ("_clocks",)

    def __init__(self, entries: Optional[Iterable[tuple[int, int]]] = None) -> None:
        self._clocks: dict[int, int] = {}
        if entries is not None:
            for j, c in entries:
                self.add(j, c)

    def __len__(self) -> int:
        return len(self._clocks)

    def add(self, writer: int, clock: int) -> None:
        """Record a dependency on ``writer``'s write number ``clock``."""
        if clock > self._clocks.get(writer, 0):
            self._clocks[writer] = clock

    def clock_of(self, writer: int) -> int:
        """Recorded dependency clock for ``writer`` (0 when none)."""
        return self._clocks.get(writer, 0)

    def reset(self, writer: int, clock: int) -> None:
        """After a local write: the log becomes the singleton {own write}."""
        self._clocks.clear()
        self._clocks[writer] = clock

    def entries(self) -> tuple[tuple[int, int], ...]:
        """Deterministically ordered (writer, clock) pairs for piggybacking."""
        return tuple(sorted(self._clocks.items()))

    def merge(self, incoming: Iterable[tuple[int, int]]) -> None:
        for j, c in incoming:
            self.add(j, c)

    def copy(self) -> "TupleLog":
        return TupleLog(self._clocks.items())

    def __repr__(self) -> str:
        return f"TupleLog({self.entries()!r})"
