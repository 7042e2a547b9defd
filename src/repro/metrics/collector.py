"""Measurement collection for simulation runs.

Mirrors the paper's methodology (Section V): every message generated by
any process is classified as SM (multicast update), FM (remote fetch
request), or RM (remote return), its metadata size is computed from the
size model, and data is "stored after the first 15% operation events to
eliminate the side effect in startup" — the collector has a measurement
gate the runner opens once the warm-up fraction of operations has
executed.

The two headline metrics (message count and message size) have exactly
one store: per-kind *slots* of ``[count, priced bytes, summed length]``
under an opaque key the sender chooses (the protocol cores use one slot
per site, message type and clock width and bump it inline in
``CausalProtocol._send``).  Opening the window snapshots the slots, so
"measured" is lifetime minus that mark.  Everything reported about
messages is a sum over slots read on demand: :class:`MessageTally` (the
paper's Tables II/III) here, the per-component decomposition in
:class:`repro.obs.ledger.MetadataLedger`.

Beyond those, the collector samples protocol-internal quantities used by
the ablation benches: local log sizes (the amortized-O(n) claim),
activation buffering delays, and remote-read round-trip times.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterator, Sequence

from .stats import RunningStat

__all__ = ["MessageKind", "MetricsCollector", "MessageTally"]

#: visibility lags buffered before one ``RunningStat.add_many``
_VISIBILITY_BATCH = 1024


class MessageKind(enum.Enum):
    """The three message classes of Table I."""

    SM = "SM"
    FM = "FM"
    RM = "RM"


class MessageTally:
    """Counts and byte totals for one message kind: sums over the
    collector's slots, taken when read."""

    __slots__ = ("_collector", "_kind")

    def __init__(self, collector: "MetricsCollector", kind: MessageKind) -> None:
        self._collector = collector
        self._kind = kind

    def _sum(self, column: int, measured: bool) -> int:
        return sum(slot[column] for _key, slot
                   in self._collector.message_slots(self._kind, measured=measured))

    @property
    def count(self) -> int:
        """In-window message count."""
        return self._sum(0, True)

    @property
    def total_bytes(self) -> float:
        """In-window metadata byte total."""
        return float(self._sum(1, True))

    @property
    def mean_bytes(self) -> float:
        """In-window average metadata size per message (0 if none)."""
        count = self.count
        return self.total_bytes / count if count else 0.0

    @property
    def lifetime_count(self) -> int:
        """All messages, including warm-up (Table IV sanity checks and
        conservation assertions in tests)."""
        return self._sum(0, False)

    @property
    def lifetime_bytes(self) -> int:
        return self._sum(1, False)


class MetricsCollector:
    """Aggregates everything a single simulation run measures."""

    def __init__(self) -> None:
        #: the only message accounting store: kind -> sender's key ->
        #: [count, priced bytes, summed length]
        self._slots: dict[MessageKind, dict[Hashable, list[int]]] = {
            kind: {} for kind in MessageKind
        }
        #: each slot's value when the measurement window opened; a slot
        #: created later has no entry (a zero mark)
        self._marks: dict[MessageKind, dict[Hashable, tuple[int, ...]]] = {
            kind: {} for kind in MessageKind
        }
        self.measuring = False
        #: sampled local-log entry counts (Opt-Track family), in-window
        self.log_sizes = RunningStat()
        #: per-record destination-list lengths sampled at each in-window
        #: write (Opt-Track): how many, their sum and the largest
        self.dest_lists = 0
        self.dest_list_total = 0
        self.dest_list_max = 0
        #: simulated ms an SM spent buffered before activation fired
        self.activation_delays = RunningStat()
        #: simulated ms between fetch issue and read completion
        self.fetch_rtts = RunningStat()
        #: simulated ms from a write's issue to its apply at a remote
        #: replica (update visibility latency; local applies excluded),
        #: read through ``visibility_lags``: samples wait in the buffer
        #: and are folded into the stat ``_VISIBILITY_BATCH`` at a time
        self._visibility = RunningStat()
        self._visibility_buf: list[float] = []
        #: operations executed (lifetime), by kind
        self.ops_write = 0
        self.ops_read = 0
        self.ops_read_remote = 0
        #: operations executed inside the measurement window
        self.measured_ops_write = 0
        self.measured_ops_read = 0
        # ---- chaos-transport counters (lifetime; the reliable layer is
        # infrastructure, not workload, so these ignore the warm-up gate)
        #: the two events that put bytes on the wire, by originating
        #: site: cumulative acks and timer-driven retransmissions, each
        #: site -> [count, modelled wire bytes] (read through
        #: ``acks_sent`` / ``ack_bytes`` / ``retransmissions`` /
        #: ``retransmission_bytes``)
        self.transport: dict[str, dict[int, list]] = {
            "ack": {}, "retransmit": {},
        }
        #: retransmissions of packets that already had a non-dropped
        #: attempt in flight (adaptive-RTO quality metric)
        self.spurious_retransmissions = 0
        #: duplicate data packets suppressed at receivers
        self.duplicate_drops = 0
        #: out-of-order packets dropped by full reassembly buffers
        self.reorder_overflows = 0
        #: operations delayed by transport backpressure
        self.backpressure_delays = 0
        #: writes shed by OverloadError at admission
        self.overload_sheds = 0
        #: flash-crowd writes that reached a protocol (the overload
        #: driver books each one as it lands)
        self.overload_injected = 0
        #: channel circuit breakers tripped into degraded probe mode
        self.breaker_trips = 0
        #: degraded channels restored by ack progress or heal
        self.breaker_closes = 0
        #: packets the fault injector dropped (incl. partition drops)
        self.injected_drops = 0
        self.injected_partition_drops = 0
        #: duplicate copies the fault injector created
        self.injected_dups = 0
        #: latency spikes the injector added (ms each)
        self.injected_spikes = RunningStat()
        #: per-site backlog-drain latency after a partition heals (ms)
        self.recovery_latency = RunningStat()
        self.recovery_by_site: dict[int, RunningStat] = {}
        # ---- crash-recovery counters (lifetime; infrastructure like the
        # chaos counters above, so the warm-up gate does not apply)
        #: site crashes executed (plan or interactive)
        self.crashes = 0
        #: checkpoints taken by the durability layer
        self.checkpoints_taken = 0
        #: WAL records those checkpoints truncated
        self.wal_truncated_records = 0
        #: suspicions raised against sites that were actually up
        self.false_suspicions = 0
        #: anti-entropy sync requests/responses exchanged during rejoin
        self.sync_messages = 0
        #: packets that hit a dead site's NIC and were lost on the wire
        self.dead_site_drops = 0
        #: remote-read returns for fetches forgotten across a crash
        self.stale_rms = 0
        #: catch-up phases that hit the round cap before converging
        self.forced_catchups = 0
        #: operations that can never complete (crash-stop accounting)
        self.lost_ops = 0
        #: ms from a crash to its first detection by any live observer
        self.detection_latency = RunningStat()
        #: ms each crashed site spent down (crash -> restore)
        self.downtime = RunningStat()
        #: WAL records re-executed per restore
        self.wal_replays = RunningStat()
        #: age of the checkpoint used by each restore (ms)
        self.checkpoint_age = RunningStat()
        #: ms from restore to catch-up completion (rejoin latency)
        self.catchup_latency = RunningStat()
        #: anti-entropy rounds needed per rejoin
        self.catchup_rounds = RunningStat()

    # ------------------------------------------------------------------
    def start_measuring(self) -> None:
        """Open the measurement window (end of warm-up): messages booked
        so far are outside it.  Calling again re-opens it from now."""
        self.measuring = True
        self._marks = {
            kind: {key: tuple(slot) for key, slot in slots.items()}
            for kind, slots in self._slots.items()
        }

    def message_slot(self, kind: MessageKind, key: Hashable) -> list[int]:
        """The ``[count, priced bytes, summed length]`` accumulator for
        ``kind`` messages under ``key``, created on first use.

        A sender fetches its slot once and bumps it per message; no
        window flag is consulted on that path.  ``key`` is opaque here.
        """
        slots = self._slots[kind]
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = [0, 0, 0]
        return slot

    def message_slots(self, kind: MessageKind, *, measured: bool = False
                      ) -> Iterator[tuple[Hashable, Sequence[int]]]:
        """``(key, [count, bytes, length])`` for every slot of ``kind``:
        lifetime values (the live slots), or what was booked inside the
        measurement window (nothing before it opens)."""
        slots = self._slots[kind]
        if not measured:
            yield from slots.items()
        elif self.measuring:
            marks = self._marks[kind]
            for key, slot in slots.items():
                mark = marks.get(key)
                yield key, (slot if mark is None
                            else [now - then for now, then in zip(slot, mark)])

    def record_operation(self, is_write: bool, *, remote: bool = False) -> None:
        """Account one application operation (write, or read w/ locality)."""
        if is_write:
            self.ops_write += 1
            if self.measuring:
                self.measured_ops_write += 1
        else:
            self.ops_read += 1
            if remote:
                self.ops_read_remote += 1
            if self.measuring:
                self.measured_ops_read += 1

    def record_log_size(self, n_entries: int) -> None:
        if self.measuring:
            self.log_sizes.add(n_entries)

    def record_dest_lists(self, n_dests: Sequence[int]) -> None:
        """Destination-list sizes of one write's log records, in one call."""
        if self.measuring and n_dests:
            self.dest_lists += len(n_dests)
            self.dest_list_total += sum(n_dests)
            largest = max(n_dests)
            if largest > self.dest_list_max:
                self.dest_list_max = largest

    def record_activation_delay(self, delay_ms: float) -> None:
        if self.measuring:
            self.activation_delays.add(delay_ms)

    def record_fetch_rtt(self, rtt_ms: float) -> None:
        if self.measuring:
            self.fetch_rtts.add(rtt_ms)

    def record_visibility(self, lag_ms: float) -> None:
        if self.measuring:
            buf = self._visibility_buf
            buf.append(lag_ms)
            if len(buf) >= _VISIBILITY_BATCH:
                self._visibility.add_many(buf)
                buf.clear()

    @property
    def visibility_lags(self) -> RunningStat:
        """Every in-window visibility lag, buffered samples folded in
        (``add_many`` is sample-for-sample ``add``, so the stat is the
        one per-sample ``add`` calls would have built)."""
        buf = self._visibility_buf
        if buf:
            self._visibility.add_many(buf)
            buf.clear()
        return self._visibility

    # ------------------------------------------------------------------
    # chaos-transport accounting (fed by the reliable layer / network)
    # ------------------------------------------------------------------
    def record_transport(self, counter: str, site: int = -1,
                         size_bytes: float = 0.0) -> None:
        """One reliable-channel event originated by ``site``: an ``ack``
        or ``retransmit`` packet goes into that site's :attr:`transport`
        row with its wire bytes, anything else bumps the named tally
        (``breaker_trips``, ``duplicate_drops``, ...).  The names are
        the ``counter`` column of ``repro.core.netpolicy.CHANNEL_EVENTS``."""
        rows = self.transport.get(counter)
        if rows is None:
            # by name, without a getattr/setattr pair per event
            self.__dict__[counter] += 1
            return
        row = rows.get(site)
        if row is None:
            row = rows[site] = [0, 0.0]
        row[0] += 1
        row[1] += size_bytes

    def transport_count(self, counter: str) -> int:
        """How many events :meth:`record_transport` booked under ``counter``."""
        if counter in self.transport:
            return self._transport_sum(counter, 0)
        return self.__dict__[counter]  # type: ignore[no-any-return]

    def record_injected_drop(self, *, partition: bool = False) -> None:
        self.injected_drops += 1
        if partition:
            self.injected_partition_drops += 1

    def record_injected_dup(self) -> None:
        self.injected_dups += 1

    def record_injected_spike(self, extra_ms: float) -> None:
        self.injected_spikes.add(extra_ms)

    def record_recovery(self, site: int, latency_ms: float) -> None:
        """One site drained its post-heal backlog ``latency_ms`` after heal."""
        self.recovery_latency.add(latency_ms)
        self.recovery_by_site.setdefault(site, RunningStat()).add(latency_ms)

    # ------------------------------------------------------------------
    # crash-recovery accounting (fed by repro.sim.crash and friends)
    # ------------------------------------------------------------------
    def record_crash(self) -> None:
        self.crashes += 1

    def record_checkpoint(self, wal_len: int) -> None:
        """One checkpoint installed, truncating ``wal_len`` WAL records."""
        self.checkpoints_taken += 1
        self.wal_truncated_records += wal_len

    def record_false_suspicion(self) -> None:
        self.false_suspicions += 1

    def record_sync_message(self) -> None:
        self.sync_messages += 1

    def record_dead_site_drop(self) -> None:
        self.dead_site_drops += 1

    def record_stale_rm(self) -> None:
        self.stale_rms += 1

    def record_detection(self, latency_ms: float) -> None:
        self.detection_latency.add(latency_ms)

    def record_restore(self, *, downtime_ms: float, wal_replayed: int,
                       checkpoint_age_ms: float) -> None:
        self.downtime.add(downtime_ms)
        self.wal_replays.add(wal_replayed)
        self.checkpoint_age.add(checkpoint_age_ms)

    def record_catchup(self, duration_ms: float, *, rounds: int,
                       forced: bool) -> None:
        self.catchup_latency.add(duration_ms)
        self.catchup_rounds.add(rounds)
        if forced:
            self.forced_catchups += 1

    def record_lost_ops(self, n: int) -> None:
        self.lost_ops += n

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def tallies(self) -> dict[MessageKind, MessageTally]:
        """One :class:`MessageTally` per kind, made when read: a tally
        points back at its collector, so storing them would tie every
        collector into a reference cycle."""
        return {kind: MessageTally(self, kind) for kind in MessageKind}

    def tally(self, kind: MessageKind) -> MessageTally:
        return MessageTally(self, kind)

    def _transport_sum(self, kind: str, column: int):
        return sum(row[column] for row in self.transport[kind].values())

    @property
    def acks_sent(self) -> int:
        """Cumulative acks sent."""
        return self._transport_sum("ack", 0)

    @property
    def ack_bytes(self) -> float:
        """Modelled wire bytes of those acks."""
        return float(self._transport_sum("ack", 1))

    @property
    def retransmissions(self) -> int:
        """Data packets resent by retransmission timers."""
        return self._transport_sum("retransmit", 0)

    @property
    def retransmission_bytes(self) -> float:
        """Modelled wire bytes those retransmissions re-sent."""
        return float(self._transport_sum("retransmit", 1))

    @property
    def total_message_count(self) -> int:
        """In-window message count across SM + FM + RM."""
        return sum(t.count for t in self.tallies.values())

    @property
    def total_metadata_bytes(self) -> float:
        """In-window metadata bytes across SM + FM + RM."""
        return sum(t.total_bytes for t in self.tallies.values())

    @property
    def lifetime_message_count(self) -> int:
        return sum(t.lifetime_count for t in self.tallies.values())

    def mean_size(self, kind: MessageKind) -> float:
        return self.tally(kind).mean_bytes

    def as_dict(self, *, heartbeats_sent: int = 0) -> dict:
        """Flat summary used by reports and trace files.  The failure
        detector counts its own heartbeats; pass them in to fill that
        column."""
        out: dict = {
            "ops_write": self.ops_write,
            "ops_read": self.ops_read,
            "ops_read_remote": self.ops_read_remote,
            "measured_ops_write": self.measured_ops_write,
            "measured_ops_read": self.measured_ops_read,
            "total_message_count": self.total_message_count,
            "total_metadata_bytes": self.total_metadata_bytes,
            "mean_log_size": self.log_sizes.mean,
            "max_log_size": self.log_sizes.maximum if self.log_sizes.count else 0.0,
            "mean_dest_list_size": (
                self.dest_list_total / self.dest_lists if self.dest_lists else 0.0
            ),
            "max_dest_list_size": (
                self.dest_list_max if self.dest_lists else 0.0
            ),
            "mean_activation_delay_ms": self.activation_delays.mean,
            "p95_activation_delay_ms": self.activation_delays.p95,
            "p99_activation_delay_ms": self.activation_delays.p99,
            "mean_fetch_rtt_ms": self.fetch_rtts.mean,
            "p95_fetch_rtt_ms": self.fetch_rtts.p95,
            "mean_visibility_ms": self.visibility_lags.mean,
            "p50_visibility_ms": self.visibility_lags.p50,
            "p95_visibility_ms": self.visibility_lags.p95,
            "p99_visibility_ms": self.visibility_lags.p99,
            "max_visibility_ms": (
                self.visibility_lags.maximum if self.visibility_lags.count else 0.0
            ),
            "retransmissions": self.retransmissions,
            "retransmission_bytes": self.retransmission_bytes,
            "spurious_retransmissions": self.spurious_retransmissions,
            "duplicate_drops": self.duplicate_drops,
            "reorder_overflows": self.reorder_overflows,
            "backpressure_delays": self.backpressure_delays,
            "overload_sheds": self.overload_sheds,
            "overload_injected": self.overload_injected,
            "breaker_trips": self.breaker_trips,
            "breaker_closes": self.breaker_closes,
            "acks_sent": self.acks_sent,
            "ack_bytes": self.ack_bytes,
            "injected_drops": self.injected_drops,
            "injected_dups": self.injected_dups,
            "mean_recovery_ms": self.recovery_latency.mean,
            "max_recovery_ms": (
                self.recovery_latency.maximum if self.recovery_latency.count else 0.0
            ),
            "mean_recovery_ms_by_site": {
                site: rs.mean for site, rs in sorted(self.recovery_by_site.items())
            },
            "crashes": self.crashes,
            "checkpoints_taken": self.checkpoints_taken,
            "heartbeats_sent": heartbeats_sent,
            "false_suspicions": self.false_suspicions,
            "sync_messages": self.sync_messages,
            "dead_site_drops": self.dead_site_drops,
            "stale_rms": self.stale_rms,
            "forced_catchups": self.forced_catchups,
            "lost_ops": self.lost_ops,
            "mean_detection_ms": self.detection_latency.mean,
            "mean_downtime_ms": self.downtime.mean,
            "mean_wal_replayed": self.wal_replays.mean,
            "mean_checkpoint_age_ms": self.checkpoint_age.mean,
            "mean_catchup_ms": self.catchup_latency.mean,
            "mean_catchup_rounds": self.catchup_rounds.mean,
        }
        for kind, tally in self.tallies.items():
            out[f"{kind.value}_count"] = tally.count
            out[f"{kind.value}_bytes"] = tally.total_bytes
            out[f"{kind.value}_mean_bytes"] = tally.mean_bytes
        return out
