"""A sent message is immutable by construction (docs/protocols.md,
"What a sent message holds").

Two halves:

* the field types: every message type in ``PRICE_TABLE`` is frozen and
  declares only immutable fields, so a new message type cannot add a
  mutable one (``value`` is the one named exemption);
* the run: for every registered protocol, over a plain, a chaos and a
  crash-recovery run, every clock a site receives is
  read-only, and mutating one raises ``ValueError`` where it happens,
  on the simulator and after a trip through the wire codec.
"""

from __future__ import annotations

import dataclasses
import typing

import pytest

from repro.core import protocol_names
from repro.core.base import ProtocolContext, create_protocol
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import PiggybackEntry, PiggybackView
from repro.core.messages import (
    PRICE_TABLE,
    FetchMessage,
    FullTrackRM,
    FullTrackSM,
    OptPSM,
)
from repro.experiments.runner import SimulationConfig, run_simulation
from repro.memory.replication import RoundRobinPlacement
from repro.memory.store import SiteStore, WriteId
from repro.metrics.collector import MetricsCollector
from repro.service.codec import dumps, loads
from repro.sim.engine import Simulator
from repro.sim.faults import CrashEvent, FaultPlan
from repro.sim.network import Network

#: types immutable as they stand; a clock is, once it is in a message
#: (the run half checks that)
LEAVES = (int, float, type(None), WriteId, PiggybackEntry, PiggybackView,
          MatrixClock, VectorClock)
CLOCKS = (MatrixClock, VectorClock)


def is_immutable(hint: object) -> bool:
    origin = typing.get_origin(hint)
    if origin in (tuple, frozenset, typing.Union):
        return all(is_immutable(arg) for arg in typing.get_args(hint)
                   if arg is not Ellipsis)
    return hint in LEAVES


# ----------------------------------------------------------------------
# the field types
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [*PRICE_TABLE, WriteId, PiggybackEntry],
                         ids=lambda c: c.__name__)
def test_every_message_field_is_immutable(cls):
    # WriteId and PiggybackEntry count as leaves, so check their fields too
    assert cls.__dataclass_params__.frozen
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name == "value":
            # the exemption: simulated values are ints or None, a live
            # one is the decoded PUT body, and no core mutates it
            assert hints[f.name] is object
            continue
        assert is_immutable(hints[f.name]), (cls.__name__, f.name)


def test_a_mutable_field_would_be_caught():
    assert not is_immutable(list[int])
    assert not is_immutable(tuple[set[int], ...])
    assert not is_immutable(typing.Optional[dict])
    assert not is_immutable(object)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
SCENARIOS = {
    "plain": None,
    "chaos": FaultPlan.uniform(drop_rate=0.05, dup_rate=0.02,
                               spike_rate=0.02),
    "crash": FaultPlan.build(
        crashes=[CrashEvent(site=1, at_ms=500.0, recover_ms=900.0)]),
}


def delivered(monkeypatch, protocol, plan):
    """Every application message delivered in one small run."""
    seen: list[object] = []
    deliver = Network._deliver_app

    def capture(self, src, dst, message):
        seen.append(message)
        deliver(self, src, dst, message)

    monkeypatch.setattr(Network, "_deliver_app", capture)
    run_simulation(SimulationConfig(
        protocol=protocol, n_sites=4, n_vars=12, ops_per_process=40,
        gap_range_ms=(5.0, 55.0), seed=7, fault_plan=plan,
        checkpoint_interval_ms=150.0 if plan is not None else None,
    ))
    monkeypatch.undo()
    return seen


def clocks_of(message):
    if not dataclasses.is_dataclass(message):
        return []
    return [getattr(message, f.name) for f in dataclasses.fields(message)
            if isinstance(getattr(message, f.name), CLOCKS)]


def array_of(clock):
    return clock.m if isinstance(clock, MatrixClock) else clock.v


@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("protocol", protocol_names())
def test_every_delivered_clock_is_read_only(monkeypatch, protocol, scenario):
    messages = delivered(monkeypatch, protocol, SCENARIOS[scenario])
    assert messages
    clocks = [c for m in messages for c in clocks_of(m)]
    writable = [c for c in clocks if array_of(c).flags.writeable]
    assert not writable, f"{len(writable)} of {len(clocks)} clocks writable"


def assert_mutation_raises(clock):
    before = array_of(clock).copy()
    n = clock.n
    if isinstance(clock, MatrixClock):
        with pytest.raises(ValueError):
            clock.increment(0, [1])
        other = MatrixClock(n, [[9] * n] * n)
    else:
        with pytest.raises(ValueError):
            clock.increment(0)
        other = VectorClock(n, [9] * n)
    with pytest.raises(ValueError):
        clock.merge(other)
    assert (array_of(clock) == before).all() and clock.n == n


@pytest.mark.parametrize("protocol,kind", [("full-track", FullTrackSM),
                                           ("optp", OptPSM)])
def test_mutating_a_delivered_clock_raises(monkeypatch, protocol, kind):
    messages = [m for m in delivered(monkeypatch, protocol, None)
                if type(m) is kind]
    assert messages
    for message in (messages[0], loads(dumps(messages[-1]))):
        (clock,) = clocks_of(message)
        assert not array_of(clock).flags.writeable
        assert_mutation_raises(clock)


# ----------------------------------------------------------------------
# the pieces
# ----------------------------------------------------------------------
def make_core(protocol, site=1, n=3):
    """One core on a three-site network, with the messages it sends
    and their priced sizes collected instead of delivered."""
    placement = RoundRobinPlacement(n, 4, n)
    sim = Simulator()
    net = Network(sim, n, collector=MetricsCollector())
    sent: list[tuple[object, float]] = []
    net.send = (lambda src, dst, message, *, size_bytes=0.0:
                sent.append((message, size_bytes)))
    ctx = ProtocolContext(
        site=site, n_sites=n, placement=placement,
        store=SiteStore(site, placement.vars_at(site)),
        network=net, clock=sim, collector=MetricsCollector(),
    )
    return create_protocol(protocol, ctx), sent


def test_never_written_rms_share_one_read_only_zero_matrix():
    proto, sent = make_core("full-track")
    var = next(iter(proto.ctx.placement.vars_at(1)))
    for request_id in (1, 2):
        proto._serve_fetch(0, FetchMessage(var=var, reader=0,
                                           request_id=request_id))
    (first, size1), (second, size2) = sent
    assert first.matrix is second.matrix
    assert first.matrix == MatrixClock(3)
    assert not first.matrix.m.flags.writeable
    fresh = FullTrackRM(var=var, value=None, write_id=None,
                        matrix=MatrixClock(3), request_id=1)
    assert size1 == size2 == fresh.metadata_size()
