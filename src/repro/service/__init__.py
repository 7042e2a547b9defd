"""Live service substrate: the protocol cores behind real sockets.

This package is the second implementation of the substrate ports in
:mod:`repro.core.ports` (the discrete-event simulator is the first).
The exact protocol objects that run under the simulator serve real
traffic here — nothing in :mod:`repro.core` changes, only the injected
seams do:

================  =============================  =========================
port              simulator substrate            service substrate
================  =============================  =========================
``Clock``         :class:`~repro.sim.engine.Simulator`  event-loop wall clock
``TimerService``  kernel event heap              ``loop.call_later``
``Transport``     :class:`~repro.sim.network.Network`   :class:`~repro.service.channel.ServiceTransport` over TCP
``Durability``    :class:`~repro.sim.checkpoint.SiteDisk`  (not yet wired)
================  =============================  =========================

Under both ``Transport`` implementations sits the *same* reliable
channel — the sender/receiver state machine in
:mod:`repro.core.netpolicy`.  The simulator hosts it in
:class:`~repro.sim.reliable.ReliableTransport` (under injected faults),
this package in :class:`~repro.service.channel.ServiceTransport` (under
TCP links that die and reconnect); neither has a channel implementation
of its own.

Modules:

* :mod:`~repro.service.codec` — deterministic length-prefixed wire
  format for every sendable message type (``WIRE_FIELDS``);
* :mod:`~repro.service.runtime` — wall ``Clock``/``TimerService`` over
  an asyncio loop, plus the deterministic :class:`StepClock` used by
  in-process tests;
* :mod:`~repro.service.channel` — the live host of the reliable
  channel: frame ⇄ packet adapter, validation of untrusted peer frames,
  the ``Transport`` port;
* :mod:`~repro.service.node` — the substrate-independent
  :class:`NodeCore` plus the asyncio TCP node (one OS process per site);
* :mod:`~repro.service.api` — client-facing HTTP JSON GET/PUT/status
  over persistent HTTP/1.1 connections;
* :mod:`~repro.service.bootstrap` — static cluster topology files;
* :mod:`~repro.service.loopback` — in-process loopback substrate for
  the sim/live equivalence tests (no sockets, no wall clock);
* :mod:`~repro.service.history` — per-node JSONL history streaming and
  the merge loader the causal checker consumes.

This is the only layer (outside the harness) permitted NETWORK and
WALL_CLOCK effects — ``layers.toml`` forbids ``socket``/``asyncio``
everywhere below, and the effect baseline records every use here.
"""

from .bootstrap import (
    ClusterTopology,
    NodeSpec,
    build_placement,
    default_topology,
    load_topology,
    save_topology,
)
from .codec import WIRE_FIELDS, decode_message, encode_message
from .loopback import LoopbackCluster
from .node import NodeCore

__all__ = [
    "ClusterTopology",
    "NodeSpec",
    "build_placement",
    "default_topology",
    "load_topology",
    "save_topology",
    "WIRE_FIELDS",
    "decode_message",
    "encode_message",
    "LoopbackCluster",
    "NodeCore",
]
