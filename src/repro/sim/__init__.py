"""Discrete-event simulation substrate (engine, network, faults, process model)."""

from .checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL_MS,
    DurabilityLayer,
    SiteDisk,
    WalRecord,
)
from .crash import (
    CrashRecoveryManager,
    SyncRequest,
    SyncResponse,
    install_crash_recovery,
)
from .engine import ScheduledEvent, SimulationError, Simulator
from .events import EventKind, EventRecord
from .failure_detector import DetectorPolicy, FailureDetector, HeartbeatPacket
from .faults import (
    ChannelFaults,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    Partition,
    seeded_crashes,
)
from .network import (
    AdversarialLatency,
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    Network,
    PerPairLatency,
    UniformLatency,
)
from .process import Site
from .reliable import ReliableTransport, RetransmitPolicy

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "SimulationError",
    "EventKind",
    "EventRecord",
    "Network",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "PerPairLatency",
    "AdversarialLatency",
    "Site",
    "ChannelFaults",
    "Partition",
    "FaultPlan",
    "FaultInjector",
    "ReliableTransport",
    "RetransmitPolicy",
    # crash-recovery
    "CrashEvent",
    "seeded_crashes",
    "WalRecord",
    "SiteDisk",
    "DurabilityLayer",
    "DEFAULT_CHECKPOINT_INTERVAL_MS",
    "DetectorPolicy",
    "HeartbeatPacket",
    "FailureDetector",
    "SyncRequest",
    "SyncResponse",
    "CrashRecoveryManager",
    "install_crash_recovery",
]
