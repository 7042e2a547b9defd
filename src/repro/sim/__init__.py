"""Discrete-event simulation substrate (engine, network, faults, process model)."""

from .crash import CrashRecoveryManager, install_crash_recovery
from .engine import ScheduledEvent, SimulationError, Simulator
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
    "CrashRecoveryManager",
    "install_crash_recovery",
]
