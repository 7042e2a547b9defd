"""repro — causal consistency for partially replicated distributed shared memory.

A from-scratch Python reproduction of

    T. Y. Hsu and A. D. Kshemkalyani,
    "Performance of Causal Consistency Algorithms for Partially
    Replicated Systems", IPDPS Workshops 2016,

including the four protocols it evaluates (Full-Track, Opt-Track,
Opt-Track-CRP, and the Baldoni et al. optP baseline), the
discrete-event simulation substrate that replaces the paper's JDK/TCP
testbed, a causal-consistency checker, the analytic cost models, and a
benchmark harness regenerating every table and figure of the paper's
evaluation section.

Quickstart::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(
        protocol="opt-track", n_sites=10, write_rate=0.5,
        ops_per_process=100, seed=42,
    ))
    print(result.summary())

For interactive, step-by-step use (no pre-planned workload) see
:class:`repro.cluster.CausalCluster`.
"""

from .analysis.model import (
    crossover_write_rate,
    full_replication_message_count,
    partial_beats_full,
    partial_replication_message_count,
)
from .cluster import CausalCluster
from .core.base import (
    CausalProtocol,
    ProtocolContext,
    create_protocol,
    get_protocol_class,
    protocol_names,
)
from .core.full_track import FullTrackProtocol
from .core.opt_track import OptTrackProtocol
from .core.opt_track_crp import OptTrackCRPProtocol
from .core.optp import OptPProtocol
from .core.recovery import (
    DEFAULT_CHECKPOINT_INTERVAL_MS,
    DetectorPolicy,
    FailureDetector,
)
from .experiments.runner import RunResult, SimulationConfig, run_simulation
from .memory.replication import (
    Placement,
    RoundRobinPlacement,
    paper_replication_factor,
)
from .memory.store import BOTTOM, SiteStore, WriteId
from .metrics.collector import MessageKind, MetricsCollector
from .metrics.sizing import COSTS, SizeModel
from .sim.crash import CrashRecoveryManager, install_crash_recovery
from .sim.engine import Simulator
from .sim.faults import (
    ChannelFaults,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    OverloadEvent,
    Partition,
    seeded_crashes,
)
from .sim.network import (
    AdversarialLatency,
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    Network,
    PerPairLatency,
    UniformLatency,
)
from .sim.reliable import OverloadError, RetransmitPolicy
from .verify.causal_checker import CausalityViolation, check_causal_consistency
from .verify.sessions import check_all_session_guarantees
from .workload.generator import generate_workload
from .workload.schedule import Operation, OpKind, SiteSchedule, Workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # protocols
    "CausalProtocol",
    "ProtocolContext",
    "FullTrackProtocol",
    "OptTrackProtocol",
    "OptTrackCRPProtocol",
    "OptPProtocol",
    "create_protocol",
    "get_protocol_class",
    "protocol_names",
    # simulation
    "Simulator",
    "Network",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "PerPairLatency",
    "AdversarialLatency",
    # chaos / fault injection
    "ChannelFaults",
    "Partition",
    "FaultPlan",
    "FaultInjector",
    "RetransmitPolicy",
    "OverloadEvent",
    "OverloadError",
    # crash-recovery
    "CrashEvent",
    "seeded_crashes",
    "DEFAULT_CHECKPOINT_INTERVAL_MS",
    "DetectorPolicy",
    "FailureDetector",
    "CrashRecoveryManager",
    "install_crash_recovery",
    # memory
    "Placement",
    "RoundRobinPlacement",
    "paper_replication_factor",
    "SiteStore",
    "WriteId",
    "BOTTOM",
    # workload
    "Workload",
    "SiteSchedule",
    "Operation",
    "OpKind",
    "generate_workload",
    # metrics
    "SizeModel",
    "COSTS",
    "MetricsCollector",
    "MessageKind",
    # running experiments
    "SimulationConfig",
    "RunResult",
    "run_simulation",
    # verification
    "check_causal_consistency",
    "CausalityViolation",
    "check_all_session_guarantees",
    # analysis
    "partial_replication_message_count",
    "full_replication_message_count",
    "crossover_write_rate",
    "partial_beats_full",
    # interactive
    "CausalCluster",
]
