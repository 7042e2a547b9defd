"""Protocol implementations: the paper's contribution.

Importing this package registers all four protocols with the by-name
registry in :mod:`repro.core.base`.
"""

from .base import (
    CausalProtocol,
    ProtocolContext,
    create_protocol,
    get_protocol_class,
    protocol_names,
    register_protocol,
)
from .clocks import MatrixClock, VectorClock
from .full_track import FullTrackProtocol
from .hb_track import HBTrackProtocol
from .log import OptTrackLog, PiggybackEntry, PiggybackView, TupleLog
from .netpolicy import OverloadError, RetransmitPolicy, RtoEstimator
from .opt_track import OptTrackNoPruneProtocol, OptTrackProtocol
from .opt_track_crp import OptTrackCRPProtocol
from .optp import OptPProtocol
from .ports import (
    Clock,
    Durability,
    NullTransport,
    Scheduler,
    TimerHandle,
    TimerService,
    Transport,
)
from .recovery import (
    DEFAULT_CHECKPOINT_INTERVAL_MS,
    DetectorPolicy,
    FailureDetector,
    HeartbeatPacket,
    SiteDisk,
    SyncRequest,
    SyncResponse,
    WalRecord,
    build_digest,
    caught_up,
)

__all__ = [
    "CausalProtocol",
    "ProtocolContext",
    "create_protocol",
    "get_protocol_class",
    "protocol_names",
    "register_protocol",
    "Clock",
    "TimerHandle",
    "TimerService",
    "Scheduler",
    "Transport",
    "Durability",
    "NullTransport",
    "DEFAULT_CHECKPOINT_INTERVAL_MS",
    "WalRecord",
    "SiteDisk",
    "DetectorPolicy",
    "HeartbeatPacket",
    "FailureDetector",
    "SyncRequest",
    "SyncResponse",
    "build_digest",
    "caught_up",
    "OverloadError",
    "RetransmitPolicy",
    "RtoEstimator",
    "MatrixClock",
    "VectorClock",
    "OptTrackLog",
    "TupleLog",
    "PiggybackEntry",
    "PiggybackView",
    "FullTrackProtocol",
    "HBTrackProtocol",
    "OptTrackNoPruneProtocol",
    "OptTrackProtocol",
    "OptTrackCRPProtocol",
    "OptPProtocol",
]
