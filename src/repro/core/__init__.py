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
