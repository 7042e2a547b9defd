"""Distributed shared memory: variables, replica placement, site stores."""

from .replication import (
    Placement,
    RoundRobinPlacement,
    paper_replication_factor,
)
from .store import BOTTOM, SiteStore, StoredValue, WriteId

__all__ = [
    "Placement",
    "RoundRobinPlacement",
    "paper_replication_factor",
    "SiteStore",
    "StoredValue",
    "WriteId",
    "BOTTOM",
]
