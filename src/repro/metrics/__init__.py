"""Measurement: message-size model, collectors, summary statistics."""

from .collector import MessageKind, MessageTally, MetricsCollector
from .sizing import COSTS, KILOBYTE, SizeModel
from .stats import RunningStat, Summary, percentile, summarize

__all__ = [
    "MessageKind",
    "MessageTally",
    "MetricsCollector",
    "SizeModel",
    "COSTS",
    "KILOBYTE",
    "RunningStat",
    "Summary",
    "summarize",
    "percentile",
]
