"""The closed-form model of Section V and the Opt-Track log report."""

from .logstats import LogSnapshot, format_log_report, snapshot_logs
from .model import (
    crossover_write_rate,
    full_replication_message_count,
    full_track_total_size,
    message_count_ratio,
    opt_track_crp_total_size,
    opt_track_total_size,
    optp_total_size,
    partial_beats_full,
    partial_replication_message_count,
    recommend,
    transfer_volume,
)

__all__ = [
    "partial_replication_message_count",
    "full_replication_message_count",
    "full_track_total_size",
    "opt_track_total_size",
    "opt_track_crp_total_size",
    "optp_total_size",
    "crossover_write_rate",
    "partial_beats_full",
    "message_count_ratio",
    "transfer_volume",
    "recommend",
    "LogSnapshot",
    "snapshot_logs",
    "format_log_report",
]
