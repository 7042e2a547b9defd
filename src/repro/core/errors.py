"""Membership exceptions raised by the protocol cores.

These historically lived in :mod:`repro.sim.membership`, but the
protocol layer itself raises :class:`DepartedSiteError` (a departed
site refuses new operations), which made ``repro.core`` depend on
simulator machinery at runtime.  The exception *vocabulary* belongs to
the layer that raises it.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "MembershipError",
    "UnknownSiteError",
    "DepartedSiteError",
]


class MembershipError(RuntimeError):
    """Base class for membership/view-change failures."""


class UnknownSiteError(MembershipError, ValueError):
    """A site id that was never part of any view epoch.

    Subclasses ``ValueError`` so callers that historically validated
    site ids with ``ValueError`` keep working unchanged.
    """

    def __init__(self, site: int, capacity: int) -> None:
        self.site = site
        self.capacity = capacity
        super().__init__(
            f"site {site} is unknown: no view epoch ever contained it "
            f"(ids 0..{capacity - 1} have been issued)"
        )


class DepartedSiteError(MembershipError):
    """An operation addressed a site that left or was evicted."""

    def __init__(self, site: int, status: str, epoch: Optional[int] = None) -> None:
        self.site = site
        self.status = status
        self.epoch = epoch
        when = f" in epoch {epoch}" if epoch is not None else ""
        super().__init__(
            f"site {site} is no longer a cluster member: it {status}{when}"
        )
