"""Static cluster bootstrap: topology files for the live substrate.

A topology file is a small JSON document describing one static cluster —
who the sites are, where they listen, and the placement/protocol
parameters every node must agree on::

    {
      "protocol": "opt-track",
      "n_vars": 16,
      "replication_factor": 2,
      "placement": "round-robin",
      "seed": 0,
      "history_dir": "/tmp/live-history",
      "nodes": [
        {"site": 0, "host": "127.0.0.1", "peer_port": 7400, "http_port": 7500},
        {"site": 1, "host": "127.0.0.1", "peer_port": 7401, "http_port": 7501},
        {"site": 2, "host": "127.0.0.1", "peer_port": 7402, "http_port": 7502}
      ]
    }

Every node process loads the same file and derives identical placement
(the deterministic placement classes in :mod:`repro.memory.replication`
guarantee agreement), so bootstrap needs no coordination protocol —
matching the paper's static-membership system model (Section IV).
``repro serve`` generates a topology (picking free ports when asked) and
``repro loadgen`` reads it back to find the cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..core.base import replication_factor_for
from ..memory.replication import PLACEMENT_NAMES, Placement, make_placement

__all__ = [
    "NodeSpec",
    "ClusterTopology",
    "build_placement",
    "load_topology",
    "save_topology",
    "default_topology",
]


@dataclass(frozen=True)
class NodeSpec:
    """Where one site lives: peer (inter-node) and HTTP (client) endpoints."""

    site: int
    host: str
    peer_port: int
    http_port: int

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "host": self.host,
            "peer_port": self.peer_port,
            "http_port": self.http_port,
        }


@dataclass(frozen=True)
class ClusterTopology:
    """One static cluster: agreed parameters plus the node endpoints."""

    protocol: str
    n_vars: int
    nodes: tuple[NodeSpec, ...]
    replication_factor: Optional[int] = None
    placement: str = "round-robin"
    seed: int = 0
    history_dir: Optional[str] = None
    retransmit: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_vars <= 0:
            raise ValueError("need at least one variable")
        if not self.nodes:
            raise ValueError("topology declares no nodes")
        sites = [n.site for n in self.nodes]
        if sites != list(range(len(self.nodes))):
            raise ValueError(
                f"node sites must be exactly 0..{len(self.nodes) - 1} "
                f"in order, got {sites}"
            )
        if self.placement not in PLACEMENT_NAMES:
            raise ValueError(f"unknown placement {self.placement!r}")
        # KeyError on an unknown protocol, ValueError on a partial p
        # under full replication
        replication_factor_for(self.protocol, len(self.nodes),
                               self.replication_factor)

    @property
    def n_sites(self) -> int:
        return len(self.nodes)

    def node(self, site: int) -> NodeSpec:
        return self.nodes[site]

    def history_path(self, site: int) -> Optional[Path]:
        if self.history_dir is None:
            return None
        return Path(self.history_dir) / f"node-{site}.history.jsonl"

    def as_dict(self) -> dict:
        out = {
            "protocol": self.protocol,
            "n_vars": self.n_vars,
            "replication_factor": self.replication_factor,
            "placement": self.placement,
            "seed": self.seed,
            "history_dir": self.history_dir,
            "nodes": [n.as_dict() for n in self.nodes],
        }
        if self.retransmit:
            out["retransmit"] = dict(self.retransmit)
        return out


def build_placement(topology: ClusterTopology) -> Placement:
    """The placement every node derives identically from the topology,
    by the simulator's rule (:func:`~repro.core.base.replication_factor_for`)."""
    n = topology.n_sites
    p = replication_factor_for(topology.protocol, n,
                               topology.replication_factor)
    return make_placement(topology.placement, n, topology.n_vars, p,
                          seed=topology.seed)


# ----------------------------------------------------------------------
def load_topology(path: "str | Path") -> ClusterTopology:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    nodes = tuple(
        NodeSpec(
            site=int(n["site"]),
            host=str(n["host"]),
            peer_port=int(n["peer_port"]),
            http_port=int(n["http_port"]),
        )
        for n in data["nodes"]
    )
    return ClusterTopology(
        protocol=str(data["protocol"]),
        n_vars=int(data["n_vars"]),
        nodes=nodes,
        replication_factor=(
            int(data["replication_factor"])
            if data.get("replication_factor") is not None
            else None
        ),
        placement=str(data.get("placement", "round-robin")),
        seed=int(data.get("seed", 0)),
        history_dir=data.get("history_dir"),
        retransmit=dict(data.get("retransmit", {})),
    )


def save_topology(topology: ClusterTopology, path: "str | Path") -> None:
    Path(path).write_text(
        json.dumps(topology.as_dict(), indent=2) + "\n", encoding="utf-8"
    )


def default_topology(
    n_sites: int,
    *,
    protocol: str = "opt-track",
    n_vars: int = 16,
    replication_factor: Optional[int] = None,
    placement: str = "round-robin",
    seed: int = 0,
    host: str = "127.0.0.1",
    base_port: int = 7400,
    history_dir: Optional[str] = None,
) -> ClusterTopology:
    """A local loopback cluster: peer ports then HTTP ports, contiguous."""
    nodes = tuple(
        NodeSpec(
            site=i,
            host=host,
            peer_port=base_port + i,
            http_port=base_port + n_sites + i,
        )
        for i in range(n_sites)
    )
    return ClusterTopology(
        protocol=protocol,
        n_vars=n_vars,
        nodes=nodes,
        replication_factor=replication_factor,
        placement=placement,
        seed=seed,
        history_dir=history_dir,
    )
