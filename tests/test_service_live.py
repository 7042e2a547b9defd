"""Live TCP smoke test: real node processes, real sockets, real checker.

Spawns a 3-node cluster as OS subprocesses (the exact ``repro _node``
path ``repro serve`` uses), drives it with the seeded load generator
over HTTP, and requires a violation-free merged history.  Everything
binds to 127.0.0.1 on OS-assigned free ports.
"""

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service.bootstrap import (
    ClusterTopology,
    NodeSpec,
    save_topology,
)
from repro.cli import main
from repro.service.loadgen import run_loadgen

N_SITES = 3


def _free_ports(count):
    socks, ports = [], []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def _child_env():
    """Child processes must import the same `repro` this test did,
    whether it came from an install or PYTHONPATH=src."""
    env = os.environ.copy()
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def live_cluster(tmp_path):
    ports = _free_ports(2 * N_SITES)
    topology = ClusterTopology(
        protocol="opt-track",
        n_vars=6,
        nodes=tuple(
            NodeSpec(site=i, host="127.0.0.1",
                     peer_port=ports[i], http_port=ports[N_SITES + i])
            for i in range(N_SITES)
        ),
        history_dir=str(tmp_path),
    )
    topo_path = tmp_path / "topology.json"
    save_topology(topology, topo_path)
    env = _child_env()
    logs = [(tmp_path / f"node-{i}.log").open("w") for i in range(N_SITES)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "_node",
             "--topology", str(topo_path), "--site", str(i)],
            stdout=logs[i],
            stderr=subprocess.STDOUT,
            env=env,
        )
        for i in range(N_SITES)
    ]
    try:
        deadline = time.monotonic() + 20.0
        ready = 0
        while time.monotonic() < deadline and ready < N_SITES:
            ready = 0
            for spec in topology.nodes:
                try:
                    with socket.create_connection(
                        (spec.host, spec.http_port), timeout=0.2
                    ):
                        ready += 1
                except OSError:
                    break
            if ready < N_SITES:
                if any(p.poll() is not None for p in procs):
                    logs = "\n".join(
                        (tmp_path / f"node-{i}.log").read_text()
                        for i in range(N_SITES)
                    )
                    pytest.fail(f"node process died during startup:\n{logs}")
                time.sleep(0.1)
        assert ready == N_SITES, "cluster did not come up in 20s"
        yield topology
    finally:
        for p in procs:
            p.terminate()
        for p in procs:
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                p.kill()
        for log in logs:
            log.close()


def _http(host, port, method, path, body=b""):
    with socket.create_connection((host, port), timeout=5.0) as s:
        s.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            .encode("ascii") + body
        )
        raw = b""
        while chunk := s.recv(65536):
            raw += chunk
    head, _, rest = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), rest


class TestLiveCluster:
    def test_put_then_causal_get_across_nodes(self, live_cluster):
        spec0 = live_cluster.node(0)
        spec1 = live_cluster.node(1)
        status, body = _http(
            spec0.host, spec0.http_port, "PUT", "/kv/0",
            json.dumps({"value": 41}).encode(),
        )
        assert status == 200, body
        wid = json.loads(body)["write_id"]
        status, body = _http(spec1.host, spec1.http_port, "GET", "/kv/0")
        assert status == 200, body
        reply = json.loads(body)
        assert reply["value"] == 41
        assert reply["write_id"] == wid

    def test_status_and_api_errors(self, live_cluster):
        spec = live_cluster.node(2)
        status, body = _http(spec.host, spec.http_port, "GET", "/status")
        assert status == 200
        data = json.loads(body)
        assert data["site"] == 2 and data["protocol"] == "opt-track"
        status, _ = _http(spec.host, spec.http_port, "GET", "/kv/999")
        assert status == 404
        status, _ = _http(
            spec.host, spec.http_port, "PUT", "/kv/0", b"not json"
        )
        assert status == 400

    def test_loadgen_history_is_causally_consistent(self, live_cluster):
        report = run_loadgen(live_cluster, ops=30, seed=5)
        assert report.quiesced, report.errors
        assert not report.errors
        assert not report.violations
        assert report.writes > 0 and report.reads > 0
        assert report.events > 0
        # ops, status polls and history downloads share one kept
        # connection per site (plus at most one reconnect)
        assert report.connections <= N_SITES + 1
        assert report.elapsed_s > 0
        # per-node JSONL histories were streamed to disk too
        for site in range(N_SITES):
            path = live_cluster.history_path(site)
            assert path.exists() and path.read_text().strip()

    def test_loadgen_counts_every_violation(self, live_cluster, tmp_path,
                                            monkeypatch, capsys):
        # the checker lists 20 violations per kind; loadgen must report
        # the exact total, not the listing's length
        from repro.experiments.runner import SimulationConfig, run_simulation
        from repro.service import loadgen
        from repro.verify.causal_checker import (
            LISTED,
            check_causal_consistency,
        )
        from .test_verify import reverse_site_0_applies

        res = run_simulation(SimulationConfig(
            protocol="opt-track", n_sites=5, ops_per_process=60,
            write_rate=0.8, seed=1, record_history=True))
        history = res.history
        reverse_site_0_applies(history)
        # the WRITE_OPs record their dests: the cluster's placement is unused
        totals = check_causal_consistency(history, res.placement).totals
        assert sum(totals.values()) > LISTED
        monkeypatch.setattr(loadgen, "merge_event_lists",
                            lambda per_site: history)
        assert main(["loadgen", "--topology",
                     str(tmp_path / "topology.json"), "--ops", "5"]) == 1
        out = capsys.readouterr().out
        assert f"violations={sum(totals.values())}" in out
        report = run_loadgen(live_cluster, ops=5)
        assert report.totals == totals and not report.ok
        assert report.as_dict()["totals"] == totals


def _free_port_run(count):
    """A base port with ``count`` consecutive ports free on 127.0.0.1
    (``repro serve --base-port`` takes a run), searched from a point the
    OS picks so back-to-back runs do not retry the same ports."""
    for base in range(_free_ports(1)[0] % 20000 + 20000, 60000, count):
        socks = []
        try:
            for port in range(base, base + count):
                s = socket.socket()
                socks.append(s)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    pytest.skip("no run of free ports")


def test_sigterm_to_serve_stops_its_nodes(tmp_path):
    # `kill <serve pid>` must end the nodes too, not only `repro serve`
    base = _free_port_run(4)
    run_dir = tmp_path / "cluster"
    out = tmp_path / "serve.log"
    with out.open("w") as log:  # the child writes through its own copy
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--nodes", "2",
             "--duration", "60", "--dir", str(run_dir),
             "--base-port", str(base)],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(),
        )
    try:
        deadline = time.monotonic() + 20.0
        while "cluster up" not in out.read_text():
            assert serve.poll() is None, out.read_text()
            assert time.monotonic() < deadline, "cluster not up in 20s"
            time.sleep(0.1)
        # "cluster up" waits for the peer links, not only the listeners
        for http_port in (base + 2, base + 3):
            status, body = _http("127.0.0.1", http_port, "GET", "/status")
            assert status == 200 and len(json.loads(body)["peer_links"]) == 1
        serve.terminate()
        assert serve.wait(timeout=10) == 143
        for http_port in (base + 2, base + 3):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", http_port),
                                         timeout=1.0).close()
    finally:
        serve.kill()
        serve.wait()
        # whatever is left of the nodes (named by their topology path)
        subprocess.run(["pkill", "-f", str(run_dir / "topology.json")],
                       check=False)
