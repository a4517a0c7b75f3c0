"""The protocol registry (repro.proto.registry): one table from protocol
name to server and client, and the one drive loop every testbed uses."""

import ast
from pathlib import Path

import pytest

from repro.bench import workloads as bench_workloads
from repro.experiments import cluster
from repro.host import Host, HostConfig
from repro.nemesis import matrix
from repro.net import Network
from repro.proto import RemoteFsClient, RemoteFsServer
from repro.proto.registry import (
    NAMES,
    REGISTRY,
    drive,
    drive_all,
    make_mount,
    make_server,
    spec,
)
from repro.sim import Simulator

PROTOCOL_PACKAGES = {"nfs", "snfs", "rfs", "kent", "lease"}


def test_registry_order_and_specs():
    assert NAMES == ("nfs", "snfs", "rfs", "kent", "lease")
    for name, entry in REGISTRY.items():
        assert issubclass(entry.client, RemoteFsClient)
        assert entry.client.PROC.PREFIX == name + "."
    assert [n for n in NAMES if spec(n).has_open_state_table] == ["snfs"]


def test_protocol_tuples_are_the_registry_names():
    assert cluster.CLUSTER_PROTOCOLS == NAMES
    assert bench_workloads.CLUSTER_PROTOCOLS == NAMES
    assert matrix.ALL_PROTOCOLS == NAMES
    assert cluster.PROTOCOLS == ("local",) + NAMES


@pytest.mark.parametrize("protocol", NAMES)
def test_make_server_and_mount(runner, protocol):
    sim = runner.sim
    net = Network(sim)
    server_host = Host(sim, net, "server", HostConfig.titan_server())
    export = server_host.add_local_fs("/export", fsid="exportfs")
    server = make_server(protocol, server_host, export, max_open_files=7)
    assert isinstance(server, RemoteFsServer)
    if spec(protocol).has_open_state_table:
        assert server.state.max_entries == 7
    client_host = Host(sim, net, "c", HostConfig.titan_client())
    mount = make_mount(protocol, "m", client_host, "server")
    assert type(mount) is REGISTRY[protocol].client
    root = runner.run(mount.attach())
    assert root is mount.root()


def test_unknown_protocol_is_a_value_error():
    with pytest.raises(ValueError, match="unknown protocol 'afs'"):
        spec("afs")


def test_drive_returns_values_and_names_processes():
    sim = Simulator()

    def work(x):
        yield sim.timeout(1.0)
        return x * 2

    def whoami():
        yield sim.timeout(0.0)
        return sim.current_process.name

    assert drive(sim, work(2)) == 4
    assert drive_all(sim, [work(1), work(3)]) == [2, 6]
    # process names land in traces, so the historical defaults hold
    assert drive(sim, whoami()) == "wrapper"
    assert drive(sim, whoami(), name="workload") == "workload"
    assert drive_all(sim, [whoami(), whoami()], name="actor") == ["actor"] * 2


def test_drive_raises_the_workload_error():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.5)
        raise KeyError("boom")

    def good():
        yield sim.timeout(10.0)

    with pytest.raises(KeyError):
        drive(sim, bad())
    # the failure wins over the sibling still running at the gate
    with pytest.raises(KeyError):
        drive_all(sim, [good(), bad()])


def test_drive_times_out_past_the_limit():
    sim = Simulator()

    def slow():
        yield sim.timeout(50.0)

    with pytest.raises(TimeoutError, match="'late' did not finish before 10"):
        drive(sim, slow(), limit=10.0, name="late")
    with pytest.raises(TimeoutError):
        drive_all(sim, [slow(), slow()], limit=sim.now + 10.0)


def _imported_protocol_classes(path: Path, package: str):
    """``(lineno, name)`` for every *Server/*Client class a module
    imports from one of the protocol packages."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            parts = package.split(".")[: len(package.split(".")) - node.level + 1]
            module = ".".join(parts + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        pieces = module.split(".")
        if len(pieces) < 2 or pieces[0] != "repro" or pieces[1] not in PROTOCOL_PACKAGES:
            continue
        for alias in node.names:
            if alias.name.endswith(("Server", "Client")):
                yield node.lineno, alias.name


def test_harnesses_build_protocols_only_through_the_registry():
    """Experiments, nemesis and bench name no protocol class: a new
    protocol is a policy plus one registry entry."""
    src = Path(__file__).resolve().parents[2] / "src"
    offenders = []
    for pkg in ("experiments", "nemesis", "bench"):
        for path in sorted((src / "repro" / pkg).rglob("*.py")):
            package = ".".join(path.relative_to(src).parent.parts)
            for lineno, name in _imported_protocol_classes(path, package):
                offenders.append("%s:%d %s" % (path.relative_to(src), lineno, name))
    assert offenders == []


def test_guard_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from ..snfs import SnfsClient, SnfsClientConfig\n"
        "from repro.kent.server import KentServer\n"
        "from ..proto.registry import make_mount\n"
    )
    found = list(_imported_protocol_classes(probe, "repro.experiments"))
    assert found == [(1, "SnfsClient"), (2, "KentServer")]
