"""The instrumentation seam: ``sim.probe`` and its three subscribers.

Components report every instrumented occurrence to ``sim.probe``; the
tracer, the metrics registry and the obs collector subscribe to it.
These tests pin the two properties the seam promises: no component
reads a sink off the simulator behind the probe's back, and each
subscriber records the same thing whichever others are attached.
"""

import ast
import itertools
from pathlib import Path

import pytest

from repro.faults import FaultInjector, FaultPlan, LossBurst
from repro.fs import OpenMode
from repro.host import Host, HostConfig
from repro.net import Network, NetworkConfig
from repro.obs import obs_document
from repro.proto.registry import make_server
from repro.trace import trace_digest

from tests.conftest import SimRunner

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: component packages whose instrumented sites must go through the probe
COMPONENTS = (
    "sim", "host", "net", "storage", "vfs", "fs", "proto", "nfs", "snfs",
    "rfs", "kent", "lease", "lockd", "faults",
)
#: the simulator owns the sink handles and the probe routes to them
EXEMPT = ("sim/engine.py", "sim/probe.py")
SINKS = frozenset({"tracer", "metrics", "obs"})


def _is_simulator(node):
    """``sim`` or ``<anything>.sim``: the way components name theirs."""
    return (isinstance(node, ast.Name) and node.id == "sim") or (
        isinstance(node, ast.Attribute) and node.attr == "sim"
    )


def sink_reads(path):
    """``lineno`` of every ``sim.tracer``/``sim.metrics``/``sim.obs``
    (or ``getattr(sim, "tracer")``) read in one module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            if node.attr in SINKS and _is_simulator(node.value):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and _is_simulator(node.args[0])
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in SINKS
        ):
            lines.append(node.lineno)
    return sorted(lines)


def component_modules(root):
    for package in COMPONENTS:
        for path in sorted((root / package).rglob("*.py")):
            if path.relative_to(root).as_posix() not in EXEMPT:
                yield path
    yield root / "metrics" / "timeseries.py"


def test_no_component_reads_a_sink_off_the_simulator():
    """Every site tests ``sim.probe`` once; a direct ``sim.tracer``
    read would bypass the probe and bring back the per-sink guards.
    (``Kernel.tracer``, the oracle's syscall observer, is a kernel
    attribute and is not matched.)"""
    offenders = [
        "%s:%d" % (path.relative_to(SRC).as_posix(), lineno)
        for path in component_modules(SRC)
        for lineno in sink_reads(path)
    ]
    assert offenders == []


def test_the_guard_sees_each_spelling(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(self, sim, c, kernel):\n"
        "    self.sim.tracer.instant('x')\n"
        "    sim.metrics.counter('y')\n"
        "    c.sim.obs.add('z', 1)\n"
        "    getattr(self.sim, 'obs')\n"
        "    kernel.tracer.on_open()\n"
        "    self.tracer = None\n"
        "    self.sim.probe.instant('ok')\n"
    )
    assert sink_reads(module) == [2, 3, 4, 5]


# -- subscribers are independent --------------------------------------------


def run_two_hosts(sinks):
    """The instrumentation-parity build (one SNFS server, one client)
    under a loss burst, so retransmissions, duplicate hits and fault
    notes fire too; ``sinks`` names the ``enable_*`` calls to make."""
    runner = SimRunner()
    sim = runner.sim
    for sink in sinks:
        getattr(sim, "enable_" + sink)()
    net = Network(sim, NetworkConfig(seed=3))
    server = Host(sim, net, "server", HostConfig.titan_server())
    make_server("snfs", server, server.add_local_fs("/export", fsid="exportfs"))
    client = Host(sim, net, "c0", HostConfig.titan_client())
    runner.mount("snfs", client, "server", "/data")
    injector = FaultInjector(sim, network=net, trace=True)
    injector.install(
        FaultPlan(events=(LossBurst(start=0.0, duration=5.0, rate=0.2),), seed=7)
    )

    def workload(kernel):
        for i in range(3):
            path = "/data/f%d" % i
            fd = yield from kernel.open(path, OpenMode.WRITE, create=True)
            yield from kernel.write(fd, b"x" * 6000)
            yield from kernel.fsync(fd)
            yield from kernel.close(fd)
            fd = yield from kernel.open(path, OpenMode.READ)
            yield from kernel.read(fd, 6000)
            yield from kernel.close(fd)

    runner.run(workload(client.kernel), limit=1e6)
    counters = {
        host.name: (host.rpc.client_stats.as_dict(), host.rpc.server_stats.as_dict())
        for host in (server, client)
    }
    return sim, counters


def exports(sim):
    out = {}
    if sim.tracer is not None:
        out["tracer"] = trace_digest(sim.tracer)
    if sim.metrics is not None:
        out["metrics"] = sim.metrics.as_dict()
    if sim.obs is not None:
        out["obs"] = obs_document(sim.obs)
    return out


ALL = ("tracer", "metrics", "obs")
COMBINATIONS = [
    combo for n in range(len(ALL) + 1) for combo in itertools.combinations(ALL, n)
]


@pytest.fixture(scope="module")
def all_on():
    sim, counters = run_two_hosts(ALL)
    return sim.now, counters, exports(sim)


@pytest.mark.parametrize("sinks", COMBINATIONS, ids=lambda c: "+".join(c) or "none")
def test_each_subscriber_records_the_same_whatever_else_is_attached(
    all_on, sinks, monkeypatch
):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    now, counters, full = all_on
    for metric in ("rpc.retrans", "rpc.dup_hits", "faults.events"):
        assert full["metrics"][metric]["values"], "the run exercised no %s" % metric
    sim, got_counters = run_two_hosts(sinks)
    assert sim.now == now
    assert got_counters == counters
    got = exports(sim)
    # enable_obs implies enable_metrics
    assert set(got) == set(sinks) | ({"metrics"} if "obs" in sinks else set())
    for sink, export in got.items():
        assert export == full[sink], sink
    if sinks:
        # the probe's subscribers are exactly the simulator's handles
        probe = sim.probe
        assert (probe.tracer, probe.registry, probe.collector) == (
            sim.tracer, sim.metrics, sim.obs
        )
    else:
        assert sim.probe is None
