"""Instrumentation parity across protocols (observability satellite).

The SNFS stack always emitted rpc.latency / rpc.retrans metrics and
``rpc.call:*`` trace spans because everything went through the shared
RPC layer; after the repro.proto refactor every protocol's traffic
goes through the same ``_call`` path.  One test per protocol verifies
the metrics and spans actually land, with per-proc labels.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, LossBurst
from repro.fs import OpenMode
from repro.host import Host, HostConfig
from repro.net import Network, NetworkConfig
from repro.proto.registry import NAMES, make_server

PROTOCOLS = sorted(NAMES)


def _parse_labels(key):
    """'endpoint=c0,proc=nfs.write' -> {'endpoint': 'c0', ...}"""
    return dict(kv.split("=", 1) for kv in key.split(",") if kv)


def build(runner, protocol, seed=3):
    sim = runner.sim
    metrics = sim.enable_metrics()
    tracer = sim.enable_tracer()
    net = Network(sim, NetworkConfig(seed=seed))
    server_host = Host(sim, net, "server", HostConfig.titan_server())
    export = server_host.add_local_fs("/export", fsid="exportfs")
    make_server(protocol, server_host, export)
    client_host = Host(sim, net, "c0", HostConfig.titan_client())
    runner.mount(protocol, client_host, "server", "/data")
    return metrics, tracer, net, client_host


def workload(kernel):
    fd = yield from kernel.open("/data/f", OpenMode.WRITE, create=True)
    yield from kernel.write(fd, b"x" * 10000)
    yield from kernel.fsync(fd)
    yield from kernel.close(fd)
    fd = yield from kernel.open("/data/f", OpenMode.READ)
    yield from kernel.read(fd, 10000)
    yield from kernel.close(fd)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_latency_histogram_with_per_proc_labels(runner, protocol):
    metrics, tracer, net, client = build(runner, protocol)
    runner.run(workload(client.kernel))
    latency = metrics.histogram("rpc.latency")
    prefix = protocol + "."
    procs = sorted(
        labels["proc"]
        for labels in map(_parse_labels, latency.as_dict())
        if labels.get("endpoint") == "c0" and labels["proc"].startswith(prefix)
    )
    # every protocol's data path shows up under its own proc names
    # (no .read assertions: the consistency protocols serve the
    # re-read from cache, which is their entire reason to exist)
    assert any(p.endswith(".write") for p in procs), procs
    assert any(p.endswith(".lookup") for p in procs), procs
    assert len(procs) >= 3, procs
    for proc in procs:
        assert latency.mean(proc=proc, endpoint="c0", server="server") > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_spans_cover_client_calls(runner, protocol):
    metrics, tracer, net, client = build(runner, protocol)
    runner.run(workload(client.kernel))
    spans = tracer.find_spans(prefix="rpc.call:%s." % protocol, track="c0")
    assert spans, "no rpc.call spans for %s" % protocol
    served = tracer.find_spans(prefix="rpc.serve:%s." % protocol)
    assert served, "no rpc.serve spans for %s" % protocol
    # matched begin/end: span durations are well-defined
    assert all(s.t1 is not None for s in spans)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_retrans_counter_under_loss(runner, protocol):
    metrics, tracer, net, client = build(runner, protocol)
    inj = FaultInjector(runner.sim, network=net)
    inj.install(
        FaultPlan(events=(LossBurst(start=0.0, duration=600.0, rate=0.35),), seed=7)
    )
    runner.run(workload(client.kernel), limit=1e6)
    retrans = metrics.counter("rpc.retrans")
    assert retrans.total() > 0, "no retransmits despite 35%% loss"
    labelled = sum(
        count
        for key, count in sorted(retrans.as_dict().items())
        if _parse_labels(key).get("endpoint") == "c0"
        and _parse_labels(key)["proc"].startswith(protocol + ".")
    )
    # client-side retransmits all carry this protocol's proc labels
    # (the server may contribute its own for pushes)
    assert labelled > 0
