"""The layer map: which entry points belong to which layer, and the
per-layer metrics a traced run derives from their spans.

Layers are named after the packages of ``src/repro``.  Each one is
timed at its public entry points; everything the simulator executes
that no other layer's span covers is ``sim`` self time.  Two internal
``net`` entry points are wrapped as well, so that work the network
layer does on behalf of a caller is not charged to ``sim``:
``RpcEndpoint._serve`` (the server side of every RPC, which also
carries the caller's request id to the handler) and
``Interface._deliver`` (packet arrival).
"""

from __future__ import annotations

import inspect
from typing import Dict, Iterable, List, Tuple

from .spans import Installation, Recorder, TimedGenerator

__all__ = ["LAYERS", "SYSCALLS", "install", "layer_metrics", "PER_LAYER"]

LAYERS = ("sim", "host", "vfs", "proto", "snfs", "net", "storage", "fs", "instr", "workloads")

#: Kernel methods that are syscalls (each starts a request)
SYSCALLS = (
    "open", "close", "read", "write", "lseek", "stat", "fstat", "unlink",
    "mkdir", "rmdir", "readdir", "rename", "link", "truncate", "fsync", "sync",
)

#: FileSystemType operations timed on every mount class (the gnode-table
#: helpers ``gnode_for``/``root``/``submounts`` are bookkeeping, not calls
#: through the GFS switch)
VFS_OPS = (
    "lookup", "create", "remove", "mkdir", "rmdir", "rename", "link",
    "readdir", "open", "close", "getattr", "setattr", "read", "write",
    "fsync", "sync", "flush_block", "unmount",
)

#: BufferCache methods that walk every resident buffer
CACHE_SCANS = ("file_blocks", "dirty_buffers", "dirty_count")

#: (name, unit, better) of every per-layer metric, in report order
#: (``s`` is host seconds, ``sim_s`` simulated seconds)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.self_s", "s", "lower"),
    ("sim.spawns", "count", "lower"),
    ("sim.timeouts", "count", "lower"),
    ("sim.succeeds", "count", "lower"),
    ("host.syscalls", "count", "lower"),
    ("host.cpu_consumes", "count", "lower"),
    ("host.cpu_busy_sim_s", "sim_s", "lower"),
    ("host.self_s", "s", "lower"),
    ("vfs.calls", "count", "lower"),
    ("vfs.self_s", "s", "lower"),
    ("proto.policy_calls", "count", "lower"),
    ("proto.server_procs", "count", "lower"),
    ("proto.dnlc_hit_ratio", "ratio", "higher"),
    ("proto.self_s", "s", "lower"),
    ("snfs.state_ops", "count", "lower"),
    ("snfs.callbacks", "count", "lower"),
    ("snfs.self_s", "s", "lower"),
    ("net.calls", "count", "lower"),
    ("net.sends", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("net.size_estimates", "count", "lower"),
    ("net.retransmits", "count", "lower"),
    ("net.rpc_sim_s", "sim_s", "lower"),
    ("net.self_s", "s", "lower"),
    ("storage.cache_lookups", "count", "lower"),
    ("storage.cache_hit_ratio", "ratio", "higher"),
    ("storage.cache_scans", "count", "lower"),
    ("storage.buffers_scanned", "count", "lower"),
    ("storage.scan_yield", "ratio", "higher"),
    ("storage.disk_busy_sim_s", "sim_s", "lower"),
    ("storage.disk_wait_sim_s", "sim_s", "lower"),
    ("storage.self_s", "s", "lower"),
    ("fs.calls", "count", "lower"),
    ("fs.block_ios", "count", "lower"),
    ("fs.self_s", "s", "lower"),
    ("instr.calls", "count", "lower"),
    ("instr.self_s", "s", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def _public_functions(cls) -> List[str]:
    """Names of the plain functions ``cls`` itself defines publicly."""
    return [
        name for name, raw in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(raw)
    ]


# -- observers (run only while the recorder is active) --------------------


def _cache_lookup(rec: Recorder, args, result) -> None:
    if result is not None:
        rec.add("storage.cache_hits")


def _scan_begin(rec: Recorder, sid: int, args) -> None:
    rec.add("storage.buffers_scanned", len(args[0]))


def _scan_end(rec: Recorder, args, result) -> None:
    rec.add("storage.buffers_returned", result if isinstance(result, int) else len(result))


def _dnlc_get(rec: Recorder, args, result) -> None:
    if result is not None:
        rec.add("proto.dnlc_hits")


def _open_file(rec: Recorder, args, result) -> None:
    rec.add("snfs.callbacks", len(result[1]))


def _close_file(rec: Recorder, args, result) -> None:
    rec.add("snfs.callbacks", len(result))


def _send(rec: Recorder, sid: int, args) -> None:
    # Interface.send(self, dst, port, payload, size)
    payload = args[3]
    rec.add("net.bytes", args[4])
    rid = rec.rid[sid]
    if rid and hasattr(payload, "__dict__"):
        payload._perfbench_rid = rid  # read back by the server's _serve


def _serve(rec: Recorder, sid: int, args) -> None:
    # RpcEndpoint._serve(self, msg): join the caller's request
    rid = getattr(args[1], "_perfbench_rid", 0)
    if rid:
        rec.rid[sid] = rid


def _spawn(rec: Recorder, args, proc) -> None:
    gen = args[1]
    rid = gen.rid if isinstance(gen, TimedGenerator) else 0
    rec.bind_process(proc, rid or rec.current_rid())


def install(rec: Recorder) -> Installation:
    """Wrap every layer entry point; returns the undo handle.

    Call before building the testbed (see :mod:`perfbench.spans`).
    """
    from repro.fs.localfs import LocalFileSystem
    from repro.host.cpu import Cpu
    from repro.host.kernel import Kernel
    from repro.metrics.counters import Counters
    from repro.metrics.registry import MetricsRegistry
    from repro.net import rpc
    from repro.net.network import Interface
    from repro.obs.collector import ObsCollector
    from repro.proto.dnlc import NameCache
    from repro.proto.policy import ConsistencyPolicy
    from repro.sim.engine import Event, Simulator
    from repro.snfs.client import SnfsClient, SnfsPolicy
    from repro.snfs.server import SnfsServer
    from repro.snfs.state_table import StateTable
    from repro.storage.cache import BufferCache
    from repro.storage.disk import Disk
    from repro.trace.tracer import Tracer
    from repro.vfs.local import LocalMount
    from repro.workloads.andrew import AndrewBenchmark
    from repro.workloads.sort import ExternalSort

    inst = Installation(rec)
    w = inst.wrap
    for name in ("run", "run_until", "timeout", "after"):
        w(Simulator, name, "sim")
    w(Simulator, "spawn", "sim", on_return=_spawn)
    w(Event, "succeed", "sim")

    for name in SYSCALLS:
        w(Kernel, name, "host", request_root=True)
    w(Cpu, "consume", "host")

    for cls in (LocalMount, SnfsClient):
        for name in VFS_OPS:
            w(cls, name, "vfs")

    for name in _public_functions(ConsistencyPolicy):
        w(SnfsPolicy, name, "proto")
    for name in sorted(n for n in dir(SnfsServer) if n.startswith("proc_")):
        w(SnfsServer, name, "snfs" if name in ("proc_open", "proc_close") else "proto")
    w(NameCache, "get", "proto", on_return=_dnlc_get)

    w(StateTable, "open_file", "snfs", on_return=_open_file)
    w(StateTable, "close_file", "snfs", on_return=_close_file)

    w(rpc.RpcEndpoint, "call", "net")
    w(rpc.RpcEndpoint, "_serve", "net", on_call=_serve)
    w(Interface, "send", "net", on_call=_send)
    w(Interface, "_deliver", "net")
    w(rpc, "estimate_size", "net", name="net.rpc.estimate_size", flat=True)

    for name in _public_functions(BufferCache):
        if name == "lookup":
            w(BufferCache, name, "storage", on_return=_cache_lookup)
        elif name in CACHE_SCANS:
            w(BufferCache, name, "storage", on_call=_scan_begin, on_return=_scan_end)
        else:
            w(BufferCache, name, "storage")
    w(Disk, "read", "storage")
    w(Disk, "write", "storage")

    for name in _public_functions(LocalFileSystem):
        w(LocalFileSystem, name, "fs")

    for name in ("begin", "end", "instant"):
        w(Tracer, name, "instr")
    for name in ("counter", "histogram"):
        w(MetricsRegistry, name, "instr")
    for name in _public_functions(ObsCollector):
        w(ObsCollector, name, "instr")
    w(Counters, "record", "instr")

    w(ExternalSort, "run", "workloads")
    w(AndrewBenchmark, "run", "workloads")
    return inst


# -- per-layer metrics -------------------------------------------------------


def _sum(by: Dict[str, Tuple[int, float, float]], names: Iterable[str], col: int) -> float:
    return sum(by[n][col] for n in names if n in by)


def layer_metrics(rec: Recorder, sim_counts: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run but
    ``trace_overhead``, which compares it with a plain run.

    ``sim_counts`` holds the testbed's own simulated counters over the
    timed phase (CPU and disk busy time, retransmissions), which do not
    depend on the wrappers.
    """
    by = rec.by_name()
    layer_of = dict(zip(rec.names, rec.layers))
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for name, (n, spent, _sim) in by.items():
        self_s[layer_of[name]] += spent
        calls[layer_of[name]] += n
    tally = rec.tally

    def count(*names: str) -> int:
        return int(_sum(by, names, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernel_calls = ["Kernel.%s" % s for s in SYSCALLS]
    procs = [n for n in by if n.startswith("SnfsServer.proc_")]
    lookups = count("BufferCache.lookup")
    scanned = tally.get("storage.buffers_scanned", 0)
    disk_busy = sim_counts["disk_busy_sim_s"]
    dnlc_gets = count("NameCache.get")
    return {
        "sim.self_s": self_s["sim"],
        "sim.spawns": count("Simulator.spawn"),
        "sim.timeouts": count("Simulator.timeout", "Simulator.after"),
        "sim.succeeds": count("Event.succeed"),
        "host.syscalls": count(*kernel_calls),
        "host.cpu_consumes": count("Cpu.consume"),
        "host.cpu_busy_sim_s": sim_counts["cpu_busy_sim_s"],
        "host.self_s": self_s["host"],
        "vfs.calls": calls["vfs"],
        "vfs.self_s": self_s["vfs"],
        "proto.policy_calls": sum(n for name, (n, _s, _t) in by.items() if name.startswith("SnfsPolicy.")),
        "proto.server_procs": count(*procs),
        "proto.dnlc_hit_ratio": ratio(tally.get("proto.dnlc_hits", 0), dnlc_gets),
        "proto.self_s": self_s["proto"],
        "snfs.state_ops": count("StateTable.open_file", "StateTable.close_file"),
        "snfs.callbacks": int(tally.get("snfs.callbacks", 0)),
        "snfs.self_s": self_s["snfs"],
        "net.calls": count("RpcEndpoint.call"),
        "net.sends": count("Interface.send"),
        "net.bytes": int(tally.get("net.bytes", 0)),
        "net.size_estimates": count("net.rpc.estimate_size"),
        "net.retransmits": int(sim_counts["retransmits"]),
        "net.rpc_sim_s": _sum(by, ["RpcEndpoint.call"], 2),
        "net.self_s": self_s["net"],
        "storage.cache_lookups": lookups,
        "storage.cache_hit_ratio": ratio(tally.get("storage.cache_hits", 0), lookups),
        "storage.cache_scans": count(*("BufferCache.%s" % s for s in CACHE_SCANS)),
        "storage.buffers_scanned": int(scanned),
        "storage.scan_yield": ratio(tally.get("storage.buffers_returned", 0), scanned),
        "storage.disk_busy_sim_s": disk_busy,
        "storage.disk_wait_sim_s": max(0.0, _sum(by, ["Disk.read", "Disk.write"], 2) - disk_busy),
        "storage.self_s": self_s["storage"],
        "fs.calls": calls["fs"],
        "fs.block_ios": count("LocalFileSystem.read_block", "LocalFileSystem.write_block"),
        "fs.self_s": self_s["fs"],
        "instr.calls": calls["instr"],
        "instr.self_s": self_s["instr"],
        "workloads.self_s": self_s["workloads"],
    }
