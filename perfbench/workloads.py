"""The three benchmark workloads, all over SNFS.

Each workload generates its inputs from the seed (outside every timed
region), builds a fresh testbed (``setup``), runs its timed phase
(``start`` returns the coroutines; the caller drives them), and checks
the program's outputs afterwards (``check``).  Every load is closed-loop
in simulated time: each simulated client issues its next syscall only
after the last one returns.

The workloads reach the syscall layer through :class:`CountingKernel`,
which records each syscall's simulated latency and failure.  It is part
of the workload in both the plain and the traced run, so it changes
neither schedule.
"""

from __future__ import annotations

import hashlib
import posixpath
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["WORKLOADS", "SyscallLog", "CountingKernel", "Bed"]

_IO_CHUNK = 8192
_BLOCK = 4096

#: Kernel syscalls that are coroutines (``lseek`` is a plain call)
_COROUTINE_SYSCALLS = frozenset((
    "open", "close", "read", "write", "stat", "fstat", "unlink", "mkdir",
    "rmdir", "readdir", "rename", "link", "truncate", "fsync", "sync",
))


@dataclass
class SyscallLog:
    """What the workload's own syscalls did during the timed phase."""

    latencies: List[float] = field(default_factory=list)  # simulated seconds
    failed: int = 0
    #: bytes written per path (through descriptors this log saw opened)
    written: Dict[str, int] = field(default_factory=dict)
    _paths: Dict[int, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


class CountingKernel:
    """A workload's view of a :class:`repro.host.Kernel`.

    Syscalls are forwarded unchanged; while ``log`` is set, each one's
    simulated latency (or its failure) is recorded there.  Everything
    else (``sim``, ``host``...) is the kernel's own attribute.
    """

    def __init__(self, kernel, log: Optional[SyscallLog] = None):
        self._kernel = kernel
        self.log = log

    def __getattr__(self, name):
        attr = getattr(self._kernel, name)
        if name in _COROUTINE_SYSCALLS:
            return lambda *args, **kwargs: self._syscall(name, attr, args, kwargs)
        return attr

    def _syscall(self, name, fn, args, kwargs):
        log = self.log
        if log is None:
            return (yield from fn(*args, **kwargs))
        sim = self._kernel.sim
        t0 = sim.now
        try:
            result = yield from fn(*args, **kwargs)
        except Exception:
            log.failed += 1
            raise
        log.latencies.append(sim.now - t0)
        if name == "open":
            log._paths[result] = args[0]
        elif name == "write":
            path = log._paths.get(args[0])
            if path is not None:
                log.written[path] = log.written.get(path, 0) + result
        return result


@dataclass
class Bed:
    """A built testbed: its simulator, every host, and workload state."""

    sim: object
    hosts: list
    state: dict = field(default_factory=dict)


def drive(sim, gen, what: str):
    """Run one coroutine to completion on ``sim`` (daemons keep running)."""
    return drive_all(sim, [gen], what)[0]


def drive_all(sim, gens, what: str) -> list:
    """Run several coroutines concurrently to completion."""
    from repro.sim import AllOf

    boxes = [{} for _ in gens]

    def main(gen, box):
        box["value"] = yield from gen

    procs = [sim.spawn(main(g, b), name=what) for g, b in zip(gens, boxes)]
    gate = AllOf(sim, procs)
    gate.defuse()
    sim.run_until(gate, limit=1e7)
    for proc in procs:
        if not proc.triggered:
            raise TimeoutError("%s did not finish" % what)
        if proc.exception is not None:
            proc.defuse()
            raise proc.exception
    return [b.get("value") for b in boxes]


def _printable(rng: random.Random, size: int) -> bytes:
    """``size`` seeded bytes of lower-case letters and digits."""
    alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789"
    table = bytes(alphabet[i % len(alphabet)] for i in range(256))
    return rng.randbytes(size).translate(table)


# -- cluster-snfs --------------------------------------------------------------


class ClusterSnfs:
    """256 clients x 3 edit/compile iterations against one SNFS server.

    Per iteration: create and write a scratch file, reread it, write a
    keeper ``out<i>``, unlink the scratch, think 0.2 s.  Metadata- and
    RPC-bound; the working set fits every cache.
    """

    name = "cluster-snfs"
    clients = 256
    iterations = 3
    #: per-(client, iteration) sizes are a seeded shuffle of these fixed
    #: multisets, so every seed does the same total work
    scratch_blocks = (2, 3, 4, 5, 6)
    keeper_sizes = tuple(512 * k for k in range(1, 17))

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        slots = self.clients * self.iterations
        blocks = [self.scratch_blocks[i % len(self.scratch_blocks)] for i in range(slots)]
        keeps = [self.keeper_sizes[i % len(self.keeper_sizes)] for i in range(slots)]
        rng.shuffle(blocks)
        rng.shuffle(keeps)
        plans = [
            [(blocks[c * self.iterations + i], keeps[c * self.iterations + i])
             for i in range(self.iterations)]
            for c in range(self.clients)
        ]
        return {"plans": plans}

    def digest(self, inputs: dict) -> str:
        return hashlib.sha256(repr(inputs["plans"]).encode()).hexdigest()

    def setup(self, inputs: dict) -> Bed:
        from repro.experiments.cluster import build_cluster

        bed = build_cluster("snfs", self.clients)
        return Bed(bed.sim, [bed.server_host] + list(bed.client_hosts), {"cluster": bed})

    def start(self, bed: Bed, inputs: dict, log: SyscallLog, wrap) -> list:
        hosts = bed.state["cluster"].client_hosts
        return [
            wrap(_cluster_user(CountingKernel(h.kernel, log), "/data/user%d" % i, plan),
                 "perfbench.cluster_user")
            for i, (h, plan) in enumerate(zip(hosts, inputs["plans"]))
        ]

    def check(self, bed: Bed, inputs: dict, log: SyscallLog) -> List[str]:
        hosts = bed.state["cluster"].client_hosts
        results = drive_all(
            bed.sim,
            [_cluster_check(h.kernel, "/data/user%d" % i, plan)
             for i, (h, plan) in enumerate(zip(hosts, inputs["plans"]))],
            "check",
        )
        return [problem for problems in results for problem in problems]

    def checks(self, inputs: dict) -> int:
        return sum(1 + len(plan) for plan in inputs["plans"])


def _cluster_user(k, home: str, plan):
    from repro.fs.types import OpenMode

    block = b"w" * _BLOCK
    yield from k.mkdir(home)
    for i, (blocks, keep) in enumerate(plan):
        scratch = posixpath.join(home, "scratch%d" % i)
        keeper = posixpath.join(home, "out%d" % i)
        fd = yield from k.open(scratch, OpenMode.WRITE, create=True)
        for _ in range(blocks):
            yield from k.write(fd, block)
        yield from k.close(fd)
        fd = yield from k.open(scratch, OpenMode.READ)
        while True:
            data = yield from k.read(fd, _IO_CHUNK)
            if not data:
                break
        yield from k.close(fd)
        fd = yield from k.open(keeper, OpenMode.WRITE, create=True)
        yield from k.write(fd, b"k" * keep)
        yield from k.close(fd)
        yield from k.unlink(scratch)
        yield k.sim.timeout(0.2)


def _cluster_check(k, home: str, plan):
    """Problems with one client's files: every ``out<i>`` has its seeded
    size and no ``scratch<i>`` survives."""
    problems = []
    names = set((yield from k.readdir(home)))
    expected = {"out%d" % i for i in range(len(plan))}
    if names != expected:
        problems.append("%s holds %s, expected %s" % (home, sorted(names), sorted(expected)))
    for i, (_blocks, keep) in enumerate(plan):
        path = posixpath.join(home, "out%d" % i)
        if "out%d" % i not in names:
            problems.append("%s missing" % path)
            continue
        attr = yield from k.stat(path)
        if attr.size != keep:
            problems.append("%s is %d bytes, expected %d" % (path, attr.size, keep))
    return problems


# -- sort-snfs -----------------------------------------------------------------


class SortSnfs:
    """The §5.3 external sort on one client with remote /tmp, over an
    input 4x the largest ``SORT_SIZES`` entry (~11 MB).  The working set
    exceeds the 16 MB client cache: eviction, delayed write-back and
    delayed-write cancellation all run."""

    name = "sort-snfs"
    record_len = 32  # repro.workloads.sort.RECORD_LEN
    input_bytes = 4 * 2816 * 1024  # 4 x repro.experiments.sort.SORT_SIZES[-1]

    def generate(self, seed: int) -> dict:
        n, key = self.input_bytes // self.record_len, self.record_len - 1
        keys = _printable(random.Random(seed), n * key)
        records = [keys[i:i + key] + b"\n" for i in range(0, n * key, key)]
        return {"data": b"".join(records), "expected": b"".join(sorted(records))}

    def digest(self, inputs: dict) -> str:
        return hashlib.sha256(inputs["data"]).hexdigest()

    def setup(self, inputs: dict) -> Bed:
        from repro.experiments.cluster import build_testbed
        from repro.fs.types import OpenMode

        bed = build_testbed("snfs", remote_tmp=True)
        k = bed.client.kernel
        data = inputs["data"]

        def stage():
            fd = yield from k.open("/input/unsorted", OpenMode.WRITE, create=True)
            for offset in range(0, len(data), _IO_CHUNK):
                yield from k.write(fd, data[offset:offset + _IO_CHUNK])
            yield from k.close(fd)
            yield from k.sync()

        drive(bed.sim, stage(), "stage")
        return Bed(bed.sim, [bed.client, bed.server_host], {"kernel": k})

    def start(self, bed: Bed, inputs: dict, log: SyscallLog, wrap) -> list:
        from repro.workloads import ExternalSort, SortConfig

        sorter = ExternalSort(
            CountingKernel(bed.state["kernel"], log),
            input_path="/input/unsorted",
            output_path="/tmp/sorted",
            tmp_dir="/tmp",
            config=SortConfig(run_bytes=512 * 1024, merge_width=4),
        )
        return [sorter.run()]

    def check(self, bed: Bed, inputs: dict, log: SyscallLog) -> List[str]:
        from repro.fs.types import OpenMode

        k = bed.state["kernel"]

        def read_output():
            fd = yield from k.open("/tmp/sorted", OpenMode.READ)
            chunks = []
            while True:
                data = yield from k.read(fd, 65536)
                if not data:
                    break
                chunks.append(data)
            yield from k.close(fd)
            return b"".join(chunks)

        # equal to the sorted input: sorted, and a permutation of it
        if drive(bed.sim, read_output(), "check") != inputs["expected"]:
            return ["/tmp/sorted is not the sorted input"]
        return []

    def checks(self, inputs: dict) -> int:
        return 1


# -- andrew-snfs-obs -----------------------------------------------------------


class AndrewSnfsObs:
    """The two-client traced Andrew run (the shape of
    ``repro.experiments.traced.run_traced_andrew``) with the program's
    tracer, metrics registry and obs collector attached.  client0 runs
    Andrew; client1 then reads ``a.out``, forcing the CLOSED_DIRTY
    callback and write-back path."""

    name = "andrew-snfs-obs"
    #: tree shape: paths, file sizes and include counts come from
    #: ``make_tree`` at a fixed seed, so every run seed does the same
    #: amount of work; the run seed draws the contents and includes
    shape = dict(n_dirs=6, files_per_dir=16, mean_file_size=3000, n_headers=6,
                 header_size=2000, seed=1989)

    def generate(self, seed: int) -> dict:
        from repro.workloads.tree import SourceFile, TreeSpec, make_tree

        base = make_tree(**self.shape)
        rng = random.Random(seed)
        headers = [f.path for f in base.headers()]
        files = []
        for f in base.files:
            text = bytearray(_printable(rng, len(f.content)))
            text[59::60] = b"\n" * len(range(59, len(text), 60))
            includes = rng.sample(headers, k=len(f.includes))
            files.append(SourceFile(path=f.path, content=bytes(text), includes=includes))
        return {"tree": TreeSpec(directories=list(base.directories), files=files)}

    def digest(self, inputs: dict) -> str:
        h = hashlib.sha256()
        for f in inputs["tree"].files:
            h.update(f.path.encode() + b"\0" + f.content + repr(f.includes).encode())
        return h.hexdigest()

    def setup(self, inputs: dict) -> Bed:
        from repro.host import Host, HostConfig
        from repro.net import Network, NetworkConfig
        from repro.sim import Simulator
        from repro.snfs import SnfsClient, SnfsServer
        from repro.trace import Tracer
        from repro.workloads import AndrewBenchmark

        # the class keeps every tracer for export; drop earlier reps'
        Tracer.drain_instances()
        sim = Simulator()
        if sim.tracer is None:
            sim.enable_tracer()
        sim.enable_metrics()
        sim.enable_obs()
        network = Network(sim, NetworkConfig())
        server_host = Host(sim, network, "server", HostConfig.titan_server())
        export = server_host.add_local_fs("/export", fsid="exportfs")
        SnfsServer(server_host, export, max_open_files=4000)
        server_host.update_daemon.start()
        clients = []
        for i in range(2):
            host = Host(sim, network, "client%d" % i, HostConfig.titan_client())
            mount = SnfsClient("m%d" % i, host, "server")
            drive(sim, mount.attach(), "attach")
            host.kernel.mount("/data", mount)
            host.add_local_fs("/tmp", fsid="tmpfs%d" % i, disk_name="tmpdisk")
            host.update_daemon.start()
            clients.append(host)
        kernel0 = CountingKernel(clients[0].kernel)
        bench = AndrewBenchmark(
            kernel0, src_dir="/data/src", dst_dir="/data/dst", tmp_dir="/tmp",
            tree=inputs["tree"],
        )

        def populate():
            yield from clients[0].kernel.mkdir("/data/src")
            yield from bench.populate_source()

        drive(sim, populate(), "populate")
        return Bed(sim, [server_host] + clients,
                   {"bench": bench, "kernel0": kernel0, "kernel1": clients[1].kernel})

    def start(self, bed: Bed, inputs: dict, log: SyscallLog, wrap) -> list:
        bed.state["kernel0"].log = log
        reader = CountingKernel(bed.state["kernel1"], log)
        bed.state["epilogue"] = box = [0]
        return [_sequence(bed.state["bench"].run(), wrap(_read_all(reader, "/data/dst/a.out", box),
                                                          "perfbench.andrew_epilogue"))]

    def check(self, bed: Bed, inputs: dict, log: SyscallLog) -> List[str]:
        linked = log.written.get("/data/dst/a.out", 0)
        read = bed.state["epilogue"][0]
        if linked <= 0 or read != linked:
            return ["client1 read %d a.out bytes, client0 linked %d" % (read, linked)]
        return []

    def checks(self, inputs: dict) -> int:
        return 1


def _sequence(*gens):
    """One coroutine running ``gens`` one after the other."""
    for gen in gens:
        yield from gen


def _read_all(k, path: str, box: list):
    from repro.fs.types import OpenMode

    fd = yield from k.open(path, OpenMode.READ)
    try:
        while True:
            data = yield from k.read(fd, _IO_CHUNK)
            if not data:
                break
            box[0] += len(data)
    finally:
        yield from k.close(fd)


WORKLOADS = {w.name: w for w in (ClusterSnfs(), SortSnfs(), AndrewSnfsObs())}
