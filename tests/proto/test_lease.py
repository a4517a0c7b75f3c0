"""The NQNFS-style lease protocol — the repro.proto proof of concept.

Covers the protocol's four distinguishing behaviors: free steady-state
cache hits under a live lease, renewal piggybacked on getattr, recall
of conflicting holders (with delayed-data writeback), and the expiry
economy — a lapsed read lease needs no recall callback, and a crashed
client needs no recovery protocol at all.
"""

import pytest

from repro.fs import OpenMode
from repro.host import Host, HostConfig
from repro.lease import DEFAULT_LEASE_TERM, LeaseServer
from repro.net import Network


class LeaseWorld:
    def __init__(self, runner, n_clients=2, lease_term=DEFAULT_LEASE_TERM):
        sim = runner.sim
        self.runner = runner
        self.network = Network(sim)
        self.server_host = Host(sim, self.network, "server", HostConfig.titan_server())
        self.export = self.server_host.add_local_fs("/export", fsid="exportfs")
        self.server = LeaseServer(self.server_host, self.export, lease_term=lease_term)
        self.clients = []
        self.mounts = []
        for i in range(n_clients):
            host = Host(sim, self.network, "client%d" % i, HostConfig.titan_client())
            mount = runner.mount("lease", host, "server", "/data")
            self.clients.append(host)
            self.mounts.append(mount)

    def rpc(self, proc, i=0):
        return self.clients[i].rpc.client_stats.get(proc)

    def vacates_sent(self):
        return self.server_host.rpc.client_stats.get("lease.vacate")

    def wait(self, dt):
        def pause():
            yield self.runner.sim.timeout(dt)

        self.runner.run(pause())


@pytest.fixture
def world(runner):
    return LeaseWorld(runner)


def write_file(k, path, data):
    fd = yield from k.open(path, OpenMode.WRITE, create=True, truncate=True)
    yield from k.write(fd, data)
    yield from k.close(fd)


def read_file(k, path, n=1 << 20):
    fd = yield from k.open(path, OpenMode.READ)
    data = yield from k.read(fd, n)
    yield from k.close(fd)
    return data


def test_roundtrip(runner, world):
    k = world.clients[0].kernel

    def scenario():
        yield from write_file(k, "/data/f", b"leased!")
        return (yield from read_file(k, "/data/f"))

    assert runner.run(scenario()) == b"leased!"


def test_steady_state_costs_nothing_on_the_wire(runner, world):
    """Repeated open/read/close under a live lease: zero consistency
    RPCs — the economy SNFS's per-use open/close can never reach.
    (Path lookups still cost; the name cache is a separate layer.)"""
    k = world.clients[0].kernel
    runner.run(write_file(k, "/data/f", b"hot file"))
    runner.run(read_file(k, "/data/f"))
    procs = ("lease.open", "lease.close", "lease.getattr",
             "lease.read", "lease.write")
    before = {p: world.rpc(p) for p in procs}
    for _ in range(10):
        assert runner.run(read_file(k, "/data/f")) == b"hot file"
    assert {p: world.rpc(p) for p in procs} == before


def test_lapsed_lease_renewed_by_getattr_not_reopened(runner, world):
    """After expiry with no conflict, the next use renews via the
    getattr piggyback — no second lease.open."""
    k = world.clients[0].kernel
    runner.run(write_file(k, "/data/f", b"data"))
    runner.run(read_file(k, "/data/f"))
    opens = world.rpc("lease.open")
    getattrs = world.rpc("lease.getattr")
    world.wait(DEFAULT_LEASE_TERM + 1.0)
    assert runner.run(read_file(k, "/data/f")) == b"data"
    assert world.rpc("lease.open") == opens  # no full reopen
    assert world.rpc("lease.getattr") == getattrs + 1  # one renewal


def test_conflicting_open_recalls_delayed_writes(runner, world):
    """Writer closes without flushing (delayed writes survive close);
    the reader's open recalls them — close-to-open via server pull."""
    kw = world.clients[0].kernel
    kr = world.clients[1].kernel
    runner.run(write_file(kw, "/data/f", b"delayed data"))
    writes_before_recall = world.rpc("lease.write", 0)
    assert runner.run(read_file(kr, "/data/f")) == b"delayed data"
    assert world.vacates_sent() == 1
    # the recall (not the writer's close) flushed the dirty blocks
    assert world.rpc("lease.write", 0) > writes_before_recall


def test_writer_keeps_cache_after_downgrade(runner, world):
    """A reader's open downgrades the writer (writeback, no
    invalidate): the writer's next read is still free."""
    kw = world.clients[0].kernel
    kr = world.clients[1].kernel
    runner.run(write_file(kw, "/data/f", b"shared"))
    runner.run(read_file(kr, "/data/f"))
    reads_before = world.rpc("lease.read", 0)
    assert runner.run(read_file(kw, "/data/f")) == b"shared"
    assert world.rpc("lease.read", 0) == reads_before


def test_expired_read_lease_needs_no_recall(runner, world):
    """The NQNFS economy: a write grant skips vacate callbacks to
    read holders whose leases already lapsed."""
    kw = world.clients[0].kernel
    kr = world.clients[1].kernel
    runner.run(write_file(kw, "/data/f", b"v1"))
    runner.run(read_file(kr, "/data/f"))
    vacates = world.vacates_sent()  # reader's open recalled the writer
    world.wait(DEFAULT_LEASE_TERM + 1.0)  # reader's lease lapses
    runner.run(write_file(kw, "/data/f", b"v2"))
    assert world.vacates_sent() == vacates  # no callback to the reader
    # and the reader still sees fresh data (its lapsed lease forces
    # revalidation on the next open)
    assert runner.run(read_file(kr, "/data/f")) == b"v2"


def test_expired_write_lease_still_recalled(runner, world):
    """A lapsed *write* lease is recalled anyway: the holder may sit
    on delayed writes worth saving."""
    kw = world.clients[0].kernel
    kr = world.clients[1].kernel
    runner.run(write_file(kw, "/data/f", b"sleepy writer"))
    world.wait(DEFAULT_LEASE_TERM + 1.0)
    assert runner.run(read_file(kr, "/data/f")) == b"sleepy writer"
    assert world.vacates_sent() == 1


def test_crashed_client_needs_no_recovery(runner, world):
    """Leases ARE the recovery story: a dead writer's claim simply
    expires, and the vacate attempt failing forfeits it — no §2.4
    grace period, no state rebuild."""
    kw = world.clients[0].kernel
    kr = world.clients[1].kernel
    runner.run(write_file(kw, "/data/f", b"doomed"))
    runner.run(read_file(kr, "/data/f"))  # recall drains the writer first
    world.clients[0].crash()
    world.wait(DEFAULT_LEASE_TERM + 1.0)
    # the survivor can still open for write; the dead host's lease is
    # gone (expired read lease: not even a callback is attempted)
    runner.run(write_file(kr, "/data/f", b"alive"))
    assert runner.run(read_file(kr, "/data/f")) == b"alive"
    assert world.server.lease_count() >= 1  # the survivor's lease


def test_server_lease_state_is_time_bounded(runner, world):
    """Unlike the SNFS state table, lease state evaporates: after one
    term of silence the server tracks nothing live."""
    k = world.clients[0].kernel
    runner.run(write_file(k, "/data/f", b"x"))
    assert world.server.lease_count() == 1
    world.wait(DEFAULT_LEASE_TERM + 1.0)
    assert world.server.lease_count() == 0


def test_remove_drops_lease_state(runner, world):
    k = world.clients[0].kernel
    runner.run(write_file(k, "/data/f", b"x"))

    def rm():
        yield from k.unlink("/data/f")

    runner.run(rm())
    assert world.server.lease_count() == 0
