"""Tests for the consistent directory-entry cache (§7 extension).

Unlike the TTL name cache, this one is exact: cached translations live
forever and the server invalidates them by callback whenever the
directory's namespace changes.
"""

import pytest

from repro.fs import NoSuchFile, OpenMode
from repro.snfs import SPROC, SnfsClientConfig
from tests.snfs.conftest import SnfsWorld, read_file, write_file


CFG = SnfsClientConfig(consistent_dir_cache=True)


@pytest.fixture
def world(runner):
    return SnfsWorld(runner, client_config=CFG)


@pytest.fixture
def world2(runner):
    return SnfsWorld(runner, n_clients=2, client_config=CFG)


def test_repeat_lookups_cost_nothing_forever(runner, world):
    k = world.client.kernel

    def scenario():
        yield from write_file(k, "/data/f", b"x")
        yield from k.stat("/data/f")
        before = world.client_rpc_count(SPROC.LOOKUP)
        # far beyond any TTL: entries never expire on their own
        yield runner.sim.timeout(10_000.0)
        for _ in range(10):
            yield from k.stat("/data/f")
        return world.client_rpc_count(SPROC.LOOKUP) - before

    assert runner.run(scenario()) == 0


def test_remote_unlink_invalidates_cached_name(runner, world2):
    """Client 1 caches a translation; client 0 removes the file; the
    server's name-invalidation callback keeps client 1 correct."""
    k0 = world2.clients[0].kernel
    k1 = world2.clients[1].kernel

    def scenario():
        yield from write_file(k0, "/data/f", b"x")
        yield from k1.stat("/data/f")  # client 1 caches the name
        yield from k0.unlink("/data/f")
        # client 1's next stat must miss its cache and see NoSuchFile
        with pytest.raises(NoSuchFile):
            yield from k1.stat("/data/f")

    runner.run(scenario())
    assert world2.server_host.rpc.client_stats.get(SPROC.CALLBACK) >= 1


def test_remote_rename_invalidates_both_names(runner, world2):
    k0 = world2.clients[0].kernel
    k1 = world2.clients[1].kernel

    def scenario():
        yield from write_file(k0, "/data/old", b"content")
        yield from k1.stat("/data/old")
        yield from k0.rename("/data/old", "/data/new")
        with pytest.raises(NoSuchFile):
            yield from k1.stat("/data/old")
        data = yield from read_file(k1, "/data/new")
        return data

    assert runner.run(scenario()) == b"content"


def test_own_mutations_keep_own_cache_consistent(runner, world):
    """The mutating client purges locally and is not called back."""
    k = world.client.kernel

    def scenario():
        yield from write_file(k, "/data/f", b"x")
        yield from k.stat("/data/f")
        yield from k.unlink("/data/f")
        with pytest.raises(NoSuchFile):
            yield from k.stat("/data/f")

    runner.run(scenario())
    assert world.server_host.rpc.client_stats.get(SPROC.CALLBACK) == 0


def test_dir_cache_reduces_andrew_lookups_with_exact_consistency():
    from repro.experiments import run_andrew
    from repro.workloads import make_tree

    tree = make_tree(n_dirs=1, files_per_dir=6)
    base = run_andrew("snfs", remote_tmp=True, tree=tree)
    cached = run_andrew("snfs", remote_tmp=True, tree=tree, client_config=CFG)
    assert cached.rpc_rows["lookup"] < base.rpc_rows["lookup"] * 0.6
    assert cached.result.total <= base.result.total


def test_dir_cache_cleared_by_server_recovery(runner, world):
    k = world.client.kernel

    def scenario():
        yield from write_file(k, "/data/f", b"x")
        yield from k.stat("/data/f")
        world.server.crash()
        yield runner.sim.timeout(1.0)
        world.server.reboot()
        # next access triggers recovery; the name cache must be dropped
        # (the rebooted server no longer knows we cache translations)
        data = yield from read_file(k, "/data/f")
        return data, len(world.mount.dnlc)

    data, cache_size_probe = runner.run(scenario(), limit=10000.0)
    assert data == b"x"
