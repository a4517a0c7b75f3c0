"""The unified mount configuration (repro.proto.config).

One layered dataclass now covers every protocol; the old per-protocol
config classes are aliases of it, so existing call sites (and pickled
experiment configs) keep working.
"""

from repro.nfs import NfsClientConfig
from repro.proto import RemoteFsConfig
from repro.snfs import SnfsClientConfig


def test_old_config_names_are_aliases():
    assert NfsClientConfig is RemoteFsConfig
    assert SnfsClientConfig is RemoteFsConfig


def test_defaults_cover_every_layer():
    cfg = RemoteFsConfig()
    # attribute-cache layer (§2.1)
    assert cfg.attr_min_interval == 3.0
    assert cfg.attr_max_interval == 150.0
    assert cfg.getattr_on_open
    # write-policy layer
    assert cfg.async_writes
    assert not cfg.write_through
    assert cfg.cancel_on_delete
    # the Ultrix client bug (§5.2) is on by default for fidelity
    assert cfg.invalidate_on_close
    # name-cache layer: off (Table 5-2's lookup traffic depends on it)
    assert cfg.name_cache_ttl == 0.0
    assert not cfg.consistent_dir_cache
    # delayed close (§6.2): off by default
    assert not cfg.delayed_close
    assert cfg.delayed_close_timeout == 180.0


def test_protocols_layer_their_own_defaults():
    from repro.kent import KentClient
    from repro.lease import LeaseClient

    # token/lease consistency protects the cache across closes, so
    # these protocols drop the NFS invalidate-on-close artifact
    assert not KentClient.default_config().invalidate_on_close
    assert not LeaseClient.default_config().invalidate_on_close
    # but everything else stays at the shared baseline
    assert KentClient.default_config().attr_min_interval == 3.0


def test_rfs_forces_invalidate_on_close_off(runner):
    """RFS consistency comes from server invalidations; the client
    must override the bug even in a caller-supplied config."""
    from repro.host import Host, HostConfig
    from repro.net import Network
    from repro.rfs import RfsClient, RfsServer

    sim = runner.sim
    net = Network(sim)
    server_host = Host(sim, net, "server", HostConfig.titan_server())
    export = server_host.add_local_fs("/export", fsid="exportfs")
    RfsServer(server_host, export)
    client_host = Host(sim, net, "c", HostConfig.titan_client())
    cfg = RemoteFsConfig(invalidate_on_close=True)
    client = RfsClient("m", client_host, "server", config=cfg)
    assert not client.config.invalidate_on_close


def test_one_config_drives_any_protocol(runner):
    """The same config object mounts NFS and SNFS: the union dataclass
    replaced the two diverging per-protocol ones."""
    from repro.host import Host, HostConfig
    from repro.net import Network
    from repro.nfs import NfsClient, NfsServer
    from repro.snfs import SnfsClient, SnfsServer

    sim = runner.sim
    net = Network(sim)
    nfs_host = Host(sim, net, "nfs-srv", HostConfig.titan_server())
    NfsServer(nfs_host, nfs_host.add_local_fs("/export", fsid="nfsfs"))
    snfs_host = Host(sim, net, "snfs-srv", HostConfig.titan_server())
    SnfsServer(snfs_host, snfs_host.add_local_fs("/export", fsid="snfsfs"))

    cfg = RemoteFsConfig(name_cache_ttl=30.0, async_writes=False)
    client_host = Host(sim, net, "c", HostConfig.titan_client())
    nfs = NfsClient("m1", client_host, "nfs-srv", config=cfg)
    snfs = SnfsClient("m2", client_host, "snfs-srv", config=cfg)
    runner.run(nfs.attach())
    runner.run(snfs.attach())
    assert nfs.config is cfg and snfs.config is cfg
    assert nfs.dnlc.enabled and snfs.dnlc.enabled


def test_rfs_copies_the_callers_config(runner):
    """A config shared with an NFS mount keeps the invalidate-on-close
    bug: RFS turns it off in its own copy, not in the caller's object."""
    from repro.host import Host, HostConfig
    from repro.net import Network
    from repro.rfs import RfsClient

    cfg = RemoteFsConfig(name_cache_ttl=30.0)
    host = Host(runner.sim, Network(runner.sim), "c", HostConfig.titan_client())
    client = RfsClient("m", host, "server", config=cfg)
    assert cfg.invalidate_on_close
    assert client.config is not cfg
    assert not client.config.invalidate_on_close
    assert client.config.name_cache_ttl == 30.0


def test_era_nfs_config_is_fresh_per_call():
    """Mounts read their config live, so each caller gets its own."""
    from repro.nfs import era_nfs_config

    a, b = era_nfs_config(), era_nfs_config()
    assert a is not b and a == b
    assert not a.getattr_on_open and not a.invalidate_on_close
    assert a.name_cache_ttl == 30.0
