"""Sharded multi-server testbeds: N servers, M clients, one namespace.

The single-server beds (:mod:`repro.experiments.cluster`,
:mod:`repro.experiments.resilience`) hit the paper's wall: every byte
and every lookup funnels through one server CPU.  A
:class:`ShardedBed` splits the exported tree across ``n_shards``
independent servers with a :class:`~repro.proto.shard.ShardMap`, and
every client mounts one :class:`~repro.vfs.ShardedMount` facade at
``/data`` — same tree, N machines behind it.

Per-shard consistency state needs no new protocol code: each shard is
a complete server instance (its own SNFS state table, lease table,
boot epoch, and grace period) talking to per-shard client mounts that
share the host's buffer cache, fd table, and one DNLC.  Crashing one
shard therefore runs that shard's recovery protocol (reclaim against
the rebooted instance) while the other shards never see an
unavailable server.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..faults import ConsistencyOracle, FaultInjector
from ..host import Host, HostConfig
from ..net import Network, NetworkConfig
from ..proto.registry import drive, drive_all, make_mount, make_server, spec
from ..proto.shard import ShardMap
from ..sim import Simulator
from ..vfs import MountTable, ShardedMount

__all__ = ["ShardedBed", "build_sharded_cluster"]


@dataclass
class ShardedBed:
    """N shard servers, M clients, one sharded namespace at /data."""

    sim: Simulator
    network: Network
    protocol: str
    shard_map: ShardMap
    server_hosts: List[Host]
    servers: List[Any]
    client_hosts: List[Host] = field(default_factory=list)
    #: per-client ShardedMount facade, index-aligned with client_hosts
    namespaces: List[ShardedMount] = field(default_factory=list)
    oracle: Optional[ConsistencyOracle] = None
    injector: Optional[FaultInjector] = None

    @property
    def kernels(self):
        return [host.kernel for host in self.client_hosts]

    @property
    def n_shards(self) -> int:
        return len(self.server_hosts)

    def shard_mounts(self, shard: int) -> List[Any]:
        """Every client's protocol mount for one shard."""
        return [ns.table.mounts()[shard] for ns in self.namespaces]

    def run(self, coro, limit: float = 1e7):
        """Drive one coroutine to completion (daemons keep running)."""
        return drive(self.sim, coro, limit, "workload")

    def run_all(self, *coros, limit: float = 1e7):
        """Drive several coroutines concurrently to completion."""
        return drive_all(self.sim, coros, limit)

    # -- failover helpers ---------------------------------------------------

    def crash_shard(self, shard: int) -> None:
        """Power-fail one shard server; the others keep serving."""
        self.server_hosts[shard].crash()

    def reboot_shard(self, shard: int) -> None:
        self.server_hosts[shard].reboot()

    def boot_epochs(self) -> List[int]:
        """Per-shard server boot epochs — a healthy shard's is stable
        across another shard's crash/recovery."""
        return [host.rpc.boot_epoch for host in self.server_hosts]

    # -- measurement ---------------------------------------------------------

    def total_rpcs_per_server(self) -> Dict[str, int]:
        return {
            host.name: host.rpc.server_stats.total()
            + host.rpc.client_stats.total()
            for host in self.server_hosts
        }

    def final_checks(self) -> None:
        """Flush live clients, then the oracle's end-of-run checks —
        state agreement runs per shard against that shard's mounts."""
        if self.oracle is None:
            return
        for host in self.client_hosts:
            if not host.crashed:
                self.run(host.kernel.sync())
        if spec(self.protocol).has_open_state_table:
            for shard, server in enumerate(self.servers):
                self.oracle.check_state_agreement(
                    server, self.shard_mounts(shard)
                )
        self.oracle.check_lost_acked_writes()


def build_sharded_cluster(
    protocol: str,
    n_shards: int,
    n_clients: int,
    strategy: str = "hash",
    assignments: Optional[Dict[str, int]] = None,
    client_config=None,
    host_config: Optional[HostConfig] = None,
    server_config: Optional[HostConfig] = None,
    network_config: Optional[NetworkConfig] = None,
    seed: Optional[int] = None,
    with_oracle: bool = False,
    max_open_files: Optional[int] = None,
) -> ShardedBed:
    """Build ``n_shards`` servers and ``n_clients`` hosts that each see
    one sharded tree at ``/data``.

    Shard ``k`` is served by host ``server{k}`` exporting
    ``exportfs{k}``; each client host attaches one protocol mount per
    shard (all sharing the client's DNLC, buffer cache, and fd table)
    behind a :class:`~repro.vfs.ShardedMount`.  ``with_oracle`` wires a
    :class:`ConsistencyOracle` over every kernel and shard server plus
    a :class:`FaultInjector` whose targets include every host, for
    failover experiments.
    """
    shard_map = ShardMap(n_shards, strategy=strategy, assignments=assignments)
    sim = Simulator()
    net_cfg = network_config or NetworkConfig()
    if seed is not None:
        net_cfg = dataclasses.replace(net_cfg, seed=seed)
    network = Network(sim, net_cfg)

    if max_open_files is None:
        max_open_files = max(4000, 64 * n_clients)
    server_hosts: List[Host] = []
    servers: List[Any] = []
    for k in range(n_shards):
        shost = Host(
            sim,
            network,
            "server%d" % k,
            server_config or HostConfig.titan_server(),
            seed=None if seed is None else seed + 1000 + k,
        )
        export = shost.add_local_fs("/export", fsid="exportfs%d" % k)
        server = make_server(protocol, shost, export, max_open_files)
        shost.update_daemon.start()
        server_hosts.append(shost)
        servers.append(server)

    bed = ShardedBed(
        sim=sim,
        network=network,
        protocol=protocol,
        shard_map=shard_map,
        server_hosts=server_hosts,
        servers=servers,
    )

    for i in range(n_clients):
        host = Host(
            sim,
            network,
            "client%d" % i,
            host_config or HostConfig.titan_client(),
            seed=None if seed is None else seed + i + 1,
        )
        mounts = []
        dnlc = None  # first shard mount creates it; the rest share it
        for k in range(n_shards):
            client = make_mount(
                protocol, "%s:m%ds%d" % (protocol, i, k),
                host, "server%d" % k, client_config, dnlc,
            )
            dnlc = client.dnlc
            drive(sim, client.attach())
            mounts.append(client)
        ns = ShardedMount(
            "%s:shardns%d" % (protocol, i), MountTable(shard_map, mounts)
        )
        host.kernel.mount("/data", ns)
        host.update_daemon.start()
        bed.client_hosts.append(host)
        bed.namespaces.append(ns)

    if with_oracle:
        bed.oracle = ConsistencyOracle()
        for host in bed.client_hosts:
            bed.oracle.watch_kernel(host.kernel)
        for server in servers:
            bed.oracle.watch_server(server)
        disks = {}
        targets: Dict[str, object] = {}
        for host in server_hosts + bed.client_hosts:
            targets[host.name] = host
            for disk in host.disks.values():
                disks[disk.name] = disk
        bed.injector = FaultInjector(
            sim, network=network, disks=disks, targets=targets
        )
    return bed

