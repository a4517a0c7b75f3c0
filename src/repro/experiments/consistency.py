"""The §2.3 correctness experiment: stale reads under write-sharing.

NFS "provides consistency as long as no client writes a file while
another client has the file open" — here a client does exactly that,
and we count how often a concurrent reader observes stale data under
each protocol.  SNFS (and RFS) must show zero stale reads; NFS shows a
stale window bounded by its attribute-probe interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..host import Host, HostConfig
from ..metrics import format_table
from ..net import Network
from ..proto.registry import drive, make_mount, make_server, wait_all
from ..sim import Simulator
from ..workloads import SharingResult, run_sharing_experiment

__all__ = ["ConsistencyOutcome", "run_consistency", "consistency_table"]


@dataclass
class ConsistencyOutcome:
    protocol: str
    result: SharingResult
    #: wire traffic for the whole run: every client call plus every
    #: server->client push (callbacks, invalidations, revokes, vacates),
    #: excluding mount-time setup — the cost of the consistency guarantee
    rpc_calls: int = 0

    @property
    def total(self) -> int:
        return self.result.total_reads

    @property
    def stale(self) -> int:
        return self.result.stale_reads


def run_consistency(
    protocol: str,
    n_updates: int = 20,
    write_period: float = 4.0,
    read_period: float = 1.0,
) -> ConsistencyOutcome:
    """Two clients write-share one file under the given protocol."""
    sim = Simulator()
    network = Network(sim)
    server_host = Host(sim, network, "server", HostConfig.titan_server())
    export = server_host.add_local_fs("/export", fsid="exportfs")
    make_server(protocol, server_host, export)

    hosts = []
    for i in range(2):
        host = Host(sim, network, "client%d" % i, HostConfig.titan_client())
        client = make_mount(protocol, "m%d" % i, host, "server")
        drive(sim, client.attach())
        host.kernel.mount("/data", client)
        hosts.append(host)

    writer_proc, reader_proc, result = run_sharing_experiment(
        sim,
        hosts[0].kernel,
        hosts[1].kernel,
        "/data/shared",
        n_updates=n_updates,
        write_period=write_period,
        read_period=read_period,
    )
    wait_all(sim, [writer_proc, reader_proc])
    rpc_calls = 0
    for host in hosts + [server_host]:
        for name, count in sorted(host.rpc.client_stats.as_dict().items()):
            if not name.endswith(".mnt"):
                rpc_calls += count
    return ConsistencyOutcome(protocol=protocol, result=result, rpc_calls=rpc_calls)


def consistency_table(protocols=("nfs", "rfs", "snfs", "kent", "lease")) -> Tuple[str, List[ConsistencyOutcome]]:
    outcomes = [run_consistency(p) for p in protocols]
    headers = ["Protocol", "Reads", "Stale reads", "Stale %"]
    rows = [
        [
            o.protocol.upper(),
            str(o.total),
            str(o.stale),
            "%.1f%%" % (100.0 * o.result.stale_fraction),
        ]
        for o in outcomes
    ]
    table = format_table(
        headers,
        rows,
        title="Consistency under concurrent write-sharing (§2.3): stale reads",
    )
    return table, outcomes
