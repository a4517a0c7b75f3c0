"""Spritely NFS reproduction.

A from-scratch implementation of the systems in "Spritely NFS:
Experiments with Cache-Consistency Protocols" (Srinivasan & Mogul,
SOSP 1989): a discrete-event simulated distributed-systems substrate
(hosts, disks, a Unix-like local filesystem, an RPC network), the NFS
baseline protocol, the SNFS protocol with the Sprite consistency
mechanism, an RFS-style intermediate baseline, the paper's workloads,
and experiment harnesses for every table and figure.

Typical use::

    from repro import build_testbed, OpenMode

    bed = build_testbed("snfs", remote_tmp=True)
    k = bed.client.kernel

    def workload():
        fd = yield from k.open("/data/hello", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"cached, delayed, consistent")
        yield from k.close(fd)

    bed.run(workload())
"""

from .experiments import (
    PROTOCOLS,
    Testbed,
    andrew_table_5_1,
    andrew_table_5_2,
    build_testbed,
    consistency_table,
    figure_series,
    render_figure,
    run_andrew,
    run_consistency,
    run_sort,
    sort_table_5_3,
    sort_table_5_4,
    sort_table_5_5,
    sort_table_5_6,
)
from .fs import (
    FileAttr,
    FileHandle,
    FileType,
    FsError,
    LocalFileSystem,
    NoSuchFile,
    OpenMode,
    StaleHandle,
)
from .host import Host, HostConfig
from .net import Network, NetworkConfig, RpcConfig, RpcEndpoint
from .nfs import NfsClient, NfsClientConfig, NfsServer
from .kent import KentClient, KentServer
from .lease import LeaseClient, LeaseServer
from .proto import (
    ConsistencyPolicy,
    RemoteFsClient,
    RemoteFsConfig,
    RemoteFsServer,
)
from .lockd import LockClient, LockServer, LockTimeout
from .rfs import RfsClient, RfsServer
from .sim import Simulator
from .snfs import (
    FileState,
    SnfsClient,
    SnfsClientConfig,
    SnfsServer,
    StateTable,
)
from .storage import BufferCache, Disk, DiskConfig
from .workloads import (
    AndrewBenchmark,
    AndrewConfig,
    ExternalSort,
    SortConfig,
    make_input_records,
    make_tree,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation & substrate
    "Simulator",
    "Network",
    "NetworkConfig",
    "RpcEndpoint",
    "RpcConfig",
    "Disk",
    "DiskConfig",
    "BufferCache",
    "Host",
    "HostConfig",
    "LocalFileSystem",
    # filesystem types & errors
    "FileAttr",
    "FileHandle",
    "FileType",
    "OpenMode",
    "FsError",
    "NoSuchFile",
    "StaleHandle",
    # the protocol-agnostic remote-FS core
    "RemoteFsClient",
    "RemoteFsServer",
    "RemoteFsConfig",
    "ConsistencyPolicy",
    # protocols
    "NfsServer",
    "NfsClient",
    "NfsClientConfig",
    "SnfsServer",
    "SnfsClient",
    "SnfsClientConfig",
    "StateTable",
    "FileState",
    "RfsServer",
    "RfsClient",
    "KentServer",
    "KentClient",
    "LeaseServer",
    "LeaseClient",
    "LockServer",
    "LockClient",
    "LockTimeout",
    # workloads
    "AndrewBenchmark",
    "AndrewConfig",
    "ExternalSort",
    "SortConfig",
    "make_tree",
    "make_input_records",
    # experiments
    "build_testbed",
    "Testbed",
    "PROTOCOLS",
    "run_andrew",
    "run_sort",
    "run_consistency",
    "andrew_table_5_1",
    "andrew_table_5_2",
    "sort_table_5_3",
    "sort_table_5_4",
    "sort_table_5_5",
    "sort_table_5_6",
    "figure_series",
    "render_figure",
    "consistency_table",
]
