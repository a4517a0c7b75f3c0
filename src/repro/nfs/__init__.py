"""NFS: the stateless baseline protocol (client and server)."""

from .client import NfsClient, NfsClientConfig, era_nfs_config
from .protocol import DATA_TRANSFER_OPS, PROC, classify_ops, proc_basename
from .server import NfsServer

__all__ = [
    "NfsServer",
    "NfsClient",
    "NfsClientConfig",
    "era_nfs_config",
    "PROC",
    "classify_ops",
    "proc_basename",
    "DATA_TRANSFER_OPS",
]
