"""RFS-style baseline: write-through with server-pushed invalidations."""

from .client import RfsClient
from .server import RPROC, RfsServer

__all__ = ["RfsServer", "RfsClient", "RPROC"]
