"""NQNFS-style lease consistency, built entirely on ``repro.proto``.

The protocol the refactor exists to enable: read/write leases with
server-driven recall and renewal piggybacked on getattr, written as
one policy class plus one server subclass — no changes to the core.
"""

from .client import LeaseClient, LeasePolicy
from .server import DEFAULT_LEASE_TERM, LPROC, LeaseServer

__all__ = [
    "DEFAULT_LEASE_TERM",
    "LPROC",
    "LeaseClient",
    "LeasePolicy",
    "LeaseServer",
]
