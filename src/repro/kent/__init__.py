"""Kent's block-granularity consistency scheme (§2.5 related work)."""

from .client import KentClient
from .server import BlockToken, KPROC, KentServer

__all__ = ["KentServer", "KentClient", "KPROC", "BlockToken"]
