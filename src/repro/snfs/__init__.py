"""Spritely NFS: the paper's contribution — NFS with Sprite consistency."""

from .client import SnfsClient, SnfsClientConfig
from .hybrid import HybridServer
from .protocol import SPROC
from .recovery import ServerRecovering
from .server import OpenReply, SnfsServer
from .state_table import (
    Callback,
    FileEntry,
    FileState,
    OpenGrant,
    StateTable,
    StateTableFull,
)

__all__ = [
    "SnfsServer",
    "HybridServer",
    "ServerRecovering",
    "SnfsClient",
    "SnfsClientConfig",
    "SPROC",
    "OpenReply",
    "StateTable",
    "FileState",
    "FileEntry",
    "OpenGrant",
    "Callback",
    "StateTableFull",
]
