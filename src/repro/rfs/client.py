"""The RFS-style client (§2.5).

NFS write policy (write-through with async daemons, synchronous flush
on close) plus explicit opens/closes and server-pushed invalidations
instead of attribute probes — so the policy *extends* the NFS policy,
replacing only the consistency decisions.  Provides Sprite-grade
consistency at NFS-grade write cost — the paper's predicted "closer
to NFS" performance is what the ablation benchmarks verify.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..fs.types import FileHandle, OpenMode
from ..host import Host
from ..nfs.client import NfsPolicy
from ..proto import RemoteFsClient, RemoteFsConfig
from ..vfs import Gnode
from .server import RPROC

__all__ = ["RfsClient", "RfsPolicy"]


class RfsPolicy(NfsPolicy):
    """Write-through like NFS; invalidations instead of probes."""

    def push_procs(self):
        return {RPROC.INVALIDATE: "serve_invalidate"}

    def serve_invalidate(self, fh: FileHandle):
        """A writer changed the file: drop our cached copy."""
        c = self.client
        g = c._gnodes.get(fh.key())
        if g is not None:
            c.cache.invalidate_file(g.cache_key)
            g.private.pop("attr", None)
        return None
        yield  # pragma: no cover

    # -- open/close: explicit, with version validation ---------------------

    def validate_cache(self, g: Gnode, version: int) -> None:
        if g.private.get("rfs_version") != version:
            self.client.cache.invalidate_file(g.cache_key)
        g.private["rfs_version"] = version

    def on_open(self, g: Gnode, mode: OpenMode):
        c = self.client
        version, attr = yield from c._call(c.PROC.OPEN, g.fid, mode.is_write)
        self.validate_cache(g, version)
        c._note_server_attr(g, attr)

    def on_close(self, g: Gnode, mode: OpenMode):
        c = self.client
        # NFS write policy: finish pending write-throughs synchronously
        yield from c._flush_dirty(g)
        yield from c.host.async_writers.drain(g.cache_key)
        yield from c._call(c.PROC.CLOSE, g.fid, mode.is_write)

    # -- reads need no probes: the server invalidates us --------------------

    def on_read(self, g: Gnode, offset: int, count: int):
        c = self.client
        attr = g.private.get("attr")
        if attr is None:
            attr = yield from c._call(c.PROC.GETATTR, g.fid)
            c._note_server_attr(g, attr)
        data = yield from c.read_cached(g, offset, count, file_size=attr.size)
        return data

    def on_getattr(self, g: Gnode):
        c = self.client
        attr = g.private.get("attr")
        if attr is not None:
            return attr
        attr = yield from c._call(c.PROC.GETATTR, g.fid)
        c._note_server_attr(g, attr)
        return attr

    def write_rpc(self, g: Gnode, bno: int, data: bytes):
        """The write reply carries the file's new version: our cache is
        write-through (hence valid), so we track the version and keep
        the cache across the next reopen."""
        c = self.client
        attr, version = yield from c._call(
            c.PROC.WRITE, g.fid, bno * c.block_size, data
        )
        c._note_server_attr(g, attr)
        # async replies can arrive out of order: keep the highest
        g.private["rfs_version"] = max(version, g.private.get("rfs_version") or 0)


class RfsClient(RemoteFsClient):
    """A remote-mounted RFS filesystem on a client host."""

    PROC = RPROC
    policy_class = RfsPolicy

    def __init__(
        self,
        mount_id: str,
        host: Host,
        server_addr: str,
        config: Optional[RemoteFsConfig] = None,
        dnlc=None,
    ):
        # the invalidate-on-close bug is an Ultrix NFS artifact; RFS
        # keeps its cache (consistency comes from invalidations).  A
        # copy: an NFS mount sharing the caller's config keeps the bug
        config = dataclasses.replace(
            config or RemoteFsConfig(), invalidate_on_close=False
        )
        super().__init__(mount_id, host, server_addr, config=config, dnlc=dnlc)

