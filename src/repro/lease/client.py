"""The lease-protocol client: NQNFS-style time-bounded cachability.

A file may be cached (and delayed-write buffered) only while a lease
on it is unexpired.  Where SNFS pays an open *and* a close RPC per
file use, the lease client pays one ``lease.open`` when it has no
usable lease and **nothing at all** while the lease is good — close
does not even go to the wire, and the cache (including delayed dirty
data) survives close, to be recalled by the server if anyone else
opens the file.  A lapsed lease is re-upped for free by the renewal
piggybacked on the next getattr, so steady-state revalidation costs
what an NFS attribute probe costs — but yields Sprite-grade
consistency, because the server recalls conflicting leases before
granting new ones.
"""

from __future__ import annotations

from typing import Optional

from ..fs import NoSuchFile, StaleHandle
from ..fs.types import FileAttr, FileHandle, OpenMode
from ..proto import ConsistencyPolicy, RemoteFsClient, RemoteFsConfig
from ..vfs import Gnode
from .server import LPROC

__all__ = ["LeaseClient", "LeasePolicy"]


class LeasePolicy(ConsistencyPolicy):
    """Cache while the lease lasts; the server recalls conflicts."""

    flush_in_block_order = True  # delayed writes, flushed like SNFS
    crash_recovery = True  # reclaim() re-requests leases after a server reboot

    def __init__(self, client):
        super().__init__(client)
        self._reclaimed_epoch: Optional[int] = None

    def push_procs(self):
        return {LPROC.VACATE: "serve_vacate"}

    # -- server-crash recovery: flush and forget ----------------------------

    def reclaim(self, recovering):
        """The rebooted server is refusing new leases until every
        pre-crash lease has lapsed.  Our part of the bargain (NQNFS's
        write_slack): land delayed writes *now*, while the recovery
        window holds conflicting opens at bay, and forget lease state
        the server no longer remembers — the next open revalidates
        against the rebuilt version numbers.  Once per boot epoch.
        """
        c = self.client
        if self._reclaimed_epoch == recovering.epoch:
            return
        self._reclaimed_epoch = recovering.epoch
        for key in sorted(c._gnodes):
            g = c._gnodes[key]
            yield from c._flush_dirty(g)
            g.private["lease_mode"] = None

    # -- lease state (all soft: it lives in g.private and expires) ----------

    def _lease_valid(self, g: Gnode, write: bool) -> bool:
        mode = g.private.get("lease_mode")
        if mode is None or (write and mode != "write"):
            return False
        return self.client.sim.now < g.private.get("lease_expiry", 0.0)

    def _absorb_renewal(self, g: Gnode, expiry, version: int) -> bool:
        """Fold a getattr-piggybacked renewal into our lease state."""
        if expiry is None or g.private.get("lease_mode") is None:
            return False
        if version != g.private.get("lease_version"):
            # someone write-opened since we cached: drop the data
            self.client.cache.invalidate_file(g.cache_key)
            g.private["lease_version"] = version
        g.private["lease_expiry"] = expiry
        return True

    def validate_cache(self, g: Gnode, version: int, prev_version: int, write: bool) -> None:
        """The §3.1 rule, verbatim: cached data is valid when its
        version matches, or — for a writer — matches ``prev_version``
        (the bump the server just made was for *our* open)."""
        cached = g.private.get("lease_version")
        if not (cached == version or (write and cached == prev_version)):
            self.client.cache.invalidate_file(g.cache_key)
        g.private["lease_version"] = version

    def _ensure_lease(self, g: Gnode, write: bool):
        """Coroutine: end holding a lease sufficient for ``write``."""
        c = self.client
        if self._lease_valid(g, write):
            return
        mode = g.private.get("lease_mode")
        if mode is not None and (mode == "write" or not write):
            # lapsed but never recalled: a getattr renewal usually
            # re-ups it (the common case when nobody else is writing)
            attr, expiry, version = yield from c._call(c.PROC.GETATTR, g.fid)
            self.store_attr(g, attr)
            if self._absorb_renewal(g, expiry, version):
                return
        expiry, version, prev_version, attr = yield from c._call(
            c.PROC.OPEN, g.fid, write
        )
        self.validate_cache(g, version, prev_version, write)
        g.private["lease_mode"] = "write" if write else "read"
        g.private["lease_expiry"] = expiry
        self.store_attr(g, attr)

    # -- the server recalls us ----------------------------------------------

    def serve_vacate(self, fh: FileHandle, writeback: bool, invalidate: bool):
        """A conflicting open: flush delayed writes back and drop the
        lease (full recall) or keep the cache read-only (downgrade)."""
        c = self.client
        g = c._gnodes.get(fh.key())
        if g is None:
            return None
        if writeback:
            yield from c._flush_dirty(g)
        if invalidate:
            c.cache.invalidate_file(g.cache_key)
            g.private["lease_mode"] = None
        elif g.private.get("lease_mode") == "write":
            g.private["lease_mode"] = "read"
        return None

    # -- attribute handling --------------------------------------------------

    def store_attr(self, g: Gnode, attr: FileAttr) -> None:
        """Keep the local view ahead of the server's while we hold
        delayed writes (same reasoning as the SNFS policy)."""
        c = self.client
        local = g.private.get("attr")
        if local is not None and c.cache.dirty_buffers(file_key=g.cache_key):
            attr = attr.copy()
            attr.size = max(attr.size, local.size)
            attr.mtime = max(attr.mtime, local.mtime)
        g.private["attr"] = attr
        g.private["attr_time"] = c.sim.now

    absorb_attr = store_attr

    # -- open / close ---------------------------------------------------------

    def on_open(self, g: Gnode, mode: OpenMode):
        yield from self._ensure_lease(g, mode.is_write)

    def on_close(self, g: Gnode, mode: OpenMode):
        # nothing on the wire: the lease outlives the open, the cache
        # (delayed dirty data included) stays, and close-to-open
        # consistency is the server's job — it recalls us before
        # letting anyone else at the file
        return
        yield  # pragma: no cover

    # -- data -----------------------------------------------------------------

    def on_read(self, g: Gnode, offset: int, count: int):
        c = self.client
        yield from self._ensure_lease(g, write=False)
        attr = yield from self.on_getattr(g)
        data = yield from c.read_cached(g, offset, count, file_size=attr.size)
        return data

    def on_write(self, g: Gnode, offset: int, data: bytes):
        c = self.client
        yield from self._ensure_lease(g, write=True)
        attr = c._local_attr(g)
        bufs = yield from c.write_cached(
            g, offset, data, file_size=attr.size, mark_dirty=True
        )
        for buf in bufs:
            buf.tag = g
        c.bump_local_attr(g, offset + len(data), attr)

    def on_getattr(self, g: Gnode):
        c = self.client
        attr = g.private.get("attr")
        if attr is not None and self._lease_valid(g, write=False):
            return attr  # the lease *is* the freshness guarantee
        attr, expiry, version = yield from c._call(c.PROC.GETATTR, g.fid)
        self.store_attr(g, attr)
        self._absorb_renewal(g, expiry, version)
        return attr

    # -- mutation edges -------------------------------------------------------

    def on_truncate(self, g: Gnode) -> None:
        self.client.cache.cancel_dirty_file(g.cache_key)
        self.client.cache.invalidate_file(g.cache_key)

    def before_remove(self, g: Gnode):
        # delayed writes to a dying file are cancelled, like SNFS §2.2
        self.client.cache.cancel_dirty_file(g.cache_key)
        g.private["lease_mode"] = None
        return
        yield  # pragma: no cover

    def write_rpc(self, g: Gnode, bno: int, data: bytes):
        c = self.client
        try:
            attr = yield from c._call(
                c.PROC.WRITE, g.fid, bno * c.block_size, data, gnode=g
            )
        except (StaleHandle, NoSuchFile):
            return
        self.store_attr(g, attr)

    def on_host_crash(self) -> None:
        # the beauty of leases: nothing to do.  Our claims on the
        # server evaporate on their own when the terms run out.
        return


class LeaseClient(RemoteFsClient):
    """A remote mount cached under time-bounded leases."""

    PROC = LPROC
    policy_class = LeasePolicy

    @classmethod
    def default_config(cls) -> RemoteFsConfig:
        # no invalidate-on-close (the cache is lease-protected) and no
        # attribute probing (the lease is the freshness window)
        return RemoteFsConfig(invalidate_on_close=False)

