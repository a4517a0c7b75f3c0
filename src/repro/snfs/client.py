"""The SNFS client (§4.2): explicit consistency instead of probes.

A :class:`~repro.proto.ConsistencyPolicy` over the shared
:class:`~repro.proto.RemoteFsClient` core.  Differences from the NFS
policy:

* ``open`` sends the SNFS open RPC; the reply's version numbers decide
  whether the client's cached blocks survive ("a client's cache is
  valid if the latest version number matches the version of the cached
  copy; if the client is opening the file for write, its cache is also
  valid if it matches the previous version number", §3.1).
* **Delayed writes** (§4.2.3): writes dirty the cache and return; data
  reaches the server on eviction, fsync, the 30-second update sync —
  or never, if the file is deleted first (delayed-write cancellation).
* ``close`` notifies the server and *keeps* the cache: no synchronous
  flush, no invalidate-on-close.
* No attribute probes: a cachable file's attributes need no refresh;
  a non-cachable (write-shared) file always fetches attributes from
  the server (§4.2.1).
* Non-cachable files bypass the cache entirely — reads and writes go
  straight to the server, and read-ahead is disabled (§4.2.1).
* The client services the server's ``callback`` RPC: write back dirty
  blocks and/or invalidate and stop caching (§4.2.2).

The §6.2 extension — **delayed close** — is implemented behind a config
flag: closes are withheld in anticipation of a re-open; a callback for
a delayed-close file relinquishes it first.
"""

from __future__ import annotations

from typing import List, Optional

from ..fs import NoSuchFile, StaleHandle
from ..fs.types import FileAttr, FileHandle, OpenMode
from ..host import Host
from ..proto import ConsistencyPolicy, RemoteFsClient, RemoteFsConfig
from ..sim import Interrupt
from ..vfs import Gnode
from .protocol import SPROC
from .recovery import ReopenRejected, ServerRecovering
from .server import OpenReply

__all__ = ["SnfsClient", "SnfsClientConfig", "SnfsPolicy", "mount_snfs"]

#: unified layered config (see repro.proto.config); kept as an alias
SnfsClientConfig = RemoteFsConfig


class SnfsPolicy(ConsistencyPolicy):
    """The Sprite consistency mechanism grafted onto NFS (§4)."""

    flush_in_block_order = True  # whole-file delayed-write flushes
    crash_recovery = True  # reclaim() reasserts opens during the grace period

    def __init__(self, client):
        super().__init__(client)
        self._recovered_epoch: Optional[int] = None

    def push_procs(self):
        return {
            SPROC.CALLBACK: "serve_callback",
            SPROC.KEEPALIVE: "serve_keepalive",
        }

    # -- server-crash recovery (§2.4) --------------------------------------

    def reclaim(self, recovering: ServerRecovering):
        """Reassert our open/dirty state with a bulk ``reopen``.

        Runs from the base policy's retry loop when a call bounces off
        a recovering server.  At most one report per server boot epoch;
        the server's verdict may reject individual claims, in which
        case the base loop aborts in-flight calls on those files with
        :class:`ReopenRejected` instead of pushing stale data over
        newer state.
        """
        c = self.client
        if self._recovered_epoch != recovering.epoch:
            report = self.open_state_report()
            reply = yield from c.rpc.call(
                c.server, c.PROC.REOPEN, report, hard=True
            )
            self._handle_reopen_reply(reply)
            self._recovered_epoch = recovering.epoch  # lint: ok=ATOM001 — idempotent: a duplicate REOPEN for the same epoch reasserts identical state
            # the rebooted server lost its record of our cached
            # name translations: drop them
            c.dnlc.clear()

    def _handle_reopen_reply(self, reply) -> None:
        """Apply the server's verdict on our reasserted claims."""
        c = self.client
        if isinstance(reply, tuple):
            _epoch, rejected = reply
        else:
            rejected = []  # plain-epoch reply (older server)
        for fh in rejected:
            g = c._gnodes.get(fh.key())
            if g is None:
                continue
            # our claim lost to state established while we were cut
            # off: the cached copy is stale and any dirty delayed
            # writes must not reach the server
            c.cache.cancel_dirty_file(g.cache_key)
            c.cache.invalidate_file(g.cache_key)
            g.private["cache_enabled"] = False
            g.private.pop("version", None)
            g.private["inconsistent"] = True
            g.private["reopen_rejected"] = True

    # -- callback service (§4.2.2) -----------------------------------------

    def serve_keepalive(self):
        """Answer the server's liveness probe (dead-client sweep)."""
        return True
        yield  # pragma: no cover

    def serve_callback(
        self,
        fh: FileHandle,
        writeback: bool,
        invalidate: bool,
        invalidate_names: bool = False,
    ):
        """Perform the callback actions for one file (§4.2.2)."""
        c = self.client
        if invalidate_names:
            # §7: the directory's namespace changed at the server
            c.dnlc.purge_dir(fh.key())
        g = c._gnodes.get(fh.key())
        if g is None:
            return None  # nothing known about this file
        if writeback:
            tracer = c.sim.tracer
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "snfs.writeback", cat="snfs", track=c.host.name,
                    file=str(fh.key()),
                )
            try:
                yield from c._flush_dirty(g)
            finally:
                if span is not None:
                    tracer.end(span)
        if invalidate:
            c.cache.invalidate_file(g.cache_key)
            g.private["cache_enabled"] = False
        if g.private.get("pending_closes"):
            # §6.2: a delayed-close file got a callback — relinquish it.
            # The close RPCs must go out *after* this callback returns:
            # the server is waiting on us while holding the file's
            # lock, so a synchronous close here is exactly the deadlock
            # the paper says its state assignment would hit ("would
            # have to be changed to support delayed close without
            # deadlocking", §4.3.4).
            c.sim.spawn(
                self._send_pending_closes(g), name="relinquish-delayed-close"
            )
        return None

    # -- cache validity ----------------------------------------------------

    def validate_cache(self, g: Gnode, reply: OpenReply, write: bool) -> None:
        c = self.client
        cached_version = g.private.get("version")
        valid = cached_version == reply.version or (
            write and cached_version == reply.prev_version
        )
        if not valid:
            c.cache.invalidate_file(g.cache_key)
        g.private["version"] = reply.version
        if not reply.cache_enabled:
            c.cache.invalidate_file(g.cache_key)
        g.private["cache_enabled"] = reply.cache_enabled
        g.private["inconsistent"] = reply.inconsistent
        self._store_attr_snfs(g, reply.attr)

    def _store_attr_snfs(self, g: Gnode, attr: FileAttr) -> None:
        # While delayed writes are pending, the client's view of the
        # file (size, mtime) is *ahead* of the server's: keep it.  A
        # block mid-writeback is busy, not dirty, but its data still
        # hasn't reached the server — adopting the server's (smaller)
        # size in that window would make reads see a truncated file.
        c = self.client
        local = g.private.get("attr")
        if local is not None and c.cache.has_pending(g.cache_key):
            attr = attr.copy()
            attr.size = max(attr.size, local.size)
            attr.mtime = max(attr.mtime, local.mtime)
        g.private["attr"] = attr
        g.private["attr_time"] = c.sim.now

    def store_attr(self, g: Gnode, attr: FileAttr) -> None:
        """SNFS consistency comes from version numbers, never from
        mtime comparisons — an mtime-based invalidation here could
        destroy pending delayed writes."""
        self._store_attr_snfs(g, attr)

    def absorb_attr(self, g: Gnode, attr: FileAttr) -> None:
        self._store_attr_snfs(g, attr)

    def _cachable(self, g: Gnode) -> bool:
        return bool(g.private.get("cache_enabled", True))

    # -- open / close ------------------------------------------------------

    def on_open(self, g: Gnode, mode: OpenMode):
        """Send (or satisfy locally, §6.2) the SNFS open."""
        c = self.client
        if c.config.delayed_close and self._consume_pending_close(g, mode):
            # the matching delayed close is cancelled: a local open
            return
        reply = yield from c._call(c.PROC.OPEN, g.fid, mode.is_write)
        reply = OpenReply(*reply)
        # a fresh open re-establishes our claim on the file
        g.private.pop("reopen_rejected", None)
        self.validate_cache(g, reply, mode.is_write)

    def on_close(self, g: Gnode, mode: OpenMode):
        """Notify the server; the cache is retained across the close."""
        c = self.client
        if c.config.delayed_close:
            self._defer_close(g, mode)
            return
        yield from c._call(c.PROC.CLOSE, g.fid, mode.is_write)

    # -- delayed close (§6.2) ----------------------------------------------

    def _defer_close(self, g: Gnode, mode: OpenMode) -> None:
        pending: List[OpenMode] = g.private.setdefault("pending_closes", [])
        pending.append(mode)
        if g.private.get("close_daemon") is None:
            g.private["close_daemon"] = self.client.sim.spawn(
                self._close_daemon(g), name="delayed-close"
            )

    def _consume_pending_close(self, g: Gnode, mode: OpenMode) -> bool:
        """Cancel a matching pending close, making this open free."""
        pending = g.private.get("pending_closes") or []
        if mode in pending:
            pending.remove(mode)
            return True
        return False

    def _send_pending_closes(self, g: Gnode):
        c = self.client
        pending = g.private.get("pending_closes") or []
        g.private["pending_closes"] = []
        for mode in pending:
            yield from c._call(c.PROC.CLOSE, g.fid, mode.is_write)

    def _close_daemon(self, g: Gnode):
        """Spontaneously relinquish files not re-opened for a while."""
        try:
            while True:
                yield self.client.sim.timeout(self.client.config.delayed_close_timeout)
                if g.private.get("pending_closes"):
                    yield from self._send_pending_closes(g)
                if not g.private.get("pending_closes") and not g.is_open:
                    break
        except Interrupt:
            pass
        finally:
            g.private["close_daemon"] = None

    # -- data ---------------------------------------------------------------

    def on_read(self, g: Gnode, offset: int, count: int):
        c = self.client
        if not self._cachable(g):
            # write-shared: every read goes to the server (§2.2)
            data, attr = yield from c._call(
                c.PROC.READ, g.fid, offset, count
            )
            self._store_attr_snfs(g, attr)
            return data
        attr = yield from self.on_getattr(g)
        data = yield from c.read_cached(g, offset, count, file_size=attr.size)
        return data

    def on_write(self, g: Gnode, offset: int, data: bytes):
        c = self.client
        if not self._cachable(g):
            # write-shared: write through, nothing cached
            attr = yield from c._call(c.PROC.WRITE, g.fid, offset, data)
            self._store_attr_snfs(g, attr)
            return
        attr = c._local_attr(g)
        bufs = yield from c.write_cached(
            g, offset, data, file_size=attr.size,
            mark_dirty=True,  # delayed write: the whole point (§2.3)
        )
        for buf in bufs:
            buf.tag = g
        c.bump_local_attr(g, offset + len(data), attr)
        if c.config.write_through:
            # ablation: the consistency protocol with NFS's write policy
            for buf in bufs:
                if not buf.dirty or buf.busy:
                    continue
                stamp = c.cache.flush_begin(buf)
                ok = False
                try:
                    yield from self.write_rpc(g, buf.block_no, bytes(buf.data))
                    ok = True
                finally:
                    c.cache.flush_end(buf, stamp, clean=ok)

    # -- attributes ----------------------------------------------------------

    def on_getattr(self, g: Gnode):
        """Cachable files need no attribute refresh; write-shared files
        always fetch from the server (§4.2.1)."""
        c = self.client
        attr = g.private.get("attr")
        if not self._cachable(g):
            attr = yield from c._call(c.PROC.GETATTR, g.fid)
            self._store_attr_snfs(g, attr)
            return attr
        if attr is not None and (g.is_open or g.private.get("pending_closes")):
            return attr
        if attr is not None and g.private.get("attr_time") == c.sim.now:
            return attr  # piggybacked on the lookup that just ran
        attr = yield from c._call(c.PROC.GETATTR, g.fid)
        self._store_attr_snfs(g, attr)
        return attr

    def on_truncate(self, g: Gnode) -> None:
        # truncation: cached blocks beyond the new size are stale;
        # dirty delayed writes for them must not be flushed later
        self.client.cache.cancel_dirty_file(g.cache_key)
        self.client.cache.invalidate_file(g.cache_key)

    # -- namespace: delete-before-writeback ---------------------------------

    def before_remove(self, g: Gnode):
        """Delayed-write cancellation (§4.2.3): 'Sprite and SNFS take
        advantage of this behavior by cancelling delayed writes when a
        file is deleted.'"""
        c = self.client
        if c.config.cancel_on_delete:
            c.cache.cancel_dirty_file(g.cache_key)
        else:
            # ablation: without cancellation the dirty data must be
            # written back before the file can be removed
            yield from c._flush_dirty(g)
            c.cache.invalidate_file(g.cache_key)

    def on_rename_victim(self, victim: Gnode) -> None:
        self.client.cache.cancel_dirty_file(victim.cache_key)

    # -- write-back plumbing -------------------------------------------------

    def write_rpc(self, g: Gnode, bno: int, data: bytes):
        c = self.client
        try:
            attr = yield from c._call(
                c.PROC.WRITE, g.fid, bno * c.block_size, data, gnode=g
            )
        except (StaleHandle, NoSuchFile):
            return  # file deleted under us; its data is moot
        except ReopenRejected:
            return  # our claim lost after a server reboot; data discarded
        self._store_attr_snfs(g, attr)

    # -- crash support --------------------------------------------------------

    def on_host_crash(self) -> None:
        for g in self.client._gnodes.values():
            daemon = g.private.get("close_daemon")
            if daemon is not None and daemon.is_alive:
                daemon.interrupt("crash")
        self.client.dnlc.clear()

    # -- recovery participation (§2.4) ------------------------------------

    def open_state_report(self):
        """What this client knows about its open files, for server
        recovery: [(fh, readers, writers, version, dirty)]."""
        c = self.client
        report = []
        for g in c._gnodes.values():
            # count busy buffers too: a block being flushed when the
            # server died is still dirty from the server's point of
            # view (the write may not have executed), and the reply
            # will never come — under-reporting it would rebuild the
            # entry without us as last writer, so the eventual
            # retransmitted write would land with no writeback callback
            # coverage
            dirty = c.cache.has_pending(g.cache_key)
            pending = len(g.private.get("pending_closes") or [])
            if g.open_reads or g.open_writes or dirty or pending:
                report.append(
                    (
                        g.fid,
                        g.open_reads,
                        g.open_writes,
                        g.private.get("version", 0),
                        dirty,
                    )
                )
        return report


class SnfsClient(RemoteFsClient):
    """A remote-mounted Spritely NFS filesystem on a client host."""

    PROC = SPROC
    policy_class = SnfsPolicy

    # compatibility delegations for callers that predate the policy split

    def serve_callback(self, fh: FileHandle, writeback: bool, invalidate: bool):
        result = yield from self.policy.serve_callback(fh, writeback, invalidate)
        return result

    def purge_dir_names(self, dirfh: FileHandle) -> None:
        self.dnlc.purge_dir(dirfh.key())

    def open_state_report(self):
        return self.policy.open_state_report()


def mount_snfs(
    host: Host,
    server_addr: str,
    mount_point: str,
    config: Optional[SnfsClientConfig] = None,
    mount_id: Optional[str] = None,
):
    """Coroutine: create, attach, and mount an SNFS client filesystem."""
    mount_id = mount_id or "snfs:%s:%s%s" % (host.name, server_addr, mount_point)
    client = SnfsClient(mount_id, host, server_addr, config=config)
    yield from client.attach()
    host.kernel.mount(mount_point, client)
    return client
