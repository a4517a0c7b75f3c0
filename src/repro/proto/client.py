"""The protocol-agnostic remote-filesystem client core.

Everything protocol-*independent* about a remote mount lives here:

* the RPC ``_call`` wrapper (tracing, metrics, and retransmission come
  free from :class:`~repro.net.rpc.RpcEndpoint` for every protocol);
* the attribute cache with configurable freshness windows (the
  adaptive-probe machinery of §2.1, used by probe-based policies);
* the shared DNLC (:mod:`repro.proto.dnlc`);
* block fill/flush/write-back machinery over the host buffer cache
  (cached reads, write-through via the biod pool, delayed-write
  flushing, the periodic update sync, eviction write-back);
* name-operation plumbing (lookup/create/remove/rename/...) with a
  single purge-on-rename/remove semantics.

Every protocol-*dependent* decision is delegated to the
:class:`~repro.proto.policy.ConsistencyPolicy` composed into the
client.  NFS, SNFS, Kent, RFS, and the lease protocol are policies
(plus their servers) — not subclasses re-welding this machinery.
"""

from __future__ import annotations

from typing import Optional

from ..fs import NoSuchFile
from ..fs.types import FileAttr, OpenMode
from ..vfs import FileSystemType, Gnode, cached_read, cached_write
from .config import RemoteFsConfig
from .dnlc import NameCache
from .policy import ConsistencyPolicy

__all__ = ["RemoteFsClient"]


class RemoteFsClient(FileSystemType):
    """A remote-mounted filesystem: mechanism here, policy composed in."""

    #: procedure names (each protocol sets its own namespace)
    PROC = None
    #: the ConsistencyPolicy subclass composed into each instance
    policy_class = ConsistencyPolicy

    def __init__(
        self,
        mount_id: str,
        host,
        server_addr: str,
        config: Optional[RemoteFsConfig] = None,
        dnlc: Optional[NameCache] = None,
    ):
        super().__init__(mount_id)
        self.host = host
        self.sim = host.sim
        self.cache = host.cache
        self.rpc = host.rpc
        self.server = server_addr
        self.config = config or self.default_config()
        self.block_size = host.config.block_size
        self._root: Optional[Gnode] = None
        # sharded namespaces pass one NameCache to every per-shard
        # mount so the whole tree shares a single DNLC
        self.dnlc = dnlc if dnlc is not None else NameCache(self.sim, self.config)
        self.policy = self.policy_class(self)
        self._register_push_service()

    @classmethod
    def default_config(cls) -> RemoteFsConfig:
        return RemoteFsConfig()

    # -- server-push service (one dispatcher per host and protocol) ---------

    def _register_push_service(self) -> None:
        """Register the policy's server→client procedures.  Several
        mounts of one protocol share the host's handler; the
        dispatcher routes by the calling server's address."""
        procs = self.policy.push_procs()
        if not procs:
            return
        registry = getattr(self.host, "_push_mounts", None)
        if registry is None:
            registry = self.host._push_mounts = {}
        mounts = registry.setdefault(self.PROC.PREFIX, [])
        mounts.append(self)
        if len(mounts) == 1:
            for proc, method in procs.items():
                self.host.rpc.register(proc, self._push_dispatcher(method))

    def _push_dispatcher(self, method: str):
        host, prefix = self.host, self.PROC.PREFIX

        def dispatch(src, *args):
            for mount in host._push_mounts[prefix]:
                if mount.server == src:
                    result = yield from getattr(mount.policy, method)(*args)
                    return result
            return None  # no such mount (e.g. unmounted): nothing cached

        return dispatch

    # -- mount ---------------------------------------------------------------

    def attach(self):
        """Coroutine: fetch the export's root handle (the mount protocol)."""
        fh, attr = yield from self._call(self.PROC.MNT)
        self._root = self.gnode_for(fh, attr.ftype)
        self._store_attr(self._root, attr)
        return self._root

    def root(self) -> Gnode:
        if self._root is None:
            raise RuntimeError("NFS mount %s not attached yet" % self.mount_id)
        return self._root

    def _call(self, proc: str, *args, gnode: Optional[Gnode] = None):
        result = yield from self.policy.call(proc, *args, gnode=gnode)
        return result

    # -- attribute cache ---------------------------------------------------

    def _store_attr(self, g: Gnode, attr: FileAttr) -> None:
        """Record attributes from a lookup-class reply (policy hook)."""
        self.policy.store_attr(g, attr)

    def store_attr_probed(self, g: Gnode, attr: FileAttr) -> None:
        """Probe-based storage: a changed mtime invalidates data."""
        priv = g.private
        known = priv.get("known_mtime")
        if known is not None and attr.mtime != known:
            self.cache.invalidate_file(g.cache_key)
            priv["attr_interval"] = self.config.attr_min_interval
        priv["attr"] = attr
        priv["attr_time"] = self.sim.now
        priv["known_mtime"] = attr.mtime

    def _attr_fresh(self, g: Gnode) -> bool:
        priv = g.private
        attr = priv.get("attr")
        if attr is None:
            return False
        age = self.sim.now - priv.get("attr_time", -1e9)
        interval = priv.get("attr_interval", self.config.attr_min_interval)
        return age <= interval

    def _probe(self, g: Gnode, force: bool = False):
        """Coroutine: revalidate cached attributes if stale (§2.1)."""
        if not force and self._attr_fresh(g):
            return g.private["attr"]
        old = g.private.get("attr")
        attr = yield from self._call(self.PROC.GETATTR, g.fid)
        # adapt the probe interval: unchanged file -> check less often
        interval = g.private.get("attr_interval", self.config.attr_min_interval)
        if old is not None and old.mtime == attr.mtime:
            interval = min(interval * 2, self.config.attr_max_interval)
        else:
            interval = self.config.attr_min_interval
        g.private["attr_interval"] = interval
        self._store_attr(g, attr)
        return attr

    def _local_attr(self, g: Gnode) -> FileAttr:
        attr = g.private.get("attr")
        if attr is None:
            attr = FileAttr(file_id=0, ftype=g.ftype)
        return attr

    def _note_server_attr(self, g: Gnode, attr: FileAttr) -> None:
        """Attributes piggybacked on read/write replies refresh the cache
        without invalidating it (they reflect our own traffic)."""
        g.private["attr"] = attr
        g.private["attr_time"] = self.sim.now
        g.private["known_mtime"] = attr.mtime

    def bump_local_attr(self, g: Gnode, end: int, attr: Optional[FileAttr] = None):
        """Grow the local view of the file after a client-side write.
        Re-fetches the attr object first: the fill path may have
        replaced it from a read reply while the write was
        read-modify-writing."""
        if attr is None:
            attr = self._local_attr(g)
        attr = g.private.get("attr", attr)
        attr.size = max(attr.size, end)
        attr.mtime = self.sim.now
        g.private["attr"] = attr
        g.private["attr_time"] = self.sim.now
        return attr

    # -- namespace --------------------------------------------------------

    def _dnlc_key(self, dirg: Gnode, name: str):
        return (dirg._fid_key(), name)

    def _dnlc_get(self, dirg: Gnode, name: str):
        hit = self.dnlc.get(dirg._fid_key(), name)
        if hit is None:
            return None
        fid, ftype = hit
        return self.gnode_for(fid, ftype)

    def _dnlc_put(self, dirg: Gnode, name: str, g: Gnode) -> None:
        self.dnlc.put(dirg._fid_key(), name, g.fid, g.ftype)

    def _dnlc_purge(self, dirg: Gnode, name: str) -> None:
        self.dnlc.purge(dirg._fid_key(), name)

    def lookup(self, dirg: Gnode, name: str):
        cached = self._dnlc_get(dirg, name)
        if cached is not None:
            return cached
        fh, attr = yield from self._call(self.PROC.LOOKUP, dirg.fid, name)
        g = self.gnode_for(fh, attr.ftype)
        self._store_attr(g, attr)
        self._dnlc_put(dirg, name, g)
        return g

    def create(self, dirg: Gnode, name: str, mode: int = 0o644):
        fh, attr = yield from self._call(self.PROC.CREATE, dirg.fid, name, mode)
        g = self.gnode_for(fh, attr.ftype)
        self._store_attr(g, attr)
        self._dnlc_put(dirg, name, g)
        return g

    def remove(self, dirg: Gnode, name: str):
        # namei resolves the victim first (BSD DELETE lookup); the
        # policy settles its cached data (flush, cancel delayed
        # writes, or release tokens) before the server removes it
        g = yield from self.lookup(dirg, name)
        yield from self.policy.before_remove(g)
        yield from self._call(self.PROC.REMOVE, dirg.fid, name)
        self._dnlc_purge(dirg, name)
        self.drop_gnode(g)

    def mkdir(self, dirg: Gnode, name: str, mode: int = 0o755):
        fh, attr = yield from self._call(self.PROC.MKDIR, dirg.fid, name, mode)
        g = self.gnode_for(fh, attr.ftype)
        self._store_attr(g, attr)
        return g

    def rmdir(self, dirg: Gnode, name: str):
        yield from self._call(self.PROC.RMDIR, dirg.fid, name)

    def rename(self, src_dirg: Gnode, src_name: str, dst_dirg: Gnode, dst_name: str):
        try:
            victim = yield from self.lookup(dst_dirg, dst_name)
            self.policy.on_rename_victim(victim)
        except NoSuchFile:
            pass
        yield from self._call(
            self.PROC.RENAME, src_dirg.fid, src_name, dst_dirg.fid, dst_name
        )
        self._dnlc_purge(src_dirg, src_name)
        self._dnlc_purge(dst_dirg, dst_name)

    def link(self, g: Gnode, dirg: Gnode, name: str):
        attr = yield from self._call(self.PROC.LINK, g.fid, dirg.fid, name)
        self.policy.absorb_attr(g, attr)
        self._dnlc_put(dirg, name, g)
        return g

    def readdir(self, dirg: Gnode):
        names = yield from self._call(self.PROC.READDIR, dirg.fid)
        return names

    # -- open / close ------------------------------------------------------

    def open(self, g: Gnode, mode: OpenMode):
        yield from self.policy.on_open(g, mode)
        if mode.is_write:
            g.open_writes += 1
        else:
            g.open_reads += 1

    def close(self, g: Gnode, mode: OpenMode):
        if mode.is_write:
            g.open_writes -= 1
        else:
            g.open_reads -= 1
        yield from self.policy.on_close(g, mode)

    # -- data ---------------------------------------------------------------

    def _fill_from_server(self, g: Gnode):
        def fill(bno):
            data, attr = yield from self._call(
                self.PROC.READ, g.fid, bno * self.block_size, self.block_size
            )
            self.policy.absorb_attr(g, attr)
            return data

        return fill

    def read_cached(self, g: Gnode, offset: int, count: int, file_size: int):
        """Coroutine: serve a read through the host buffer cache."""
        data = yield from cached_read(
            self.cache,
            g,
            offset,
            count,
            file_size=file_size,
            block_size=self.block_size,
            fill_fn=self._fill_from_server(g),
            readahead=self.host.config.readahead,
            sim=self.sim,
        )
        return data

    def write_cached(
        self, g: Gnode, offset: int, data: bytes, file_size: int, mark_dirty: bool
    ):
        """Coroutine: apply a write to the host buffer cache; returns
        the touched buffers for the policy's write-back decision."""
        bufs = yield from cached_write(
            self.cache,
            g,
            offset,
            data,
            file_size=file_size,
            block_size=self.block_size,
            fill_fn=self._fill_from_server(g),
            mark_dirty=mark_dirty,
        )
        return bufs

    def read(self, g: Gnode, offset: int, count: int):
        data = yield from self.policy.on_read(g, offset, count)
        return data

    def write(self, g: Gnode, offset: int, data: bytes):
        yield from self.policy.on_write(g, offset, data)

    def send_block(self, g: Gnode, bno: int, data: bytes):
        """Write one block through to the server (async when enabled)."""
        if self.config.async_writes:
            self.host.async_writers.submit(
                lambda: self._write_rpc(g, bno, data), key=g.cache_key
            )
        else:
            yield from self._write_rpc(g, bno, data)
        return
        yield  # pragma: no cover

    def _write_rpc(self, g: Gnode, bno: int, data: bytes):
        yield from self.policy.write_rpc(g, bno, data)

    def _flush_dirty(self, g: Gnode):
        """Push this file's dirty blocks to the server, synchronously."""
        bufs = self.cache.dirty_buffers(file_key=g.cache_key)
        if self.policy.flush_in_block_order:
            bufs = sorted(bufs, key=lambda b: b.block_no)
        for buf in bufs:
            stamp = self.cache.flush_begin(buf)
            ok = False
            try:
                yield from self._write_rpc(g, buf.block_no, bytes(buf.data))
                ok = True
            finally:
                self.cache.flush_end(buf, stamp, clean=ok)

    def getattr(self, g: Gnode):
        attr = yield from self.policy.on_getattr(g)
        return attr

    def setattr(self, g: Gnode, size: Optional[int] = None, mode: Optional[int] = None):
        if size is not None:
            self.policy.on_truncate(g)
        attr = yield from self._call(self.PROC.SETATTR, g.fid, size, mode)
        self.policy.absorb_attr(g, attr)
        return attr

    def fsync(self, g: Gnode):
        yield from self._flush_dirty(g)
        if self.policy.drain_on_fsync:
            yield from self.host.async_writers.drain(g.cache_key)

    def sync(self, min_age=None):
        """The periodic update sync: flush delayed writes."""
        for buf in list(self.cache.dirty_buffers(older_than=min_age)):
            if buf.file_key[0] != self.mount_id or buf.busy or not buf.dirty:
                continue
            g = buf.tag
            if g is None:
                continue
            stamp = self.cache.flush_begin(buf)
            ok = False
            try:
                yield from self._write_rpc(g, buf.block_no, bytes(buf.data))
                ok = True
            finally:
                self.cache.flush_end(buf, stamp, clean=ok)

    def flush_block(self, buf):
        """Cache eviction of a dirty block: write it through."""
        g = buf.tag
        if g is None:
            return
        yield from self._write_rpc(g, buf.block_no, bytes(buf.data))

    # -- crash support --------------------------------------------------------

    def on_host_crash(self) -> None:
        self.policy.on_host_crash()
        self._gnodes.clear()
        self._root = None

    def on_host_reboot(self) -> None:
        pass
