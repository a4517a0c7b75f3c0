"""Block buffer cache.

In the paper's layering (§4.1) the GFS layer owns one buffer cache per
host; file data blocks from every mounted filesystem live in it, keyed
by a per-filesystem file key plus block number.  This module provides
that cache: LRU replacement, dirty tracking with ages (for the 30-second
write-back policy), whole-file invalidation (NFS consistency, SNFS
callbacks), and **cancellation** of dirty blocks when a file is deleted
before write-back — the optimization behind tables 5-5/5-6.

Besides the LRU list of every resident block, the cache keeps a
per-file index (file key → {block number: buffer}) in the same LRU
order, so whole-file queries cost the blocks of that file rather than
a walk over the whole cache.  Only this module touches either
structure; everything else goes through the methods below.

Eviction of a dirty victim must write it out first; since that is a
simulated I/O, ``insert`` is a coroutine and the cache is constructed
with a ``flush_fn(buffer)`` coroutine supplied by the owner.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..metrics import Counters
from ..sim import Simulator

__all__ = ["BufferCache", "Buffer", "CacheError"]

BlockKey = Tuple[Hashable, int]  # (file_key, block_number)


class CacheError(Exception):
    pass


class Buffer:
    """One cached block."""

    __slots__ = ("key", "data", "dirty", "dirty_since", "busy", "wstamp", "tag")

    def __init__(self, key: BlockKey, data: bytes):
        self.key = key
        self.data = data
        self.dirty = False
        self.dirty_since: Optional[float] = None
        self.busy = False  # being flushed; not evictable or cancellable
        self.wstamp = 0  # write generation; bumped on every data change
        self.tag: Any = None  # filesystem-private (e.g. write credentials)

    @property
    def file_key(self) -> Hashable:
        return self.key[0]

    @property
    def block_no(self) -> int:
        return self.key[1]

    def __repr__(self) -> str:
        return "<Buffer %r dirty=%s len=%d>" % (self.key, self.dirty, len(self.data))


class BufferCache:
    """LRU cache of file blocks with dirty-block management."""

    def __init__(
        self,
        sim: Simulator,
        capacity_blocks: int,
        flush_fn: Optional[Callable[[Buffer], Any]] = None,
        name: str = "cache",
    ):
        if capacity_blocks < 1:
            raise CacheError("cache capacity must be >= 1 block")
        self.sim = sim
        self.capacity = capacity_blocks
        self.name = name
        self.flush_fn = flush_fn  # coroutine(buffer); required before dirty eviction
        self._buffers: "OrderedDict[BlockKey, Buffer]" = OrderedDict()
        #: file key -> {block number: buffer}; each file's blocks in the
        #: same relative (LRU) order as in ``_buffers``, and no empty dicts
        self._files: Dict[Hashable, Dict[int, Buffer]] = {}
        self.stats = Counters()

    # -- basic operations ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffers)

    def _add(self, buf: Buffer) -> None:
        self._buffers[buf.key] = buf
        file_key, block_no = buf.key
        blocks = self._files.get(file_key)
        if blocks is None:
            self._files[file_key] = {block_no: buf}
        else:
            blocks[block_no] = buf

    def _remove(self, buf: Buffer) -> None:
        del self._buffers[buf.key]
        file_key, block_no = buf.key
        blocks = self._files[file_key]
        del blocks[block_no]
        if not blocks:
            del self._files[file_key]

    def _touch(self, buf: Buffer) -> None:
        """Make ``buf`` the most recently used block, in both orders."""
        self._buffers.move_to_end(buf.key)
        file_key, block_no = buf.key
        blocks = self._files[file_key]
        blocks[block_no] = blocks.pop(block_no)

    def _trace(self, name: str, **args) -> None:
        # call sites guard on ``self.sim.tracer is not None`` themselves
        # so a disabled tracer costs nothing (no str() formatting, no
        # kwargs dict, no call) on the block-lookup hot path
        if self.sim.tracer is not None:
            self.sim.tracer.instant(name, cat="cache", track=self.name, **args)

    def lookup(self, file_key: Hashable, block_no: int) -> Optional[Buffer]:
        buf = self._buffers.get((file_key, block_no))
        if buf is not None:
            self._touch(buf)
            self.stats.record("hits")
            if self.sim.tracer is not None:
                self._trace("cache.hit", file=str(file_key), block=block_no)
        else:
            self.stats.record("misses")
            if self.sim.tracer is not None:
                self._trace("cache.miss", file=str(file_key), block=block_no)
        return buf

    def contains(self, file_key: Hashable, block_no: int) -> bool:
        return (file_key, block_no) in self._buffers

    def insert(self, file_key: Hashable, block_no: int, data: bytes, dirty: bool = False):
        """Coroutine: add (or replace) a block, evicting if needed."""
        key = (file_key, block_no)
        buf = self._buffers.get(key)
        if buf is None:
            yield from self._make_room()
            buf = Buffer(key, data)
            self._add(buf)  # lint: ok=ATOM001 — same-key inserts race to install identical fresh data; dirty blocks never pass through insert
            self.stats.record("inserts")
        else:
            buf.data = data
            buf.wstamp += 1
            self._touch(buf)
        if dirty:
            self.mark_dirty(buf)
        return buf

    def overwrite(self, buf: Buffer, data: bytes, dirty: bool = False) -> None:
        """Replace a cached buffer's data in place (the delayed-write
        merge path).  Routing the mutation through the cache keeps the
        write-generation stamp honest, which is what protects a block
        written *during* its own flush from being marked clean."""
        buf.data = data
        buf.wstamp += 1
        if dirty:
            self.mark_dirty(buf)

    def mark_dirty(self, buf: Buffer) -> None:
        buf.wstamp += 1
        if not buf.dirty:
            buf.dirty = True
            buf.dirty_since = self.sim.now

    def mark_clean(self, buf: Buffer) -> None:
        buf.dirty = False
        buf.dirty_since = None

    # -- the flush protocol ------------------------------------------------

    def flush_begin(self, buf: Buffer) -> int:
        """Start writing a dirty buffer back.  Marks the buffer busy
        (not evictable, not cancellable, skipped by other flushers) and
        returns its current write stamp; pass it to :meth:`flush_end`.
        """
        if buf.busy:
            raise CacheError("buffer %r is already being flushed" % (buf.key,))
        buf.busy = True
        if self.sim.tracer is not None:
            self._trace(
                "cache.flush_begin", file=str(buf.file_key), block=buf.block_no,
                stamp=buf.wstamp,
            )
        return buf.wstamp

    def flush_end(self, buf: Buffer, stamp: int, clean: bool = True) -> bool:
        """Finish a flush started by :meth:`flush_begin`.

        ``clean=False`` means the write-back failed (or was abandoned):
        the buffer just becomes un-busy and stays dirty.  When the
        buffer's data changed while the flush was in flight, the image
        that reached the server/disk is stale, so the buffer likewise
        stays dirty to be written again — marking it clean here would
        silently lose the overlapping write.  Returns True if the
        buffer was marked clean.
        """
        buf.busy = False
        tracing = self.sim.tracer is not None
        if not clean:
            if tracing:
                self._trace(
                    "cache.flush_end", file=str(buf.file_key), block=buf.block_no,
                    stamp=stamp, outcome="abandoned",
                )
            return False
        if buf.wstamp != stamp:
            self.stats.record("overlapped_flushes")
            if tracing:
                self._trace(
                    "cache.flush_end", file=str(buf.file_key), block=buf.block_no,
                    stamp=stamp, outcome="overlapped",
                )
            return False
        self.mark_clean(buf)
        if tracing:
            self._trace(
                "cache.flush_end", file=str(buf.file_key), block=buf.block_no,
                stamp=stamp, outcome="clean",
            )
        return True

    def _make_room(self):
        while len(self._buffers) >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                raise CacheError(
                    "cache %s wedged: all %d buffers busy" % (self.name, self.capacity)
                )
            if victim.dirty:
                if self.flush_fn is None:
                    raise CacheError(
                        "cache %s: dirty eviction with no flush_fn" % self.name
                    )
                stamp = self.flush_begin(victim)
                ok = False
                try:
                    yield from self.flush_fn(victim)
                    ok = True
                finally:
                    self.flush_end(victim, stamp, clean=ok)
                self.stats.record("dirty_evictions")
                if victim.dirty:
                    continue  # written to during the flush; not evictable yet
            # victim may have been invalidated during the flush
            if self._buffers.get(victim.key) is victim:
                self._remove(victim)
                self.stats.record("evictions")
                if self.sim.tracer is not None:
                    self._trace(
                        "cache.evict", file=str(victim.file_key), block=victim.block_no
                    )

    def _pick_victim(self) -> Optional[Buffer]:
        # Prefer the LRU clean buffer; fall back to the LRU dirty one.
        first_dirty = None
        for buf in self._buffers.values():
            if buf.busy:
                continue
            if not buf.dirty:
                return buf
            if first_dirty is None:
                first_dirty = buf
        return first_dirty

    # -- whole-file operations -------------------------------------------

    def file_blocks(self, file_key: Hashable) -> List[Buffer]:
        """The file's resident blocks, least recently used first."""
        blocks = self._files.get(file_key)
        return list(blocks.values()) if blocks else []

    def has_pending(self, file_key: Hashable) -> bool:
        """Whether any block of the file is dirty or mid-flush: its data
        has not reached the server (or disk) yet."""
        blocks = self._files.get(file_key)
        return blocks is not None and any(
            b.dirty or b.busy for b in blocks.values()
        )

    def discard(self, file_key: Hashable, block_no: int) -> bool:
        """Drop one block, whatever its state; True if it was resident."""
        buf = self._buffers.get((file_key, block_no))
        if buf is None:
            return False
        self._remove(buf)
        return True

    def clear(self) -> None:
        """Drop every block (the cache's memory is lost or reset)."""
        self._buffers.clear()
        self._files.clear()

    def invalidate_file(self, file_key: Hashable) -> int:
        """Drop every block of a file (clean or dirty, except busy ones)."""
        dropped = 0
        for buf in self.file_blocks(file_key):
            if buf.busy:
                continue
            self._remove(buf)
            dropped += 1
        if dropped:
            self.stats.record("invalidated", n=dropped)
            self._trace("cache.invalidate", file=str(file_key), blocks=dropped)
        return dropped

    def cancel_dirty_file(self, file_key: Hashable) -> int:
        """Delete-before-writeback: discard dirty blocks without flushing.

        Used when a file is removed while delayed writes are pending —
        the write to the server (or disk) never needs to happen.
        """
        cancelled = 0
        for buf in self.file_blocks(file_key):
            if buf.busy:
                continue
            if buf.dirty:
                cancelled += 1
            self._remove(buf)
        if cancelled:
            self.stats.record("cancelled_writes", n=cancelled)
            self._trace("cache.cancel_dirty", file=str(file_key), blocks=cancelled)
        return cancelled

    def dirty_buffers(
        self,
        file_key: Optional[Hashable] = None,
        older_than: Optional[float] = None,
    ) -> List[Buffer]:
        """Dirty, non-busy buffers; optionally filtered by file and age."""
        now = self.sim.now
        if file_key is None:
            candidates = self._buffers.values()
        else:
            candidates = self._files.get(file_key, {}).values()
        out = []
        for buf in candidates:
            if not buf.dirty or buf.busy:
                continue
            if older_than is not None:
                born = now if buf.dirty_since is None else buf.dirty_since
                if (now - born) < older_than:
                    continue
            out.append(buf)
        return out

    def dirty_count(self) -> int:
        return sum(1 for b in self._buffers.values() if b.dirty)

    def flush_file(self, file_key: Hashable):
        """Coroutine: write back every dirty block of a file, in order."""
        bufs = sorted(self.dirty_buffers(file_key=file_key), key=lambda b: b.block_no)
        for buf in bufs:
            if not buf.dirty or buf.busy:
                continue
            stamp = self.flush_begin(buf)
            ok = False
            try:
                yield from self.flush_fn(buf)
                ok = True
            finally:
                self.flush_end(buf, stamp, clean=ok)
        return len(bufs)

    def hit_rate(self) -> float:
        hits = self.stats.get("hits")
        misses = self.stats.get("misses")
        total = hits + misses
        return hits / total if total else 0.0
