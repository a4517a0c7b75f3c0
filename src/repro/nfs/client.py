"""The NFS client: stateless-server consistency via periodic probes.

Implements the Ultrix-era client behaviour the paper measures against
(§2.1, §5.2), as a :class:`~repro.proto.ConsistencyPolicy` over the
shared :class:`~repro.proto.RemoteFsClient` core:

* **Attribute cache with adaptive probe interval** — cached attributes
  are revalidated with ``getattr`` after an interval that doubles from
  3 s (recently-modified files) up to 150 s while the file stays
  unchanged.  A changed mtime invalidates the file's cached blocks.
* **Write-through via async daemons (biod)** — full blocks are handed
  to the host's :class:`~repro.host.AsyncPool` which immediately writes
  them to the server; the application does not wait.  Partial (tail)
  blocks are delayed ("the reference port of NFS delays writes that do
  not extend to the end of a block").
* **Synchronous flush on close** — close drains the file's pending
  async writes and pushes out delayed partial blocks.
* **Invalidate-on-close bug** — the paper's NFS client "invalidates the
  client data cache when a file is closed", inflating read RPC counts
  in tables 5-2/5-4.  On by default to match the paper; turn it off via
  :class:`NfsClientConfig` for the "modern client" ablation.

No name cache by default: every path component costs a ``lookup`` RPC,
which is why roughly half of all RPCs in Table 5-2 are lookups.
"""

from __future__ import annotations

from ..proto import ConsistencyPolicy, RemoteFsClient, RemoteFsConfig
from ..vfs import Gnode
from .protocol import PROC

__all__ = ["NfsClient", "NfsClientConfig", "NfsPolicy", "era_nfs_config"]

#: unified layered config (see repro.proto.config); kept as an alias
#: so call sites and experiments keep reading naturally
NfsClientConfig = RemoteFsConfig


def era_nfs_config() -> NfsClientConfig:
    """A fresh era-accurate NFS client configuration: the attribute
    cache answers opens (no forced getattr), closes keep the cache, and
    name translations live 30 s — the staleness window §2.1/§2.3 argue
    against.  Fresh per call because mounts read their config live."""
    return NfsClientConfig(
        getattr_on_open=False, invalidate_on_close=False, name_cache_ttl=30.0
    )


class NfsPolicy(ConsistencyPolicy):
    """Probes + write-through: the paper's baseline consistency."""

    drain_on_fsync = True  # fsync must catch the biod pool's writes

    def store_attr(self, g: Gnode, attr) -> None:
        """Record fresh attributes; a changed mtime invalidates data."""
        self.client.store_attr_probed(g, attr)

    def on_open(self, g: Gnode, mode):
        """Consistency check on every open (§2.1)."""
        yield from self.client._probe(g, force=self.client.config.getattr_on_open)

    def on_close(self, g: Gnode, mode):
        """Synchronously finish pending write-throughs, then (bug) drop
        the cached data."""
        c = self.client
        yield from c._flush_dirty(g)
        yield from c.host.async_writers.drain(g.cache_key)
        # the old-reference-port bug: "the client first writes a file,
        # closes it, and then reopens and reads it, and this bug
        # prevents the client from using its cached copy" (§5.2)
        if c.config.invalidate_on_close and mode.is_write:
            c.cache.invalidate_file(g.cache_key)

    def on_read(self, g: Gnode, offset: int, count: int):
        c = self.client
        attr = yield from c._probe(g)
        data = yield from c.read_cached(g, offset, count, file_size=attr.size)
        return data

    def on_write(self, g: Gnode, offset: int, data: bytes):
        """Write-through: full blocks go to the server immediately
        (asynchronously, via the biod pool); partial tail blocks are
        delayed until they fill or the file is closed."""
        c = self.client
        attr = c._local_attr(g)
        bufs = yield from c.write_cached(
            g, offset, data, file_size=attr.size, mark_dirty=False
        )
        # grow the local view of the file immediately
        c.bump_local_attr(g, offset + len(data), attr)
        for buf in bufs:
            buf.tag = g
            if len(buf.data) >= c.block_size:
                c.cache.mark_clean(buf)
                yield from c.send_block(g, buf.block_no, bytes(buf.data))
            else:
                c.cache.mark_dirty(buf)

    def on_getattr(self, g: Gnode):
        attr = yield from self.client._probe(g)
        return attr

    def before_remove(self, g: Gnode):
        # pending async writes cannot be cancelled — NFS already wrote
        # through (§4.2.3) — so drain them, then drop the cached blocks
        c = self.client
        yield from c.host.async_writers.drain(g.cache_key)
        c.cache.invalidate_file(g.cache_key)


class NfsClient(RemoteFsClient):
    """A remote-mounted NFS filesystem on a client host."""

    PROC = PROC
    policy_class = NfsPolicy

