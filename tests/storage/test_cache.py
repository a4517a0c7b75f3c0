"""Tests for the block buffer cache."""

import re
from pathlib import Path

import pytest

from repro.sim import Simulator
from repro.storage import BufferCache, CacheError


def make_cache(capacity=8, flush_log=None):
    sim = Simulator()
    flushed = flush_log if flush_log is not None else []

    def flush(buf):
        yield sim.timeout(0.01)
        flushed.append(buf.key)

    cache = BufferCache(sim, capacity_blocks=capacity, flush_fn=flush)
    return sim, cache, flushed


def run(sim, gen):
    result = {}

    def wrapper(sim):
        result["value"] = yield from gen

    sim.spawn(wrapper(sim))
    sim.run()
    return result.get("value")


def test_insert_and_lookup():
    sim, cache, _ = make_cache()
    run(sim, cache.insert("f", 0, b"data"))
    buf = cache.lookup("f", 0)
    assert buf is not None
    assert buf.data == b"data"
    assert cache.stats.get("hits") == 1


def test_lookup_miss_counted():
    sim, cache, _ = make_cache()
    assert cache.lookup("f", 0) is None
    assert cache.stats.get("misses") == 1


def test_insert_existing_replaces_data():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"old")
        yield from cache.insert("f", 0, b"new")

    run(sim, scenario())
    assert cache.lookup("f", 0).data == b"new"
    assert len(cache) == 1


def test_lru_eviction_of_clean_blocks():
    sim, cache, _ = make_cache(capacity=2)

    def scenario():
        yield from cache.insert("f", 0, b"a")
        yield from cache.insert("f", 1, b"b")
        cache.lookup("f", 0)  # touch 0, making 1 the LRU
        yield from cache.insert("f", 2, b"c")

    run(sim, scenario())
    assert cache.contains("f", 0)
    assert not cache.contains("f", 1)
    assert cache.contains("f", 2)


def test_dirty_eviction_flushes_first():
    sim, cache, flushed = make_cache(capacity=1)

    def scenario():
        buf = yield from cache.insert("f", 0, b"a", dirty=True)
        assert buf.dirty
        yield from cache.insert("f", 1, b"b")

    run(sim, scenario())
    assert flushed == [("f", 0)]
    assert cache.stats.get("dirty_evictions") == 1


def test_dirty_eviction_without_flush_fn_raises():
    sim = Simulator()
    cache = BufferCache(sim, capacity_blocks=1, flush_fn=None)

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        with pytest.raises(CacheError):
            yield from cache.insert("f", 1, b"b")

    run(sim, scenario())


def test_invalidate_file_drops_all_blocks():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a")
        yield from cache.insert("f", 1, b"b")
        yield from cache.insert("g", 0, b"c")

    run(sim, scenario())
    assert cache.invalidate_file("f") == 2
    assert not cache.contains("f", 0)
    assert cache.contains("g", 0)


def test_cancel_dirty_file_counts_cancelled_writes():
    sim, cache, flushed = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        yield from cache.insert("f", 1, b"b", dirty=True)
        yield from cache.insert("f", 2, b"c")  # clean

    run(sim, scenario())
    cancelled = cache.cancel_dirty_file("f")
    assert cancelled == 2
    assert cache.stats.get("cancelled_writes") == 2
    assert len(cache) == 0
    assert flushed == []  # nothing was ever written back


def test_dirty_buffers_age_filter():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        yield sim.timeout(40)
        yield from cache.insert("f", 1, b"b", dirty=True)
        old = cache.dirty_buffers(older_than=30)
        assert [b.block_no for b in old] == [0]
        every = cache.dirty_buffers()
        assert sorted(b.block_no for b in every) == [0, 1]

    run(sim, scenario())


def test_flush_file_writes_all_dirty_in_order():
    sim, cache, flushed = make_cache()

    def scenario():
        yield from cache.insert("f", 3, b"d", dirty=True)
        yield from cache.insert("f", 1, b"b", dirty=True)
        yield from cache.insert("f", 2, b"c")
        yield from cache.flush_file("f")

    run(sim, scenario())
    assert flushed == [("f", 1), ("f", 3)]
    assert cache.dirty_count() == 0


def test_mark_clean_resets_age():
    sim, cache, _ = make_cache()

    def scenario():
        buf = yield from cache.insert("f", 0, b"a", dirty=True)
        cache.mark_clean(buf)
        assert not buf.dirty
        assert buf.dirty_since is None

    run(sim, scenario())


def test_hit_rate():
    sim, cache, _ = make_cache()
    run(sim, cache.insert("f", 0, b"a"))
    cache.lookup("f", 0)
    cache.lookup("f", 1)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(CacheError):
        BufferCache(sim, capacity_blocks=0)


def test_file_blocks_listing():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a")
        yield from cache.insert("f", 5, b"b")
        yield from cache.insert("g", 0, b"c")

    run(sim, scenario())
    blocks = sorted(b.block_no for b in cache.file_blocks("f"))
    assert blocks == [0, 5]


def test_file_blocks_follow_lru_order():
    sim, cache, _ = make_cache()

    def scenario():
        for bno in (0, 1, 2):
            yield from cache.insert("f", bno, b"x")
        yield from cache.insert("g", 0, b"y")
        cache.lookup("f", 0)  # hit: most recently used again
        yield from cache.insert("f", 1, b"z")  # rewrite: likewise

    run(sim, scenario())
    assert [b.block_no for b in cache.file_blocks("f")] == [2, 0, 1]
    assert cache.file_blocks("nothing") == []


def test_has_pending_sees_dirty_and_busy_blocks():
    sim, cache, _ = make_cache()

    def scenario():
        buf = yield from cache.insert("f", 0, b"a", dirty=True)
        yield from cache.insert("f", 1, b"b")
        assert cache.has_pending("f")
        stamp = cache.flush_begin(buf)  # mid-flush: busy, still pending
        assert cache.dirty_buffers(file_key="f") == []
        assert cache.has_pending("f")
        cache.flush_end(buf, stamp)
        assert not cache.has_pending("f")
        assert not cache.has_pending("g")

    run(sim, scenario())


def test_discard_and_clear():
    sim, cache, _ = make_cache()

    def scenario():
        yield from cache.insert("f", 0, b"a", dirty=True)
        yield from cache.insert("f", 1, b"b")
        yield from cache.insert("g", 0, b"c")

    run(sim, scenario())
    assert cache.discard("f", 0)
    assert not cache.discard("f", 0)
    assert [b.block_no for b in cache.file_blocks("f")] == [1]
    assert not cache.has_pending("f")
    cache.clear()
    assert len(cache) == 0
    assert cache.file_blocks("f") == [] and cache.file_blocks("g") == []
    assert cache.stats.get("cancelled_writes") == 0


def test_only_the_cache_module_touches_its_buffers():
    """The cache keeps a per-file index beside its LRU list; code that
    edits ``_buffers`` directly would leave the index stale."""
    src = Path(__file__).resolve().parents[2] / "src"
    owner = src / "repro" / "storage" / "cache.py"
    offenders = [
        "%s:%d" % (path.relative_to(src), lineno)
        for path in sorted(src.rglob("*.py"))
        if path != owner
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\._buffers\b", line)
    ]
    assert offenders == []
