"""Model-based property tests for the buffer cache."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.storage import BufferCache


def drive(sim, gen):
    box = {}

    def wrapper():
        box["v"] = yield from gen

    proc = sim.spawn(wrapper())
    sim.run_until(proc, limit=1e6)
    if proc.exception is not None:
        proc.defuse()
        raise proc.exception
    return box.get("v")


# operations: (op, file, block, payload)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_dirty", "lookup", "invalidate", "cancel"]),
        st.sampled_from(["f1", "f2", "f3"]),
        st.integers(min_value=0, max_value=5),
        st.binary(min_size=1, max_size=8),
    ),
    max_size=60,
)


@given(ops=ops_strategy, capacity=st.integers(min_value=2, max_value=16))
@settings(max_examples=60, deadline=None)
def test_cache_matches_reference_model(ops, capacity):
    """The cache must agree with a brute-force model on contents,
    modulo LRU eviction (evicted-but-clean entries may be missing from
    the cache, never stale in it)."""
    sim = Simulator()
    flushed = []

    def flush(buf):
        yield sim.timeout(0)
        flushed.append((buf.key, bytes(buf.data)))

    cache = BufferCache(sim, capacity_blocks=capacity, flush_fn=flush)
    model = {}  # (file, block) -> latest bytes

    def scenario():
        for op, f, b, payload in ops:
            if op == "insert":
                yield from cache.insert(f, b, payload)
                model[(f, b)] = payload
            elif op == "insert_dirty":
                yield from cache.insert(f, b, payload, dirty=True)
                model[(f, b)] = payload
            elif op == "lookup":
                buf = cache.lookup(f, b)
                if buf is not None:
                    assert bytes(buf.data) == model.get((f, b)), "stale data served"
            elif op == "invalidate":
                cache.invalidate_file(f)
                for key in [k for k in model if k[0] == f]:
                    del model[key]
            elif op == "cancel":
                cache.cancel_dirty_file(f)
                for key in [k for k in model if k[0] == f]:
                    del model[key]
            # capacity invariant holds at every step
            assert len(cache) <= capacity

    drive(sim, scenario())
    # whatever remains cached must match the model exactly
    for key in list(model):
        buf = cache.lookup(key[0], key[1])
        if buf is not None:
            assert bytes(buf.data) == model[key]
    # every flush wrote data that was correct at flush time (it must
    # have been *some* value previously inserted for that key)
    # and dirty blocks never exceed the cache size
    assert cache.dirty_count() <= capacity


@given(
    keys=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_lru_eviction_keeps_most_recent(keys):
    """After any access sequence, the cache holds the most recently
    touched distinct blocks (all clean, capacity 8)."""
    sim = Simulator()
    cache = BufferCache(sim, capacity_blocks=8)

    def scenario():
        for key in keys:
            if cache.lookup("f", key) is None:
                yield from cache.insert("f", key, b"x")

    drive(sim, scenario())
    # compute the expected LRU contents
    recent = []
    for key in keys:
        if key in recent:
            recent.remove(key)
        recent.append(key)
    expected = set(recent[-8:])
    actual = {b.block_no for b in cache.file_blocks("f")}
    assert actual == expected


FILES = ("f1", "f2", "f3")

index_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([
            "insert", "insert_dirty", "lookup", "mark_dirty", "overwrite",
            "flush_begin", "flush_end", "flush_abandon", "make_room",
            "arm_hook", "invalidate", "cancel", "discard", "clear",
        ]),
        st.sampled_from(FILES),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=80,
)


def assert_index_coherent(cache):
    """Every per-file query equals a filter of the full LRU scan, in the
    same order."""
    resident = list(cache._buffers.values())
    for f in FILES:
        ref = [b for b in resident if b.file_key == f]
        assert cache.file_blocks(f) == ref
        assert cache.dirty_buffers(file_key=f) == [
            b for b in ref if b.dirty and not b.busy
        ]
        assert cache.has_pending(f) == any(b.dirty or b.busy for b in ref)
    assert sum(len(cache.file_blocks(f)) for f in FILES) == len(cache)


@given(ops=index_ops_strategy, capacity=st.integers(min_value=2, max_value=8))
@settings(max_examples=150, deadline=None)
def test_file_index_matches_full_scan(ops, capacity):
    """The per-file index stays coherent with the LRU list under every
    mutation, including flushes that overlap writes, flushes that are
    abandoned, and blocks dropped while their eviction flush is in
    flight."""
    sim = Simulator()
    hook = []  # what the next eviction flush does while in flight
    inflight = []  # (buf, stamp) of flushes begun by hand

    def flush(buf):
        yield sim.timeout(0.01)
        if hook:
            kind, f = hook.pop()
            if kind == "overlap":
                cache.mark_dirty(buf)  # written during its own flush
            elif kind == "discard":
                cache.discard(*buf.key)
            else:
                cache.invalidate_file(f)

    cache = BufferCache(sim, capacity_blocks=capacity, flush_fn=flush)

    def wedged():
        # every resident block busy: eviction has nothing to pick
        return len(cache) >= capacity and all(
            b.busy for b in cache._buffers.values()
        )

    def scenario():
        for op, f, b in ops:
            buf = cache._buffers.get((f, b))
            if op in ("insert", "insert_dirty"):
                if not wedged():
                    yield from cache.insert(f, b, b"%d" % b, dirty=op == "insert_dirty")
            elif op == "lookup":
                cache.lookup(f, b)
            elif op == "mark_dirty" and buf is not None:
                cache.mark_dirty(buf)
            elif op == "overwrite" and buf is not None:
                cache.overwrite(buf, b"o", dirty=True)
            elif op == "flush_begin" and buf is not None:
                if buf.dirty and not buf.busy:
                    inflight.append((buf, cache.flush_begin(buf)))
            elif op in ("flush_end", "flush_abandon") and inflight:
                done, stamp = inflight.pop(b % len(inflight))
                cache.flush_end(done, stamp, clean=op == "flush_end")
            elif op == "make_room":
                if not wedged():
                    yield from cache._make_room()
            elif op == "arm_hook":
                hook[:] = [(("overlap", "discard", "invalidate")[b % 3], f)]
            elif op == "invalidate":
                cache.invalidate_file(f)
            elif op == "cancel":
                cache.cancel_dirty_file(f)
            elif op == "discard":
                cache.discard(f, b)
            elif op == "clear":
                cache.clear()
            assert_index_coherent(cache)
            assert len(cache) <= capacity

    drive(sim, scenario())
