"""Remote procedure call layer over the simulated network.

Models a Sun-RPC-over-UDP transport of the paper's era:

* at-least-once calls with timeout and retransmission (same xid);
* a server-side **duplicate request cache** so retransmitted
  non-idempotent requests are not re-executed (Juszczak's fix, which the
  paper cites);
* a bounded server **thread pool** — the SNFS deadlock rule ("if there
  are N threads, only N−1 may be doing callbacks") is enforced by the
  SNFS server on top of this pool;
* symmetric endpoints: any host can both issue calls and serve
  procedures, which SNFS needs for server→client callbacks.

Wire sizes are estimated automatically from the payload (bytes count
fully; scalars and structure contribute small fixed costs), so a 4 KB
``read`` reply is ~4 KB on the wire while an ``open`` call is ~200 B.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..metrics import Counters
from ..sim import Event, Resource, Simulator, Store
from .network import Interface, Network

__all__ = [
    "RpcConfig",
    "RpcEndpoint",
    "RpcError",
    "RpcTimeout",
    "RpcProcedureError",
    "estimate_size",
    "RPC_PORT",
]

RPC_PORT = 2049

_HEADER_BYTES = 160  # UDP + IP + RPC + auth overhead, roughly

#: rpc.latency histogram buckets — the registry default starts at 1 ms,
#: above many LAN round trips, so sub-ms calls all piled into one bucket
RPC_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class RpcError(Exception):
    """Base class for RPC-layer failures."""


class RpcTimeout(RpcError):
    """The call was retransmitted up to the limit with no reply."""


class RpcProcedureError(RpcError):
    """The remote procedure raised; carries the remote exception.

    Protocol-level errors (e.g. NFS ``ESTALE``) are modelled as
    exceptions raised by the handler, shipped back in the reply, and
    re-raised at the caller wrapped in the original exception type when
    possible.
    """


def estimate_size(obj: Any) -> int:
    """Rough wire size of a payload object, in bytes.

    bytes/bytearray count in full; strings count their encoded length;
    containers and dataclasses (attribute records, handles) recurse;
    everything else (ints, flags) costs a fixed 8 bytes.
    """
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in obj)
    names = _field_names(type(obj))
    if names is not None:
        return sum(estimate_size(getattr(obj, name)) for name in names)
    return 8


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """Field names of a dataclass type, in declaration order; None for
    any other type (a dataclass *class* passed as a payload is a type
    object, whose own type is not a dataclass)."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


@dataclass
class RpcConfig:
    timeout: float = 1.0  # initial retransmission timeout, seconds
    backoff: float = 2.0  # timeout multiplier per retry
    max_retries: int = 5  # retransmissions before giving up
    server_threads: int = 8  # service thread pool size
    dup_cache_size: int = 512  # retained completed replies
    cpu_per_call: float = 0.0  # seconds of CPU per RPC on each side


@dataclass
class _Call:
    xid: int
    src: str
    proc: str
    args: tuple = ()
    is_reply: bool = False
    result: Any = None
    error: Optional[BaseException] = None
    #: trace context (trace id, parent span id) shipped with the request
    #: so the server-side handler joins the caller's causal tree; not
    #: counted in estimate_size (metadata, not payload)
    ctx: Optional[tuple] = None
    #: repro.obs server phase tuple (queue, cpu, disk, other, wall)
    #: piggybacked on the reply so the client can attribute server time;
    #: metadata like ctx, not counted in estimate_size
    srv_phases: Optional[tuple] = None


class _DupCache:
    """Duplicate-request cache: (src, xid) -> in-progress or done-reply."""

    _IN_PROGRESS = object()

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._done: "OrderedDict[Tuple[str, int], _Call]" = OrderedDict()
        self._in_progress: set = set()

    def begin(self, key: Tuple[str, int]) -> Optional[_Call]:
        """Register a request.  Returns a cached reply to resend, or
        None if the request should execute.  Raises _Busy if already
        executing (caller drops the duplicate)."""
        if key in self._in_progress:
            raise _Busy()
        cached = self._done.get(key)
        if cached is not None:
            return cached
        self._in_progress.add(key)
        return None

    def finish(self, key: Tuple[str, int], reply: _Call) -> None:
        self._in_progress.discard(key)
        self._done[key] = reply
        while len(self._done) > self.capacity:
            self._done.popitem(last=False)

    def clear(self) -> None:
        self._done.clear()
        self._in_progress.clear()


class _Busy(Exception):
    pass


#: sentinel value a retransmit timer delivers into the reply event; the
#: call loop distinguishes it from a real _Call reply by identity
_TIMED_OUT = object()


Handler = Callable[..., Generator]


class RpcEndpoint:
    """One host's RPC stack: client stubs plus a procedure server.

    Handlers are registered with :meth:`register`; each handler is a
    simulation coroutine ``handler(src_addr, *args)`` whose return value
    becomes the reply.  Exceptions raised by handlers are shipped back
    and re-raised at the caller.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        config: Optional[RpcConfig] = None,
        cpu=None,
        port: int = RPC_PORT,
        keep_call_times: bool = False,
    ):
        self.sim = sim
        self.network = network
        self.address = address
        self.config = config or RpcConfig()
        self.cpu = cpu  # object with consume(seconds) coroutine, or None
        self.port = port
        self.iface: Interface = network.attach(address)
        self._inbox: Store = self.iface.listen(port, daemon=True)
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[int, Event] = {}
        self._xids = itertools.count(1)
        self._dup_cache = _DupCache(self.config.dup_cache_size)
        self.threads = Resource(
            sim, capacity=self.config.server_threads, name="rpcthreads:%s" % address
        )
        self.threads.obs_kind = "threads"
        # client_stats: calls issued from here; server_stats: calls served here
        self.client_stats = Counters(keep_times=keep_call_times, sim=sim)
        self.server_stats = Counters(keep_times=keep_call_times, sim=sim)
        # observers called once per *executed* (not duplicate-cached)
        # request, after its handler completes:
        #   listener(proc, src, args, result, error, now)
        # The consistency oracle records server-acknowledged writes here;
        # the SNFS keepalive sweep tracks when each client was last heard.
        self.serve_listeners: list = []
        self.alive = True
        #: bumped by crash(): lets a _serve coroutine that was mid-handler
        #: when the power failed recognize that its world is gone
        self.boot_epoch = 0
        self._dispatcher = sim.spawn(self._dispatch_loop(), name="rpc:%s" % address)

    # -- server side -----------------------------------------------------

    def register(self, proc: str, handler: Handler) -> None:
        if proc in self._handlers:
            raise RpcError("procedure %r already registered on %s" % (proc, self.address))
        self._handlers[proc] = handler

    def register_service(self, service: object, procs: Dict[str, str]) -> None:
        """Register ``procs`` mapping RPC name -> method name on service."""
        for proc, method in procs.items():
            self.register(proc, getattr(service, method))

    def _dispatch_loop(self):
        while True:
            packet = yield self._inbox.get()
            if not self.alive:
                continue
            msg: _Call = packet.payload
            if msg.is_reply:
                waiter = self._pending.pop(msg.xid, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(msg)
                continue
            self.sim.spawn(
                self._serve(msg), name="serve:%s:%s" % (self.address, msg.proc)
            )

    def _note_duplicate(self, msg: _Call, kind: str) -> None:
        """A retransmission hit the duplicate cache (``kind`` is "busy"
        for a still-executing original, "done" for a cached reply)."""
        if self.sim.tracer is not None:
            self.sim.tracer.instant(
                "rpc.dup_hit", cat="rpc", track=self.address,
                proc=msg.proc, src=msg.src, kind=kind,
            )
        if self.sim.metrics is not None:
            self.sim.metrics.counter("rpc.dup_hits").inc(
                proc=msg.proc, endpoint=self.address, kind=kind
            )

    def _serve(self, msg: _Call):
        tracer = self.sim.tracer
        if tracer is not None:
            # join the caller's causal tree before recording anything
            tracer.adopt(msg.ctx)
        epoch = self.boot_epoch
        key = (msg.src, msg.xid)
        try:
            cached = self._dup_cache.begin(key)
        except _Busy:
            self._note_duplicate(msg, "busy")
            return  # retransmission of an executing request: drop it
        if cached is not None:
            self._note_duplicate(msg, "done")
            yield from self._send_reply(msg.src, cached)
            return

        span = None
        if tracer is not None:
            span = tracer.begin(
                "rpc.serve:%s" % msg.proc, cat="rpc", track=self.address, src=msg.src
            )
        obs = self.sim.obs
        frame = None
        if obs is not None:
            # opened before thread-pool admission so queue-wait counts;
            # closed before the reply is sent so transit stays net time
            frame = obs.frame_begin("server")
        handler = self._handlers.get(msg.proc)
        reply = _Call(xid=msg.xid, src=self.address, proc=msg.proc, is_reply=True)
        try:
            if handler is None:
                reply.error = RpcProcedureError("no such procedure: %s" % msg.proc)
            else:
                yield self.threads.acquire()
                try:
                    if self.cpu is not None and self.config.cpu_per_call > 0:
                        yield from self.cpu.consume(self.config.cpu_per_call)
                    self.server_stats.record(msg.proc, t=self.sim.now)
                    if obs is not None:
                        obs.note_request(msg.proc, msg.src)
                    reply.result = yield from handler(msg.src, *msg.args)
                except GeneratorExit:
                    raise  # service process torn down, not a handler error
                except BaseException as exc:  # noqa: BLE001 - shipped to caller
                    reply.error = exc
                finally:
                    self.threads.release()
                if epoch != self.boot_epoch:
                    # the endpoint crashed (and maybe rebooted) while
                    # the handler ran: this reply reflects pre-crash
                    # state.  crash() already emptied the duplicate
                    # cache; caching or sending this reply would
                    # repopulate the *post-reboot* cache with it, and a
                    # retransmission would then be answered instead of
                    # re-executed — silently breaking at-least-once
                    # semantics.  The request was never acknowledged,
                    # so observers must not see it either.
                    if frame is not None:
                        obs.frame_abort(frame)
                        frame = None
                    return
                for listener in self.serve_listeners:
                    listener(
                        msg.proc, msg.src, msg.args, reply.result, reply.error, self.sim.now
                    )
            if frame is not None:
                # piggyback the server's phase split on the reply (the
                # duplicate cache retains it, so replayed replies carry
                # the original execution's attribution)
                reply.srv_phases = obs.close_server_frame(frame)
                frame = None
            sanitizer = self.sim.sanitizer
            if sanitizer is not None and key in self._dup_cache._done:
                sanitizer.on_rpc_double_reply(
                    self.address, key, self._dup_cache._done[key], reply
                )
            self._dup_cache.finish(key, reply)
            yield from self._send_reply(msg.src, reply)
        finally:
            if frame is not None:  # teardown mid-serve: drop, don't record
                obs.frame_abort(frame)
            if span is not None and span.t1 is None:
                if reply.error is not None:
                    tracer.end(span, error=type(reply.error).__name__)
                else:
                    tracer.end(span)

    def _send_reply(self, dst: str, reply: _Call):
        size = _HEADER_BYTES + estimate_size(reply.result)
        yield from self.iface.send(dst, self.port, reply, size)

    # -- client side -----------------------------------------------------

    def call(
        self,
        dst: str,
        proc: str,
        *args: Any,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        hard: bool = False,
    ):
        """Coroutine: invoke ``proc`` on ``dst``, with retransmission.

        Returns the remote handler's return value, re-raises its
        exception, or raises :class:`RpcTimeout` after the retry budget
        is exhausted.  ``hard=True`` gives hard-mount semantics: retry
        forever (backoff capped at 30 s) — an NFS client never gives up
        on its server.
        """
        tracer, metrics = self.sim.tracer, self.sim.metrics
        obs = self.sim.obs
        if tracer is None and metrics is None and obs is None:
            return (yield from self._call_inner(
                dst, proc, args, timeout, max_retries, hard, None
            ))
        span = None
        ctx = None
        frame = None
        if tracer is not None:
            span = tracer.begin(
                "rpc.call:%s" % proc, cat="rpc", track=self.address, dst=dst
            )
            ctx = tracer.context_of(span)
        if obs is not None:
            frame = obs.frame_begin("client")
        t_start = self.sim.now
        try:
            result = yield from self._call_inner(
                dst, proc, args, timeout, max_retries, hard, ctx
            )
        except BaseException as exc:
            if span is not None:
                tracer.end(span, error=type(exc).__name__)
            if frame is not None:
                obs.record_client_failure(proc, frame)
            raise
        if span is not None:
            tracer.end(span)
        if frame is not None:
            obs.record_client_op(proc, frame, server=dst)
        if metrics is not None:
            metrics.histogram("rpc.latency", buckets=RPC_LATENCY_BUCKETS).observe(
                self.sim.now - t_start, proc=proc, endpoint=self.address,
                server=dst,
            )
        return result

    def _call_inner(
        self,
        dst: str,
        proc: str,
        args: tuple,
        timeout: Optional[float],
        max_retries: Optional[int],
        hard: bool,
        ctx: Optional[tuple],
    ):
        xid = next(self._xids)
        msg = _Call(xid=xid, src=self.address, proc=proc, args=args, ctx=ctx)
        size = _HEADER_BYTES + estimate_size(args)
        wait = self.config.timeout if timeout is None else timeout
        self.client_stats.record(proc, t=self.sim.now)

        retries = self.config.max_retries if max_retries is None else max_retries
        attempts = 1 << 62 if hard else retries + 1
        attempt = -1
        while (attempt := attempt + 1) < attempts:
            if self.cpu is not None and self.config.cpu_per_call > 0:
                yield from self.cpu.consume(self.config.cpu_per_call)
            # One event serves both outcomes per attempt: the dispatcher
            # succeeds it with the reply _Call; a bare cancellable timer
            # (no Timeout event, no AnyOf condition) succeeds it with the
            # _TIMED_OUT sentinel.  Whichever fires first wins; the
            # loser is cancelled or sees the event already triggered.
            reply_ev = Event(self.sim, "rpc-reply")
            self._pending[xid] = reply_ev
            yield from self.iface.send(dst, self.port, msg, size)
            timer = self.sim.after(wait, self._expire, reply_ev)
            reply = yield reply_ev
            if reply is not _TIMED_OUT:
                timer.cancel()
                obs = self.sim.obs
                if obs is not None and reply.srv_phases is not None:
                    obs.attach_server_phases(reply.srv_phases)
                if self.cpu is not None and self.config.cpu_per_call > 0:
                    yield from self.cpu.consume(self.config.cpu_per_call)
                if reply.error is not None:
                    raise reply.error
                return reply.result
            # timed out: forget this attempt's waiter, back off, resend
            self._pending.pop(xid, None)  # lint: ok=ATOM002 — xids are unique per attempt; each in-flight call owns its own _pending slot
            if self.sim.obs is not None:
                # the retransmit timer ran its full course: that window
                # (send-complete to timer fire) was pure waiting
                self.sim.obs.add("retrans.wait", wait)  # lint: ok=ATOM001 — obs.add is a pure accumulator; contributions from interleaved calls commute
            wait = min(wait * self.config.backoff, 30.0)
            if attempt + 1 < attempts:
                self.client_stats.record("%s.retransmit" % proc, t=self.sim.now)
                if self.sim.tracer is not None:
                    self.sim.tracer.instant(
                        "rpc.retransmit", cat="rpc", track=self.address,
                        proc=proc, attempt=attempt + 1,
                    )
                if self.sim.metrics is not None:
                    self.sim.metrics.counter("rpc.retrans").inc(
                        proc=proc, endpoint=self.address
                    )
        raise RpcTimeout(
            "%s -> %s %s: no reply after %d attempts"
            % (self.address, dst, proc, attempts)
        )

    @staticmethod
    def _expire(reply_ev: Event) -> None:
        if not reply_ev.triggered:
            reply_ev.succeed(_TIMED_OUT)

    # -- crash modelling ---------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile RPC state (host crash)."""
        self.alive = False
        self.boot_epoch += 1
        self.iface.up = False
        self.iface.flush_ports()
        for ev in list(self._pending.values()):
            if not ev.triggered:
                ev.defuse()
        self._pending.clear()
        self._dup_cache.clear()

    def reboot(self) -> None:
        self.alive = True
        self.iface.up = True
