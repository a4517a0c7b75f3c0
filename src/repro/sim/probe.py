"""The one instrumentation seam: every instrumented site reports to ``sim.probe``.

``Simulator.probe`` is ``None`` until ``enable_tracer``, ``enable_metrics``
or ``enable_obs`` attaches a sink; then it is a :class:`Probe` with three
fixed subscriber fields, ``tracer``, ``registry`` (metrics) and
``collector`` (obs), each ``None`` until its own ``enable_*`` call.  A site
makes one ``is None`` test and one probe call per occurrence; the probe
decides which subscriber records what (tabled in docs/OBSERVABILITY.md)
and creates no event, timeout or process, so any subset of subscribers
leaves the schedule unchanged.
"""

from __future__ import annotations

__all__ = ["Probe", "RpcFrame", "RPC_LATENCY_BUCKETS"]

#: rpc.latency histogram buckets — the registry default starts at 1 ms,
#: above many LAN round trips, so sub-ms calls all piled into one bucket
RPC_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class RpcFrame:
    """One RPC call or serve in flight: its span, obs frame and, for a
    call, the trace context its request ships."""

    __slots__ = ("track", "proc", "peer", "t0", "span", "obs", "ctx")

    def __init__(self, track, proc, peer, t0):
        self.track = track
        self.proc = proc
        self.peer = peer
        self.t0 = t0
        self.span = None
        self.obs = None
        self.ctx = None


class Probe:
    """Routes each instrumented occurrence to the attached subscribers."""

    __slots__ = ("sim", "tracer", "registry", "collector")

    def __init__(self, sim):
        self.sim = sim
        self.tracer = None
        self.registry = None
        self.collector = None

    def span_begin(self, name, cat, track, **args):
        """Open a span; returns it, or None when no tracer is attached."""
        if self.tracer is not None:
            return self.tracer.begin(name, cat, track, **args)
        return None

    def span_end(self, span, error=None):
        if error is None:
            self.tracer.end(span)
        else:
            self.tracer.end(span, error=type(error).__name__)

    def instant(self, name, cat, track, **args):
        if self.tracer is not None:
            self.tracer.instant(name, cat, track, **args)

    def count(self, metric, /, **labels):
        if self.registry is not None:
            self.registry.counter(metric).inc(**labels)

    def observe(self, metric, value, /, **labels):
        if self.registry is not None:
            self.registry.histogram(metric).observe(value, **labels)

    def service(self, kind, seconds, span=None):
        """A resource served ``seconds`` of ``kind`` ("cpu.service") to
        the running operation; ``span`` is its busy span, ending now."""
        if self.collector is not None:
            self.collector.add(kind, seconds)
        if span is not None:
            self.tracer.end(span)

    def wait_begin(self, resource, ev):
        if self.collector is not None:
            self.collector.wait_begin(resource, ev)

    def wait_end(self, resource, ev):
        if self.collector is not None:
            self.collector.wait_end(resource, ev)

    def tag_file(self, key, read_bytes=0, write_bytes=0):
        if self.collector is not None:
            self.collector.tag_file(key, read_bytes=read_bytes, write_bytes=write_bytes)

    def fault(self, kind, what, trace):
        """A fault fired; ``trace`` also puts it on the trace timeline."""
        if self.registry is not None:
            self.registry.counter("faults.events").inc(kind=kind)
        if trace and self.tracer is not None:
            self.tracer.instant("fault.%s" % kind, "faults", "faults", what=what)

    # -- RPC ------------------------------------------------------------------

    def _rpc_open(self, side, span_name, track, proc, peer, **args):
        frame = RpcFrame(track, proc, peer, self.sim.now)
        if self.tracer is not None:
            frame.span = self.tracer.begin(span_name, "rpc", track, **args)
        if self.collector is not None:
            frame.obs = self.collector.frame_begin(side)
        return frame

    def call_begin(self, track, proc, dst):
        frame = self._rpc_open("client", "rpc.call:%s" % proc, track, proc, dst, dst=dst)
        if frame.span is not None:
            frame.ctx = self.tracer.context_of(frame.span)
        return frame

    def call_timeout(self, track, proc, wait, retry):
        """An attempt's ``wait``-second retransmit timer ran out;
        ``retry`` numbers the resend, 0 when the budget is spent."""
        if self.collector is not None:
            self.collector.add("retrans.wait", wait)
        if retry and self.tracer is not None:
            self.tracer.instant("rpc.retransmit", "rpc", track, proc=proc, attempt=retry)
        if retry and self.registry is not None:
            self.registry.counter("rpc.retrans").inc(proc=proc, endpoint=track)

    def call_end(self, frame, error=None, srv_phases=None):
        """The call raised ``error``, or returned a reply carrying the
        server's obs phase split (if a collector is attached)."""
        if frame.span is not None:
            self.span_end(frame.span, error)
        if error is not None:
            if frame.obs is not None:
                self.collector.record_client_failure(frame.proc, frame.obs)
            return
        if frame.obs is not None:
            self.collector.record_client_op(
                frame.proc, frame.obs, server=frame.peer, srv_phases=srv_phases
            )
        if self.registry is not None:
            self.registry.histogram("rpc.latency", buckets=RPC_LATENCY_BUCKETS).observe(
                self.sim.now - frame.t0, proc=frame.proc, endpoint=frame.track,
                server=frame.peer,
            )

    def dup_hit(self, track, proc, src, ctx, kind):
        """A retransmission hit the duplicate cache (``kind`` is "busy"
        for a still-executing original, "done" for a cached reply)."""
        if self.tracer is not None:
            self.tracer.adopt(ctx)  # join the caller's causal tree first
            self.tracer.instant("rpc.dup_hit", "rpc", track, proc=proc, src=src, kind=kind)
        if self.registry is not None:
            self.registry.counter("rpc.dup_hits").inc(proc=proc, endpoint=track, kind=kind)

    def serve_begin(self, track, proc, src, ctx):
        """Join the caller's trace and open the serve frame (before
        thread-pool admission, so queue-wait counts)."""
        if self.tracer is not None:
            self.tracer.adopt(ctx)
        return self._rpc_open("server", "rpc.serve:%s" % proc, track, proc, src, src=src)

    def serve_admit(self, frame):
        """The request executes (it is no duplicate)."""
        if frame.obs is not None:
            self.collector.note_request(frame.proc, frame.peer)

    def serve_close(self, frame):
        """Close the obs frame before the reply is sent, so transit stays
        net time; returns the phase tuple the reply carries, or None."""
        obs, frame.obs = frame.obs, None
        return None if obs is None else self.collector.close_server_frame(obs)

    def serve_end(self, frame, error):
        """The serve process is done; an obs frame still open (crashed
        epoch, teardown mid-serve) is dropped, not recorded."""
        if frame.obs is not None:
            self.collector.frame_end(frame.obs)
        if frame.span is not None and frame.span.t1 is None:
            self.span_end(frame.span, error)
