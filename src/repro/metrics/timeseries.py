"""Time-series sampling for server utilization (figures 5-1 and 5-2).

A :class:`UtilizationSampler` is a simulation process that periodically
samples the accumulated busy time of a resource (a CPU, a disk) and
stores per-interval utilization fractions.  The paper plots server CPU
load sampled over the run of the Andrew benchmark; we reproduce that by
sampling the server host CPU.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

__all__ = ["UtilizationSampler", "TimeSeries"]


class TimeSeries:
    """A simple (t, value) series with summary helpers."""

    def __init__(self, name: str = ""):
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def append(self, t: float, value: float) -> None:
        self.points.append((t, value))

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def mean(self) -> float:
        """Sample-weighted mean: every point counts equally, regardless
        of the interval it covers.  Correct only for evenly spaced
        samples; prefer :meth:`time_mean` when intervals vary."""
        vs = self.values()
        return sum(vs) / len(vs) if vs else 0.0

    def time_mean(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Time-weighted mean: integral over ``(t0, t1]`` divided by the
        span.  A sample covering a 10 s interval counts 10x a sample
        covering 1 s, so unevenly spaced series summarize correctly.
        ``t1`` defaults to the last sample time."""
        if not self.points:
            return 0.0
        end = self.points[-1][0] if t1 is None else t1
        span = end - t0
        if span <= 0:
            return 0.0
        return self.integral(t0, end) / span

    def maximum(self) -> float:
        vs = self.values()
        return max(vs) if vs else 0.0

    def integral(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Sum of value * preceding-interval width (left Riemann sum).

        Each point ``(t, v)`` is the value over the interval ending at
        ``t``.  ``t0`` is the window start — historically this was
        hard-wired to 0, which overcharged the first sample of any
        series that did not begin at the epoch (e.g. a sampler started
        mid-run).  ``t1`` truncates the final interval; intervals
        outside ``(t0, t1]`` contribute nothing.
        """
        total = 0.0
        prev_t = t0
        for t, v in self.points:
            if t1 is not None and prev_t >= t1:
                break
            hi = t if t1 is None else min(t, t1)
            if hi > prev_t:
                total += v * (hi - prev_t)
            prev_t = max(prev_t, t)
        return total

    def window(self, t0: float, t1: float) -> "TimeSeries":
        """New series with the points in ``(t0, t1]``.

        Samples are stamped at interval *end*, so a point at exactly
        ``t0`` belongs to the preceding window and is excluded.
        """
        out = TimeSeries(self.name)
        out.points = [(t, v) for t, v in self.points if t0 < t <= t1]
        return out

    def shifted(self, dt: float) -> "TimeSeries":
        """New series with every timestamp moved by ``dt`` (e.g.
        ``window(t0, t1).shifted(-t0)`` re-zeroes a mid-run window)."""
        out = TimeSeries(self.name)
        out.points = [(t + dt, v) for t, v in self.points]
        return out

    def __len__(self) -> int:
        return len(self.points)


class UtilizationSampler:
    """Samples a busy-time accumulator into per-interval utilization.

    ``busy_time_fn`` must return total accumulated busy seconds (e.g.
    ``cpu.busy_time``).  Every ``interval`` simulated seconds the sampler
    appends ``(now, delta_busy / interval)`` to its series.

    The sampler stops when ``stop()`` is called or the simulation ends.
    """

    def __init__(
        self,
        sim,
        busy_time_fn: Callable[[], float],
        interval: float = 5.0,
        name: str = "utilization",
    ):
        self.sim = sim
        self.interval = interval
        self.series = TimeSeries(name)
        #: samples that fell outside [0, 1] and were clamped — an
        #: over-unity delta means the busy-time accounting double-counted
        self.clamps = 0
        self._busy_time_fn = busy_time_fn
        self._stopped = False
        self._last_busy: Optional[float] = None
        self._proc = sim.spawn(self._run(), name="sampler:%s" % name)

    def stop(self) -> None:
        self._stopped = True

    #: slack for float accumulation noise (busy_time sums many intervals;
    #: a delta can exceed the interval by ~1 ulp without any real bug)
    _CLAMP_EPS = 1e-9

    def _run(self):
        self._last_busy = self._busy_time_fn()
        while not self._stopped:
            yield self.sim.timeout(self.interval)
            busy = self._busy_time_fn()
            frac = (busy - self._last_busy) / self.interval
            if frac > 1.0 + self._CLAMP_EPS or frac < -self._CLAMP_EPS:
                # don't hide the accounting bug: count it and surface it
                # in the obs report / sampler.clamped metric
                self.clamps += 1
                if self.sim.probe is not None:
                    self.sim.probe.count("sampler.clamped", name=self.series.name)
            self.series.append(self.sim.now, min(1.0, max(0.0, frac)))
            self._last_busy = busy  # lint: ok=ATOM002 — the spawned sampler is the sole process touching _last_busy
