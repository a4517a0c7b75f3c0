"""Operation counters.

Every layer that the paper instruments (RPC operations, disk operations)
records into a :class:`Counters` object: a named multiset with optional
timestamped event logs so that *rates over time* (figures 5-1/5-2) can
be derived from the same data as *totals* (tables 5-2/5-4/5-6).
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Counters", "CountersTimestampWarning"]


class CountersTimestampWarning(RuntimeWarning):
    """A timed Counters.record() call had no timestamp to record."""


class Counters:
    """A named event counter with optional per-event timestamps.

    ``record(name, t)`` bumps the total for ``name`` and, when the
    counter was created with ``keep_times=True``, appends ``t`` to the
    event log for that name — enough to reconstruct rate curves.

    When a simulator is attached (``sim=`` or :meth:`attach_sim`), a
    missing ``t`` defaults to the simulated clock instead of being
    silently dropped from the event log; without a simulator a
    :class:`CountersTimestampWarning` is emitted so the gap in the rate
    data is visible.
    """

    def __init__(self, keep_times: bool = False, sim=None):
        self.sim = sim
        self._totals: Dict[str, int] = defaultdict(int)
        self._times: Optional[Dict[str, List[float]]] = (
            defaultdict(list) if keep_times else None
        )

    def attach_sim(self, sim) -> "Counters":
        """Use ``sim.now`` as the default timestamp for record()."""
        self.sim = sim
        return self

    def record(self, name: str, t: Optional[float] = None, n: int = 1) -> None:
        self._totals[name] += n
        if self._times is not None:
            if t is None:
                if self.sim is not None:
                    t = self.sim.now
                else:
                    warnings.warn(
                        "Counters.record(%r): keep_times=True but no timestamp "
                        "given and no simulator attached; event dropped from "
                        "the time log (pass t=sim.now or attach_sim(sim))" % name,
                        CountersTimestampWarning,
                        stacklevel=2,
                    )
            if t is not None:
                self._times[name].extend([t] * n)

    def get(self, name: str) -> int:
        return self._totals.get(name, 0)

    def total(self, names: Optional[Iterable[str]] = None) -> int:
        if names is None:
            return sum(self._totals.values())
        return sum(self._totals.get(n, 0) for n in names)

    def names(self) -> List[str]:
        return sorted(self._totals)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._totals)

    def times(self, name: str) -> List[float]:
        """Timestamps for ``name`` (empty if times were not kept)."""
        if self._times is None:
            return []
        return list(self._times.get(name, []))

    def all_times(self) -> List[Tuple[float, str]]:
        """Every recorded (time, name) pair, time-sorted."""
        if self._times is None:
            return []
        pairs = [
            (t, name) for name, ts in self._times.items() for t in ts
        ]
        pairs.sort()
        return pairs

    def reset(self) -> None:
        self._totals.clear()
        if self._times is not None:
            self._times.clear()

    def __repr__(self) -> str:
        parts = ", ".join("%s=%d" % (k, v) for k, v in sorted(self._totals.items()))
        return "Counters(%s)" % parts
