"""Host-clock spans around calls into the simulator's layers.

The traced benchmark run replaces selected methods (the layer entry
points listed in :mod:`perfbench.layers`) with timing wrappers.  Each
call becomes one span: name, start, end, parent span, and a request id
shared by every span under one workload syscall.  A span's *self* time
is its duration minus the part of it that its child spans cover.

Most entry points are simulation coroutines (generator functions).
Calling one only creates a generator; the work happens each time the
engine resumes it.  :class:`TimedGenerator` therefore times every
``send``/``throw``/``close`` of the generator it wraps and forwards the
call unchanged, so ``Interrupt`` and ``GeneratorExit`` still reach the
wrapped code and a wrapped call behaves exactly like the original.

Spans are kept in memory as parallel ``array`` columns (a few dozen
bytes each) and written out with :meth:`Recorder.write` when the run
ends.  Wrappers must be installed on the classes *before* the testbed
is built: constructors bind methods (``register_service`` binds every
``proc_*``), and a bound method captured before installation bypasses
the wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from array import array
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "TimedGenerator", "Installation", "load_spans"]

_clock = time.perf_counter
_MISSING = object()

#: span columns, in the order :meth:`Recorder.write` stores them
COLUMNS = (
    ("name", "l"),  # index into Recorder.names
    ("parent", "q"),  # span id of the enclosing span, -1 for a root
    ("rid", "q"),  # request id, 0 outside any workload syscall
    ("t0", "d"),  # host clock at the call
    ("t1", "d"),  # host clock when the last resume returned
    ("total_s", "d"),  # host seconds spent inside the span
    ("self_s", "d"),  # total_s minus the total_s of child spans
    ("sim0", "d"),  # simulated time at the call
    ("sim1", "d"),  # simulated time when the last resume returned
)


class Recorder:
    """In-memory span store plus the stack of frames now executing.

    ``active`` gates everything: an installed wrapper whose recorder is
    inactive calls straight through, so set-up and output checks run
    untimed.  ``sim`` is the simulator whose clock stamps ``sim0`` and
    ``sim1`` and whose ``current_process`` carries request ids across
    process boundaries.
    """

    def __init__(self):
        self.active = False
        self.sim = None
        self.names: List[str] = []
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        #: name indexes whose spans start a request (the syscalls)
        self.request_roots = set()
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and tally (the name table stays)."""
        for column, code in COLUMNS:
            setattr(self, column, array(code))
        #: free-form per-layer tallies filled by entry-point observers
        self.tally: Dict[str, float] = {}
        self._stack: List[list] = []
        self._proc_rid: Dict[object, int] = {}
        self._last_rid = 0

    def __len__(self) -> int:
        return len(self.name)

    def name_index(self, name: str, layer: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return idx

    def add(self, key: str, n: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + n

    # -- spans ---------------------------------------------------------------

    def open_span(self, idx: int) -> int:
        """Record a new span under the frame now executing; returns its id.

        The span joins the request of its parent frame, else the
        request bound to the current simulation process; a request root
        (a syscall) outside any request starts a new one.
        """
        stack = self._stack
        if stack:
            parent = stack[-1][0]
            rid = self.rid[parent]
        else:
            parent = -1
            rid = 0
        sim = self.sim
        if not rid:
            proc = sim.current_process
            if proc is not None:
                rid = self._proc_rid.get(proc, 0)
            if not rid and idx in self.request_roots:
                self._last_rid += 1
                rid = self._last_rid
        sid = len(self.name)
        self.name.append(idx)
        self.parent.append(parent)
        self.rid.append(rid)
        self.t0.append(_clock())
        self.t1.append(math.nan)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        self.sim0.append(sim.now)
        self.sim1.append(math.nan)
        return sid

    def push(self, sid: int) -> None:
        self._stack.append([sid, _clock(), 0.0])

    def pop(self) -> None:
        t1 = _clock()
        sid, t0, child = self._stack.pop()
        spent = t1 - t0
        self.total_s[sid] += spent
        self.self_s[sid] += spent - child
        self.t1[sid] = t1
        self.sim1[sid] = self.sim.now
        if self._stack:
            self._stack[-1][2] += spent

    def current_rid(self) -> int:
        """Request id of the frame now executing (0 if none)."""
        stack = self._stack
        return self.rid[stack[-1][0]] if stack else 0

    def bind_process(self, proc, rid: int) -> None:
        """Spans opened in ``proc`` outside any frame inherit ``rid``."""
        if rid:
            self._proc_rid[proc] = rid

    def top_name(self) -> int:
        stack = self._stack
        return self.name[stack[-1][0]] if stack else -1

    # -- summaries -----------------------------------------------------------

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, self seconds, simulated seconds inside)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        sim_s = [0.0] * len(self.names)
        for idx, spent, s0, s1 in zip(self.name, self.self_s, self.sim0, self.sim1):
            calls[idx] += 1
            self_s[idx] += spent
            if s1 == s1:  # not NaN: the span was resumed at least once
                sim_s[idx] += s1 - s0
        return {
            name: (calls[i], self_s[i], sim_s[i])
            for i, name in enumerate(self.names)
            if calls[i]
        }

    # -- export ----------------------------------------------------------------

    def write(self, stem: str, meta: Optional[dict] = None) -> Tuple[str, str]:
        """Write ``<stem>.json`` (header) and ``<stem>.bin`` (columns)."""
        header = {
            "format": "perfbench-spans/1",
            "spans": len(self),
            "columns": [[name, code] for name, code in COLUMNS],
            "names": self.names,
            "layers": self.layers,
            "meta": meta or {},
        }
        with open(stem + ".bin", "wb") as out:
            for column, _code in COLUMNS:
                getattr(self, column).tofile(out)
        with open(stem + ".json", "w") as out:
            json.dump(header, out, indent=1)
        return stem + ".json", stem + ".bin"


def load_spans(stem: str) -> Tuple[dict, Dict[str, array]]:
    """Read back a span file written by :meth:`Recorder.write`."""
    with open(stem + ".json") as f:
        header = json.load(f)
    n = header["spans"]
    columns: Dict[str, array] = {}
    with open(stem + ".bin", "rb") as f:
        for name, code in header["columns"]:
            column = array(code)
            column.fromfile(f, n)
            columns[name] = column
    return header, columns


class TimedGenerator:
    """Drop-in stand-in for a generator that times each of its resumes.

    ``yield from`` and :class:`repro.sim.Process` drive it through
    ``send``/``throw``/``close`` exactly as they would the generator it
    wraps; each resume is one frame on the recorder's stack.  The span
    is opened lazily at the first resume made while the recorder is
    active, so generators created during set-up cost nothing later.
    """

    __slots__ = ("_gen", "_rec", "_idx", "_sid")

    def __init__(self, gen, rec: Recorder, idx: int, sid: int = -1):
        self._gen = gen
        self._rec = rec
        self._idx = idx
        self._sid = sid

    @property
    def __name__(self):  # Process names unnamed processes after the generator
        return self._gen.__name__

    @property
    def rid(self) -> int:
        return self._rec.rid[self._sid] if self._sid >= 0 else 0

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        rec = self._rec
        if not rec.active:
            return method(*args)
        if self._sid < 0:
            self._sid = rec.open_span(self._idx)
        rec.push(self._sid)
        try:
            return method(*args)
        finally:
            rec.pop()

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        return self._resume(self._gen.close)


#: observer signatures: on_call(rec, sid, args) runs when a call is
#: made while the recorder is active, after its span opens;
#: on_return(rec, args, result) runs when a plain (non-generator) call
#: returns
OnCall = Callable[[Recorder, int, tuple], None]
OnReturn = Callable[[Recorder, tuple, object], None]


def timed(
    fn,
    rec: Recorder,
    idx: int,
    on_call: Optional[OnCall] = None,
    on_return: Optional[OnReturn] = None,
    flat: bool = False,
):
    """Wrap ``fn`` so each call opens a span named ``rec.names[idx]``.

    ``flat`` makes a call made directly inside a span of the same name
    pass straight through (a recursive helper counts once, at the top).
    """
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def timed_coroutine(*args, **kwargs):
            gen = fn(*args, **kwargs)  # runs no body code yet
            if not rec.active:
                return TimedGenerator(gen, rec, idx)
            sid = rec.open_span(idx)
            if on_call is not None:
                on_call(rec, sid, args)
            return TimedGenerator(gen, rec, idx, sid)

        return timed_coroutine

    @functools.wraps(fn)
    def timed_call(*args, **kwargs):
        if not rec.active or (flat and rec.top_name() == idx):
            return fn(*args, **kwargs)
        sid = rec.open_span(idx)
        if on_call is not None:
            on_call(rec, sid, args)
        rec.push(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop()
        if type(result) is GeneratorType:  # a plain function handing back a coroutine
            return TimedGenerator(result, rec, idx, sid)
        if on_return is not None:
            on_return(rec, args, result)
        return result

    return timed_call


class Installation:
    """Replaces attributes with timing wrappers; ``restore`` undoes it.

    Attributes are looked up through the MRO and set on ``owner``
    itself, so wrapping an inherited method shadows it on that class
    only and a ``super()`` call inside it reaches the original.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        on_call: Optional[OnCall] = None,
        on_return: Optional[OnReturn] = None,
        flat: bool = False,
        request_root: bool = False,
    ) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod, property)) or not callable(raw):
            raise TypeError("%r.%s is not a plain function" % (owner, attr))
        label = name or "%s.%s" % (getattr(owner, "__name__", owner), attr)
        idx = self.rec.name_index(label, layer)
        if request_root:
            self.rec.request_roots.add(idx)
        owner_dict = vars(owner)
        self._saved.append((owner, attr, owner_dict.get(attr, _MISSING)))
        setattr(owner, attr, timed(raw, self.rec, idx, on_call, on_return, flat))

    def restore(self) -> None:
        for owner, attr, previous in reversed(self._saved):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._saved = []

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
