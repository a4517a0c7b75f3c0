"""Simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` from the
generator must produce a *waitable*: an :class:`~repro.sim.engine.Event`
(which includes timeouts, conditions, and other processes).  The process
is resumed with the event's value, or has the event's exception thrown
into it.

A process is itself an event, so processes can be joined::

    child = sim.spawn(worker(sim))
    result = yield child          # waits for completion

Processes can be interrupted::

    child.interrupt("cancelled")

which raises :class:`~repro.sim.engine.Interrupt` at the child's
current wait point.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .engine import Event, Interrupt, SimulationError, Simulator, _UNSET

__all__ = ["Process"]


class Process(Event):
    """A running coroutine inside the simulation.

    Triggered (as an event) when the generator finishes; the value is
    the generator's return value.  If the generator raises, the process
    fails with that exception — joiners see it re-raised, and if nobody
    joins, the simulator surfaces it from :meth:`Simulator.run`.
    """

    __slots__ = (
        "_gen", "_waiting_on", "_interrupt_pending", "trace_ctx", "obs_frames",
    )

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "spawn() requires a generator, got %r" % (generator,)
            )
        Event.__init__(self, sim, name or getattr(generator, "__name__", "process"))
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        self._interrupt_pending = False
        #: (trace id, span id) causal context — inherited from the
        #: spawning process so forked work stays inside its trace tree
        parent = sim.current_process
        self.trace_ctx = parent.trace_ctx if parent is not None else None
        #: stack of open repro.obs frames (operations in flight in this
        #: process); lazily created by the collector, None when obs is off
        self.obs_frames = None
        if sim.probe is not None:
            sim.probe.instant("proc.spawn", "sim", "sim", child=self.name)
        sim._process_count += 1
        sim.call_soon(self._resume, None)

    # -- lifecycle ----------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is an error; interrupting a
        process that has not started yet delivers the interrupt at its
        first wait.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt finished process %s" % self.name)
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._on_event)
            except ValueError:
                pass
        self._waiting_on = None
        self.sim.call_soon(self._throw_in, Interrupt(cause))

    # -- internals ------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        self._resume(event)

    def _resume(self, event: Optional[Event]) -> None:
        # hot path: attribute checks instead of the triggered/ok/value
        # properties; the semantics are identical
        if self._value is not _UNSET or self._exception is not None:
            return
        sim = self.sim
        prev = sim.current_process
        sim.current_process = self
        try:
            try:
                if event is None:
                    target = next(self._gen)
                elif event._exception is None:
                    target = self._gen.send(event._value)
                else:
                    event._defused = True
                    target = self._gen.throw(event._exception)
            except StopIteration as stop:
                self._finish_ok(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into event
                self._finish_fail(exc)
                return
        finally:
            sim.current_process = prev
        # inlined _wait_for for the common wait-on-pending-event case
        # (callbacks is None exactly when the target already triggered)
        if isinstance(target, Event):
            callbacks = target.callbacks
            if callbacks is not None:
                self._waiting_on = target
                callbacks.append(self._on_event)
            else:
                sim.call_soon(self._resume, target)
        else:
            self._wait_for(target)

    def _throw_in(self, exc: BaseException) -> None:
        if self._value is not _UNSET or self._exception is not None:
            return
        prev = self.sim.current_process
        self.sim.current_process = self
        try:
            try:
                target = self._gen.throw(exc)
            except StopIteration as stop:
                self._finish_ok(stop.value)
                return
            except BaseException as raised:  # noqa: BLE001
                self._finish_fail(raised)
                return
        finally:
            self.sim.current_process = prev
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish_fail(
                SimulationError(
                    "process %s yielded a non-waitable: %r" % (self.name, target)
                )
            )
            return
        if target.callbacks is None:  # already triggered
            self.sim.call_soon(self._resume, target)
        else:
            self._waiting_on = target
            target.callbacks.append(self._on_event)

    def _finish_ok(self, value: Any) -> None:
        self._gen.close()
        if self.sim.probe is not None:
            self.sim.probe.instant("proc.finish", "sim", "sim")
        self.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        if self.sim.probe is not None:
            self.sim.probe.instant("proc.fail", "sim", "sim", error=type(exc).__name__)
        self._exception = exc
        self.sim._trigger(self)
