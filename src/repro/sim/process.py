"""Generator-based simulated processes.

A process is a Python generator that ``yield``s waitables.  When the
yielded waitable fires, the engine resumes the generator with the
waitable's value (or throws its exception into the generator).  The
``return`` value of the generator becomes the process's result, and the
process itself is a waitable, so processes compose:

>>> def child(eng):
...     yield eng.timeout(1.0)
...     return "done"
>>> def parent(eng):
...     result = yield eng.spawn(child(eng))
...     return result
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.sim.events import Waitable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class ProcessKilled(Exception):
    """Raised inside a generator when :meth:`Process.kill` interrupts it."""


class Process(Waitable):
    """A running simulated process (also a waitable).

    Do not instantiate directly; use :meth:`Engine.spawn`.
    """

    __slots__ = ("name", "generator", "_started", "_finished", "_waiting_on")

    _anon_counter = 0

    def __init__(self, engine: "Engine", generator: Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__} "
                f"(did you forget to call the generator function?)"
            )
        super().__init__(engine)
        if not name:
            Process._anon_counter += 1
            name = f"proc-{Process._anon_counter}"
        self.name = name
        self.generator = generator
        self._started = False
        self._finished = False
        self._waiting_on: Waitable | None = None
        engine._live_processes += 1
        engine.call_later(0.0, self._start)

    @property
    def finished(self) -> bool:
        """True once the generator returned or raised."""
        return self._finished

    # -- lifecycle -----------------------------------------------------------

    def _start(self) -> None:
        if self._finished:  # killed before first step
            return
        self._started = True
        self._advance(self.generator.send, None)

    def _on_waitable(self, waitable: Waitable) -> None:
        # Only what the process waits on now may wake it: a kill that was
        # caught leaves the waitable from before the kill subscribed.
        if waitable is not self._waiting_on:
            return
        self._waiting_on = None
        exc = waitable.exception
        if exc is not None:
            self._advance(self.generator.throw, exc)
        else:
            self._advance(self.generator.send, waitable.value)

    def _advance(self, step, arg) -> None:
        """Resume the generator with ``step(arg)`` (its ``send`` or
        ``throw``) and wait on whatever it yields next."""
        try:
            yielded = step(arg)
        except StopIteration as stop:
            self._complete(value=stop.value)
            return
        except BaseException as exc:
            self._complete(exception=exc)
            return
        if not isinstance(yielded, Waitable):
            error = SimulationError(
                f"process {self.name!r} yielded a non-waitable: {yielded!r}"
            )
            self.generator.close()
            self._complete(exception=error)
            return
        if yielded is self:
            error = SimulationError(
                f"process {self.name!r} cannot wait on itself"
            )
            self.generator.close()
            self._complete(exception=error)
            return
        self._waiting_on = yielded
        yielded.subscribe(self._on_waitable)

    def _complete(self, value: Any = None,
                  exception: BaseException | None = None) -> None:
        self._finished = True
        self.engine._live_processes -= 1
        self._fire(value=value, exception=exception)

    def kill(self, reason: str = "") -> None:
        """Interrupt the process with :class:`ProcessKilled`.

        A process that has already finished is left untouched.  The kill
        is delivered asynchronously (at the current simulated time), so
        the target observes it at a deterministic point.
        """
        if self._finished:
            return
        exc = ProcessKilled(reason or f"process {self.name} killed")
        if not self._started:
            # Never ran: complete straight away without touching the
            # generator (it may not be startable anymore).
            self.generator.close()
            self._complete(exception=exc)
            return
        self.engine.call_soon(self._deliver_kill, exc)

    def _deliver_kill(self, exc: ProcessKilled) -> None:
        if self._finished:
            return
        self._waiting_on = None
        self._advance(self.generator.throw, exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "finished" if self._finished
            else "running" if self._started else "new"
        )
        return f"<Process {self.name} {state}>"
