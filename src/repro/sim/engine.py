"""The event loop: a time-ordered heap plus a FIFO ready queue.

Determinism contract: two events scheduled for the same simulated time run
in the order they were scheduled.  This makes every simulation replayable
bit-for-bit from its seed, which the experiment harness relies on (the
paper averages 5 runs; we vary only the seed between repetitions).

Ordering invariant: events run in ``(time, seq)`` order, ``seq`` being the
order of the :meth:`Engine.call_later` calls that scheduled them.  Two
queues keep that order:

- an event due later than ``now`` goes on a heap keyed ``(time, seq)``;
- an event due at ``now`` (delay 0, or a delay too small to move the
  clock) goes on a FIFO ready queue, behind what is already there.

When the ready queue is empty, the loop advances the clock to the heap's
earliest time and moves every heap entry due then onto the ready queue,
in ``seq`` order.  Each of those entries was pushed before the clock
reached that time, so it precedes anything scheduled once the clock is
there — which is exactly what the ready queue appends behind it.  The
order is therefore the one a single ``(time, seq)`` heap gives, without a
heap push and pop for the events due now.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Completion, Timeout, AllOf, AnyOf
from repro.sim.process import Process


class Engine:
    """Discrete-event simulation kernel.

    >>> eng = Engine()
    >>> def proc(eng):
    ...     yield eng.timeout(1.5)
    ...     return eng.now
    >>> p = eng.spawn(proc(eng))
    >>> eng.run()
    >>> p.result()
    1.5
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._ready: deque[tuple[Callable[..., None], tuple]] = deque()
        self._seq: int = 0
        self._live_processes: int = 0
        self._running = False

    # -- scheduling --------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"invalid delay: {delay}")
        now = self.now
        when = now + delay
        if when == now:
            self._ready.append((callback, args))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (when, self._seq, callback, args))

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self.now}"
            )
        self.call_later(when - self.now, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current time, after queued work.

        The kernel's own hot paths (waitables firing, resource grants,
        process start) call ``call_later(0.0, ...)`` directly: the same
        event, one Python call fewer.
        """
        self.call_later(0.0, callback, *args)

    # -- waitable factories -------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A waitable that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def completion(self) -> Completion:
        """A fresh one-shot promise bound to this engine."""
        return Completion(self)

    def all_of(self, children) -> AllOf:
        """Waitable that fires when all children fire."""
        return AllOf(self, children)

    def any_of(self, children) -> AnyOf:
        """Waitable that fires when the first child fires."""
        return AnyOf(self, children)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; returns the Process."""
        return Process(self, generator, name=name)

    # -- execution ----------------------------------------------------------

    def _advance_clock(self, until: float) -> bool:
        """Advance the clock to the heap's earliest time and move every
        entry due then onto the (empty) ready queue.

        Returns False, clamping the clock forward to ``until`` (never
        back), when that time lies beyond ``until``.  An entry
        timestamped before the current time raises
        :class:`SimulationError`: time never goes backwards.
        """
        heap = self._heap
        when = heap[0][0]
        if when > until:
            self.now = max(self.now, until)
            return False
        if when < self.now:
            raise SimulationError(
                f"time went backwards: event at {when} < now={self.now}"
            )
        self.now = when
        append = self._ready.append
        while heap and heap[0][0] == when:
            entry = heapq.heappop(heap)
            append((entry[2], entry[3]))
        return True

    def run(self, until: float = math.inf, *,
            detect_deadlock: bool = True) -> None:
        """Run events until both queues drain or ``until`` is reached.

        With ``detect_deadlock`` (default), raises :class:`DeadlockError`
        if the queues drain while spawned processes are still suspended —
        that means somebody waits on a completion nobody will trigger.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        try:
            ready = self._ready
            if ready and self.now > until:  # an earlier run went further
                return
            popleft = ready.popleft
            while True:
                while ready:
                    callback, args = popleft()
                    callback(*args)
                if not self._heap:
                    break
                if not self._advance_clock(until):
                    return
            if detect_deadlock and self._live_processes > 0:
                raise DeadlockError(
                    f"event queue drained with {self._live_processes} "
                    f"process(es) still waiting at t={self.now}"
                )
        finally:
            self._running = False

    def step(self, until: float = math.inf) -> bool:
        """Run exactly one event; returns False if none are queued.

        Shares :meth:`run`'s invariants: an event timestamped before the
        current time raises :class:`SimulationError` (time never goes
        backwards — important after a ``run(until=...)`` advanced the
        clock), and an event beyond ``until`` is left queued (the clock
        is clamped forward to ``until``, never back).
        """
        if self._ready:
            if self.now > until:
                return False
        elif not self._heap or not self._advance_clock(until):
            return False
        callback, args = self._ready.popleft()
        callback(*args)
        return True

    @property
    def pending_events(self) -> int:
        """Number of events currently queued."""
        return len(self._heap) + len(self._ready)

    @property
    def live_processes(self) -> int:
        """Number of spawned processes that have not finished."""
        return self._live_processes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine now={self.now:.9g} pending={self.pending_events} "
            f"live={self._live_processes}>"
        )
