"""Contended resources: counted semaphores with deterministic queues.

Devices, NICs, and server request slots are modelled as resources.  The
usage idiom inside a process generator::

    grant = resource.acquire()
    yield grant
    try:
        yield engine.timeout(service_time)
    finally:
        resource.release()

Queues are FIFO (or priority order for :class:`PriorityResource`), with
ties broken by arrival order — the same determinism contract as the engine.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Completion


class Resource:
    """A counted resource with a FIFO wait queue.

    ``capacity`` is the number of concurrent holders (e.g. 1 for a disk
    arm, N for an N-channel SSD).
    """

    def __init__(self, engine: Engine, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: list[Completion] = []
        # Cumulative statistics for utilization analysis.
        self.total_acquisitions = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of grants currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of acquirers currently waiting."""
        return len(self._queue)

    def acquire(self) -> Completion:
        """Request a grant; the returned completion fires when granted."""
        grant = self.engine.completion()
        grant.value = self  # convenience: `res = yield res.acquire()`
        requested_at = self.engine.now
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquisitions += 1
            self.engine.call_later(0.0, grant._fire, self)
        else:
            def on_grant(_c: Completion, _t: float = requested_at) -> None:
                self.total_wait_time += self.engine.now - _t
            grant.subscribe(on_grant)
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        """Return one grant; wakes the oldest waiter, if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._queue:
            grant = self._queue.pop(0)
            self.total_acquisitions += 1
            grant._fire(self)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name} {self._in_use}/{self.capacity} "
            f"queued={len(self._queue)}>"
        )


class PriorityResource(Resource):
    """A resource whose waiters are served in (priority, arrival) order.

    Lower priority numbers are served first.  Used by the elevator
    device scheduler where priority encodes the target block address.
    """

    def __init__(self, engine: Engine, capacity: int = 1,
                 name: str = "prio-resource") -> None:
        super().__init__(engine, capacity, name)
        self._pqueue: list[tuple[float, int, Completion]] = []
        self._counter = 0

    def acquire(self, priority: float = 0.0) -> Completion:
        """Request a grant with a priority (lower = sooner)."""
        grant = self.engine.completion()
        grant.value = self
        requested_at = self.engine.now
        if self._in_use < self.capacity and not self._pqueue:
            self._in_use += 1
            self.total_acquisitions += 1
            self.engine.call_later(0.0, grant._fire, self)
        else:
            def on_grant(_c: Completion, _t: float = requested_at) -> None:
                self.total_wait_time += self.engine.now - _t
            grant.subscribe(on_grant)
            self._counter += 1
            heapq.heappush(self._pqueue, (priority, self._counter, grant))
        return grant

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._pqueue:
            _prio, _seq, grant = heapq.heappop(self._pqueue)
            self.total_acquisitions += 1
            grant._fire(self)
        else:
            self._in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._pqueue)


class TokenBucket:
    """A rate limiter: ``rate`` tokens/second, burst up to ``burst``.

    Used to model shared-link bandwidth where transfers interleave at
    fine grain rather than serialising whole messages.  ``take(n)``
    returns a completion that fires once ``n`` tokens have accumulated;
    requests are served FIFO.
    """

    def __init__(self, engine: Engine, rate: float, burst: float,
                 name: str = "bucket") -> None:
        if rate <= 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        if burst <= 0:
            raise SimulationError(f"burst must be positive, got {burst}")
        self.engine = engine
        self.rate = rate
        self.burst = burst
        self.name = name
        self._tokens = burst
        self._last_refill = engine.now
        self._queue: list[tuple[float, Completion]] = []
        self._draining = False

    def _refill(self) -> None:
        elapsed = self.engine.now - self._last_refill
        self._last_refill = self.engine.now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def take(self, amount: float) -> Completion:
        """Consume ``amount`` tokens; completion fires when available."""
        if amount <= 0:
            raise SimulationError(f"amount must be positive, got {amount}")
        if amount > self.burst:
            raise SimulationError(
                f"amount {amount} exceeds burst capacity {self.burst}"
            )
        done = self.engine.completion()
        self._queue.append((amount, done))
        self._pump()
        return done

    def _pump(self) -> None:
        if self._draining:
            return
        self._refill()
        while self._queue:
            amount, done = self._queue[0]
            # Relative epsilon: refill arithmetic can leave the balance a
            # few ULPs short of the exact amount; without the tolerance
            # the deficit's refill delay underflows below the float
            # resolution of `now` and the bucket livelocks.
            epsilon = 1e-9 * max(1.0, amount)
            if self._tokens >= amount - epsilon:
                self._tokens = max(0.0, self._tokens - amount)
                self._queue.pop(0)
                done.trigger(self)
            else:
                deficit = amount - self._tokens
                delay = max(deficit / self.rate, 1e-9)
                self._draining = True
                self.engine.call_later(delay, self._resume)
                return

    def _resume(self) -> None:
        self._draining = False
        self._pump()

    @property
    def available(self) -> float:
        """Tokens currently available (refreshes the bucket first)."""
        self._refill()
        return self._tokens
