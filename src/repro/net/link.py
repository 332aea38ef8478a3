"""Point-to-point link and NIC modelling.

A :class:`NetworkLink` is a unidirectional serialisation point: one
message at a time at ``bandwidth`` bytes/second plus a fixed ``latency_s``
propagation delay.  A :class:`NICPair` bundles the TX and RX directions
of one host interface (full duplex — the directions don't contend).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Completion, Waitable
from repro.sim.resources import Resource
from repro.util.units import MiB


@dataclass
class TransferStats:
    """Counters for one link direction."""

    messages: int = 0
    bytes_moved: int = 0
    total_busy_time: float = 0.0


class NetworkLink:
    """One direction of a network interface.

    ``transmit(nbytes)`` returns a waitable that fires when the last
    byte has left the link (serialisation + propagation).
    """

    def __init__(self, engine: Engine, *, bandwidth: float = 125.0 * MiB,
                 latency_s: float = 0.000050, name: str = "link") -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive: {bandwidth}")
        if latency_s < 0:
            raise SimulationError(f"latency must be >= 0: {latency_s}")
        self.engine = engine
        self.bandwidth = bandwidth
        self.latency_s = latency_s
        self.name = name
        self.stats = TransferStats()
        self._wire = Resource(engine, capacity=1, name=f"{name}.wire")
        #: Fault-plan state.  ``latency_factor`` (>= 1.0) multiplies the
        #: propagation latency (congestion / rerouting spike).  A downed
        #: link stalls messages at the wire until :meth:`bring_up`; the
        #: flap must therefore always be paired with a recovery event or
        #: the run deadlocks — by design, that surfaces a malformed plan.
        self.latency_factor = 1.0
        self._up = True
        self._resume: Completion | None = None
        self.downtime_stalls = 0

    @property
    def up(self) -> bool:
        """Is the link currently passing traffic?"""
        return self._up

    def take_down(self) -> None:
        """Flap start: hold all messages at the wire."""
        if self._up:
            self._up = False
            self._resume = self.engine.completion()

    def bring_up(self) -> None:
        """Flap end: release stalled messages (FIFO, same wire order)."""
        if not self._up:
            self._up = True
            resume, self._resume = self._resume, None
            resume.trigger(None)

    def wait_up(self):
        """(generator) Block until the link passes traffic again.

        Yielded from by anything about to use the wire — both
        :meth:`transmit` and the topology's cut-through transfer path.
        Loops because the link may flap again before the waiter runs.
        """
        while not self._up:
            self.downtime_stalls += 1
            yield self._resume

    @property
    def effective_latency_s(self) -> float:
        """Propagation latency including any fault-plan spike."""
        return self.latency_s * self.latency_factor

    def serialization_time(self, nbytes: int) -> float:
        """Time for ``nbytes`` to cross the wire, excluding queueing."""
        if nbytes <= 0:
            raise SimulationError(f"nbytes must be positive: {nbytes}")
        return nbytes / self.bandwidth

    def transmit(self, nbytes: int) -> Waitable:
        """Queue a message; the waitable fires on delivery."""
        return self.engine.spawn(self._send(nbytes), name=f"{self.name}.tx")

    def _send(self, nbytes: int):
        grant = self._wire.acquire()
        yield grant
        # Holding the wire while down: followers queue behind us and
        # drain in order once the link recovers.
        yield from self.wait_up()
        busy = self.serialization_time(nbytes)
        try:
            yield self.engine.timeout(busy)
        finally:
            self._wire.release()
        self.stats.messages += 1
        self.stats.bytes_moved += nbytes
        self.stats.total_busy_time += busy
        # Propagation happens after the wire is free (pipelining).
        yield self.engine.timeout(self.effective_latency_s)
        return nbytes

    @property
    def queue_length(self) -> int:
        """Messages waiting for the wire."""
        return self._wire.queue_length


class NICPair:
    """Full-duplex host interface: independent TX and RX links."""

    def __init__(self, engine: Engine, *, bandwidth: float = 125.0 * MiB,
                 latency_s: float = 0.000050, name: str = "nic") -> None:
        self.name = name
        self.tx = NetworkLink(engine, bandwidth=bandwidth,
                              latency_s=latency_s, name=f"{name}.tx")
        self.rx = NetworkLink(engine, bandwidth=bandwidth,
                              latency_s=latency_s, name=f"{name}.rx")

    @property
    def bytes_moved(self) -> int:
        """Total bytes through both directions."""
        return self.tx.stats.bytes_moved + self.rx.stats.bytes_moved

    # -- fault-plan hooks (both directions at once) ------------------------

    def take_down(self) -> None:
        """Flap the whole interface down (cable pull: TX and RX)."""
        self.tx.take_down()
        self.rx.take_down()

    def bring_up(self) -> None:
        """Restore both directions."""
        self.tx.bring_up()
        self.rx.bring_up()

    def set_latency_factor(self, factor: float) -> None:
        """Apply a propagation-latency spike to both directions."""
        if factor < 1.0:
            raise SimulationError(f"latency factor must be >= 1: {factor}")
        self.tx.latency_factor = factor
        self.rx.latency_factor = factor
