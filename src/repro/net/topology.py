"""Star (switched-Ethernet) topology.

Every node owns a full-duplex NIC connected to a non-blocking switch, as
in the paper's Gigabit Ethernet cluster.  A message from A to B holds
A's TX wire and B's RX wire for the serialisation time (cut-through
switching), then pays one propagation latency.  Because a sender only
ever *holds* its own TX and *waits* on the receiver's RX, no wait cycle
can form.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.net.link import NICPair
from repro.sim.engine import Engine
from repro.sim.events import Waitable
from repro.sim.resources import TokenBucket
from repro.util.units import MiB


class NetNode:
    """A host on the network: a name and a NIC."""

    def __init__(self, engine: Engine, name: str, *,
                 bandwidth: float, latency_s: float) -> None:
        self.name = name
        self.nic = NICPair(engine, bandwidth=bandwidth,
                           latency_s=latency_s, name=f"{name}.nic")


class StarTopology:
    """A set of nodes around a switch.

    By default the switch is non-blocking (only the endpoints' NICs
    limit throughput).  ``backplane_bandwidth`` models an
    *oversubscribed* switch: the sum of all flows through the fabric is
    capped at that rate (token-bucket arbitration, FIFO among waiting
    transfers) — the classic cluster phenomenon where per-link speeds
    look fine but the aggregate does not scale.

    >>> net = StarTopology(engine)
    >>> net.add_node("client0"); net.add_node("server0")
    >>> done = net.send("client0", "server0", 65536)
    """

    def __init__(self, engine: Engine, *, bandwidth: float = 125.0 * MiB,
                 latency_s: float = 0.000050,
                 backplane_bandwidth: float | None = None) -> None:
        self.engine = engine
        self.default_bandwidth = bandwidth
        self.default_latency_s = latency_s
        self._nodes: dict[str, NetNode] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self._backplane: TokenBucket | None = None
        if backplane_bandwidth is not None:
            if backplane_bandwidth <= 0:
                raise SimulationError(
                    f"bad backplane bandwidth {backplane_bandwidth}"
                )
            # Burst of ~8 MiB keeps individual messages unthrottled while
            # sustained aggregate load is capped at the backplane rate.
            self._backplane = TokenBucket(
                engine, rate=backplane_bandwidth,
                burst=max(8 * 1024 * 1024, backplane_bandwidth * 0.01),
                name="switch.backplane")

    def add_node(self, name: str, *, bandwidth: float | None = None,
                 latency_s: float | None = None) -> NetNode:
        """Register a host; per-node overrides allowed."""
        if name in self._nodes:
            raise SimulationError(f"duplicate node {name!r}")
        node = NetNode(
            self.engine, name,
            bandwidth=bandwidth or self.default_bandwidth,
            latency_s=(self.default_latency_s
                       if latency_s is None else latency_s),
        )
        self._nodes[name] = node
        return node

    def node(self, name: str) -> NetNode:
        """Look up a host by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    @property
    def node_names(self) -> list[str]:
        """All registered host names, in insertion order."""
        return list(self._nodes)

    def send(self, src: str, dst: str, nbytes: int) -> Waitable:
        """Move ``nbytes`` from ``src`` to ``dst``; fires on delivery.

        A loopback send (``src == dst``) completes after a negligible
        in-memory copy and never touches the NIC — co-located client and
        server, as when a compute node doubles as an I/O server.
        """
        if nbytes <= 0:
            raise SimulationError(f"nbytes must be positive: {nbytes}")
        source = self.node(src)
        target = self.node(dst)
        return self.engine.spawn(self._transfer(source, target, nbytes),
                                 name=f"net.{src}->{dst}")

    def _transfer(self, source: NetNode, target: NetNode, nbytes: int):
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if source is target:
            yield self.engine.timeout(0.0)
            return nbytes
        fabric_claim = None
        if self._backplane is not None:
            # Oversubscription: the fabric claim proceeds concurrently
            # with the endpoint wires (a fluid approximation); the
            # transfer completes when both are done, so a roomy
            # backplane costs nothing and a saturated one caps the
            # aggregate.
            fabric_claim = self.engine.spawn(
                self._claim_fabric(nbytes), name="net.fabric")
        tx_wire = source.nic.tx._wire
        rx_wire = target.nic.rx._wire
        tx_time = source.nic.tx.serialization_time(nbytes)
        rx_time = target.nic.rx.serialization_time(nbytes)
        tx_grant = tx_wire.acquire()
        yield tx_grant
        # A downed link stalls the transfer at the wire (fault-plan
        # flap); followers queue behind and drain in order on recovery.
        yield from source.nic.tx.wait_up()
        rx_grant = rx_wire.acquire()
        yield rx_grant
        yield from target.nic.rx.wait_up()
        # Each wire is busy for its *own* serialization time (cut-through:
        # a fast receiver drains a slow sender's stream without being
        # occupied for the sender's full transmit duration).
        self.engine.call_later(rx_time, rx_wire.release)
        try:
            yield self.engine.timeout(tx_time)
        finally:
            tx_wire.release()
        if rx_time > tx_time:
            yield self.engine.timeout(rx_time - tx_time)
        for link, amount, busy in ((source.nic.tx, nbytes, tx_time),
                                   (target.nic.rx, nbytes, rx_time)):
            link.stats.messages += 1
            link.stats.bytes_moved += amount
            link.stats.total_busy_time += busy
        if fabric_claim is not None:
            yield fabric_claim
        yield self.engine.timeout(source.nic.tx.effective_latency_s)
        return nbytes

    def _claim_fabric(self, nbytes: int):
        # Messages larger than the burst claim capacity in instalments.
        assert self._backplane is not None
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, int(self._backplane.burst))
            yield self._backplane.take(chunk)
            remaining -= chunk
