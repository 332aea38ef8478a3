"""The parallel file system facade and per-client views.

:class:`ParallelFileSystem` owns the server list, the network, and the
file → layout catalog.  :class:`PFSClient` binds a client network node
and exposes the same ``create/read/write`` surface as
:class:`~repro.fs.localfs.LocalFileSystem`, so the I/O middleware can
mount either interchangeably.

A read's life cycle (per server, all servers concurrent):
request message over the network → server handles it against its local
storage → data flows back over the network.  The request completes when
the *last* server part arrives — so a single client request already
embodies the intra-request concurrency that breaks single-component
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import READ, WRITE
from repro.errors import FileSystemError, StripingError
from repro.fs.localfs import FSResult
from repro.net.topology import StarTopology
from repro.pfs.layout import StripeLayout
from repro.pfs.server import IOServer
from repro.sim.engine import Engine
from repro.sim.events import Waitable
from repro.sim.resources import Resource

#: Size of a control message (request or ack) on the wire.
CONTROL_MESSAGE_BYTES = 256


@dataclass
class PFSStats:
    """Aggregate client-visible counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Per-server parts redirected to a replica after the assigned
    #: server failed them (crash window, injected device fault).
    failovers: int = 0


class ParallelFileSystem:
    """A PVFS2-like striped file system.

    Parameters
    ----------
    engine:
        Simulation engine.
    servers:
        The I/O servers; each must already be a node in ``network``
        under its own name.
    network:
        The cluster interconnect.
    default_layout:
        Used by :meth:`create` when no explicit layout is given; ``None``
        means "stripe over all servers with 64 KiB stripes" (PVFS2's
        default, used by the paper's IOR experiment).
    client_overhead_s:
        Client-side software cost per request (libpvfs work).
    metadata_node:
        Network node name of the metadata server (PVFS2 has a dedicated
        MDS).  ``""`` disables the simulated metadata path; the
        asynchronous :meth:`create_async`/:meth:`stat_async` then cost
        only the client overhead.
    mds_overhead_s / mds_threads:
        Metadata-server handling cost and concurrency.
    replication:
        Copies of every object, hosted on the ``replication`` servers
        following the primary (``(primary + k) % n_servers``), PVFS2
        ``repl``-patch style.  1 (the default) keeps the classic
        single-copy layout and an unchanged data path.
    failover:
        When a server fails a part (crash window, injected fault), walk
        the part's replica chain instead of giving up.  Only redirection
        is modelled — replicas are not kept in sync by extra write
        traffic, which is fine for a performance simulator.
    """

    def __init__(
        self,
        engine: Engine,
        servers: list[IOServer],
        network: StarTopology,
        *,
        default_layout: StripeLayout | None = None,
        client_overhead_s: float = 0.000040,
        metadata_node: str = "",
        mds_overhead_s: float = 0.000150,
        mds_threads: int = 16,
        replication: int = 1,
        failover: bool = False,
    ) -> None:
        if not servers:
            raise FileSystemError("a PFS needs at least one server")
        if not 1 <= replication <= len(servers):
            raise FileSystemError(
                f"replication {replication} needs between 1 and "
                f"{len(servers)} copies")
        self.engine = engine
        self.servers = list(servers)
        self.network = network
        for server in self.servers:
            # Fail fast if a server is not reachable on the network.
            network.node(server.name)
        if default_layout is None:
            default_layout = StripeLayout(
                servers=tuple(range(len(servers))))
        self._validate_layout(default_layout)
        self.default_layout = default_layout
        self.client_overhead_s = client_overhead_s
        self.metadata_node = metadata_node
        self.mds_overhead_s = mds_overhead_s
        if metadata_node:
            network.node(metadata_node)  # fail fast
            self._mds_threads: Resource | None = Resource(
                engine, capacity=mds_threads, name="mds.threads")
        else:
            self._mds_threads = None
        self.replication = replication
        self.failover = failover
        self.metadata_ops = 0
        self.stats = PFSStats()
        self._layouts: dict[str, StripeLayout] = {}
        self._sizes: dict[str, int] = {}

    # -- namespace ---------------------------------------------------------

    def _validate_layout(self, layout: StripeLayout) -> None:
        for index in layout.servers:
            if index >= len(self.servers):
                raise StripingError(
                    f"layout references server {index}, but only "
                    f"{len(self.servers)} servers exist"
                )

    def create(self, file_name: str, size: int,
               layout: StripeLayout | None = None) -> StripeLayout:
        """Create a striped file; allocates one object per layout server."""
        if file_name in self._layouts:
            raise FileSystemError(f"file exists: {file_name!r}")
        if size <= 0:
            raise FileSystemError(f"bad file size {size}")
        layout = layout or self.default_layout
        self._validate_layout(layout)
        for index in layout.servers:
            object_size = layout.object_size(size, index)
            if object_size > 0:
                for host in self._replica_chain(index):
                    self.servers[host].create_object(
                        self._object_name(file_name, index), object_size)
        self._layouts[file_name] = layout
        self._sizes[file_name] = size
        return layout

    @staticmethod
    def _object_name(file_name: str, server_index: int) -> str:
        return f"{file_name}@s{server_index}"

    def _replica_chain(self, primary: int) -> list[int]:
        """Server indices hosting copies of ``primary``'s objects."""
        return [(primary + k) % len(self.servers)
                for k in range(self.replication)]

    def exists(self, file_name: str) -> bool:
        """Does the file exist?"""
        return file_name in self._layouts

    def size_of(self, file_name: str) -> int:
        """File size in bytes."""
        try:
            return self._sizes[file_name]
        except KeyError:
            raise FileSystemError(f"no such file: {file_name!r}") from None

    def layout_of(self, file_name: str) -> StripeLayout:
        """The stripe layout the file was created with."""
        try:
            return self._layouts[file_name]
        except KeyError:
            raise FileSystemError(f"no such file: {file_name!r}") from None

    def drop_caches(self) -> int:
        """Flush every server's storage cache (pre-run reset)."""
        dropped = 0
        for server in self.servers:
            dropped += server.storage.drop_caches()
        return dropped

    # -- metadata path ------------------------------------------------------

    def _metadata_round_trip(self, client_node: str):
        """One client↔MDS exchange (generator; yields inside)."""
        yield self.engine.timeout(self.client_overhead_s)
        if self.metadata_node:
            yield self.network.send(client_node, self.metadata_node,
                                    CONTROL_MESSAGE_BYTES)
            grant = self._mds_threads.acquire()
            yield grant
            try:
                yield self.engine.timeout(self.mds_overhead_s)
            finally:
                self._mds_threads.release()
            yield self.network.send(self.metadata_node, client_node,
                                    CONTROL_MESSAGE_BYTES)
        self.metadata_ops += 1

    def create_async(self, client_node: str, file_name: str, size: int,
                     layout: StripeLayout | None = None) -> Waitable:
        """Create a file *during* a run, paying the metadata cost.

        The MDS round trip plus one control message per layout server
        (object creation), as PVFS2 does.  The synchronous
        :meth:`create` stays free for pre-run setup.
        """
        return self.engine.spawn(
            self._create_proc(client_node, file_name, size, layout),
            name=f"pfs.create.{file_name}")

    def _create_proc(self, client_node: str, file_name: str, size: int,
                     layout: StripeLayout | None):
        start = self.engine.now
        yield from self._metadata_round_trip(client_node)
        created = self.create(file_name, size, layout)
        # One object-create exchange per data server holding a stripe.
        if self.metadata_node:
            pending = []
            for index in created.servers:
                if created.object_size(size, index) > 0:
                    pending.append(self.network.send(
                        self.metadata_node, self.servers[index].name,
                        CONTROL_MESSAGE_BYTES))
            if pending:
                yield self.engine.all_of(pending)
        return created, start, self.engine.now

    def stat_async(self, client_node: str, file_name: str) -> Waitable:
        """Look up file metadata during a run (one MDS round trip)."""
        def proc():
            start = self.engine.now
            yield from self._metadata_round_trip(client_node)
            return self.size_of(file_name), start, self.engine.now
        return self.engine.spawn(proc(), name=f"pfs.stat.{file_name}")

    def client(self, node_name: str) -> "PFSClient":
        """A client view bound to one network node."""
        self.network.node(node_name)  # fail fast on unknown nodes
        return PFSClient(self, node_name)

    # -- data path -------------------------------------------------------------

    def _io(self, client_node: str, op: str, file_name: str, offset: int,
            nbytes: int) -> Waitable:
        layout = self.layout_of(file_name)
        size = self._sizes[file_name]
        if offset < 0 or nbytes <= 0 or offset + nbytes > size:
            raise FileSystemError(
                f"bad range [{offset}, {offset + nbytes}) for "
                f"{file_name!r} of size {size}"
            )
        return self.engine.spawn(
            self._io_proc(client_node, op, file_name, layout, offset,
                          nbytes),
            name=f"pfs.{op}.{file_name}",
        )

    def _io_proc(self, client_node: str, op: str, file_name: str,
                 layout: StripeLayout, offset: int, nbytes: int):
        start = self.engine.now
        yield self.engine.timeout(self.client_overhead_s)
        parts = layout.server_requests(offset, nbytes)
        pending = [
            self.engine.spawn(
                self._server_io(client_node, op, file_name, part),
                name=f"pfs.part.s{part.server}",
            )
            for part in parts
        ]
        results: list[FSResult] = yield self.engine.all_of(pending)
        device_bytes = sum(r.device_bytes for r in results)
        errors: list[str] = []
        for result in results:
            errors.extend(result.errors)
        if op == READ:
            self.stats.reads += 1
            self.stats.bytes_read += nbytes
        else:
            self.stats.writes += 1
            self.stats.bytes_written += nbytes
        return FSResult(
            nbytes, device_bytes,
            cache_hit_pages=sum(r.cache_hit_pages for r in results),
            cache_miss_pages=sum(r.cache_miss_pages for r in results),
            start=start, end=self.engine.now,
            success=not errors, errors=tuple(errors),
        )

    def _server_io(self, client_node: str, op: str, file_name: str, part):
        # The replica chain is walked only with failover on; each hop is
        # a full wire exchange, so redirected parts pay real recovery
        # traffic (visible in link counters and union time).
        chain = (self._replica_chain(part.server) if self.failover
                 else [part.server])
        object_name = self._object_name(file_name, part.server)
        result: FSResult | None = None
        for hop, server_index in enumerate(chain):
            server = self.servers[server_index]
            if op == READ:
                # request message out, data back
                yield self.network.send(client_node, server.name,
                                        CONTROL_MESSAGE_BYTES)
                result = yield server.handle(
                    READ, object_name, part.object_offset, part.length)
                yield self.network.send(server.name, client_node,
                                        part.length)
            else:
                # data out, ack back
                yield self.network.send(client_node, server.name,
                                        part.length)
                result = yield server.handle(
                    WRITE, object_name, part.object_offset, part.length)
                yield self.network.send(server.name, client_node,
                                        CONTROL_MESSAGE_BYTES)
            if result.success or hop + 1 == len(chain):
                break
            self.stats.failovers += 1
        return result


class PFSClient:
    """LocalFileSystem-compatible view of a PFS from one client node."""

    def __init__(self, pfs: ParallelFileSystem, node_name: str) -> None:
        self.pfs = pfs
        self.node_name = node_name
        self.engine = pfs.engine

    def create(self, file_name: str, size: int,
               layout: StripeLayout | None = None) -> StripeLayout:
        """Create a file (layout optional; defaults to the PFS default)."""
        return self.pfs.create(file_name, size, layout)

    def exists(self, file_name: str) -> bool:
        """Does the file exist?"""
        return self.pfs.exists(file_name)

    def size_of(self, file_name: str) -> int:
        """File size in bytes."""
        return self.pfs.size_of(file_name)

    def create_async(self, file_name: str, size: int,
                     layout: StripeLayout | None = None) -> Waitable:
        """Create with metadata costs; fires with (layout, start, end)."""
        return self.pfs.create_async(self.node_name, file_name, size,
                                     layout)

    def stat_async(self, file_name: str) -> Waitable:
        """Metadata lookup; fires with (size, start, end)."""
        return self.pfs.stat_async(self.node_name, file_name)

    def read(self, file_name: str, offset: int, nbytes: int) -> Waitable:
        """Read; the waitable fires with an FSResult."""
        return self.pfs._io(self.node_name, READ, file_name, offset, nbytes)

    def write(self, file_name: str, offset: int, nbytes: int) -> Waitable:
        """Write; the waitable fires with an FSResult."""
        return self.pfs._io(self.node_name, WRITE, file_name, offset, nbytes)

    def drop_caches(self) -> int:
        """Flush all server caches."""
        return self.pfs.drop_caches()
