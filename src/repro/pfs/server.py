"""An I/O server: local storage behind a request-handling front end.

Each server owns a block device wrapped in an uncached
:class:`~repro.fs.localfs.LocalFileSystem` (PVFS2 servers bypass the
kernel page cache for object data; the paper also flushes all server
caches before each run).  Request handling costs a fixed software
overhead and is bounded by a thread pool, so a server saturates under
enough concurrent clients.
"""

from __future__ import annotations

from repro.devices.base import BlockDevice, READ, WRITE
from repro.errors import FileSystemError
from repro.fs.localfs import FSResult, LocalFileSystem
from repro.sim.engine import Engine
from repro.sim.events import Waitable
from repro.sim.resources import Resource


class IOServer:
    """One parallel-file-system data server.

    Parameters
    ----------
    engine, device:
        Simulation engine and this server's local storage.
    name:
        Server identifier; also its node name on the network.
    request_overhead_s:
        Software cost per handled request (network stack + server work).
    threads:
        Concurrent request handlers (requests beyond this queue up).
    device_retries:
        Transparent storage-level retry rounds per request (forwarded to
        the server's :class:`LocalFileSystem`).
    """

    def __init__(
        self,
        engine: Engine,
        device: BlockDevice,
        *,
        name: str = "ioserver",
        request_overhead_s: float = 0.000080,
        threads: int = 16,
        device_retries: int = 0,
    ) -> None:
        if request_overhead_s < 0:
            raise FileSystemError("negative request overhead")
        self.engine = engine
        self.name = name
        self.device = device
        self.request_overhead_s = request_overhead_s
        self.storage = LocalFileSystem(
            engine, device,
            page_cache=None,
            per_call_overhead_s=0.0,  # folded into request_overhead_s
            device_retries=device_retries,
            name=f"{name}.storage",
        )
        self._threads = Resource(engine, capacity=threads,
                                 name=f"{name}.threads")
        self.requests_handled = 0
        #: Requests that finished without success (crash window, storage
        #: fault that survived the retries, ...).
        self.requests_failed = 0
        #: Fault-plan state: a crashed server refuses requests cheaply;
        #: ``slowdown`` (>= 1.0) stretches the per-request software
        #: overhead (an overloaded or rebuilding daemon).
        self.available = True
        self.slowdown = 1.0
        self.crash_count = 0

    # -- fault-plan hooks --------------------------------------------------

    def crash(self) -> None:
        """Take the server down: requests fail fast until :meth:`restore`.

        In-flight storage accesses run to completion (the daemon died,
        the disk finishes what was queued); only request admission stops.
        """
        if self.available:
            self.available = False
            self.crash_count += 1

    def restore(self) -> None:
        """Bring a crashed server back (restart; storage state intact)."""
        self.available = True

    def create_object(self, object_name: str, size: int) -> None:
        """Allocate an object (one file's stripe set on this server)."""
        self.storage.create(object_name, size)

    def has_object(self, object_name: str) -> bool:
        """Does the object exist on this server?"""
        return self.storage.exists(object_name)

    def handle(self, op: str, object_name: str, offset: int,
               nbytes: int) -> Waitable:
        """Serve one request; the waitable fires with the storage
        FSResult."""
        if op not in (READ, WRITE):
            raise FileSystemError(f"unknown op {op!r}")
        return self.engine.spawn(
            self._handle_proc(op, object_name, offset, nbytes),
            name=f"{self.name}.handle")

    def _handle_proc(self, op: str, object_name: str, offset: int,
                     nbytes: int):
        start = self.engine.now
        if not self.available:
            # Fail fast: a connection refused costs one overhead, not a
            # disk access.  The caller sees an unsuccessful FSResult and
            # may fail over to a replica server.
            yield self.engine.timeout(self.request_overhead_s)
            self.requests_failed += 1
            return FSResult(
                nbytes, 0, 0, 0, start, self.engine.now, success=False,
                errors=(f"server {self.name} unavailable",))
        grant = self._threads.acquire()
        yield grant
        try:
            yield self.engine.timeout(self.request_overhead_s
                                      * self.slowdown)
            if op == READ:
                result: FSResult = yield self.storage.read(
                    object_name, offset, nbytes)
            else:
                result = yield self.storage.write(
                    object_name, offset, nbytes)
        finally:
            self._threads.release()
        self.requests_handled += 1
        if not result.success:
            self.requests_failed += 1
        return result

    @property
    def queue_length(self) -> int:
        """Requests waiting for a handler thread."""
        return self._threads.queue_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IOServer {self.name} device={self.device.name}>"
