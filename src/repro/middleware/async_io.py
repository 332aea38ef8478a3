"""Asynchronous I/O: submit/complete with a bounded in-flight window.

The paper's concurrency experiments use multiple *processes*; modern
stacks get the same overlap from a single process via asynchronous
submission (POSIX AIO, libaio, io_uring).  :class:`AsyncIOContext`
models that: submissions return immediately, at most ``queue_depth``
requests are in flight against the mount, the rest wait in a submission
queue.

Trace semantics match the application's view: a record spans
*submission* to *completion*, so response times include queue wait.
That is exactly what makes ARPT mislead here — deeper queues raise
per-request latency while the work as a whole finishes sooner — and
what BPS's overlapped T gets right.  The Set 5 extension experiment
(:mod:`repro.experiments.set5`) sweeps the queue depth.
"""

from __future__ import annotations

from repro.devices.base import READ, WRITE
from repro.errors import MiddlewareError
from repro.fs.localfs import FSResult
from repro.middleware.tracing import TraceRecorder
from repro.sim.engine import Engine
from repro.sim.events import Waitable
from repro.sim.resources import Resource


class AsyncIOContext:
    """One process's asynchronous I/O context on one file.

    >>> ctx = AsyncIOContext(engine, mount, "data", pid=0,
    ...                      recorder=recorder, queue_depth=8)
    >>> tokens = [ctx.submit_read(off, 4096) for off in offsets]
    >>> results = yield ctx.drain()        # or: yield tokens[i]
    """

    def __init__(self, engine: Engine, mount, file_name: str, pid: int,
                 recorder: TraceRecorder, *, queue_depth: int = 8,
                 submit_overhead_s: float = 0.000005) -> None:
        if queue_depth < 1:
            raise MiddlewareError(f"bad queue depth {queue_depth}")
        if submit_overhead_s < 0:
            raise MiddlewareError("negative submit overhead")
        if not mount.exists(file_name):
            raise MiddlewareError(f"no such file: {file_name!r}")
        self.engine = engine
        self.mount = mount
        self.file_name = file_name
        self.pid = pid
        self.recorder = recorder
        self.queue_depth = queue_depth
        self.submit_overhead_s = submit_overhead_s
        self.size = mount.size_of(file_name)
        self._slots = Resource(engine, capacity=queue_depth,
                               name=f"aio.{pid}.slots")
        self._outstanding: list[Waitable] = []
        self.submitted = 0
        self.completed = 0

    @property
    def in_flight(self) -> int:
        """Requests currently issued against the mount."""
        return self._slots.in_use

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.size:
            raise MiddlewareError(
                f"bad range [{offset}, {offset + nbytes}) for "
                f"{self.file_name!r} of size {self.size}"
            )

    def submit_read(self, offset: int, nbytes: int) -> Waitable:
        """Queue an asynchronous read; fires with the FSResult."""
        return self._submit(READ, offset, nbytes)

    def submit_write(self, offset: int, nbytes: int) -> Waitable:
        """Queue an asynchronous write; fires with the FSResult."""
        return self._submit(WRITE, offset, nbytes)

    def _submit(self, op: str, offset: int, nbytes: int) -> Waitable:
        self._check(offset, nbytes)
        self.submitted += 1
        io = self.engine.spawn(self._io_proc(op, offset, nbytes),
                               name=f"aio.{self.pid}.{op}")
        self._outstanding.append(io)
        return io

    def _io_proc(self, op: str, offset: int, nbytes: int):
        submitted_at = self.engine.now
        yield self.engine.timeout(self.submit_overhead_s)
        grant = self._slots.acquire()
        yield grant
        try:
            if op == READ:
                result: FSResult = yield self.mount.read(
                    self.file_name, offset, nbytes)
            else:
                result = yield self.mount.write(
                    self.file_name, offset, nbytes)
        finally:
            self._slots.release()
        end = self.engine.now
        self.recorder.record_app(self.pid, op, self.file_name, offset,
                                 nbytes, submitted_at, end,
                                 success=result.success)
        self.recorder.note_fs_bytes(result.device_bytes, pid=self.pid,
                                    op=op, file=self.file_name,
                                    offset=offset,
                                    start=submitted_at, end=end)
        self.completed += 1
        return result

    def drain(self) -> Waitable:
        """Waitable that fires when everything submitted so far is done."""
        pending = [c for c in self._outstanding if not c.fired]
        self._outstanding = pending.copy()
        return self.engine.all_of(pending)
