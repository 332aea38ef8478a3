"""POSIX-style I/O library with built-in tracing.

:class:`PosixIO` wraps a mount (a :class:`~repro.fs.localfs.LocalFileSystem`
or a :class:`~repro.pfs.pvfs.PFSClient`) and hands out :class:`PosixFile`
handles.  Every ``read``/``write`` costs a fixed library overhead, emits
one application-layer trace record, and accounts the mount's device
traffic — the instrumentation the paper adds "in the I/O function
libraries for ordinary POSIX interface applications, to avoid the
modification of applications".

Calls are blocking, as POSIX calls are: a process that wants overlap
must use multiple processes (exactly the paper's concurrency setting).
"""

from __future__ import annotations

from repro.devices.base import READ, WRITE
from repro.errors import MiddlewareError
from repro.fs.localfs import FSResult
from repro.middleware.retry import RetryPolicy, RetryStats, execute_attempts
from repro.middleware.tracing import TraceRecorder
from repro.sim.engine import Engine
from repro.sim.events import Waitable
from repro.util.rng import RngStream


class PosixIO:
    """Factory for traced POSIX-style file handles on one mount.

    With a :class:`~repro.middleware.retry.RetryPolicy`, failed or
    timed-out mount operations are re-issued with exponential backoff;
    every attempt emits its own application trace record (``retries`` =
    attempt index), so recovery traffic lands in BPS's numerator and in
    the union-time denominator.  The application never sees an
    exception: after the budget is exhausted it receives an
    unsuccessful :class:`FSResult` — graceful degradation.
    """

    def __init__(self, engine: Engine, mount, recorder: TraceRecorder,
                 *, call_overhead_s: float = 0.000015,
                 retry_policy: RetryPolicy | None = None,
                 retry_rng: RngStream | None = None,
                 fault_state=None,
                 retry_stats: RetryStats | None = None) -> None:
        if call_overhead_s < 0:
            raise MiddlewareError("negative call overhead")
        self.engine = engine
        self.mount = mount
        self.recorder = recorder
        self.call_overhead_s = call_overhead_s
        self.retry_policy = retry_policy
        self.retry_rng = retry_rng
        #: A :class:`~repro.faults.state.FaultState` (straggler factors).
        self.fault_state = fault_state
        self.retry_stats = retry_stats

    def open(self, file_name: str, pid: int) -> "PosixFile":
        """Open an existing file for process ``pid``."""
        if not self.mount.exists(file_name):
            raise MiddlewareError(f"no such file: {file_name!r}")
        return PosixFile(self, file_name, pid)


class PosixFile:
    """One process's handle on one file.

    ``pread``/``pwrite`` are explicit-offset; ``read``/``write`` advance
    a per-handle cursor, like the libc calls.  All return waitables
    that fire with the mount's :class:`FSResult` once the access (and
    its trace record) is done.
    """

    def __init__(self, lib: PosixIO, file_name: str, pid: int) -> None:
        self.lib = lib
        self.engine = lib.engine
        self.file_name = file_name
        self.pid = pid
        self.position = 0
        self.size = lib.mount.size_of(file_name)
        self._closed = False

    def _check(self, offset: int, nbytes: int) -> None:
        if self._closed:
            raise MiddlewareError(f"I/O on closed handle {self.file_name!r}")
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.size:
            raise MiddlewareError(
                f"bad range [{offset}, {offset + nbytes}) for "
                f"{self.file_name!r} of size {self.size}"
            )

    def pread(self, offset: int, nbytes: int) -> Waitable:
        """Positional read of ``nbytes`` at ``offset``."""
        self._check(offset, nbytes)
        return self.engine.spawn(self._io(READ, offset, nbytes),
                                 name=f"posix.pread.{self.pid}")

    def pwrite(self, offset: int, nbytes: int) -> Waitable:
        """Positional write of ``nbytes`` at ``offset``."""
        self._check(offset, nbytes)
        return self.engine.spawn(self._io(WRITE, offset, nbytes),
                                 name=f"posix.pwrite.{self.pid}")

    def read(self, nbytes: int) -> Waitable:
        """Sequential read at the cursor; advances it."""
        done = self.pread(self.position, nbytes)
        self.position += nbytes
        return done

    def write(self, nbytes: int) -> Waitable:
        """Sequential write at the cursor; advances it."""
        done = self.pwrite(self.position, nbytes)
        self.position += nbytes
        return done

    def seek(self, offset: int) -> None:
        """Move the cursor."""
        if offset < 0 or offset > self.size:
            raise MiddlewareError(f"bad seek offset {offset}")
        self.position = offset

    def close(self) -> None:
        """Invalidate the handle; further I/O raises."""
        self._closed = True

    def _io(self, op: str, offset: int, nbytes: int):
        lib = self.lib
        start = self.engine.now
        yield self.engine.timeout(lib.call_overhead_s)
        if op == READ:
            def issue():
                return lib.mount.read(self.file_name, offset, nbytes)
        else:
            def issue():
                return lib.mount.write(self.file_name, offset, nbytes)
        outcomes = yield from execute_attempts(
            self.engine, issue, lib.retry_policy,
            rng=lib.retry_rng, stats=lib.retry_stats, first_start=start)
        final = outcomes[-1]
        final_end = final.end
        if lib.fault_state is not None:
            # Straggler window: this process's call takes `factor` times
            # as long as a healthy one (CPU steal, paging, cgroup caps).
            factor = lib.fault_state.process_factor(self.pid)
            if factor > 1.0:
                yield self.engine.timeout(
                    (factor - 1.0) * (final.end - start))
                final_end = self.engine.now
        for attempt, outcome in enumerate(outcomes):
            end = final_end if outcome is final else outcome.end
            lib.recorder.record_app(self.pid, op, self.file_name, offset,
                                    nbytes, outcome.start, end,
                                    success=outcome.success,
                                    retries=attempt)
            if outcome.result is not None:
                lib.recorder.note_fs_bytes(
                    outcome.result.device_bytes, pid=self.pid, op=op,
                    file=self.file_name, offset=offset,
                    start=outcome.start, end=end)
        result = final.result
        if result is None:  # final attempt timed out
            result = FSResult(nbytes, 0, 0, 0, final.start, final_end,
                              success=False,
                              errors=("operation timed out",))
        return result
