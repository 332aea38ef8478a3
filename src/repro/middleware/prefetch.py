"""Sequential read-ahead prefetching at the middleware layer.

The paper lists data prefetching (alongside data sieving) as an
optimisation that "may also prefetch data more than required" — extra
data movement that inflates file-system bandwidth without necessarily
helping the application.  :class:`SequentialPrefetcher` wraps a
:class:`~repro.middleware.posix.PosixFile`: after ``trigger_after``
consecutive sequential reads it starts fetching the next window
asynchronously; reads that land in a completed prefetch window return at
memory speed.

A prefetch that the application never consumes is pure waste — visible
as ``fs_bytes > app_bytes``, the same amplification signature sieving
has.  The ablation bench measures both the win (sequential) and the
waste (random access with prefetching left on).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import READ
from repro.errors import MiddlewareError
from repro.fs.localfs import FSResult
from repro.middleware.posix import PosixFile
from repro.sim.events import Waitable
from repro.util.units import GiB, MiB


@dataclass(frozen=True)
class PrefetchConfig:
    """Read-ahead knobs."""

    window_bytes: int = 1 * MiB     # size of one prefetch window
    trigger_after: int = 2          # sequential reads before arming
    memcpy_rate: float = 8.0 * GiB  # buffered-hit copy rate

    def __post_init__(self) -> None:
        if self.window_bytes <= 0:
            raise MiddlewareError(f"bad window {self.window_bytes}")
        if self.trigger_after < 1:
            raise MiddlewareError(f"bad trigger {self.trigger_after}")
        if self.memcpy_rate <= 0:
            raise MiddlewareError(f"bad memcpy rate {self.memcpy_rate}")


class SequentialPrefetcher:
    """Wraps a PosixFile with sequential read-ahead.

    Only ``pread`` is accelerated; writes invalidate the buffer (a real
    implementation would need coherence — we take the simple correct
    option).
    """

    def __init__(self, file: PosixFile, config: PrefetchConfig | None = None) -> None:
        self.file = file
        self.engine = file.engine
        self.config = config or PrefetchConfig()
        self._expected_next = -1       # offset that would continue the run
        self._run_length = 0           # consecutive sequential reads seen
        # Completed prefetch window: [start, end), or None.
        self._buffered: tuple[int, int] | None = None
        # High-water mark of consumption inside the buffered window.
        self._consumed_to = 0
        # In-flight prefetch: (start, end, fetch process), or None.
        self._inflight: tuple[int, int, Waitable] | None = None
        self.stats_prefetches = 0
        self.stats_buffered_hits = 0
        self.stats_wasted_bytes = 0

    def pread(self, offset: int, nbytes: int) -> Waitable:
        """Positional read with read-ahead; fires with an FSResult."""
        return self.engine.spawn(self._read_proc(offset, nbytes),
                                 name=f"prefetch.read.{self.file.pid}")

    def pwrite(self, offset: int, nbytes: int) -> Waitable:
        """Write-through; drops any buffered window (coherence)."""
        self._drop_buffer(count_waste=True)
        return self.file.pwrite(offset, nbytes)

    def _drop_buffer(self, *, count_waste: bool) -> None:
        if self._buffered is not None and count_waste:
            _start, end = self._buffered
            # Only bytes never consumed out of the window are waste.
            self.stats_wasted_bytes += max(0, end - self._consumed_to)
        self._buffered = None

    def _read_proc(self, offset: int, nbytes: int):
        config = self.config
        file = self.file
        start_time = self.engine.now

        # Wait for an in-flight prefetch that covers this read.
        if (self._inflight is not None
                and self._inflight[0] <= offset
                and offset + nbytes <= self._inflight[1]):
            yield self._inflight[2]

        hit = (self._buffered is not None
               and self._buffered[0] <= offset
               and offset + nbytes <= self._buffered[1])
        if hit:
            # Serve from the prefetch buffer: memory-speed, but still an
            # application I/O call — record it with its (short) duration.
            self.stats_buffered_hits += 1
            self._consumed_to = max(self._consumed_to, offset + nbytes)
            yield self.engine.timeout(
                file.lib.call_overhead_s + nbytes / config.memcpy_rate)
            end_time = self.engine.now
            file.lib.recorder.record_app(
                file.pid, READ, file.file_name, offset, nbytes,
                start_time, end_time)
            result = FSResult(nbytes, 0, 0, 0, start_time, end_time)
        else:
            self._drop_buffer(count_waste=True)
            result = yield file.pread(offset, nbytes)

        # Track sequentiality and maybe arm the next prefetch.
        if offset == self._expected_next:
            self._run_length += 1
        else:
            self._run_length = 1
        self._expected_next = offset + nbytes

        if (self._run_length >= config.trigger_after
                and self._inflight is None):
            # Fetch from the frontier: never re-read buffered bytes.
            window_start = self._expected_next
            if self._buffered is not None:
                window_start = max(window_start, self._buffered[1])
            window_end = min(window_start + config.window_bytes, file.size)
            if window_end > window_start:
                self._launch_prefetch(window_start, window_end)

        return result

    def _launch_prefetch(self, window_start: int, window_end: int) -> None:
        fetch = self.engine.spawn(
            self._prefetch_proc(window_start, window_end),
            name=f"prefetch.fetch.{self.file.pid}")
        self._inflight = (window_start, window_end, fetch)
        self.stats_prefetches += 1

    def _prefetch_proc(self, window_start: int, window_end: int):
        file = self.file
        nbytes = window_end - window_start
        # The fetch bypasses the app-record path: it is middleware
        # traffic, not an application access — only fs bytes are charged.
        result: FSResult = yield file.lib.mount.read(
            file.file_name, window_start, nbytes)
        file.lib.recorder.note_fs_bytes(result.device_bytes,
                                        pid=file.pid, op=READ,
                                        file=file.file_name,
                                        offset=window_start)
        if (self._buffered is not None
                and self._buffered[1] == window_start):
            # Contiguous with the live window: extend instead of replace,
            # so a reader mid-window never loses buffered bytes.
            self._buffered = (self._buffered[0], window_end)
        else:
            self._drop_buffer(count_waste=True)
            self._buffered = (window_start, window_end)
            self._consumed_to = window_start
        self._inflight = None
        return result
