"""Local file system facade: files on one block device through a page cache.

Responsibilities:

- file creation (extent allocation via :class:`~repro.fs.blockmap.ExtentAllocator`);
- the read path: per-call software overhead, cache lookup, miss
  coalescing, optional read-ahead, parallel device submission;
- the write path: write-through (device write before completion) or
  write-back (dirty pages, asynchronous eviction write-back, explicit
  :meth:`flush`);
- byte accounting at the device boundary (:class:`FSStats`), which is the
  number the *bandwidth* metric measures — distinct from the bytes the
  application asked for, which is what BPS counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.base import BlockDevice, DeviceRequest, DeviceResult, READ, WRITE
from repro.errors import FileSystemError
from repro.fs.blockmap import Extent, ExtentAllocator, FileMap
from repro.fs.cache import PageCache
from repro.sim.engine import Engine
from repro.sim.events import Waitable


@dataclass
class FSStats:
    """Byte/op counters at the file-system ↔ device boundary."""

    calls: int = 0
    bytes_requested: int = 0
    device_reads: int = 0
    device_writes: int = 0
    bytes_read_from_device: int = 0
    bytes_written_to_device: int = 0
    #: Device accesses that failed *after* exhausting the retry budget —
    #: exactly one increment per finally-failed access, however many
    #: retry rounds it went through.
    faults: int = 0
    #: Re-submissions of faulted accesses (recovery traffic at the
    #: device boundary; 0 when ``device_retries`` is 0).
    device_retries: int = 0

    @property
    def device_bytes_moved(self) -> int:
        """Total bytes that crossed the device boundary."""
        return self.bytes_read_from_device + self.bytes_written_to_device

    @property
    def read_amplification(self) -> float:
        """device read bytes / requested bytes (1.0 when equal)."""
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_read_from_device / self.bytes_requested


@dataclass(frozen=True)
class FSResult:
    """Outcome of one file-system call."""

    nbytes: int
    device_bytes: int
    cache_hit_pages: int
    cache_miss_pages: int
    start: float
    end: float
    success: bool = True
    errors: tuple[str, ...] = field(default_factory=tuple)

    @property
    def latency(self) -> float:
        """Wall time of the call."""
        return self.end - self.start


class LocalFileSystem:
    """A single-device file system with an optional page cache.

    Parameters
    ----------
    engine, device:
        Simulation engine and backing block device.
    page_cache:
        A :class:`PageCache`; ``None`` means no caching at all.
    per_call_overhead_s:
        Fixed software cost per FS call (syscall + VFS + FS work).  This
        is the term that makes small-record sweeps slow — the Set 2
        mechanism.
    readahead_pages:
        Extra pages fetched past each miss run (0 disables read-ahead).
    max_extent:
        Forwarded to the allocator; 0 = files are fully contiguous.
    device_retries:
        Transparent retry rounds for faulted device accesses (the
        kernel's SCSI/ATA requeue behaviour).  0 = a device fault
        surfaces immediately.  Retried submissions are accounted as
        extra device traffic; ``stats.faults`` counts each access at
        most once, and only when its last retry also failed.
    """

    def __init__(
        self,
        engine: Engine,
        device: BlockDevice,
        *,
        page_cache: PageCache | None = None,
        per_call_overhead_s: float = 0.000030,
        readahead_pages: int = 0,
        max_extent: int = 0,
        device_retries: int = 0,
        name: str = "localfs",
    ) -> None:
        if per_call_overhead_s < 0:
            raise FileSystemError("negative per-call overhead")
        if readahead_pages < 0:
            raise FileSystemError("negative readahead")
        if device_retries < 0:
            raise FileSystemError(f"negative device retries {device_retries}")
        self.engine = engine
        self.device = device
        self.cache = page_cache
        self.per_call_overhead_s = per_call_overhead_s
        self.readahead_pages = readahead_pages
        self.device_retries = device_retries
        self.name = name
        self.stats = FSStats()
        self._allocator = ExtentAllocator(device.capacity_bytes,
                                          max_extent=max_extent)
        self._files: dict[str, FileMap] = {}

    # -- namespace -----------------------------------------------------------

    def create(self, file_name: str, size: int) -> FileMap:
        """Create a file of ``size`` bytes; contents are implicit."""
        if file_name in self._files:
            raise FileSystemError(f"file exists: {file_name!r}")
        if size <= 0:
            raise FileSystemError(f"bad file size {size}")
        extents = self._allocator.allocate(size)
        fmap = FileMap(file_name, extents)
        self._files[file_name] = fmap
        return fmap

    def exists(self, file_name: str) -> bool:
        """Does the file exist?"""
        return file_name in self._files

    def size_of(self, file_name: str) -> int:
        """File size in bytes."""
        return self._lookup(file_name).size

    def _lookup(self, file_name: str) -> FileMap:
        try:
            return self._files[file_name]
        except KeyError:
            raise FileSystemError(f"no such file: {file_name!r}") from None

    # -- cache management ------------------------------------------------------

    def drop_caches(self) -> int:
        """Empty the page cache (pre-run flush, as in the paper).

        Dirty pages are discarded *without* charging write-back I/O —
        this models the experimental reset between runs, not a crash-safe
        sync.  Returns the number of dirty pages discarded.
        """
        if self.cache is None:
            return 0
        return len(self.cache.drop_caches())

    def flush(self) -> Waitable:
        """Write back all dirty pages; the waitable fires when durable."""
        return self.engine.spawn(self._flush_proc(),
                                 name=f"{self.name}.flush")

    def _flush_proc(self):
        if self.cache is None:
            yield self.engine.timeout(0.0)
            return 0
        dirty = self.cache.flush()
        extents = []
        for file_name, page in dirty:
            extents.extend(self._page_extents(file_name, page))
        if extents:
            yield from self._issue(WRITE, extents)
        return len(dirty)

    # -- I/O paths ---------------------------------------------------------------

    def read(self, file_name: str, offset: int, nbytes: int) -> Waitable:
        """Read ``nbytes`` at ``offset``; the waitable fires with FSResult."""
        fmap = self._lookup(file_name)
        self._check_range(fmap, offset, nbytes)
        return self.engine.spawn(self._read_proc(fmap, offset, nbytes),
                                 name=f"{self.name}.read")

    def write(self, file_name: str, offset: int, nbytes: int) -> Waitable:
        """Write ``nbytes`` at ``offset``; the waitable fires with FSResult."""
        fmap = self._lookup(file_name)
        self._check_range(fmap, offset, nbytes)
        return self.engine.spawn(self._write_proc(fmap, offset, nbytes),
                                 name=f"{self.name}.write")

    @staticmethod
    def _check_range(fmap: FileMap, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0 or offset + nbytes > fmap.size:
            raise FileSystemError(
                f"bad range [{offset}, {offset + nbytes}) for "
                f"{fmap.name!r} of size {fmap.size}"
            )

    # -- helpers -------------------------------------------------------------------

    def _page_extents(self, file_name: str, page: int) -> list[Extent]:
        """Device extents backing one whole page (clipped to file size)."""
        fmap = self._lookup(file_name)
        page_size = self.cache.page_size if self.cache else 4096
        start = page * page_size
        length = min(page_size, fmap.size - start)
        if length <= 0:
            return []
        return fmap.translate(start, length)

    def _submit_device(self, op: str, extent: Extent) -> Waitable:
        return self.device.submit(DeviceRequest(op, extent.device_offset,
                                                extent.length))

    def _issue(self, op: str, extents: list[Extent]):
        """(generator) Submit extents concurrently, retrying faults.

        Faulted extents are re-submitted for up to ``device_retries``
        extra rounds; every submission (including retries) counts as
        device-boundary traffic, but ``stats.faults`` increments exactly
        once per extent that is *still* failing when the budget runs out
        — no double-count when a retried access fails again.

        Returns ``(moved_bytes, errors)`` via StopIteration value, for
        ``yield from`` callers.
        """
        outstanding = list(extents)
        moved = 0
        errors: list[str] = []
        round_index = 0
        while outstanding:
            pending = [self._submit_device(op, extent)
                       for extent in outstanding]
            results: list[DeviceResult] = yield self.engine.all_of(pending)
            failed: list[Extent] = []
            failed_errors: list[str] = []
            for extent, result in zip(outstanding, results):
                if op == READ:
                    self.stats.device_reads += 1
                    self.stats.bytes_read_from_device += extent.length
                else:
                    self.stats.device_writes += 1
                    self.stats.bytes_written_to_device += extent.length
                moved += extent.length
                if not result.success:
                    failed.append(extent)
                    failed_errors.append(result.error)
            if not failed:
                break
            if round_index >= self.device_retries:
                # Budget exhausted: one fault per finally-failed access.
                self.stats.faults += len(failed)
                errors.extend(failed_errors)
                break
            round_index += 1
            self.stats.device_retries += len(failed)
            outstanding = failed
        return moved, errors

    def _read_proc(self, fmap: FileMap, offset: int, nbytes: int):
        start = self.engine.now
        self.stats.calls += 1
        self.stats.bytes_requested += nbytes
        yield self.engine.timeout(self.per_call_overhead_s)

        if self.cache is None or self.cache.capacity_pages == 0:
            # Straight-through: one device request per extent run.
            moved, errors = yield from self._issue(
                READ, fmap.translate(offset, nbytes))
            return FSResult(nbytes, moved, 0, 0, start, self.engine.now,
                            success=not errors, errors=tuple(errors))

        cache = self.cache
        pages = cache.page_range(offset, nbytes)
        missing = [p for p in pages if not cache.lookup(fmap.name, p)]
        hits = len(pages) - len(missing)

        # Coalesce consecutive missing pages into runs, add read-ahead.
        runs = _coalesce_pages(missing)
        max_page = (fmap.size - 1) // cache.page_size
        if self.readahead_pages and runs:
            first, last = runs[-1]
            runs[-1] = (first, min(last + self.readahead_pages, max_page))

        miss_extents: list[Extent] = []
        fetched_pages: list[int] = []
        for first, last in runs:
            run_start = first * cache.page_size
            run_len = min((last - first + 1) * cache.page_size,
                          fmap.size - run_start)
            miss_extents.extend(fmap.translate(run_start, run_len))
            fetched_pages.extend(range(first, last + 1))

        errors: list[str] = []
        moved = 0
        if miss_extents:
            moved, errors = yield from self._issue(READ, miss_extents)

        writeback_extents: list[Extent] = []
        for page in fetched_pages:
            for key in cache.insert(fmap.name, page):
                writeback_extents.extend(self._page_extents(*key))
        if writeback_extents:
            # Eviction write-back happens asynchronously; reads don't wait.
            self.engine.spawn(self._drain(writeback_extents),
                              name=f"{self.name}.writeback")

        return FSResult(nbytes, moved, hits, len(missing), start,
                        self.engine.now,
                        success=not errors, errors=tuple(errors))

    def _write_proc(self, fmap: FileMap, offset: int, nbytes: int):
        start = self.engine.now
        self.stats.calls += 1
        yield self.engine.timeout(self.per_call_overhead_s)

        cache = self.cache
        if cache is None or cache.capacity_pages == 0:
            moved, errors = yield from self._issue(
                WRITE, fmap.translate(offset, nbytes))
            return FSResult(nbytes, moved, 0, 0, start, self.engine.now,
                            success=not errors, errors=tuple(errors))

        pages = cache.page_range(offset, nbytes)
        if cache.policy == "write-through":
            moved, errors = yield from self._issue(
                WRITE, fmap.translate(offset, nbytes))
            for page in pages:
                cache.insert(fmap.name, page, dirty=False)
            return FSResult(nbytes, moved, 0, 0, start, self.engine.now,
                            success=not errors, errors=tuple(errors))

        # write-back: dirty the pages, write-back only on eviction/flush.
        writeback_extents: list[Extent] = []
        for page in pages:
            for key in cache.insert(fmap.name, page, dirty=True):
                writeback_extents.extend(self._page_extents(*key))
        if writeback_extents:
            self.engine.spawn(self._drain(writeback_extents),
                              name=f"{self.name}.writeback")
        yield self.engine.timeout(0.0)  # cache write is (nearly) free
        return FSResult(nbytes, 0, 0, 0, start, self.engine.now)

    def _drain(self, extents: list[Extent]):
        yield from self._issue(WRITE, extents)


def _coalesce_pages(pages: list[int]) -> list[tuple[int, int]]:
    """Group a sorted page list into inclusive (first, last) runs.

    >>> _coalesce_pages([1, 2, 3, 7, 9, 10])
    [(1, 3), (7, 7), (9, 10)]
    """
    runs: list[tuple[int, int]] = []
    for page in pages:
        if runs and page == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], page)
        else:
            runs.append((page, page))
    return runs
