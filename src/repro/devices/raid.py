"""Software RAID over member block devices.

Adds storage-configuration variety beyond single devices (the Set 1
axis): RAID-0 stripes requests across members for bandwidth, RAID-1
mirrors them for redundancy (reads go to one member, writes to all).

The array presents the same :class:`~repro.devices.base.BlockDevice`
``submit``/``access`` surface, so it drops into
:class:`~repro.fs.localfs.LocalFileSystem` or an I/O server unchanged —
including an extra device spec (``raid0-hdd-4``) usable from
:class:`~repro.system.SystemConfig`.
"""

from __future__ import annotations

from repro.devices.base import (
    BlockDevice,
    DeviceRequest,
    DeviceResult,
    DeviceStats,
    READ,
    WRITE,
)
from repro.errors import DeviceError
from repro.sim.engine import Engine
from repro.sim.events import Waitable
from repro.sim.monitor import UtilizationTracker
from repro.util.units import KiB


class RAIDArray:
    """RAID-0 or RAID-1 over equal member devices.

    Not a :class:`BlockDevice` subclass — the array has no service-time
    model of its own; it decomposes requests and delegates.  It matches
    the BlockDevice *protocol* (``capacity_bytes``, ``submit``,
    ``access``, ``stats``, ``name``), which is all the FS layer uses.
    """

    def __init__(self, engine: Engine, members: list[BlockDevice], *,
                 level: int = 0, chunk_size: int = 64 * KiB,
                 name: str = "raid") -> None:
        if len(members) < 2:
            raise DeviceError("a RAID array needs at least two members")
        if level not in (0, 1):
            raise DeviceError(f"unsupported RAID level {level}")
        if chunk_size <= 0:
            raise DeviceError(f"bad chunk size {chunk_size}")
        capacities = {m.capacity_bytes for m in members}
        if len(capacities) != 1:
            raise DeviceError("RAID members must have equal capacity")
        self.engine = engine
        self.members = list(members)
        self.level = level
        self.chunk_size = chunk_size
        self.name = name
        self.stats = DeviceStats()
        self.utilization = UtilizationTracker(engine, name=f"{name}.util")
        member_capacity = members[0].capacity_bytes
        if level == 0:
            self.capacity_bytes = member_capacity * len(members)
        else:
            self.capacity_bytes = member_capacity
        self._read_cursor = 0  # RAID-1 read balancing

    # -- request decomposition ------------------------------------------------

    def _split_raid0(self, request: DeviceRequest
                     ) -> list[tuple[BlockDevice, DeviceRequest]]:
        parts = []
        position = request.offset
        end = request.end
        n = len(self.members)
        while position < end:
            chunk = position // self.chunk_size
            within = position - chunk * self.chunk_size
            take = min(end - position, self.chunk_size - within)
            member = self.members[chunk % n]
            member_offset = (chunk // n) * self.chunk_size + within
            parts.append((member, DeviceRequest(request.op,
                                                member_offset, take)))
            position += take
        return parts

    def _members_for_raid1(self, request: DeviceRequest
                           ) -> list[BlockDevice]:
        if request.op == WRITE:
            return list(self.members)  # every mirror writes
        # Round-robin read balancing across mirrors.
        member = self.members[self._read_cursor % len(self.members)]
        self._read_cursor += 1
        return [member]

    # -- BlockDevice protocol --------------------------------------------------

    def submit(self, request: DeviceRequest) -> Waitable:
        """Queue a request; the waitable fires with a DeviceResult."""
        if request.end > self.capacity_bytes:
            raise DeviceError(
                f"{self.name}: request [{request.offset}, {request.end}) "
                f"exceeds capacity {self.capacity_bytes}"
            )
        return self.engine.spawn(self._serve(request),
                                 name=f"{self.name}.serve")

    def access(self, op: str, offset: int, nbytes: int) -> Waitable:
        """Convenience wrapper building the request inline."""
        return self.submit(DeviceRequest(op, offset, nbytes))

    def _serve(self, request: DeviceRequest):
        start = self.engine.now
        self.utilization.busy()
        try:
            if self.level == 0:
                pending = [member.submit(part)
                           for member, part in self._split_raid0(request)]
            else:
                pending = [member.submit(request)
                           for member in self._members_for_raid1(request)]
            results: list[DeviceResult] = yield self.engine.all_of(pending)
        finally:
            self.utilization.idle()
        success = all(r.success for r in results)
        errors = "; ".join(r.error for r in results if not r.success)
        if request.op == READ:
            self.stats.reads += 1
            if success:
                self.stats.bytes_read += request.nbytes
        else:
            self.stats.writes += 1
            if success:
                self.stats.bytes_written += request.nbytes
        if not success:
            self.stats.faults += 1
        return DeviceResult(request, start, self.engine.now,
                            success=success, error=errors)

    @property
    def queue_length(self) -> int:
        """Total requests queued at members."""
        return sum(m.queue_length for m in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RAIDArray level={self.level} "
                f"members={len(self.members)} {self.name}>")
