"""MPI-IO-style middleware: independent, noncontiguous, and collective I/O.

An :class:`MPIIO` context models one parallel application's I/O
communicator: ``nranks`` ranks, shared hints, one shared
:class:`~repro.middleware.tracing.TraceRecorder`.  Each rank opens the
shared file and gets an :class:`MPIFile` handle supporting:

- ``read_at`` / ``write_at`` — independent contiguous I/O;
- ``read_regions`` — independent noncontiguous I/O with ROMIO-style
  data sieving (the paper's Set 4 mechanism);
- ``read_at_all`` — collective I/O with two-phase aggregation.

Trace records are application-level: one record per MPI-IO call, sized
by the bytes the *application* requested.  The file-system byte counter
sees what actually moved below (sieve holes included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.base import READ, WRITE
from repro.errors import MiddlewareError
from repro.fs.localfs import FSResult
from repro.middleware.collective import (
    FileDomain,
    domain_reads,
    two_phase_plan,
)
from repro.middleware.retry import RetryPolicy, RetryStats, execute_attempts
from repro.middleware.sieving import (
    Region,
    SievingConfig,
    plan_sieving,
    validate_regions,
)
from repro.middleware.tracing import TraceRecorder
from repro.sim.engine import Engine
from repro.sim.events import Completion, Waitable
from repro.util.rng import RngStream
from repro.util.units import GiB


@dataclass(frozen=True)
class MPIIOHints:
    """Per-open hints (a small subset of ROMIO's)."""

    sieving: SievingConfig = field(default_factory=SievingConfig)
    #: Aggregators for collective I/O (ROMIO's ``cb_nodes``); 0 = all ranks.
    cb_nodes: int = 0
    #: In-memory copy rate for sieve-buffer extraction and collective
    #: redistribution (bytes/second).
    memcpy_rate: float = 8.0 * GiB


class MPIIO:
    """One communicator's MPI-IO layer."""

    def __init__(self, engine: Engine, nranks: int,
                 recorder: TraceRecorder, *,
                 call_overhead_s: float = 0.000020,
                 pid_base: int = 0,
                 retry_policy: RetryPolicy | None = None,
                 retry_rng: RngStream | None = None,
                 fault_state=None,
                 retry_stats: RetryStats | None = None) -> None:
        if nranks < 1:
            raise MiddlewareError(f"bad rank count {nranks}")
        if call_overhead_s < 0:
            raise MiddlewareError("negative call overhead")
        if pid_base < 0:
            raise MiddlewareError(f"negative pid base {pid_base}")
        self.engine = engine
        self.nranks = nranks
        self.recorder = recorder
        self.call_overhead_s = call_overhead_s
        #: Retry middleware for independent contiguous I/O (sieving and
        #: collective paths issue compound multi-op transactions; those
        #: stay single-shot — documented out of scope).
        self.retry_policy = retry_policy
        self.retry_rng = retry_rng
        self.fault_state = fault_state
        self.retry_stats = retry_stats
        #: Offset applied to ranks in trace records (multi-application
        #: runs give each communicator a disjoint pid space).
        self.pid_base = pid_base
        self._collective_calls: dict[tuple[str, int], "_CollectiveCall"] = {}
        self._collective_seq: dict[str, int] = {}

    def open(self, mount, file_name: str, rank: int,
             hints: MPIIOHints | None = None) -> "MPIFile":
        """Open the shared file from one rank's mount."""
        if not 0 <= rank < self.nranks:
            raise MiddlewareError(
                f"rank {rank} out of range for {self.nranks} ranks"
            )
        if not mount.exists(file_name):
            raise MiddlewareError(f"no such file: {file_name!r}")
        return MPIFile(self, mount, file_name, rank,
                       hints or MPIIOHints())


class MPIFile:
    """One rank's handle on the shared file."""

    def __init__(self, ctx: MPIIO, mount, file_name: str, rank: int,
                 hints: MPIIOHints) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.mount = mount
        self.file_name = file_name
        self.rank = rank
        self.hints = hints
        self.size = mount.size_of(file_name)

    # -- independent contiguous ------------------------------------------------

    def read_at(self, offset: int, nbytes: int) -> Waitable:
        """Independent read at an explicit offset."""
        return self._independent(READ, offset, nbytes)

    def write_at(self, offset: int, nbytes: int) -> Waitable:
        """Independent write at an explicit offset."""
        return self._independent(WRITE, offset, nbytes)

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0 or offset + nbytes > self.size:
            raise MiddlewareError(
                f"bad range [{offset}, {offset + nbytes}) for "
                f"{self.file_name!r} of size {self.size}"
            )

    def _independent(self, op: str, offset: int, nbytes: int) -> Waitable:
        self._check(offset, nbytes)
        return self.engine.spawn(
            self._independent_proc(op, offset, nbytes),
            name=f"mpiio.{op}.r{self.rank}")

    def _independent_proc(self, op: str, offset: int, nbytes: int):
        ctx = self.ctx
        pid = ctx.pid_base + self.rank
        start = self.engine.now
        yield self.engine.timeout(ctx.call_overhead_s)
        if op == READ:
            def issue():
                return self.mount.read(self.file_name, offset, nbytes)
        else:
            def issue():
                return self.mount.write(self.file_name, offset, nbytes)
        outcomes = yield from execute_attempts(
            self.engine, issue, ctx.retry_policy,
            rng=ctx.retry_rng, stats=ctx.retry_stats, first_start=start)
        final = outcomes[-1]
        final_end = final.end
        if ctx.fault_state is not None:
            factor = ctx.fault_state.process_factor(pid)
            if factor > 1.0:
                yield self.engine.timeout(
                    (factor - 1.0) * (final.end - start))
                final_end = self.engine.now
        for attempt, outcome in enumerate(outcomes):
            end = final_end if outcome is final else outcome.end
            ctx.recorder.record_app(pid, op, self.file_name, offset,
                                    nbytes, outcome.start, end,
                                    success=outcome.success,
                                    retries=attempt)
            if outcome.result is not None:
                ctx.recorder.note_fs_bytes(
                    outcome.result.device_bytes, pid=pid, op=op,
                    file=self.file_name, offset=offset,
                    start=outcome.start, end=end)
        result = final.result
        if result is None:
            result = FSResult(nbytes, 0, 0, 0, final.start, final_end,
                              success=False,
                              errors=("operation timed out",))
        return result

    # -- independent noncontiguous (data sieving) ---------------------------------

    def read_regions(self, regions: list[Region]) -> Waitable:
        """Noncontiguous read; sieving per the open hints.

        One application-level trace record covers the whole call, sized
        by the *useful* bytes (what the application asked for).  The
        holes the sieve reads drag in appear only in the fs byte count.
        """
        validate_regions(regions)
        for offset, length in regions:
            self._check(offset, length)
        return self.engine.spawn(self._regions_proc(regions),
                                 name=f"mpiio.sieve.r{self.rank}")

    def _regions_proc(self, regions: list[Region]):
        ctx = self.ctx
        start = self.engine.now
        yield self.engine.timeout(ctx.call_overhead_s)
        plan = plan_sieving(regions, self.hints.sieving)
        device_bytes = 0
        success = True
        # ROMIO reuses one sieve buffer: reads are sequential.
        for sieve in plan:
            result: FSResult = yield self.mount.read(
                self.file_name, sieve.offset, sieve.nbytes)
            device_bytes += result.device_bytes
            success = success and result.success
            # Copy the useful pieces out of the sieve buffer.
            copy_time = sieve.useful_bytes / self.hints.memcpy_rate
            if copy_time > 0:
                yield self.engine.timeout(copy_time)
        end = self.engine.now
        useful = sum(length for _off, length in regions)
        ctx.recorder.record_app(ctx.pid_base + self.rank, READ,
                                self.file_name,
                                regions[0][0], useful, start, end,
                                success=success)
        ctx.recorder.note_fs_bytes(device_bytes,
                                   pid=ctx.pid_base + self.rank, op=READ,
                                   file=self.file_name,
                                   offset=regions[0][0],
                                   start=start, end=end)
        return FSResult(useful, device_bytes, 0, 0, start, end,
                        success=success)

    def write_regions(self, regions: list[Region]) -> Waitable:
        """Noncontiguous write; sieving per the open hints.

        Sieved noncontiguous *writes* need read-modify-write: the
        middleware reads the covering range (holes included), patches
        the user's regions into the buffer, and writes the whole range
        back — ROMIO's ``ADIOI_GEN_WriteStrided`` data-sieving path.
        The fs byte counter therefore sees roughly *twice* the covering
        range; the application record still counts only the useful
        bytes.  With sieving disabled, one exact write per region.
        """
        validate_regions(regions)
        for offset, length in regions:
            self._check(offset, length)
        return self.engine.spawn(self._write_regions_proc(regions),
                                 name=f"mpiio.wsieve.r{self.rank}")

    def _write_regions_proc(self, regions: list[Region]):
        ctx = self.ctx
        start = self.engine.now
        yield self.engine.timeout(ctx.call_overhead_s)
        plan = plan_sieving(regions, self.hints.sieving)
        device_bytes = 0
        success = True
        for sieve in plan:
            if sieve.hole_bytes == 0:
                # Contiguous (or sieving off): plain write.
                result: FSResult = yield self.mount.write(
                    self.file_name, sieve.offset, sieve.nbytes)
                device_bytes += result.device_bytes
                success = success and result.success
                continue
            # Read-modify-write: fetch the covering range...
            read_back: FSResult = yield self.mount.read(
                self.file_name, sieve.offset, sieve.nbytes)
            device_bytes += read_back.device_bytes
            success = success and read_back.success
            # ... patch the user's regions into the buffer ...
            copy_time = sieve.useful_bytes / self.hints.memcpy_rate
            if copy_time > 0:
                yield self.engine.timeout(copy_time)
            # ... and write the whole range back.
            written: FSResult = yield self.mount.write(
                self.file_name, sieve.offset, sieve.nbytes)
            device_bytes += written.device_bytes
            success = success and written.success
        end = self.engine.now
        useful = sum(length for _off, length in regions)
        ctx.recorder.record_app(ctx.pid_base + self.rank, WRITE,
                                self.file_name, regions[0][0], useful,
                                start, end, success=success)
        ctx.recorder.note_fs_bytes(device_bytes,
                                   pid=ctx.pid_base + self.rank,
                                   op=WRITE, file=self.file_name,
                                   offset=regions[0][0],
                                   start=start, end=end)
        return FSResult(useful, device_bytes, 0, 0, start, end,
                        success=success)

    # -- collective (two-phase) ------------------------------------------------------

    def read_at_all(self, offset: int, nbytes: int) -> Completion:
        """Collective read: all ranks must call; two-phase aggregation.

        Rank contributions are gathered; ``cb_nodes`` aggregators read
        contiguous file domains; data is redistributed at memcpy rate
        (local) — the network case is exercised through PFS mounts,
        whose reads already pay network costs.
        """
        self._check(offset, nbytes)
        ctx = self.ctx
        key = (self.file_name, ctx._collective_seq.get(self.file_name, 0))
        call = ctx._collective_calls.get(key)
        if call is None:
            call = _CollectiveCall(ctx, self.mount, self.file_name,
                                   self.hints)
            ctx._collective_calls[key] = call
        call.mounts[self.rank] = self.mount
        done = call.join(self.rank, offset, nbytes)
        if call.complete_roster:
            # All ranks arrived: seal this call and bump the sequence so
            # the next collective round gets a fresh call object.
            ctx._collective_seq[self.file_name] = key[1] + 1
            del ctx._collective_calls[key]
            call.launch()
        return done


class _CollectiveCall:
    """State of one in-flight collective read round."""

    def __init__(self, ctx: MPIIO, mount, file_name: str,
                 hints: MPIIOHints) -> None:
        self.ctx = ctx
        self.engine = ctx.engine
        self.mount = mount
        self.file_name = file_name
        self.hints = hints
        self.contributions: dict[int, tuple[int, int, float, Completion]] = {}
        #: rank -> that rank's mount; aggregators are spread over these
        #: (ROMIO places cb_nodes aggregators on distinct client nodes).
        self.mounts: dict[int, object] = {}

    @property
    def complete_roster(self) -> bool:
        """Have all ranks of the communicator joined?"""
        return len(self.contributions) == self.ctx.nranks

    def join(self, rank: int, offset: int, nbytes: int) -> Completion:
        if rank in self.contributions:
            raise MiddlewareError(
                f"rank {rank} called read_at_all twice in one round"
            )
        done = self.engine.completion()
        self.contributions[rank] = (offset, nbytes, self.engine.now, done)
        return done

    def launch(self) -> None:
        self.engine.spawn(self._run(), name=f"mpiio.coll.{self.file_name}")

    def _run(self):
        ctx = self.ctx
        yield self.engine.timeout(ctx.call_overhead_s)
        requests = {rank: (off, size)
                    for rank, (off, size, _t, _d) in self.contributions.items()}
        cb_nodes = self.hints.cb_nodes or ctx.nranks
        domains = two_phase_plan(requests, cb_nodes)
        # Aggregator a runs on the a-th participating rank's node.
        aggregator_mounts = [mount for _rank, mount
                             in sorted(self.mounts.items())]
        # Phase 1: aggregators concurrently read the *requested* ranges
        # falling in their domains (ROMIO materialises the aggregate
        # access pattern; holes between rank requests are never read).
        pending = []
        for aggregator, offset, nbytes in domain_reads(domains, requests):
            mount = aggregator_mounts[aggregator % len(aggregator_mounts)]
            pending.append(mount.read(self.file_name, offset, nbytes))
        device_bytes = 0
        success = True
        if pending:
            results = yield self.engine.all_of(pending)
            for result in results:
                device_bytes += result.device_bytes
                success = success and result.success
        # Phase 2: redistribute to ranks at memcpy rate (serialised per
        # aggregator; we charge the total volume once).
        total = sum(size for _off, size in requests.values())
        copy_time = total / self.hints.memcpy_rate
        if copy_time > 0:
            yield self.engine.timeout(copy_time)
        end = self.engine.now
        for rank, (offset, nbytes, start, done) in self.contributions.items():
            ctx.recorder.record_app(ctx.pid_base + rank, READ,
                                    self.file_name, offset,
                                    nbytes, start, end, success=success)
            done.trigger(FSResult(nbytes, 0, 0, 0, start, end,
                                  success=success))
        # Charge fs bytes once, against the collective as a whole.
        ctx.recorder.note_fs_bytes(device_bytes, op=READ,
                                   file=self.file_name)
