"""Sharded streaming engine: N worker processes, merged at the watermark.

Interval unions over disjoint segment lists merge *associatively*: the
canonical union of per-shard canonical unions is the canonical union of
every interval.  That algebra is the whole license for this module —
:class:`ShardedMetricStream` partitions columnar chunks across N forked
workers (the :class:`~repro.exec.duplex.DuplexWorker` transport the
supervised sweep pool uses), each holding a full per-shard
:class:`~repro.live.stream.MetricStream` (its own
:class:`~repro.live.union.StreamingUnion` plus window/breakdown
partials), and re-merges segment lists and window mass at the
watermark.  Cumulative union time, BPS, IOPS, and bandwidth stay
**bit-identical** to the batch pipeline and to a single-process stream
for *any* shard count (shard-count determinism); window float masses
and ARPT agree to float re-association, exactly as chunked single-
process ingest does (see :mod:`repro.live.chunk`).

Protocol (parent -> shard / shard -> parent, pickled over the pipe):

- ``("chunk", RecordChunk)`` — ingest one columnar sub-chunk;
- ``("sync", watermark)`` — advance to the external watermark
  and reply ``("synced", {"watermark", "snapshot"})``: the shard's
  settled-start watermark plus its full
  :meth:`~repro.live.stream.MetricStream.partial_state` (compacting —
  the snapshot stays O(open windows));
- ``("finalize", None)`` — reply ``("final", partial_state)`` and exit;
- ``("stop", None)`` — exit without replying.

The sync snapshot does triple duty: it is the merge input for emitting
settled windows to sinks/detector, the shard's crash checkpoint, and
the progress watermark.  The parent buffers every sub-chunk sent since
a shard's last snapshot; when a shard dies (pipe EOF, send failure, or
sync timeout), it is respawned, restored from the snapshot
(:meth:`~repro.live.stream.MetricStream.restore_state`), and the buffer
is replayed — deterministic ingest makes the replaysed shard
indistinguishable from one that never died.  Respawns draw on a bounded
budget, after which the stream fails loudly.

Chaos hook: the supervisor's ``REPRO_TEST_KILL_JOB`` spec is honoured
with shard indexes as job indexes — ``"1:exit"`` kills shard 1 on its
first chunk of generation 0; respawned generations run clean (the
supervisor's "retries run clean" convention).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from repro.core.intervals import merge_sweep
from repro.core.metrics import MetricSet
from repro.errors import LiveStreamError
from repro.exec.duplex import DuplexWorker, fork_available
from repro.exec.supervisor import _maybe_sabotage
from repro.live.sinks import apply_sink_policy
from repro.live.stream import (
    GroupStats,
    LiveResult,
    LiveSnapshot,
    MetricStream,
    WindowStats,
    _Accumulator,
)
from repro.util.units import BLOCK_SIZE

PARTITIONS = ("hash", "time")


def _shard_main(conn, shard_index: int, generation: int,
                factory: Callable[[], MetricStream],
                snapshot: dict | None) -> None:
    """Shard worker loop (forked child; config inherited, not pickled)."""
    try:
        stream = factory()
        if snapshot is not None:
            stream.restore_state(snapshot)
        first_chunk = True
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind, payload = message
            if kind == "chunk":
                if first_chunk:
                    first_chunk = False
                    _maybe_sabotage(shard_index, generation)
                stream.push_chunk(payload)
            elif kind == "sync":
                stream.advance_watermark(payload)
                conn.send(("synced", {
                    "watermark": stream.watermark,
                    "snapshot": stream.partial_state(compact=True),
                }))
            elif kind == "finalize":
                conn.send(("final",
                           stream.partial_state(compact=True)))
                conn.close()
                return
            else:  # "stop"
                conn.close()
                return
    except BaseException as exc:  # noqa: BLE001 — surface, then die
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


class _Shard:
    """Parent-side bookkeeping for one shard worker."""

    __slots__ = ("worker", "generation", "snapshot", "buffer",
                 "watermark")

    def __init__(self) -> None:
        self.worker: DuplexWorker | None = None
        self.generation = 0
        #: Last synced partial_state (None until the first sync).
        self.snapshot: dict | None = None
        #: Sub-chunks sent since the snapshot (the crash replay log).
        self.buffer: list = []
        self.watermark = -math.inf


class ShardedMetricStream(_Accumulator):
    """Chunked live metrics fanned out over N worker processes.

    Accepts the same columnar :class:`~repro.live.chunk.RecordChunk`
    batches as :meth:`MetricStream.push_chunk` — and, through the same
    ingest buffer, the same record-at-a-time :meth:`ingest` — and
    settles the same :class:`~repro.live.stream.LiveResult`.  With
    ``shards <= 1`` or no ``fork`` support the engine degrades to one
    in-process :class:`MetricStream` — same API, no processes.

    ``partition`` is ``"hash"`` (``pid % shards`` — a process's records
    stay on one shard, so per-pid breakdowns never cross-merge) or
    ``"time"`` (window index of the record's start, round-robin — a
    window's mass lands mostly on one shard).  Any partition is correct;
    the choice only moves merge work around.
    """

    def __init__(
        self,
        *,
        window: float,
        shards: int = 2,
        block_size: int = BLOCK_SIZE,
        origin: float | None = None,
        partition: str = "hash",
        sync_every: int = 8,
        sync_timeout: float = 60.0,
        max_respawns: int = 4,
        watermark_lag: float = 0.0,
        late_policy: str = "merge",
        sinks: Iterable = (),
        sink_errors: str | None = None,
        sink_max_failures: int = 5,
        detector=None,
        group_columns: dict | None = None,
    ) -> None:
        if shards < 1:
            raise LiveStreamError(f"shard count must be >= 1, got {shards}")
        if partition not in PARTITIONS:
            raise LiveStreamError(
                f"unknown partition {partition!r}; "
                f"known: {', '.join(PARTITIONS)}")
        if sync_every < 1:
            raise LiveStreamError(
                f"sync_every must be >= 1, got {sync_every}")
        self.window = float(window)
        self.block_size = block_size
        self.origin = origin
        self.partition = partition
        self.sync_every = sync_every
        self.sync_timeout = sync_timeout
        self.max_respawns = max_respawns
        self.sinks = apply_sink_policy(sinks, sink_errors,
                                       sink_max_failures)
        self.detector = detector
        self.anomalies: list = []
        self._stream_kwargs = dict(
            window=window, block_size=block_size,
            watermark_lag=watermark_lag, late_policy=late_policy,
            group_columns=group_columns)
        self._init_accumulator(watermark_lag)
        self.shards = shards if fork_available() else 1
        self._inline: MetricStream | None = None
        if self.shards <= 1:
            self._inline = MetricStream(
                origin=origin, sinks=self.sinks, detector=detector,
                **self._stream_kwargs)
        self._shards = [_Shard() for _ in range(self.shards)]
        self._started = False
        self._chunks_since_sync = 0
        self._external_watermark = -math.inf
        self._next_emit: int | None = None
        self._respawns = 0
        self._finalized = False
        #: Parent-side exact tallies (maintained at push_chunk, so the
        #: monitoring surface never blocks on a worker round-trip).
        self._ops_pushed = 0
        self._bytes_pushed = 0

    # -- worker lifecycle --------------------------------------------------

    def _factory(self) -> Callable[[], MetricStream]:
        kwargs = dict(self._stream_kwargs, origin=self.origin)
        return lambda: MetricStream(**kwargs)

    def _start_workers(self, chunk) -> None:
        # The window grid must be identical on every shard, so the
        # origin is resolved *before* the first fork — from the first
        # delivered row, exactly as a single stream would.
        if self.origin is None:
            self.origin = float(chunk.start[0])
        factory = self._factory()
        for index, shard in enumerate(self._shards):
            shard.worker = DuplexWorker(
                _shard_main, (index, shard.generation, factory, None))
        self._started = True

    def _respawn(self, index: int, reason: str) -> None:
        shard = self._shards[index]
        self._respawns += 1
        if self._respawns > self.max_respawns:
            self.close()
            raise LiveStreamError(
                f"shard {index} died ({reason}) and the respawn budget "
                f"({self.max_respawns}) is spent")
        if shard.worker is not None:
            shard.worker.retire(terminate=True)
        shard.generation += 1
        shard.worker = DuplexWorker(
            _shard_main,
            (index, shard.generation, self._factory(), shard.snapshot))
        # Replay everything the lost worker had seen since its snapshot.
        for sub in shard.buffer:
            shard.worker.send(("chunk", sub))

    def _send(self, index: int, message) -> None:
        shard = self._shards[index]
        try:
            shard.worker.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._respawn(index, f"send failed: {exc}")
            shard.worker.send(message)

    def _sync_shard(self, index: int) -> dict:
        wm = self._external_watermark
        while True:  # bounded by the respawn budget inside _respawn
            try:
                self._send(index, ("sync", wm))
                worker = self._shards[index].worker
                if not worker.poll(self.sync_timeout):
                    raise EOFError(
                        f"no sync reply in {self.sync_timeout:.3g}s")
                kind, payload = worker.recv()
                if kind == "error":
                    raise EOFError(f"shard error: {payload}")
                return payload
            except (EOFError, OSError) as exc:
                self._respawn(index, str(exc))

    # -- ingest ------------------------------------------------------------

    def _partition_keys(self, chunk) -> np.ndarray:
        if self.partition == "hash":
            return chunk.pid % self.shards
        index = np.floor(
            (chunk.start - self.origin) / self.window).astype(np.int64)
        return index % self.shards

    def ingest(self, record) -> None:
        """Deliver one completed I/O record (buffered into chunks)."""
        if self._inline is not None:
            self._inline.ingest(record)
            return
        self._add_row(record)

    def push_chunk(self, chunk) -> None:
        """Partition one columnar chunk across the shard workers."""
        if self._inline is not None:
            self._inline.push_chunk(chunk)
            return
        self._push(chunk)

    def advance_watermark(self, to: float) -> None:
        """Promise no future record starts below ``to``.

        Broadcast to the shards with the next sync — watermark progress
        is chunk-granular in the sharded engine by design.
        """
        if self._inline is not None:
            self._inline.advance_watermark(to)
            return
        self._advance(to)

    def _fold(self, chunk) -> None:
        if not self._started:
            self._start_workers(chunk)
        self._ops_pushed += len(chunk)
        self._bytes_pushed += int(np.sum(chunk.nbytes))
        keys = self._partition_keys(chunk)
        for index, shard in enumerate(self._shards):
            sub = chunk.select(keys == index)
            if len(sub) == 0:
                continue
            self._send(index, ("chunk", sub))
            shard.buffer.append(sub)
        self._chunks_since_sync += 1
        if self._chunks_since_sync >= self.sync_every:
            self.sync()

    def _apply_watermark(self, to: float) -> None:
        if to > self._external_watermark:
            self._external_watermark = to

    def sync(self) -> None:
        """Checkpoint every shard and emit newly settled windows."""
        if self._inline is not None or not self._started:
            return
        for index, shard in enumerate(self._shards):
            payload = self._sync_shard(index)
            shard.snapshot = payload["snapshot"]
            shard.watermark = payload["watermark"]
            shard.buffer = []
        self._chunks_since_sync = 0
        self._emit_settled()

    # -- merge -------------------------------------------------------------

    def _index_of(self, t: float) -> int:
        return int(math.floor((t - self.origin) / self.window))

    def _window_bounds(self, index: int) -> tuple[float, float]:
        return (self.origin + index * self.window,
                self.origin + (index + 1) * self.window)

    def _states(self) -> list[dict]:
        return [s.snapshot for s in self._shards if s.snapshot is not None]

    def _merged_window_stats(self, index: int,
                             states: list[dict]) -> WindowStats:
        w0, w1 = self._window_bounds(index)
        ops = 0
        blocks = 0.0
        nbytes = 0.0
        dur_sum = 0.0
        segments = []
        for state in states:
            win = state["windows"].get(index)
            if win is None:
                continue
            ops += win["ops"]
            blocks += win["blocks"]
            nbytes += win["bytes"]
            dur_sum += win["dur_sum"]
            if len(win["segments"]):
                segments.append(win["segments"])
        io_time = 0.0
        if segments:
            combined = (segments[0] if len(segments) == 1
                        else np.concatenate(segments))
            starts, ends = merge_sweep(combined)
            io_time = float(np.sum(ends - starts))
        if io_time > 0.0:
            bps = blocks / io_time
            iops = ops / io_time
            bandwidth = nbytes / io_time
        else:
            bps = iops = bandwidth = 0.0
        arpt = dur_sum / ops if ops else 0.0
        return WindowStats(index=index, start=w0, end=w1, ops=ops,
                           blocks=blocks, bytes=nbytes, io_time=io_time,
                           bps=bps, iops=iops, bandwidth=bandwidth,
                           arpt=arpt)

    def _emit_settled(self) -> None:
        states = self._states()
        if len(states) < len(self._shards):
            return
        floor_wm = min(s.watermark for s in self._shards)
        if not math.isfinite(floor_wm):
            if floor_wm != math.inf:
                return
            settled = max((s["max_index"] for s in states
                           if s["max_index"] is not None),
                          default=None)
            if settled is None:
                return
            settled += 1
        else:
            settled = self._index_of(floor_wm)
        min_index = min((s["min_index"] for s in states
                         if s["min_index"] is not None), default=None)
        max_index = max((s["max_index"] for s in states
                         if s["max_index"] is not None), default=None)
        if min_index is None:
            return
        if self._next_emit is None:
            self._next_emit = min_index
        while self._next_emit < settled and self._next_emit <= max_index:
            stats = self._merged_window_stats(self._next_emit, states)
            self._next_emit += 1
            self._emit(stats.as_event())
            self._observe(stats)

    def _observe(self, stats: WindowStats) -> None:
        if self.detector is None:
            return
        anomaly = self.detector.observe(stats)
        if anomaly is not None:
            self.anomalies.append(anomaly)
            self._emit(anomaly.as_event())

    def _emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- snapshot hooks ----------------------------------------------------
    # The monitoring surface `bps serve` (and anything else holding a
    # long-lived sharded stream) reads between chunks.  Each read first
    # pushes the ingest buffer out; counters are parent-side and exact,
    # lateness comes from the last shard checkpoints, i.e. it is
    # sync-granular by design.

    @property
    def ops(self) -> int:
        """Records accepted so far (parent-side, exact)."""
        if self._inline is not None:
            return self._inline.ops
        self._flush()
        return self._ops_pushed

    @property
    def nbytes(self) -> int:
        """Bytes accepted so far (parent-side, exact)."""
        if self._inline is not None:
            return self._inline.nbytes
        self._flush()
        return self._bytes_pushed

    @property
    def late_records(self) -> int:
        """Late arrivals across shards, as of the last checkpoints."""
        if self._inline is not None:
            return self._inline.late_records
        self._flush()
        return sum(s["late_records"] for s in self._states())

    def snapshot(self, *, emit: bool = False) -> LiveSnapshot:
        """Exact cumulative metrics at this instant.

        The sharded path checkpoints every worker first (one sync
        round-trip per shard) and merges their canonical union
        segments, so the figures are bit-identical to a single stream
        fed the same chunks — the same associative-merge argument
        :meth:`finalize` rests on.
        """
        if self._inline is not None:
            return self._inline.snapshot(emit=emit)
        self._flush()
        self.sync()
        states = self._states()
        ops = sum(s["ops"] for s in states)
        blocks = sum(s["blocks"] for s in states)
        nbytes = sum(s["bytes"] for s in states)
        dur_sum = sum(s["dur_sum"] for s in states)
        seg_parts = [s["union_segments"] for s in states
                     if len(s["union_segments"])]
        t = 0.0
        if seg_parts:
            starts, ends = merge_sweep(
                seg_parts[0] if len(seg_parts) == 1
                else np.concatenate(seg_parts))
            t = float(np.sum(ends - starts))
        min_index = min((s["min_index"] for s in states
                         if s["min_index"] is not None), default=None)
        windows_closed = (0 if self._next_emit is None
                          or min_index is None
                          else self._next_emit - min_index)
        last_end = max((s["last_end"] for s in states), default=0.0)
        snap = LiveSnapshot(
            time=last_end if ops else 0.0,
            ops=ops, blocks=blocks, bytes=nbytes, io_time=t,
            bps=blocks / t if t > 0 else 0.0,
            iops=ops / t if t > 0 else 0.0,
            bandwidth=nbytes / t if t > 0 else 0.0,
            arpt=dur_sum / ops if ops else 0.0,
            windows_closed=windows_closed,
            late_records=sum(s["late_records"] for s in states),
        )
        if emit:
            self._emit(snap.as_event())
        return snap

    # -- settle ------------------------------------------------------------

    def finalize(self, *, exec_time: float | None = None,
                 label: str = "sharded") -> LiveResult:
        """Collect every shard's partial state and settle the merge."""
        if self._finalized:
            raise LiveStreamError("finalize() called twice")
        if self._inline is not None:
            self._finalized = True
            return self._inline.finalize(exec_time=exec_time, label=label)
        self._flush()
        if not self._started:
            raise LiveStreamError("finalize() on an empty stream")
        states = []
        for index, shard in enumerate(self._shards):
            while True:
                try:
                    self._send(index, ("finalize", None))
                    if not shard.worker.poll(self.sync_timeout):
                        raise EOFError(
                            f"no finalize reply in "
                            f"{self.sync_timeout:.3g}s")
                    kind, payload = shard.worker.recv()
                    if kind == "error":
                        raise EOFError(f"shard error: {payload}")
                    break
                except (EOFError, OSError) as exc:
                    self._respawn(index, str(exc))
            states.append(payload)
            shard.snapshot = payload
            shard.buffer = []
            shard.worker.retire(terminate=False)
            shard.worker = None
        self._finalized = True
        return self._settle(states, exec_time, label)

    def _settle(self, states: list[dict], exec_time: float | None,
                label: str) -> LiveResult:
        ops = sum(s["ops"] for s in states)
        if ops == 0:
            raise LiveStreamError("finalize() on an empty stream")
        blocks = sum(s["blocks"] for s in states)
        nbytes = sum(s["bytes"] for s in states)
        dur_sum = sum(s["dur_sum"] for s in states)
        failed = sum(s["failed"] for s in states)
        retries = sum(s["retries"] for s in states)
        late = sum(s["late_records"] for s in states)
        late_windows = sum(s["late_window_updates"] for s in states)
        first_start = min(s["first_start"] for s in states)
        last_end = max(s["last_end"] for s in states)

        # The associative merge: canonical union of the shards'
        # canonical segment lists == canonical union of every interval,
        # summed over the identical segment array the batch sweep sums.
        seg_parts = [s["union_segments"] for s in states
                     if len(s["union_segments"])]
        if not seg_parts:
            raise LiveStreamError(
                "live metrics undefined: union I/O time is zero")
        starts, ends = merge_sweep(
            seg_parts[0] if len(seg_parts) == 1
            else np.concatenate(seg_parts))
        t = float(np.sum(ends - starts))
        if t <= 0.0:
            raise LiveStreamError(
                "live metrics undefined: union I/O time is zero")

        min_index = min(s["min_index"] for s in states
                        if s["min_index"] is not None)
        max_index = max(s["max_index"] for s in states
                        if s["max_index"] is not None)
        windows = tuple(self._merged_window_stats(i, states)
                        for i in range(min_index, max_index + 1))
        # Close out whatever the periodic syncs had not yet emitted.
        pending_from = (self._next_emit if self._next_emit is not None
                        else min_index)
        for stats in windows:
            if stats.index >= pending_from:
                self._emit(stats.as_event())
                self._observe(stats)
        # Re-judge already-emitted windows that late records corrected
        # (the shards track which): the parent detector observed their
        # provisional merge, and the corrected stats can cross the
        # drop threshold.  assess() leaves the baseline untouched.
        if self.detector is not None:
            dirty = set()
            for state in states:
                dirty.update(state.get("dirty_windows", ()))
            flagged = {a.window_index for a in self.anomalies}
            for index in sorted(dirty):
                if index >= pending_from or index in flagged or \
                        index < min_index:
                    continue
                anomaly = self.detector.assess(
                    self._merged_window_stats(index, states))
                if anomaly is not None:
                    self.anomalies.append(anomaly)
                    self._emit(anomaly.as_event())

        breakdowns: dict[str, tuple[GroupStats, ...]] = {}
        names: set[str] = set()
        for state in states:
            names.update(state["groups"])
        for name in names:
            merged: dict[str, dict] = {}
            for state in states:
                for key, grp in state["groups"].get(name, {}).items():
                    agg = merged.setdefault(
                        key, {"ops": 0, "blocks": 0, "bytes": 0,
                              "segments": []})
                    agg["ops"] += grp["ops"]
                    agg["blocks"] += grp["blocks"]
                    agg["bytes"] += grp["bytes"]
                    if len(grp["segments"]):
                        agg["segments"].append(grp["segments"])
            out = []
            for key in sorted(merged):
                agg = merged[key]
                if agg["segments"]:
                    seg = (agg["segments"][0]
                           if len(agg["segments"]) == 1
                           else np.concatenate(agg["segments"]))
                    gs, ge = merge_sweep(seg)
                    gt = float(np.sum(ge - gs))
                else:
                    gt = 0.0
                out.append(GroupStats(
                    key=key, ops=agg["ops"], blocks=agg["blocks"],
                    bytes=agg["bytes"], io_time=gt,
                    bps=agg["blocks"] / gt if gt > 0 else 0.0))
            breakdowns[name] = tuple(out)

        span = last_end - first_start
        exec_time = span if exec_time is None else exec_time
        if exec_time <= 0.0:
            exec_time = t
        metrics = MetricSet(
            iops=ops / t,
            bandwidth=nbytes / t,
            arpt=dur_sum / ops,
            bps=blocks / t,
            exec_time=exec_time,
            union_io_time=t,
            app_ops=ops,
            app_bytes=nbytes,
            app_blocks=blocks,
            fs_bytes=nbytes,
            block_size=self.block_size,
            label=label,
            extras={
                "failed_records": failed,
                "total_retries": retries,
                "late_records": late,
                "late_window_updates": late_windows,
                "shards": self.shards,
                "shard_respawns": self._respawns,
            },
        )
        result = LiveResult(
            metrics=metrics,
            windows=windows,
            anomalies=tuple(self.anomalies),
            breakdowns=breakdowns,
            late_records=late,
            late_window_updates=late_windows,
        )
        self._emit({
            "type": "final", "ops": ops, "blocks": blocks,
            "bytes": nbytes, "io_time": t, "bps": metrics.bps,
            "iops": metrics.iops, "bandwidth": metrics.bandwidth,
            "arpt": metrics.arpt, "exec_time": exec_time,
            "windows": len(windows), "anomalies": len(self.anomalies),
            "late_records": late,
        })
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        return result

    # -- teardown ----------------------------------------------------------

    @property
    def respawns(self) -> int:
        """Shard workers respawned after crashes so far."""
        return self._respawns

    def close(self) -> None:
        """Kill every live worker (abnormal teardown; idempotent)."""
        for shard in self._shards:
            if shard.worker is not None:
                try:
                    shard.worker.retire(terminate=True)
                except Exception:  # pragma: no cover - teardown races
                    pass
                shard.worker = None

    def __enter__(self) -> "ShardedMetricStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
