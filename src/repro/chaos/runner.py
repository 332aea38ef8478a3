"""The ``bps chaos`` invariant runner: chaos in, identical bits out.

The hardening in the wire and serve protocols makes one promise: a
hostile network can cost wall-clock and show up in the degradation
accounting, but it can never change a result.  This module turns that
promise into an executable check, end-to-end against real processes:

- **grid**: spawn real ``bps grid-worker`` daemons, put a seeded
  :class:`~repro.chaos.proxy.ChaosProxy` (``mode="frames"``) in front
  of each, run the Set 1 sweep through the socket dispatcher pointed
  at the proxies, and require the analysis to be **bit-identical** to
  the serial path — through corruption, duplication, reordering,
  resets, and partitions;
- **serve**: start a ``bps serve`` daemon, stream a record set through
  a ``mode="lines"`` proxy with a resume-capable client (sequence
  numbers, line checksums, sync/ack probes, welcome-token
  reattachment), and require the tenant's settled totals to be
  **bit-identical** to the batch pipeline over the same records — with
  zero lost and zero double-counted records.

Both checks return a JSON-able report carrying the schedule, the proxy
tallies of what the chaos actually did, and the runtime's degradation
counters (supervision report / tenant status) — degradation must be
*visible there* and *invisible in the totals*.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.chaos.proxy import ChaosProxy
from repro.chaos.schedule import (
    CORRUPT,
    DUPLICATE,
    PARTITION,
    REORDER,
    RESET,
    ChaosEvent,
    ChaosSchedule,
)
from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.errors import ChaosError, TraceFormatError
from repro.exec.supervisor import SupervisorPolicy
from repro.experiments.runner import ExperimentScale
from repro.experiments.set1 import run_set1
from repro.serve.protocol import (
    line_checksum,
    record_line,
    verify_checksum,
)
from repro.serve.registry import ServeConfig
from repro.serve.server import BpsServer
from repro.serve.tenant import ACTIVE

__all__ = [
    "default_grid_schedule",
    "default_serve_schedule",
    "run_chaos",
    "run_grid_check",
    "run_serve_check",
    "synthetic_records",
]

#: Degradation counters the grid report surfaces.
_SUPERVISION_KEYS = (
    "jobs", "pooled", "crashes", "timeouts", "worker_respawns",
    "duplicate_results", "quarantined_frames", "reconnects",
    "broken_circuits",
)


def default_grid_schedule(seed: int) -> ChaosSchedule:
    """The standard adversarial mix for the grid check.

    Frames 0-2 of every connection are spared so the handshake itself
    is not the only thing ever exercised; everything after that is
    fair game.  One hard reset hits the first connection mid-run, and
    a short partition stalls the whole wire while the dispatcher's
    circuit breaker is mid-reconnect.
    """
    return ChaosSchedule(seed=seed, mode="frames", events=(
        ChaosEvent(CORRUPT, frame_at=3, probability=0.06),
        ChaosEvent(DUPLICATE, frame_at=3, probability=0.25),
        ChaosEvent(REORDER, frame_at=3, probability=0.20),
        ChaosEvent(RESET, connections=(0,), frame_at=9),
        ChaosEvent(PARTITION, at=1.0, duration=0.6),
    ))


def default_serve_schedule(seed: int) -> ChaosSchedule:
    """The standard adversarial mix for the serve check.

    Line 0 of each connection (the hello) is spared so most sessions
    get as far as a welcome; resets kick the client mid-stream twice,
    forcing the resume protocol to actually resume.
    """
    return ChaosSchedule(seed=seed, mode="lines", events=(
        ChaosEvent(CORRUPT, frame_at=2, probability=0.02),
        ChaosEvent(DUPLICATE, direction="c2s", frame_at=2,
                   probability=0.05),
        ChaosEvent(REORDER, direction="c2s", frame_at=2,
                   probability=0.05),
        ChaosEvent(RESET, connections=(0,), frame_at=40),
        ChaosEvent(RESET, connections=(1,), frame_at=90),
        ChaosEvent(PARTITION, at=0.6, duration=0.4),
    ))


def _metric_tuples(sweep) -> list[tuple]:
    """Every metric of every repetition, in sweep order — the
    bit-identity fingerprint two runs are compared by."""
    return [
        (m.iops, m.bandwidth, m.arpt, m.bps, m.exec_time,
         m.union_io_time, m.app_ops, m.app_blocks, m.fs_bytes)
        for _label, reps in sweep._points
        for m in reps
    ]


# -- grid check -----------------------------------------------------------


def _spawn_grid_workers(count: int, *,
                        heartbeat: float | None = None,
                        liveness: float | None = None):
    """Real ``bps grid-worker`` subprocesses on ephemeral ports."""
    src = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "repro", "grid-worker",
           "--listen", "127.0.0.1:0"]
    if heartbeat is not None:
        cmd += ["--heartbeat", str(heartbeat)]
    if liveness is not None:
        cmd += ["--liveness", str(liveness)]
    procs, addrs = [], []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, env=env)
            procs.append(proc)
            banner = proc.stdout.readline().strip()
            if "grid-worker listening on" not in banner:
                raise ChaosError(
                    f"grid worker failed to start: {banner!r}")
            addrs.append(banner.rsplit(" ", 1)[-1])
    except BaseException:
        _kill_workers(procs)
        raise
    return procs, addrs


def _kill_workers(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def run_grid_check(schedule: ChaosSchedule | None = None, *,
                   seed: int = 0,
                   workers: int = 2,
                   scale: ExperimentScale | None = None,
                   heartbeat: float = 0.5,
                   liveness: float = 2.5,
                   policy: SupervisorPolicy | None = None) -> dict:
    """Chaos-ed socket sweep vs. the serial path; identical or raise.

    Returns the check report (never raises for a failed *invariant* —
    ``report["passed"]`` carries the verdict so callers can aggregate;
    :class:`~repro.errors.ChaosError` is reserved for harness
    breakage like a worker that never comes up).
    """
    if schedule is None:
        schedule = default_grid_schedule(seed)
    if schedule.mode != "frames":
        raise ChaosError(
            f"grid check needs a mode='frames' schedule, "
            f"got mode={schedule.mode!r}")
    scale = scale or ExperimentScale(factor=0.25, repetitions=2)
    if policy is None:
        # Chaos costs retries and respawns by design; give the
        # supervisor budget to absorb the schedule, not mask bugs.
        policy = SupervisorPolicy(job_timeout=60.0, max_retries=4,
                                  max_worker_respawns=32,
                                  poll_interval=0.05)
    serial = run_set1(scale, workers=1)
    expected = _metric_tuples(serial)

    procs, upstreams = _spawn_grid_workers(
        workers, heartbeat=heartbeat, liveness=liveness)
    proxies = [ChaosProxy(addr, schedule) for addr in upstreams]
    try:
        grid_addrs = []
        for proxy in proxies:
            host, port = proxy.start()
            grid_addrs.append(f"{host}:{port}")
        chaotic = run_set1(
            scale, grid_workers=grid_addrs,
            grid_heartbeat=heartbeat, grid_liveness=liveness,
            policy=policy)
    finally:
        for proxy in proxies:
            proxy.stop()
        _kill_workers(procs)
    actual = _metric_tuples(chaotic)
    supervision = {key: getattr(chaotic.supervision, key, 0)
                   for key in _SUPERVISION_KEYS}
    return {
        "check": "grid",
        "passed": actual == expected,
        "cells": len(expected),
        "mismatched_cells": sum(
            1 for a, b in zip(actual, expected) if a != b
        ) + abs(len(actual) - len(expected)),
        "workers": workers,
        "schedule": schedule.describe(),
        "supervision": supervision,
        "proxies": [proxy.stats() for proxy in proxies],
    }


# -- serve check ----------------------------------------------------------


def synthetic_records(n: int, *, gap: float = 0.004,
                      dur: float = 0.011,
                      nbytes: int = 4096) -> list[IORecord]:
    """A deterministic steady-rate record set for the serve check."""
    return [
        IORecord(pid=1, op="read" if i % 2 else "write",
                 nbytes=nbytes, start=i * gap, end=i * gap + dur)
        for i in range(n)
    ]


class _ServeHarness:
    """A real ``bps serve`` daemon on a background event-loop thread.

    The runner keeps an authoritative handle on the server object:
    client-side acks steer the resume protocol, but the final verdict
    reads the tenant's own settled counters through :meth:`call`, so a
    lying network cannot fake a pass *or* a fail.
    """

    def __init__(self, config: ServeConfig) -> None:
        import asyncio
        import threading
        self._asyncio = asyncio
        self.config = config
        self.server: BpsServer | None = None
        self.loop = None
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="chaos-serve", daemon=True)

    def start(self) -> tuple[str, int]:
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise ChaosError("serve daemon failed to start in time")
        if self._error is not None:
            raise ChaosError(
                f"serve daemon failed to start: {self._error}")
        return self.address

    def _run(self) -> None:
        try:
            self._asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.loop = self._asyncio.get_running_loop()
        self.server = BpsServer(self.config, tcp="127.0.0.1:0")
        await self.server.start()
        self.address = self.server.addresses["tcp"]
        self._ready.set()
        await self.server.serve_until_drained()

    def call(self, fn):
        """Run ``fn()`` on the daemon's loop thread (no data races)."""
        async def wrapped():
            return fn()
        future = self._asyncio.run_coroutine_threadsafe(
            wrapped(), self.loop)
        return future.result(timeout=15.0)

    def tenant_state(self, name: str):
        return self.call(
            lambda: getattr(self.server.registry.get(name),
                            "state", None))

    def tenant_status(self, name: str):
        return self.call(
            lambda: self.server.registry.get(name).status())

    def stop(self) -> None:
        if self.loop is not None and self.server is not None:
            future = self._asyncio.run_coroutine_threadsafe(
                self.server.drain("chaos check over"), self.loop)
            try:
                future.result(timeout=15.0)
            except Exception:  # noqa: BLE001 — already going down
                pass
        self._thread.join(timeout=10.0)


class _Retry(Exception):
    """This connection is spent; reconnect and resume."""


class _LineStream:
    """Blocking line reads with a timeout that means *reconnect*.

    ``socket.makefile`` with a timeout can lose buffered bytes across
    a timeout; this reader owns its buffer, and every timeout or EOF
    raises :class:`_Retry` — the client never reads on after one.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()

    def readline(self) -> bytes:
        while b"\n" not in self._buf:
            try:
                data = self._sock.recv(1 << 16)
            except (TimeoutError, socket.timeout) as exc:
                raise _Retry("read timed out") from exc
            except OSError as exc:
                raise _Retry(f"read failed: {exc}") from exc
            if not data:
                raise _Retry("connection closed")
            self._buf += data
        end = self._buf.index(b"\n") + 1
        line = bytes(self._buf[:end])
        del self._buf[:end]
        return line


def _client_control(**obj) -> bytes:
    obj["crc"] = line_checksum(obj)
    return (json.dumps(obj) + "\n").encode()


class _ResumeClient:
    """A chaos-tolerant exactly-once streaming client.

    Delivery loop: connect through the proxy, hello (with the resume
    token once one is known), rewind to the welcome's ``next_seq``,
    stream checksummed+sequenced records in small batches, and confirm
    each batch with a ``sync``/``ack`` probe.  Any timeout, reset,
    corrupt server line, or tenant mismatch burns the connection and
    the loop starts over — the sequence numbers make the retry safe.
    """

    def __init__(self, address: tuple[str, int], tenant: str,
                 records: list[IORecord], *, deadline: float,
                 io_timeout: float = 2.0, batch: int = 32) -> None:
        self.address = address
        self.tenant = tenant
        self.records = records
        self.deadline = deadline
        self.io_timeout = io_timeout
        self.batch = batch
        self.token: str | None = None
        self.counters = {"connects": 0, "failed_sessions": 0,
                         "rejected_server_lines": 0}

    def _check_deadline(self, doing: str) -> None:
        if time.monotonic() > self.deadline:
            raise ChaosError(
                f"serve chaos client ran out of time while {doing} "
                f"(tenant {self.tenant!r})")

    def _connect(self) -> tuple[socket.socket, _LineStream]:
        self.counters["connects"] += 1
        try:
            sock = socket.create_connection(
                self.address, timeout=self.io_timeout)
        except OSError as exc:  # partition: refused/reset
            raise _Retry(f"connect failed: {exc}") from exc
        sock.settimeout(self.io_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, _LineStream(sock)

    def _sendall(self, sock: socket.socket, payload: bytes) -> None:
        try:
            sock.sendall(payload)
        except OSError as exc:
            raise _Retry(f"send failed: {exc}") from exc

    def _read_control(self, stream: _LineStream, want: str) -> dict:
        """The next believable control line of type ``want``.

        Lines that fail their checksum (corrupted s2c) or don't parse
        are rejected, never believed; other control types in between
        (periodic acks before a result, say) are skipped.
        """
        while True:
            self._check_deadline(f"waiting for {want!r}")
            line = stream.readline()
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TraceFormatError("not an object")
                obj = verify_checksum(obj)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    TraceFormatError):
                self.counters["rejected_server_lines"] += 1
                continue
            kind = obj.get("type")
            if kind == want:
                if obj.get("tenant", self.tenant) != self.tenant:
                    raise _Retry(
                        f"bound to wrong tenant {obj.get('tenant')!r}")
                return obj
            if kind == "error":
                raise _Retry(f"server error: {obj.get('error')}")

    def _hello(self, sock: socket.socket,
               stream: _LineStream) -> dict:
        hello = {"type": "hello", "tenant": self.tenant}
        if self.token is not None:
            hello["resume"] = self.token
        self._sendall(sock, _client_control(**hello))
        welcome = self._read_control(stream, "welcome")
        self.token = welcome.get("resume", self.token)
        return welcome

    def _sync(self, sock: socket.socket, stream: _LineStream) -> dict:
        self._sendall(sock, _client_control(type="sync"))
        return self._read_control(stream, "ack")

    def deliver(self) -> dict:
        """Stream every record exactly once; returns the counters."""
        total = len(self.records)
        while True:
            self._check_deadline("delivering records")
            sock = None
            try:
                sock, stream = self._connect()
                welcome = self._hello(sock, stream)
                cursor = int(welcome.get("next_seq", 0))
                while cursor < total:
                    stop = min(total, cursor + self.batch)
                    payload = b"".join(
                        record_line(self.records[i], seq=i,
                                    checksum=True)
                        for i in range(cursor, stop))
                    self._sendall(sock, payload)
                    ack = self._sync(sock, stream)
                    cursor = int(ack["next_seq"])
                ack = self._sync(sock, stream)
                if int(ack["next_seq"]) >= total:
                    return dict(self.counters)
                cursor = int(ack["next_seq"])
            except _Retry:
                self.counters["failed_sessions"] += 1
                time.sleep(0.05)
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def finalize(self, harness: _ServeHarness) -> None:
        """Drive the tenant to its settled terminal state.

        The ``end`` line (and its ``result`` answer) can be eaten by
        the same chaos as everything else, so success is judged by the
        authoritative server-side state, not by the reply.
        """
        while True:
            if harness.tenant_state(self.tenant) != ACTIVE:
                return
            self._check_deadline("finalizing the tenant")
            sock = None
            try:
                sock, stream = self._connect()
                self._hello(sock, stream)
                self._sendall(sock, _client_control(type="end"))
                self._read_control(stream, "result")
            except _Retry:
                self.counters["failed_sessions"] += 1
                time.sleep(0.05)
            finally:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass


def run_serve_check(schedule: ChaosSchedule | None = None, *,
                    seed: int = 0,
                    records: int = 400,
                    window: float = 0.1,
                    timeout: float = 120.0) -> dict:
    """Reconnecting chaos-ed stream vs. the batch pipeline.

    Same contract as :func:`run_grid_check`: the report's ``passed``
    carries the invariant verdict; :class:`~repro.errors.ChaosError`
    means the harness itself broke (or the deadline expired, which a
    schedule that censors everything forever can force).
    """
    if schedule is None:
        schedule = default_serve_schedule(seed)
    if schedule.mode != "lines":
        raise ChaosError(
            f"serve check needs a mode='lines' schedule, "
            f"got mode={schedule.mode!r}")
    record_set = synthetic_records(records)
    tenant = "chaos"
    deadline = time.monotonic() + timeout

    harness = _ServeHarness(ServeConfig(window=window,
                                        idle_timeout=None))
    proxy = None
    try:
        upstream = harness.start()
        proxy = ChaosProxy(upstream, schedule)
        address = proxy.start()
        client = _ResumeClient(address, tenant, record_set,
                               deadline=deadline)
        client_counters = client.deliver()
        client.finalize(harness)
        status = harness.tenant_status(tenant)
    finally:
        if proxy is not None:
            proxy.stop()
        harness.stop()

    final = status.get("final")
    passed = final is not None \
        and status["records_admitted"] == len(record_set) \
        and final["ops"] == len(record_set)
    if final is not None:
        batch = compute_metrics(TraceCollection(record_set),
                                exec_time=final["exec_time"])
        passed = passed and final["bps"] == batch.bps \
            and final["union_io_time"] == batch.union_io_time \
            and final["bandwidth"] == batch.bandwidth \
            and final["iops"] == batch.iops
    return {
        "check": "serve",
        "passed": passed,
        "records": len(record_set),
        "schedule": schedule.describe(),
        "client": client_counters,
        "tenant": {
            "state": status.get("state"),
            "records_admitted": status.get("records_admitted"),
            "duplicate_records": status.get("duplicate_records"),
            "resumed_sessions": status.get("resumed_sessions"),
            "quarantined_lines": status.get("quarantined_lines"),
        },
        "final": final,
        "proxy": proxy.stats(),
    }


# -- entry point ----------------------------------------------------------


def run_chaos(*, seed: int = 20130520,
              checks: tuple[str, ...] = ("grid", "serve"),
              workers: int = 2,
              scale: ExperimentScale | None = None,
              records: int = 400,
              grid_schedule: ChaosSchedule | None = None,
              serve_schedule: ChaosSchedule | None = None,
              timeout: float = 300.0) -> dict:
    """Run the selected invariant checks; the aggregate report.

    ``report["passed"]`` is True only when every check held its
    invariant — the CLI turns that into the exit code.
    """
    known = ("grid", "serve")
    for check in checks:
        if check not in known:
            raise ChaosError(
                f"unknown chaos check {check!r}; known: {known}")
    report = {"seed": seed, "passed": True, "checks": []}
    if "grid" in checks:
        result = run_grid_check(grid_schedule, seed=seed,
                                workers=workers, scale=scale)
        report["checks"].append(result)
        report["passed"] = report["passed"] and result["passed"]
    if "serve" in checks:
        result = run_serve_check(serve_schedule, seed=seed,
                                 records=records, timeout=timeout)
        report["checks"].append(result)
        report["passed"] = report["passed"] and result["passed"]
    return report
