"""The ``bps serve`` asyncio daemon: many tenants, one event loop.

:class:`BpsServer` binds up to three listeners — TCP and unix-socket
JSONL streams, and a minimal HTTP endpoint for body ingest, the
Prometheus scrape, and the JSON query API — over one
:class:`~repro.serve.registry.TenantRegistry`.  The robustness envelope
is the product here; every mechanism below exists so that one
misbehaving client cannot touch another tenant's numbers:

- **backpressure** (ladder rung 1): when a tenant's token bucket runs
  into arrears the *connection handler* sleeps before the next read,
  so the kernel's TCP window — not an unbounded Python queue — pushes
  back on the flooding client;
- **load shedding** (rung 2) and **eviction** (rung 3) verdicts come
  from the tenant's :class:`~repro.serve.budget.IngestMeter` with
  exact accounting;
- **crash/garbage isolation**: decode failures burn the tenant's own
  salvage budget; exhausting it (or any unexpected internal failure)
  quarantines that tenant — the handler reports and disconnects, the
  loop and every other tenant keep running;
- **slow consumers**: every server->client write is bounded by
  ``write_timeout`` and the transport's write-buffer high-water mark;
  a stalled reader is disconnected, never awaited forever;
- **idle eviction**: a housekeeping task finalizes tenants whose
  producers vanished (the killed-client case) with a final snapshot
  flush;
- **graceful drain**: SIGTERM/SIGINT stop the listeners, finalize and
  flush every active tenant (JSONL + Prometheus), and exit 0.

The server never calls ``time.sleep`` and takes an injectable clock,
so the whole envelope is testable in-process with a paused loop.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Callable

from repro.errors import ServeError, TraceFormatError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    HttpError,
    decode_stream_line,
    http_response,
    json_response,
    read_http_request,
)
from repro.serve.protocol import control_line as _plain_control_line
from repro.serve.registry import ServeConfig, TenantRegistry
from repro.serve.tenant import ACTIVE, Tenant

#: Transport write-buffer high-water mark: the bounded write queue
#: behind the slow-consumer policy (bytes).
WRITE_HIGH_WATER = 256 << 10

#: Acks are sent every this many admitted records (socket streams).
ACK_EVERY = 1024

#: Upper bound on how long :meth:`BpsServer.drain` keeps re-cancelling
#: live connection handlers before settling the tenants anyway.
DRAIN_GRACE = 10.0


def control_line(kind: str, **fields) -> bytes:
    """Every line this daemon sends carries the ``crc`` integrity key,
    so a client can refuse to *believe* an ack or welcome corrupted in
    transit (a flipped ``next_seq`` digit must never skip records)."""
    return _plain_control_line(kind, checksum=True, **fields)


def _parse_endpoint(value: str) -> tuple[str, int]:
    """``host:port`` -> (host, port); bare ``:port`` binds localhost."""
    host, sep, port = value.rpartition(":")
    if not sep:
        raise ServeError(f"endpoint must be host:port, got {value!r}")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ServeError(f"bad port in endpoint {value!r}") from None


class BpsServer:
    """Fault-isolated multi-tenant streaming daemon."""

    def __init__(self, config: ServeConfig, *,
                 tcp: str | None = None,
                 unix: str | None = None,
                 http: str | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        if tcp is None and unix is None and http is None:
            raise ServeError(
                "serve needs at least one listener (tcp/unix/http)")
        self.config = config
        self.registry = TenantRegistry(config, clock=clock)
        self._tcp = _parse_endpoint(tcp) if tcp else None
        self._http = _parse_endpoint(http) if http else None
        self._unix = unix
        self._servers: list[asyncio.base_events.Server] = []
        self._conn_seq = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._housekeeper: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        # Fleet counters (JSON API /tenants "server" section).
        self.connections_accepted = 0
        self.slow_consumer_disconnects = 0
        self.protocol_errors = 0
        self.http_requests = 0
        #: Listener addresses after start(): {"tcp": (h, p), ...}.
        self.addresses: dict = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind every configured listener (ephemeral ports resolved)."""
        loop = asyncio.get_running_loop()
        if self._tcp is not None:
            host, port = self._tcp
            server = await asyncio.start_server(
                self._handle_stream, host, port, limit=MAX_LINE_BYTES)
            self._servers.append(server)
            self.addresses["tcp"] = server.sockets[0].getsockname()[:2]
        if self._unix is not None:
            server = await asyncio.start_unix_server(
                self._handle_stream, path=self._unix,
                limit=MAX_LINE_BYTES)
            self._servers.append(server)
            self.addresses["unix"] = self._unix
        if self._http is not None:
            host, port = self._http
            server = await asyncio.start_server(
                self._handle_http, host, port, limit=MAX_LINE_BYTES)
            self._servers.append(server)
            self.addresses["http"] = server.sockets[0].getsockname()[:2]
        interval = (min(5.0, (self.config.idle_timeout or 5.0) / 4)
                    if self.config.idle_timeout else 5.0)
        self._housekeeper = loop.create_task(
            self._housekeeping(interval))

    async def serve_until_drained(self) -> None:
        """Run until :meth:`drain` (or a signal handler) completes."""
        await self._drained.wait()

    async def drain(self, reason: str = "drain") -> None:
        """Graceful shutdown: stop listening, finalize, flush, settle.

        Idempotent; every active tenant is finalized (final snapshot
        to its sinks) and the aggregated Prometheus file is rewritten
        one last time, so totals survive the daemon's exit.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        for server in self._servers:
            server.close()
        # Cancel in-flight handlers *before* wait_closed(): newer
        # CPythons make wait_closed() wait for every handler, so the
        # old order deadlocks against our own open streams.  A single
        # cancel() is not enough — it is silently lost when it races a
        # handler whose read-waiter future has already completed (the
        # task resumes normally and keeps serving records) — so
        # re-cancel on a short cadence until every handler is gone,
        # bounded by the drain grace period.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_GRACE
        pending = {task for task in self._conn_tasks
                   if not task.done()}
        if self._housekeeper is not None \
                and not self._housekeeper.done():
            pending.add(self._housekeeper)
        while pending and loop.time() < deadline:
            for task in pending:
                task.cancel()
            _done, pending = await asyncio.wait(pending, timeout=0.05)
        for server in self._servers:
            try:
                await asyncio.wait_for(server.wait_closed(),
                                       timeout=DRAIN_GRACE)
            except asyncio.TimeoutError:  # pragma: no cover — stuck
                break                     # handler; settle what we can
        self.registry.drain_all(reason)
        self.registry.write_prom_file()
        self._drained.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (daemon entry point)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda s=sig: loop.create_task(
                    self.drain(f"signal {s.name}")))

    async def _housekeeping(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            for tenant in self.registry.evict_idle():
                self.registry.note_terminal(tenant)
            self.registry.write_prom_file()

    # -- socket streams ----------------------------------------------------

    async def _handle_stream(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self.connections_accepted += 1
        writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        try:
            await self._stream_loop(reader, writer)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, TimeoutError):
            pass  # client vanished; idle eviction settles the tenant
        except Exception:  # noqa: BLE001 — one connection, not the loop
            self.protocol_errors += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _stream_loop(self, reader, writer) -> Tenant | None:
        tenant: Tenant | None = None
        admitted_since_ack = 0
        while True:
            try:
                raw = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # One line overran the bounded buffer.  Charge it to
                # the tenant (or drop the connection pre-hello) and
                # skip to the next newline without buffering.
                await self._discard_line(reader)
                if tenant is None:
                    await self._send(writer, control_line(
                        "error", error="first line exceeds the "
                        f"{MAX_LINE_BYTES}-byte line bound"))
                    return None
                outcome = tenant._bad_line(
                    f"line exceeds {MAX_LINE_BYTES} bytes", "")
                if outcome.kind == "quarantined":
                    await self._send(writer, control_line(
                        "error", error=outcome.reason,
                        tenant=tenant.name))
                    self.registry.note_terminal(tenant)
                    return tenant
                continue
            if not raw:
                return tenant  # EOF; tenant settles via idle eviction
            line = raw.decode("utf-8", errors="replace")
            if tenant is None:
                tenant, handled = await self._bind_tenant(line, writer)
                if tenant is None and handled:
                    return None
                if handled:
                    continue
                if tenant is None:
                    return None
            outcome = tenant.feed_line(line)
            if outcome is None:
                continue
            kind = outcome.kind
            if kind in ("ok", "duplicate"):
                if outcome.delay > 0.0:
                    # Rung 1: stop reading; the TCP window throttles
                    # the producer while we sleep off the arrears.
                    await asyncio.sleep(outcome.delay)
                # Duplicates keep the ack cadence alive so a client
                # resending a prefix after reconnect still hears
                # where the server actually is.
                admitted_since_ack += 1
                if admitted_since_ack >= ACK_EVERY:
                    admitted_since_ack = 0
                    await self._send(writer, self._ack_line(tenant))
                continue
            if kind in ("shed", "bad-line"):
                continue  # accounted in the meter / salvage report
            if kind == "control":
                done = await self._handle_control(
                    tenant, outcome.control, writer)
                if done:
                    return tenant
                continue
            # Terminal verdicts: quarantined / evicted / closed.
            await self._send(writer, control_line(
                "error", tenant=tenant.name, state=tenant.state,
                error=outcome.reason))
            self.registry.note_terminal(tenant)
            return tenant

    async def _discard_line(self, reader) -> None:
        """Consume the rest of an overlong line without buffering it."""
        while True:
            chunk = await reader.read(MAX_LINE_BYTES)
            if not chunk or chunk.endswith(b"\n") or b"\n" in chunk:
                return

    def _ack_line(self, tenant: Tenant) -> bytes:
        """An ack carrying the exactly-once bookkeeping a resuming
        client needs: how many records are in, and the first sequence
        number the server has not yet admitted."""
        return control_line(
            "ack", tenant=tenant.name,
            records=tenant.records_admitted,
            next_seq=tenant.next_seq)

    async def _bind_tenant(self, line: str, writer):
        """First data line: hello control or auto-named tenant.

        Returns ``(tenant, handled)`` — ``handled`` means the line was
        fully consumed (hello or a protocol error already answered).

        A hello carrying ``"resume": <token>`` reattaches to an
        existing tenant only when the token matches the one issued in
        that tenant's first welcome — a stale or wrong token is a
        protocol error, so a confused client can never write into
        someone else's stream.  Token-less hellos to an existing name
        keep the legacy attach semantics.
        """
        try:
            decoded = decode_stream_line(line)
        except TraceFormatError:
            decoded = ("garbage", None)
        if decoded is not None and decoded[0] == "control" \
                and decoded[1].get("type") == "hello":
            hello = decoded[1]
            name = hello.get("tenant", "")
            existing = self.registry.get(name) if name else None
            resume = hello.get("resume")
            if resume is not None:
                if existing is None:
                    self.protocol_errors += 1
                    await self._send(writer, control_line(
                        "error", error=f"cannot resume unknown "
                                       f"tenant {name!r}"))
                    return None, True
                if resume != existing.resume_token:
                    self.protocol_errors += 1
                    await self._send(writer, control_line(
                        "error", error=f"bad resume token for "
                                       f"tenant {name!r}"))
                    return None, True
                existing.resumed_sessions += 1
            try:
                tenant = self.registry.get_or_create(name)
            except ServeError as exc:
                self.protocol_errors += 1
                await self._send(writer, control_line(
                    "error", error=str(exc)))
                return None, True
            await self._send(writer, control_line(
                "welcome", tenant=tenant.name, state=tenant.state,
                resume=tenant.resume_token,
                records=tenant.records_admitted,
                next_seq=tenant.next_seq))
            return tenant, True
        self._conn_seq += 1
        name = f"conn-{self._conn_seq}"
        try:
            tenant = self.registry.get_or_create(name)
        except ServeError as exc:
            await self._send(writer, control_line(
                "error", error=str(exc)))
            return None, True
        return tenant, False  # the line itself still needs feeding

    async def _handle_control(self, tenant: Tenant, control: dict,
                              writer) -> bool:
        """Apply one in-stream control object; True ends the stream."""
        kind = control.get("type")
        if kind == "end":
            tenant.end()
            self.registry.note_terminal(tenant)
            self.registry.write_prom_file()
            await self._send(writer, self._result_line(tenant))
            return True
        if kind == "sync":
            # Immediate ack on demand: the resume protocol's probe.
            await self._send(writer, self._ack_line(tenant))
            return False
        if kind == "hello":
            # Mid-stream hello: harmless no-op, re-ack the binding.
            await self._send(writer, control_line(
                "welcome", tenant=tenant.name, state=tenant.state,
                resume=tenant.resume_token,
                records=tenant.records_admitted,
                next_seq=tenant.next_seq))
        return False

    def _result_line(self, tenant: Tenant) -> bytes:
        status = tenant.status()
        return control_line("result", **status)

    async def _send(self, writer, payload: bytes) -> None:
        """Bounded write: a stalled consumer is cut, not awaited."""
        try:
            writer.write(payload)
            await asyncio.wait_for(writer.drain(),
                                   timeout=self.config.write_timeout)
        except asyncio.TimeoutError:
            self.slow_consumer_disconnects += 1
            writer.transport.abort()
            raise ConnectionError("slow consumer disconnected")

    # -- HTTP --------------------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self.connections_accepted += 1
        writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        try:
            request = await asyncio.wait_for(
                read_http_request(
                    reader,
                    max_body_bytes=self.config.max_body_bytes),
                timeout=self.config.write_timeout)
            if request is None:
                return
            self.http_requests += 1
            response = await self._route_http(request)
            await self._send(writer, response)
        except HttpError as exc:
            self.protocol_errors += 1
            try:
                await self._send(writer, json_response(
                    exc.status, {"error": str(exc)}))
            except (ConnectionError, asyncio.TimeoutError):
                pass
        except asyncio.CancelledError:
            raise
        except (ConnectionError, TimeoutError, asyncio.TimeoutError):
            pass
        except Exception as exc:  # noqa: BLE001 — isolate the loop
            self.protocol_errors += 1
            try:
                await self._send(writer, json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
            except (ConnectionError, asyncio.TimeoutError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _route_http(self, request) -> bytes:
        path = request.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if request.method == "GET":
            if path == "/metrics":
                return http_response(
                    200, self.registry.prometheus_text(),
                    content_type="text/plain; version=0.0.4")
            if path == "/tenants":
                payload = self.registry.statuses()
                payload["server"] = self.server_status()
                return json_response(200, payload)
            if len(parts) == 2 and parts[0] == "tenants":
                tenant = self.registry.get(parts[1])
                if tenant is None:
                    return json_response(
                        404, {"error": f"unknown tenant {parts[1]!r}"})
                tenant.refresh_snapshot()
                return json_response(200, tenant.status())
            if len(parts) == 3 and parts[0] == "tenants" \
                    and parts[2] == "anomalies":
                tenant = self.registry.get(parts[1])
                if tenant is None:
                    return json_response(
                        404, {"error": f"unknown tenant {parts[1]!r}"})
                return json_response(200, tenant.anomaly_events())
            return json_response(404, {"error": f"no route {path!r}"})
        if request.method == "POST":
            if len(parts) == 2 and parts[0] == "ingest":
                return await self._http_ingest(parts[1], request.body)
            if len(parts) == 3 and parts[0] == "tenants" \
                    and parts[2] == "end":
                tenant = self.registry.get(parts[1])
                if tenant is None:
                    return json_response(
                        404, {"error": f"unknown tenant {parts[1]!r}"})
                tenant.end()
                self.registry.note_terminal(tenant)
                self.registry.write_prom_file()
                return json_response(200, tenant.status())
            return json_response(404, {"error": f"no route {path!r}"})
        return json_response(405,
                             {"error": f"method {request.method}"})

    async def _http_ingest(self, name: str, body: bytes) -> bytes:
        try:
            tenant = self.registry.get_or_create(name)
        except ServeError as exc:
            return json_response(429 if "limit" in str(exc) else 400,
                                 {"error": str(exc)})
        if tenant.state != ACTIVE:
            return json_response(410, {
                "error": f"tenant {name!r} is {tenant.state}: "
                         f"{tenant.state_reason}",
                **tenant.status()})
        accepted = shed = bad = 0
        throttled = 0.0
        outcome = None
        for line in body.decode("utf-8", errors="replace").splitlines():
            outcome = tenant.feed_line(line)
            if outcome is None:
                continue
            if outcome.kind == "ok":
                accepted += 1
                throttled += outcome.delay
            elif outcome.kind == "shed":
                shed += 1
            elif outcome.kind == "bad-line":
                bad += 1
            elif outcome.kind in ("quarantined", "evicted", "closed"):
                self.registry.note_terminal(tenant)
                break
        if throttled > 0.0:
            # HTTP bodies arrive whole; the arrears delay is applied
            # before this response so a flooding poster is still paced.
            await asyncio.sleep(min(throttled,
                                    self.config.write_timeout))
        status = 200
        if outcome is not None and outcome.kind in (
                "quarantined", "evicted", "closed"):
            status = 410
        elif shed:
            status = 429
        return json_response(status, {
            "tenant": tenant.name, "accepted": accepted, "shed": shed,
            "bad_lines": bad, "throttled_seconds": throttled,
            "state": tenant.state, **({"state_reason":
                                       tenant.state_reason}
                                      if tenant.state != ACTIVE
                                      else {}),
        })

    # -- status ------------------------------------------------------------

    def server_status(self) -> dict:
        return {
            "connections_accepted": self.connections_accepted,
            "slow_consumer_disconnects":
                self.slow_consumer_disconnects,
            "protocol_errors": self.protocol_errors,
            "http_requests": self.http_requests,
            "draining": self._draining,
            "addresses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.addresses.items()},
        }


def _banner_print(message: str) -> None:
    """Default banner sink: flush eagerly so wrappers that parse the
    "listening on" line from a pipe see it before the loop blocks."""
    print(message, flush=True)


async def _amain(server: BpsServer, *, banner=_banner_print) -> int:
    await server.start()
    server.install_signal_handlers()
    for kind, addr in server.addresses.items():
        if isinstance(addr, tuple):
            banner(f"serve: listening on {kind} {addr[0]}:{addr[1]}")
        else:
            banner(f"serve: listening on {kind} {addr}")
    await server.serve_until_drained()
    drained = [t for t in server.registry.tenants.values()
               if t.result is not None]
    banner(f"serve: drained {len(drained)} tenant(s) with records; "
           f"exiting cleanly")
    return 0


def run_server(server: BpsServer, *, banner=_banner_print) -> int:
    """Blocking daemon entry point; returns the process exit code."""
    try:
        return asyncio.run(_amain(server, banner=banner))
    except KeyboardInterrupt:  # pragma: no cover — signal race
        return 0
