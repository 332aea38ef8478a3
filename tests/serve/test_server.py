"""Daemon end-to-end: isolation under chaos, drain, HTTP surface.

No pytest-asyncio in this toolkit: every test drives its own event
loop through ``run_async``, which also wraps the whole scenario in an
``asyncio.wait_for`` so a hung daemon fails the test inside the
timeout instead of hanging the suite.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.serve.budget import TenantBudget
from repro.serve.registry import ServeConfig
from repro.serve.server import BpsServer
from repro.serve.tenant import ACTIVE, DRAINED, EVICTED, QUARANTINED

TIMEOUT = 45.0


def run_async(coro):
    """asyncio-safe timeout wrapper: a hung scenario fails, fast."""
    async def bounded():
        return await asyncio.wait_for(coro, TIMEOUT)
    return asyncio.run(bounded())


def steady_records(n, gap=0.005, dur=0.012, nbytes=4096, pid=1):
    return [
        IORecord(pid=pid, op="read" if i % 2 else "write",
                 nbytes=nbytes, start=i * gap, end=i * gap + dur)
        for i in range(n)
    ]


def record_json(record):
    return json.dumps({"pid": record.pid, "op": record.op,
                       "nbytes": record.nbytes, "start": record.start,
                       "end": record.end}) + "\n"


async def start_server(**config_kwargs) -> BpsServer:
    server = BpsServer(ServeConfig(**config_kwargs),
                       tcp="127.0.0.1:0", http="127.0.0.1:0")
    await server.start()
    return server


async def open_stream(server):
    host, port = server.addresses["tcp"]
    return await asyncio.open_connection(host, port)


async def hello(server, name):
    reader, writer = await open_stream(server)
    writer.write(json.dumps({"type": "hello", "tenant": name})
                 .encode() + b"\n")
    await writer.drain()
    welcome = json.loads(await reader.readline())
    assert welcome["type"] == "welcome", welcome
    return reader, writer


async def stream_records(writer, records):
    for record in records:
        writer.write(record_json(record).encode())
    await writer.drain()


async def end_stream(reader, writer):
    writer.write(b'{"type": "end"}\n')
    await writer.drain()
    while True:  # skip acks; the result line closes the stream
        line = await reader.readline()
        obj = json.loads(line)
        if obj["type"] != "ack":
            return obj


async def http_request(server, method, path, body=b""):
    host, port = server.addresses["http"]
    reader, writer = await asyncio.open_connection(host, port)
    head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    payload = raw.split(b"\r\n\r\n", 1)[1]
    return status, payload


class TestStreamProtocol:
    def test_hello_stream_end_is_bit_identical_to_batch(self):
        records = steady_records(300)

        async def scenario():
            server = await start_server(window=0.1)
            try:
                reader, writer = await hello(server, "jobA")
                await stream_records(writer, records)
                result = await end_stream(reader, writer)
                writer.close()
                return result
            finally:
                await server.drain()

        result = run_async(scenario())
        assert result["type"] == "result"
        assert result["state"] == "drained"
        final = result["final"]
        batch = compute_metrics(TraceCollection(records),
                                exec_time=final["exec_time"])
        assert final["bps"] == batch.bps
        assert final["union_io_time"] == batch.union_io_time
        assert final["ops"] == len(records)

    def test_auto_named_tenant_without_hello(self):
        records = steady_records(50)

        async def scenario():
            server = await start_server(window=0.1)
            try:
                reader, writer = await open_stream(server)
                await stream_records(writer, records)
                result = await end_stream(reader, writer)
                writer.close()
                return result
            finally:
                await server.drain()

        result = run_async(scenario())
        assert result["tenant"].startswith("conn-")
        assert result["final"]["ops"] == len(records)

    def test_oversized_first_line_is_rejected_cleanly(self):
        async def scenario():
            server = await start_server(window=0.1)
            try:
                reader, writer = await open_stream(server)
                writer.write(b"x" * (2 << 20) + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                await server.drain()

        reply = run_async(scenario())
        assert reply["type"] == "error"
        assert "line bound" in reply["error"]

    def test_tenant_limit_refused_over_the_wire(self):
        async def scenario():
            server = await start_server(window=0.1, max_tenants=1)
            try:
                await hello(server, "a")
                reader, writer = await open_stream(server)
                writer.write(b'{"type": "hello", "tenant": "b"}\n')
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                await server.drain()

        reply = run_async(scenario())
        assert reply["type"] == "error"
        assert "tenant limit" in reply["error"]


class TestIsolationUnderChaos:
    """The acceptance scenario: three misbehaving neighbours, one
    clean tenant whose numbers must come out bit-identical anyway."""

    def test_clean_tenant_is_unaffected_by_chaos(self, tmp_path):
        clean_records = steady_records(30)
        flood_records = steady_records(2000, gap=0.001, pid=7)
        prom_path = tmp_path / "serve.prom"
        budget = TenantBudget(max_records_per_sec=2000,
                              burst_seconds=0.02, shed_factor=1.0,
                              evict_after_sheds=40)

        async def scrape(server):
            status, body = await http_request(server, "GET", "/metrics")
            assert status == 200
            return body.decode()

        async def scenario():
            server = await start_server(
                window=0.1, budget=budget, error_mode="salvage",
                max_error_ratio=0.25, prom_out=str(prom_path),
                out_dir=str(tmp_path / "events"), write_timeout=5.0)
            try:
                # Tenant 1: the flooder — one giant HTTP burst the
                # handler cannot pace mid-body, so the token bucket
                # runs into arrears, sheds, and finally evicts.
                flood_body = "".join(
                    record_json(r) for r in flood_records).encode()
                flood_task = asyncio.create_task(http_request(
                    server, "POST", "/ingest/flooder", flood_body))

                # Tenant 2: 100% garbage until quarantined.
                g_reader, g_writer = await hello(server, "garbage")
                for i in range(80):
                    g_writer.write(f"not json {i}\n".encode())
                await g_writer.drain()

                # Tenant 3: killed mid-stream, no end, no goodbye.
                k_reader, k_writer = await hello(server, "killed")
                await stream_records(k_writer, steady_records(25))
                k_writer.transport.abort()

                # The clean tenant streams while all of that burns.
                c_reader, c_writer = await hello(server, "clean")
                mid = len(clean_records) // 2
                await stream_records(c_writer, clean_records[:mid])
                assert 'tenant="clean"' in await scrape(server)
                await stream_records(c_writer, clean_records[mid:])

                garbage_reply = json.loads(await g_reader.readline())
                flood_status, flood_raw = await flood_task
                flood_reply = (flood_status, json.loads(flood_raw))

                result = await end_stream(c_reader, c_writer)
                scrape_text = await scrape(server)
                return server, result, garbage_reply, flood_reply, \
                    scrape_text
            finally:
                await server.drain()

        server, result, garbage_reply, flood_reply, scrape_text = \
            run_async(scenario())

        # The clean tenant: finalized cumulative metrics bit-identical
        # to the batch pipeline over the same records.
        final = result["final"]
        batch = compute_metrics(TraceCollection(clean_records),
                                exec_time=final["exec_time"])
        assert final["bps"] == batch.bps
        assert final["union_io_time"] == batch.union_io_time
        assert final["ops"] == len(clean_records)
        assert result["budget"]["records_shed"] == 0
        assert result["quarantined_lines"] == 0

        # ...and its finalized windows match an isolated stream.
        from repro.live import MetricStream
        reference = MetricStream(window=0.1)
        for record in clean_records:
            reference.ingest(record)
        expected = reference.finalize()
        got = server.registry.tenants["clean"].result
        assert len(got.windows) == len(expected.windows)
        for g, w in zip(got.windows, expected.windows):
            assert g.io_time == w.io_time
            assert g.ops == w.ops
            # Scrapes fold the tenant's ingest buffer in at other
            # points than the reference's, and a window's float mass
            # depends on those cuts up to re-association only.
            assert g.bps == pytest.approx(w.bps, rel=1e-12)

        # The neighbours met their documented fates.
        assert garbage_reply["type"] == "error"
        assert garbage_reply["state"] == QUARANTINED
        assert flood_reply[0] == 410  # gone: evicted mid-body
        assert flood_reply[1]["state"] == EVICTED
        assert flood_reply[1]["shed"] == 40  # the 41st shed evicts
        flooder = server.registry.tenants["flooder"]
        assert flooder.meter.records_shed > 40
        assert flooder.meter.throttle_delays > 0  # rung 1 then rung 3/4
        killed = server.registry.tenants["killed"]
        assert killed.state == DRAINED  # drain settled the orphan
        assert killed.result is not None
        assert killed.result.metrics.app_ops == 25

        # The scrape stayed up throughout and shows every tenant.
        for name in ("clean", "flooder", "garbage", "killed"):
            assert f'tenant="{name}"' in scrape_text
        # The drain-time prom file uses the same formatter as /metrics.
        assert 'tenant="clean"' in prom_path.read_text()


class TestGracefulDrain:
    def test_drain_finalizes_flushes_and_settles(self, tmp_path):
        records = steady_records(60)
        prom_path = tmp_path / "serve.prom"

        async def scenario():
            server = await start_server(window=0.1,
                                        prom_out=str(prom_path))
            reader, writer = await hello(server, "jobA")
            await stream_records(writer, records)
            await server.drain("test SIGTERM")
            assert server.server_status()["draining"]
            return server

        server = run_async(scenario())
        tenant = server.registry.tenants["jobA"]
        assert tenant.state == DRAINED
        assert "SIGTERM" in tenant.state_reason
        assert tenant.result is not None
        assert tenant.result.metrics.app_ops == len(records)
        assert 'tenant="jobA"' in prom_path.read_text()

    def test_sigterm_daemon_exits_zero(self, tmp_path):
        """The real daemon: SIGTERM -> finalize, flush, exit 0."""
        prom_path = tmp_path / "serve.prom"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH", ""),) if p]
            + [os.path.join(os.getcwd(), "src")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--tcp", "127.0.0.1:0", "--prom-out", str(prom_path)],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            banner = proc.stdout.readline()
            host, port = banner.strip().rsplit(" ", 1)[1].split(":")

            async def stream():
                reader, writer = await asyncio.open_connection(
                    host, int(port))
                writer.write(b'{"type": "hello", "tenant": "a"}\n')
                for record in steady_records(40):
                    writer.write(record_json(record).encode())
                await writer.drain()
                await reader.readline()  # welcome: records are in

            run_async(stream())
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "exiting cleanly" in out
        assert 'tenant="a"' in prom_path.read_text()


class TestHttpSurface:
    def test_ingest_query_end_round_trip(self):
        records = steady_records(40)
        body = "".join(record_json(r) for r in records)
        body += "# comment\n\n"

        async def scenario():
            server = await start_server(window=0.1,
                                        error_mode="salvage")
            try:
                status, raw = await http_request(
                    server, "POST", "/ingest/web", body.encode())
                ingest = (status, json.loads(raw))
                status, raw = await http_request(
                    server, "GET", "/tenants/web")
                detail = (status, json.loads(raw))
                status, raw = await http_request(server, "GET",
                                                 "/tenants")
                roster = (status, json.loads(raw))
                status, raw = await http_request(
                    server, "POST", "/tenants/web/end")
                ended = (status, json.loads(raw))
                return ingest, detail, roster, ended
            finally:
                await server.drain()

        ingest, detail, roster, ended = run_async(scenario())
        assert ingest[0] == 200
        assert ingest[1]["accepted"] == len(records)
        assert ingest[1]["bad_lines"] == 0
        assert detail[0] == 200 and detail[1]["records"] == len(records)
        assert roster[0] == 200
        assert roster[1]["counters"]["tenants_active"] == 1
        assert roster[1]["server"]["http_requests"] >= 2
        assert ended[0] == 200
        assert ended[1]["state"] == "drained"
        assert ended[1]["final"]["ops"] == len(records)

    def test_http_errors_are_scoped(self):
        async def scenario():
            server = await start_server(window=0.1)
            try:
                missing = await http_request(server, "GET",
                                             "/tenants/nope")
                bad_route = await http_request(server, "GET", "/what")
                bad_method = await http_request(server, "PUT",
                                                "/metrics")
                bad_name = await http_request(
                    server, "POST", "/ingest/..%2fetc", b"")
                ingest_after_end = None
                await http_request(server, "POST", "/ingest/a",
                                   record_json(
                                       steady_records(1)[0]).encode())
                await http_request(server, "POST", "/tenants/a/end")
                ingest_after_end = await http_request(
                    server, "POST", "/ingest/a",
                    record_json(steady_records(1)[0]).encode())
                return (missing, bad_route, bad_method, bad_name,
                        ingest_after_end)
            finally:
                await server.drain()

        missing, bad_route, bad_method, bad_name, after_end = \
            run_async(scenario())
        assert missing[0] == 404
        assert bad_route[0] == 404
        assert bad_method[0] == 405
        assert bad_name[0] == 400
        assert after_end[0] == 410  # gone: the stream is settled

    def test_scrape_matches_prom_file_byte_for_byte(self, tmp_path):
        prom_path = tmp_path / "serve.prom"
        records = steady_records(30)

        async def scenario():
            server = await start_server(window=0.1,
                                        prom_out=str(prom_path))
            try:
                reader, writer = await hello(server, "a")
                await stream_records(writer, records)
                await end_stream(reader, writer)
                status, scrape_body = await http_request(
                    server, "GET", "/metrics")
                assert status == 200
                return scrape_body.decode(), prom_path.read_text()
            finally:
                await server.drain()

        scrape_text, file_text = run_async(scenario())
        # Satellite guarantee: the HTTP scrape and the textfile sink
        # render through the same format_prometheus call.
        assert scrape_text == file_text
        assert 'repro_live_bps{tenant="a",scope="cumulative"}' \
            in scrape_text


class TestPoisonRecord:
    """A record with NaN timestamps no trace column can hold: it must be
    refused at its own line as malformed input, the tenant must settle
    everything else it was sent, and nothing it leaves behind may break
    the reads of the tenant or its neighbours."""

    def test_nan_record_is_a_bad_line_at_its_line(self):
        good = steady_records(60)
        neighbour = steady_records(40, pid=3)
        nan_line = (b'{"pid": 0, "op": "read", "nbytes": 1, '
                    b'"start": NaN, "end": NaN}\n')
        # Crosses a window, so a row left buffered would be folded.
        after = IORecord(pid=1, op="read", nbytes=4096, start=5.0,
                         end=5.01)

        async def scenario():
            server = await start_server(window=0.1)
            try:
                n_reader, n_writer = await hello(server, "neighbour")
                await stream_records(n_writer, neighbour)
                reader, writer = await hello(server, "poisoned")
                await stream_records(writer, good)
                writer.write(nan_line + record_json(after).encode())
                await writer.drain()
                roster = await http_request(server, "GET", "/tenants")
                reply = await end_stream(reader, writer)
                writer.close()
                detail = await http_request(server, "GET",
                                            "/tenants/poisoned")
                ended = await end_stream(n_reader, n_writer)
                n_writer.close()
                return server, reply, roster, detail, ended
            finally:
                await server.drain()

        server, reply, roster, detail, ended = run_async(scenario())
        kept = [*good, after]
        assert reply["type"] == "result"
        poisoned = server.registry.tenants["poisoned"]
        assert poisoned.state == DRAINED
        [entry] = poisoned.quarantine_report.entries
        assert entry.line_number == len(good) + 1
        assert entry.reason.startswith(
            "bad record: non-finite timestamps [nan, nan]")
        assert poisoned.records_admitted == len(kept)
        final = poisoned.result.metrics
        batch = compute_metrics(TraceCollection(kept),
                                exec_time=final.exec_time)
        assert final.app_ops == len(kept)
        assert final.bps == batch.bps
        assert final.union_io_time == batch.union_io_time

        assert roster[0] == 200
        listed = {t["tenant"]: t for t in json.loads(roster[1])["tenants"]}
        assert set(listed) == {"neighbour", "poisoned"}
        assert detail[0] == 200
        assert json.loads(detail[1])["state"] == DRAINED
        assert reply["final"]["ops"] == len(kept)
        assert ended["final"]["ops"] == len(neighbour)
