"""The repository benchmark: ``bps report``, ``bps watch`` and ``bps serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 0 --seconds 25 --trace 0

Each workload runs in fresh processes, one per iteration, until
``--seconds`` have passed (at least three iterations); the metrics are
medians over the iterations.  Before timing, bytecode is compiled into
``.bench_build/pycache`` (``PYTHONPYCACHEPREFIX``, outside the source
tree) and one process imports ``repro`` to warm the caches.

Times of CPU work (``setup_s``, ``wall_s``, ``records_per_s`` and the
``serve`` scrape latency) are in reference seconds: each is divided by
the host slowdown that the process doing the work sampled while it
ran (``calibrate.py``), because the machine's speed drifts by up to
half within minutes.  The raw times are printed above the JSON line.

Workloads (README.md has the why):

- ``report`` — ``generate_report`` at scale 0.25 x 2 repetitions, sweeps
  serial; the simulator stack.
- ``watch`` — ``read_trace`` + ``watch_trace`` with attribution over 4
  servers and the JSONL and Prometheus sinks (the ``bps watch
  --attribute --servers 4`` path), on a seeded synthetic trace file.
- ``serve`` — a ``bps serve`` daemon; one client streams the same trace
  as one TCP tenant while scraping ``/metrics`` every
  ``SERVE_SCRAPE_PERIOD_S``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs two
untraced and two traced iterations and prints the per-layer metrics:
span self times and counts, profiler self time per simulator package
(report), and the tracing overhead (traced minus untraced median of
each end-to-end metric).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path
from queue import Empty, Queue

import tracegen
from calibrate import slowdown
from openloop import OpenLoopScraper

HERE = Path(__file__).resolve().parent

WORKLOADS = ("report", "watch", "serve")

#: Counts that must repeat exactly across the traced iterations.
EXACT_COUNTS = {
    "report": ("experiments.cells", "experiments.unique_cells",
               "sim.events", "devices.ops", "devices.bytes",
               "pfs.server_requests", "pfs.failovers",
               "middleware.retries"),
    "watch": ("live.ingest_calls", "live.windows", "live.late_records",
              "anomaly.flags", "diagnose.suspects", "sinks.events"),
    "serve": ("live.ingest_calls", "live.windows", "serve.acks"),
}

MIN_ITERATIONS = 3
TRACE_RECORDS = 100_000
SERVE_SCRAPE_PERIOD_S = 0.2
#: Everything must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0


class BenchError(Exception):
    """An iteration that did not produce a result."""


class Context:
    """Paths, environment and deadline shared by one run."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.build = root / ".bench_build"
        self.run_dir = self.build / "runs" / f"{workload}-{os.getpid()}"
        self.trace_dir = self.build / "traces"
        self.started = time.perf_counter()
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.build / "pycache")
        env["PYTHONPATH"] = str(root / "src")
        env["REPRO_SWEEP_WORKERS"] = "1"
        self.env = env

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def log(self, name: str) -> Path:
        return self.run_dir / f"{name}.stderr"


class Child:
    """A child process whose stdout lines a thread reads and stamps."""

    def __init__(self, ctx: Context, cmd: list[str], log: Path) -> None:
        self._stderr = open(log, "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        self.lines: Queue = Queue()
        self.rusage = None
        self.returncode: int | None = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def expect(self, prefix: str, timeout: float) -> tuple[float, str]:
        """The first stdout line starting with ``prefix`` and when it
        was read."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                stamp, line = self.lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except Empty:
                raise BenchError(f"timed out waiting for {prefix!r}") \
                    from None
            if line is None:
                self.lines.put((stamp, None))
                raise BenchError(f"exited before printing {prefix!r}")
            if line.startswith(prefix):
                return stamp, line

    def wait(self, timeout: float) -> int:
        """Reap the child (its own rusage included), killing it on
        timeout."""
        deadline = time.perf_counter() + timeout
        while self.returncode is None:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.returncode = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.returncode
            elif time.perf_counter() > deadline:
                self.proc.kill()
                deadline = float("inf")
            else:
                time.sleep(0.01)
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self._stderr.close()
        return self.returncode

    def stop(self) -> None:
        """Make sure the child is gone (used on every exit path)."""
        if self.returncode is None:
            self.proc.kill()
            self.wait(timeout=10)


def warm(ctx: Context) -> None:
    """Compile bytecode into the cache prefix, then import once."""
    for cmd in ([sys.executable, "-m", "compileall", "-q", "src/repro",
                 str(HERE)],
                [sys.executable, "-c", "import repro.cli, "
                 "repro.experiments.report, repro.serve"]):
        subprocess.run(cmd, cwd=ctx.root, env=ctx.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)


def worker_iteration(ctx: Context, mode: str, args: dict,
                     name: str) -> dict:
    child = Child(ctx, [sys.executable, str(HERE / "worker.py"), mode,
                        json.dumps(args)], ctx.log(name))
    try:
        ready_at, _ = child.expect("ready", ctx.remaining())
        _, line = child.expect("result ", ctx.remaining())
        code = child.wait(timeout=30)
    finally:
        child.stop()
    if code != 0:
        raise BenchError(f"{mode} worker exited {code}")
    result = json.loads(line[len("result "):])
    result["peak_rss_mb"] = child.rusage.ru_maxrss / 1024
    if mode == "reference":
        return result
    samples = result.pop("calibration")
    result["slowdown"] = slowdown(samples, *result["work"])
    result["setup_s"] = (ready_at - child.launched) / slowdown(
        samples, child.launched, ready_at)
    result["wall_s"] = (result["work"][1] - result["work"][0]) \
        / result["slowdown"]
    return result


# -- report --------------------------------------------------------------


def report_iteration(ctx: Context, index: int, *, trace: bool = False,
                     profile: bool = False) -> dict:
    args = {"seed": ctx.seed, "trace": int(trace), "profile": int(profile)}
    if trace:
        args["spans_out"] = str(ctx.trace_dir / f"report-{index}.spans.jsonl")
    return worker_iteration(ctx, "report", args, f"report-{index}")


# -- watch ---------------------------------------------------------------


class TraceInput:
    """The seeded trace shared by ``watch`` and ``serve``."""

    def __init__(self, ctx: Context) -> None:
        self.path = ctx.run_dir / "trace.jsonl"
        self.spec = tracegen.generate(str(self.path), TRACE_RECORDS,
                                      ctx.seed)


def watch_iteration(ctx: Context, trace_input: TraceInput, index: int, *,
                    trace: bool = False) -> dict:
    args = {
        "path": str(trace_input.path),
        "jsonl_out": str(ctx.run_dir / f"watch-{index}.events.jsonl"),
        "prom_out": str(ctx.run_dir / f"watch-{index}.prom"),
        "servers": tracegen.SERVERS, "stripe": tracegen.STRIPE,
        "degraded_server": trace_input.spec.degraded_server,
        "degraded_window": [trace_input.spec.degraded_from,
                            trace_input.spec.degraded_until],
        "trace": int(trace),
    }
    if trace:
        args["spans_out"] = str(ctx.trace_dir / f"watch-{index}.spans.jsonl")
    return worker_iteration(ctx, "watch", args, f"watch-{index}")


# -- serve ---------------------------------------------------------------


def parse_exposition(body: bytes) -> int:
    """Sample count of a Prometheus text exposition; raises if malformed."""
    samples = 0
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])
            samples += 1
    return samples


def scrape_metrics(address: tuple[str, int]) -> bool:
    """One ``GET /metrics``: True when it answers 200 with samples."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read()
        return response.status == 200 and parse_exposition(body) > 0
    except (OSError, http.client.HTTPException, ValueError, IndexError):
        return False
    finally:
        conn.close()


def stream_session(tcp: tuple[str, int], http_addr: tuple[str, int],
                   payload: bytes, timeout: float) -> dict:
    """Stream ``payload`` as one tenant; scrape while it is ingested."""
    replies = {"acks": 0, "result": None, "error": None, "at": None}
    sock = socket.create_connection(tcp, timeout=timeout)

    def read_replies() -> None:
        try:
            with sock.makefile("rb") as lines:
                for raw in lines:
                    reply = json.loads(raw)
                    kind = reply.get("type")
                    if kind == "ack":
                        replies["acks"] += 1
                    elif kind in ("result", "error"):
                        replies["at"] = time.perf_counter()
                        replies[kind] = reply
                        return
        except (OSError, ValueError) as exc:
            replies["error"] = {"error": repr(exc)}

    reader = threading.Thread(target=read_replies, daemon=True)
    started = time.perf_counter()
    scraper = OpenLoopScraper(partial(scrape_metrics, http_addr),
                              SERVE_SCRAPE_PERIOD_S, started)
    scraper.start()
    reader.start()
    try:
        sock.sendall(payload)
        reader.join(timeout)
    finally:
        scraper.stop()
        sock.close()
        reader.join(10)
    return {
        "work": [started, replies["at"] or time.perf_counter()],
        "acks": replies["acks"], "result": replies["result"],
        "error": replies["error"], "scrapes": scraper.latencies,
        "scrape_late": scraper.late, "scrape_failures": scraper.failures,
    }


class ServeInput(TraceInput):
    """The trace as one tenant's wire bytes, plus its batch metrics."""

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        hello = json.dumps({"type": "hello", "tenant": "bench"}) + "\n"
        end = json.dumps({"type": "end"}) + "\n"
        self.payload = (hello.encode() + self.path.read_bytes()
                        + end.encode())
        self.reference = worker_iteration(
            ctx, "reference", {"path": str(self.path)}, "reference")


def serve_iteration(ctx: Context, serve_input: ServeInput, index: int, *,
                    trace: bool = False) -> dict:
    listen = ["serve", "--tcp", "127.0.0.1:0", "--http", "127.0.0.1:0"]
    summary_path = ctx.run_dir / f"serve-{index}.summary.json"
    spans = ctx.trace_dir / f"serve-{index}.spans.jsonl" if trace else "-"
    child = Child(ctx, [sys.executable, str(HERE / "serve_launcher.py"),
                        str(summary_path), str(spans), *listen],
                  ctx.log(f"serve-{index}"))
    try:
        addresses = {}
        while len(addresses) < 2:
            ready_at, line = child.expect("serve: listening on ",
                                          ctx.remaining())
            kind, address = line.split()[3:5]
            host, port = address.rsplit(":", 1)
            addresses[kind] = (host, int(port))
        session = stream_session(addresses["tcp"], addresses["http"],
                                 serve_input.payload,
                                 max(1.0, ctx.remaining() - 20))
        child.proc.send_signal(signal.SIGTERM)
        _, banner = child.expect("serve: drained ", 30)
        code = child.wait(timeout=30)
    finally:
        child.stop()
    records = serve_input.spec.records
    problems = []
    result = session["result"] or {}
    final = result.get("final", {})
    if session["error"] or not result:
        problems.append(f"no result line: {session['error']}")
    if final.get("ops") != records:
        problems.append(f"final ops {final.get('ops')} != {records} sent")
    if final.get("bps") != serve_input.reference["bps"]:
        problems.append(f"final bps {final.get('bps')!r} != batch "
                        f"{serve_input.reference['bps']!r}")
    if session["scrape_failures"]:
        problems.append(f"{session['scrape_failures']} scrape(s) failed")
    if code != 0 or "exiting cleanly" not in banner:
        problems.append(f"daemon exit {code} after SIGTERM: {banner!r}")
    admitted = result.get("records_admitted", 0)
    summary = json.loads(summary_path.read_text())
    samples = summary["calibration"]
    # The daemon's speed over the session scales its ingest time and the
    # scrape latencies, which are event-loop waits behind that ingest.
    slow = slowdown(samples, *session["work"])
    out = {
        **session,
        "slowdown": slow,
        "setup_s": (ready_at - child.launched) / slowdown(
            samples, child.launched, ready_at),
        "wall_s": (session["work"][1] - session["work"][0]) / slow,
        "scrapes": [latency / slow for latency in session["scrapes"]],
        "peak_rss_mb": child.rusage.ru_maxrss / 1024,
        "records": records,
        "attempted": records + len(session["scrapes"]),
        "failed": (records - admitted) + session["scrape_failures"],
        "problems": problems,
    }
    if trace:
        out["layers"] = serve_layers(summary, session, result)
    return out


def serve_layers(summary: dict, session: dict, result: dict) -> dict:
    t, calls = summary["self_s"], summary["calls"]
    handle = summary["scrape_handle"]
    handle_p50 = statistics.median(handle) if handle else 0.0
    scrape_p50 = statistics.median(session["scrapes"]) \
        if session["scrapes"] else 0.0
    return {
        "trace_io.decode_s": t.get("trace_io.decode", 0.0),
        "live.ingest_s": t.get("live.ingest", 0.0),
        "live.ingest_calls": calls.get("live.ingest", 0),
        "live.watermark_s": t.get("live.watermark", 0.0),
        "live.finalize_s": t.get("live.finalize", 0.0),
        "live.snapshot_s": t.get("live.snapshot", 0.0),
        "live.windows": result.get("final", {}).get("windows", 0),
        "live.late_records": result.get("late_records", 0),
        "live.forced_watermarks": result.get("forced_watermarks", 0),
        "anomaly.observe_s": t.get("anomaly.observe", 0.0),
        "anomaly.flags": result.get("final", {}).get("anomalies", 0),
        "serve.feed_line_s": t.get("serve.feed_line", 0.0),
        "serve.admit_s": t.get("serve.admit", 0.0),
        "serve.throttle_s":
            result.get("budget", {}).get("throttled_seconds", 0.0),
        "serve.acks": session["acks"],
        "serve.scrape_handle_s": handle_p50,
        "serve.scrape_wait_s": scrape_p50 - handle_p50,
        "client.scrapes": len(session["scrapes"]),
        "client.scrape_late_s": max(session["scrape_late"], default=0.0),
        "setup.import_s": summary["import_s"],
    }


# -- assembling the result ----------------------------------------------


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics, as
    BENCHMARK.json declares them."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple({metric["name"]: metric["unit"] for metric in
                  declared[kind]} for kind in ("end_to_end", "per_layer"))


def end_to_end(iterations: list[dict]) -> dict:
    scrapes = [s for it in iterations for s in it["scrapes"]]
    return {
        "setup_s": statistics.median(it["setup_s"] for it in iterations),
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "records_per_s": statistics.median(
            it["records"] / it["wall_s"] for it in iterations),
        "scrape_p50_s": statistics.median(scrapes),
        "peak_rss_mb": statistics.median(
            it["peak_rss_mb"] for it in iterations),
    }


def per_layer(workload: str, names, untraced: list[dict],
              traced: list[dict], profiled: list[dict],
              problems: list[str]) -> dict:
    """Per-layer metrics; 0 where this workload does not run a layer."""
    layers = dict.fromkeys(names, 0)
    for name in names:
        values = [it["layers"][name] for it in traced
                  if name in it["layers"]]
        if values:  # an exact count keeps its integer value
            layers[name] = values[0] if len(set(values)) == 1 \
                else statistics.median(values)
    for it in profiled:  # only its profiler figures: spans ran slower
        layers.update({name: value for name, value in it["layers"].items()
                       if name.endswith(".self_s")})
    for name in EXACT_COUNTS[workload]:
        values = {it["layers"].get(name) for it in traced + profiled}
        if len(values) > 1:
            problems.append(f"{name} differs across traced runs: {values}")
    plain, spanned = end_to_end(untraced), end_to_end(traced)
    for name, value in spanned.items():
        layers[f"overhead.{name}"] = value - plain[name]
    return layers


def run_iterations(ctx: Context, one, seconds: float) -> list[dict]:
    """Fresh-process iterations until ``seconds`` pass (at least
    ``MIN_ITERATIONS``), stopping early only near the run deadline."""
    iterations: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    while len(iterations) < MIN_ITERATIONS \
            or time.perf_counter() - started < seconds:
        if iterations and ctx.remaining() < 1.5 * longest:
            break
        began = time.perf_counter()
        iterations.append(one(len(iterations)))
        longest = max(longest, time.perf_counter() - began)
    return iterations


def measure(ctx: Context, workload: str, seconds: float,
            trace: bool) -> tuple[list, list, list]:
    """(untraced, traced, profiled) iterations of one workload."""
    if workload == "report":
        one = partial(report_iteration, ctx)
    elif workload == "watch":
        one = partial(watch_iteration, ctx, TraceInput(ctx))
    else:
        one = partial(serve_iteration, ctx, ServeInput(ctx))

    if not trace:
        return run_iterations(ctx, one, seconds), [], []
    untraced = [one(i) for i in range(2)]
    if workload == "report":
        return untraced, [one(2, trace=True)], [one(3, trace=True,
                                                    profile=True)]
    return untraced, [one(i, trace=True) for i in (2, 3)], []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    ctx = Context(root, args.workload, args.seed)
    ctx.run_dir.mkdir(parents=True, exist_ok=True)
    ctx.trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm(ctx)
        untraced, traced, profiled = measure(
            ctx, args.workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)

    iterations = untraced + traced + profiled
    problems = [p for it in iterations for p in it["problems"]]
    if args.workload == "report":
        digests = {it["digest"] for it in iterations}
        if len(digests) > 1:
            problems.append(f"report differs between runs: {digests}")
    for it in iterations:
        print(f"{args.workload}: host slowdown {it['slowdown']:.3f}, "
              f"setup {it['setup_s']:.3f} s, wall {it['wall_s']:.3f} s "
              f"(raw {it['work'][1] - it['work'][0]:.3f} s), "
              f"{it['records']} records, "
              f"{len(it['scrapes'])} scrapes, "
              f"peak RSS {it['peak_rss_mb']:.1f} MB"
              + (" (traced)" if "layers" in it else ""))
    e2e = end_to_end(untraced)
    print(f"{args.workload}: scrape p50 {e2e['scrape_p50_s']:.4f} s over "
          f"{sum(len(it['scrapes']) for it in untraced)} scrapes in "
          f"{len(untraced)} untraced iterations")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    e2e_units, layer_units = declared_metrics()
    if args.trace:
        values = per_layer(args.workload, layer_units, untraced, traced,
                           profiled, problems)
        units = layer_units
    else:
        values, units = e2e, e2e_units
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
