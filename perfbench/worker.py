"""One workload process of the benchmark: ``report`` or ``watch``.

``run.py`` starts a fresh process per iteration, because a user pays
import and first-call costs on every CLI call::

    python3 perfbench/worker.py report '{"seed": 0, "trace": 0}'
    python3 perfbench/worker.py watch '{"path": "t.jsonl", ...}'
    python3 perfbench/worker.py reference '{"path": "t.jsonl"}'

The process prints ``ready`` once ``repro`` is imported and its inputs
are open (``run.py`` times launch to ``ready`` as ``setup_s``), then
runs the workload once and prints ``result <json>`` as its last line.
A scrape thread samples, on a fixed open-loop schedule, how long the
busy process takes to answer a metrics read (``openloop.py``), and the
main thread samples host speed throughout (``calibrate.py``).  With
``"trace": 1`` the layers' public functions are wrapped in spans
(:mod:`tracer`) after ``ready``; ``"profile": 1`` adds cProfile self
time per package.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from openloop import OpenLoopScraper  # noqa: E402
from tracer import Tracer  # noqa: E402

#: ``ExperimentScale`` of the report workload; the seed shifts the
#: base seed, and seed 0 is the repository's default base seed.
REPORT_FACTOR = 0.25
REPORT_REPETITIONS = 2
REPORT_BASE_SEED = 20130520

#: sha256 of the report's section bodies at seed 0 (``generated in``
#: timing lines stripped).  A change that alters any reproduced number
#: or rendering changes it.
REPORT_DIGEST_SEED0 = (
    "afdc879784ae1764907ea29c96adf07dc6b4dc99b3db95b196d1a8ec08d3357f")

#: Sweep modules whose ``run_sweep`` binding the report calls.
SWEEP_MODULES = ("set1", "set2", "set3", "set4", "set5", "set6")

#: Packages whose profiler self time the traced report reports.
PROFILED_PACKAGES = ("sim", "devices", "fs", "pfs", "net", "middleware",
                     "faults", "core", "workloads")

SCRAPE_PERIOD_S = 0.1

_TIMING_LINE = re.compile(r"^_\((generated in [0-9.]+s)\)_$|"
                          r"^_Total generation time: [0-9.]+s_$")


def ready() -> None:
    print("ready", flush=True)


def process_exposition() -> str:
    """What a process collector exports: memory and CPU time."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return (f"process_max_resident_kib {usage.ru_maxrss}\n"
            f"process_cpu_seconds_total "
            f"{usage.ru_utime + usage.ru_stime}\n")


def start_scraper(read) -> OpenLoopScraper:
    """Scrape this process from a thread while its main thread works:
    the wait for the busy interpreter is part of each scrape."""
    scraper = OpenLoopScraper(lambda: bool(read()), SCRAPE_PERIOD_S,
                              time.perf_counter())
    scraper.start()
    return scraper


def report_digest(markdown: str) -> str:
    body = "\n".join(line for line in markdown.splitlines()
                     if not _TIMING_LINE.match(line))
    return hashlib.sha256(body.encode()).hexdigest()


class SweepCheck:
    """Wraps each sweep module's ``run_sweep`` to check what it returns.

    Every sweep must come back with all of its points and a clean
    supervision report; cells covered, cells that errored, crashed or
    were retried, and simulated records are tallied.
    """

    def __init__(self) -> None:
        self.cells = 0
        self.failed_cells = 0
        self.records = 0
        self.problems: list[str] = []

    def install(self, modules) -> None:
        for module in modules:
            module.run_sweep = self._wrap(module.run_sweep)

    def _wrap(self, run_sweep):
        def checked(spec, scale, **kwargs):
            analysis = run_sweep(spec, scale, **kwargs)
            report = analysis.supervision
            cells = len(spec.points) * scale.repetitions
            bad = (report.crashes + report.timeouts + report.job_errors
                   + report.total_retries)
            self.cells += cells
            self.failed_cells += min(cells, bad)
            if analysis.labels != [label for label, _m, _c in spec.points]:
                self.problems.append(f"sweep {spec.knob!r} lost points")
            if bad:
                self.problems.append(
                    f"sweep {spec.knob!r}: {report.summary()}")
            self.records += scale.repetitions * sum(
                m.app_ops for m in analysis.averaged())
            return analysis
        return checked


class CellStats:
    """Per-cell tallies of the traced report (exact public counters)."""

    def __init__(self) -> None:
        self.keys: list = []
        self.times: list[float] = []
        self.counts = dict.fromkeys(
            ("devices.ops", "devices.bytes", "pfs.server_requests",
             "pfs.failovers", "middleware.retries"), 0)

    def install(self, workload_class) -> None:
        """Wrap ``Workload.run``: every call is one sweep cell."""
        run = workload_class.run

        def observed(workload, config):
            # A cell is identified by the workload's parameters before
            # it runs and by the full system configuration (seed too).
            self.keys.append((type(workload).__qualname__,
                              repr(sorted(vars(workload).items())),
                              repr(config)))
            started = time.perf_counter()
            measurement = run(workload, config)
            self.times.append(time.perf_counter() - started)
            self._tally(measurement.extras)
            return measurement

        workload_class.run = observed

    def _tally(self, extras: dict) -> None:
        for device in extras.get("devices", ()):
            self.counts["devices.ops"] += device["ops"]
            self.counts["devices.bytes"] += device["bytes_moved"]
        for server in extras.get("servers", ()):
            self.counts["pfs.server_requests"] += server["requests_handled"]
        self.counts["pfs.failovers"] += extras.get("pfs_failovers", 0)
        self.counts["middleware.retries"] += \
            extras.get("retry", {}).get("retries", 0)

    def layers(self) -> dict:
        seen: set = set()
        repeat_s = 0.0
        for key, duration in zip(self.keys, self.times):
            if key in seen:
                repeat_s += duration
            seen.add(key)
        total = sum(self.times)
        return {
            "experiments.cells": len(self.keys),
            "experiments.unique_cells": len(seen),
            "experiments.repeat_share": repeat_s / total if total else 0.0,
            "experiments.cell_s": total,
            **self.counts,
        }


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def profile_self_time(profiler) -> dict:
    """cProfile self time summed per ``repro.<package>``."""
    import pstats

    totals = dict.fromkeys(PROFILED_PACKAGES, 0.0)
    for (filename, _line, _name), row in \
            pstats.Stats(profiler).stats.items():
        _head, sep, tail = filename.replace("\\", "/").partition(
            "/repro/")
        if not sep:
            continue
        package = tail.split("/", 1)[0].removesuffix(".py")
        if package in totals:
            totals[package] += row[2]
    return {f"{package}.self_s": value for package, value in totals.items()}


def run_report(args: dict) -> dict:
    import importlib

    from repro.core import analysis as core_analysis
    from repro.experiments import report as report_module
    from repro.experiments.runner import ExperimentScale
    from repro.sim.engine import Engine
    from repro.workloads import base as workloads_base
    sweep_modules = [importlib.import_module(f"repro.experiments.{name}")
                     for name in SWEEP_MODULES]
    import_s = time.perf_counter() - PROCESS_START
    ready()

    scale = ExperimentScale(factor=REPORT_FACTOR,
                            repetitions=REPORT_REPETITIONS,
                            base_seed=REPORT_BASE_SEED + args["seed"])
    check = SweepCheck()
    check.install(sweep_modules)
    tracer = cells = None
    if args.get("trace"):
        tracer, cells = Tracer(), CellStats()
        tracer.span(report_module, "generate_report", "report")
        for module in sweep_modules:
            tracer.span(module, "run_sweep", "experiments.sweep")
        cells.install(workloads_base.Workload)
        tracer.span(workloads_base.Workload, "run", "experiments.cell")
        tracer.span(workloads_base, "build_system", "system.build")
        for cls in _all_subclasses(workloads_base.Workload):
            if "setup" in cls.__dict__:
                tracer.span(cls, "setup", "workloads.setup")
        tracer.span(Engine, "run", "sim.run")
        tracer.count(Engine, "call_later", "sim.events")
        tracer.span(core_analysis, "compute_metrics", "core.metrics")
        tracer.span(core_analysis.SweepAnalysis, "correlations",
                    "core.correlation")
    profiler = None
    if args.get("profile"):
        import cProfile
        profiler = cProfile.Profile()

    scraper = start_scraper(process_exposition)
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    markdown = report_module.generate_report(scale)
    if profiler is not None:
        profiler.disable()
    finished = time.perf_counter()
    scraper.stop()

    problems = list(check.problems)
    missing = [figure for figure in report_module.REPORT_ORDER
               if f"\n## {figure}: " not in markdown]
    if missing:
        problems.append(f"report lacks sections {missing}")
    digest = report_digest(markdown)
    if args["seed"] == 0 and digest != REPORT_DIGEST_SEED0:
        problems.append(f"report digest {digest} != {REPORT_DIGEST_SEED0}"
                        f" recorded for seed 0")
    result = {
        "work": [started, finished], "records": check.records,
        "attempted": check.cells, "failed": check.failed_cells,
        "digest": digest, "scrapes": scraper.latencies,
        "problems": problems,
    }
    if tracer is not None:
        tracer.restore()
        t = tracer.self_s
        sim_run_s = tracer.total_s.get("sim.run", 0.0)
        events = tracer.counts.get("sim.events", 0)
        result["layers"] = {
            **cells.layers(),
            "system.build_s": t.get("system.build", 0.0),
            "workloads.setup_s": t.get("workloads.setup", 0.0),
            "sim.run_s": sim_run_s,
            "sim.events": events,
            "sim.us_per_event": 1e6 * sim_run_s / events if events else 0.0,
            "core.metrics_s": t.get("core.metrics", 0.0),
            "core.correlation_s": t.get("core.correlation", 0.0),
            "setup.import_s": import_s,
        }
        if profiler is not None:
            result["layers"].update(profile_self_time(profiler))
        result["tracer"] = tracer
    return result


def run_watch(args: dict) -> dict:
    import repro.trace_io as trace_io
    from repro.core.metrics import compute_metrics
    from repro.diagnose import stripe_server_of
    from repro.diagnose.attribute import Attributor
    from repro.diagnose.graph import TraceGraph
    from repro.live import replay
    from repro.live.anomaly import BpsAnomalyDetector
    from repro.live.sinks import JsonlSink, PrometheusSink
    from repro.live.stream import MetricStream
    from repro.trace_io import jsonltrace
    from repro.trace_io.policy import ErrorPolicy
    import_s = time.perf_counter() - PROCESS_START
    path, prom_path = args["path"], args["prom_out"]
    with open(path) as handle:  # the input must exist and be readable
        handle.read(1)
    ready()

    tracer = None
    if args.get("trace"):
        tracer = Tracer()
        tracer.span(trace_io, "read_trace", "trace_io.read")
        tracer.span(jsonltrace, "decode_jsonl_line", "trace_io.decode")
        tracer.span(replay, "watch_trace", "live.replay")
        tracer.span(MetricStream, "ingest", "live.ingest")
        tracer.span(MetricStream, "advance_watermark", "live.watermark")
        tracer.span(MetricStream, "finalize", "live.finalize")
        tracer.span(MetricStream, "snapshot", "live.snapshot")
        tracer.span(BpsAnomalyDetector, "observe", "anomaly.observe")
        # MetricStream feeds TraceGraph.add_record directly.
        tracer.span(TraceGraph, "add_record", "diagnose.add")
        tracer.span(Attributor, "observe_window", "diagnose.judge")
        tracer.span(JsonlSink, "emit", "sinks.emit")
        tracer.span(PrometheusSink, "emit", "sinks.emit")

    def read_exposition() -> str:
        try:
            with open(prom_path) as handle:
                return handle.read()
        except FileNotFoundError:
            return process_exposition()

    scraper = start_scraper(read_exposition)
    started = time.perf_counter()
    # The `bps watch --attribute --servers 4 --on-error salvage
    # --jsonl-out ... --prom-out ...` path, as the CLI builds it.
    policy = ErrorPolicy("salvage")
    trace = trace_io.read_trace(path, errors=policy)
    result = replay.watch_trace(
        trace,
        sinks=[JsonlSink(args["jsonl_out"]), PrometheusSink(prom_path)],
        sink_errors="warn",
        detector=BpsAnomalyDetector(drop_factor=3.0, history=8),
        attribute=True,
        server_of=stripe_server_of(args["servers"], args["stripe"]),
    )
    finished = time.perf_counter()
    scraper.stop()
    if tracer is not None:
        tracer.restore()

    problems = []
    streamed = result.metrics
    batch = compute_metrics(trace, exec_time=streamed.exec_time)
    # The streaming contract (DESIGN.md): everything is bit-identical to
    # batch except ARPT, a running sum equal only up to re-association.
    for field in ("bps", "iops", "bandwidth", "union_io_time", "app_ops",
                  "app_bytes", "app_blocks"):
        if getattr(streamed, field) != getattr(batch, field):
            problems.append(f"streamed {field} {getattr(streamed, field)!r}"
                            f" != batch {getattr(batch, field)!r}")
    if not math.isclose(streamed.arpt, batch.arpt, rel_tol=1e-9):
        problems.append(f"streamed arpt {streamed.arpt!r} != batch "
                        f"{batch.arpt!r}")
    if not result.anomalies:
        problems.append("no window was flagged")
    degraded_from, degraded_until = args["degraded_window"]
    for anomaly in result.anomalies:
        top = anomaly.suspects[0].target if anomaly.suspects else None
        where = f"[{anomaly.window_start:.6g}, {anomaly.window_end:.6g})"
        if top != args["degraded_server"]:
            problems.append(f"window {where} top suspect {top!r}, "
                            f"degraded {args['degraded_server']}")
        if not anomaly.overlaps(degraded_from, degraded_until):
            problems.append(f"window {where} flagged outside the degraded "
                            f"interval [{degraded_from:.6g}, "
                            f"{degraded_until:.6g})")
    lines = policy.report.lines_seen
    out = {
        "work": [started, finished], "records": len(trace),
        "attempted": lines, "failed": policy.report.skipped,
        "scrapes": scraper.latencies, "problems": problems,
    }
    if tracer is not None:
        t, calls = tracer.self_s, tracer.calls
        out["layers"] = {
            "trace_io.read_s": t.get("trace_io.read", 0.0),
            "trace_io.decode_s": t.get("trace_io.decode", 0.0),
            "live.ingest_s": t.get("live.ingest", 0.0),
            "live.ingest_calls": calls.get("live.ingest", 0),
            "live.watermark_s": t.get("live.watermark", 0.0),
            "live.finalize_s": t.get("live.finalize", 0.0),
            "live.snapshot_s": t.get("live.snapshot", 0.0),
            "live.windows": len(result.windows),
            "live.late_records": result.late_records,
            "live.forced_watermarks":
                streamed.extras.get("forced_watermarks", 0),
            "anomaly.observe_s": t.get("anomaly.observe", 0.0),
            "anomaly.flags": len(result.anomalies),
            "diagnose.add_s": t.get("diagnose.add", 0.0),
            "diagnose.judge_s": t.get("diagnose.judge", 0.0),
            "diagnose.suspects": sum(len(a.suspects)
                                     for a in result.anomalies),
            "sinks.emit_s": t.get("sinks.emit", 0.0),
            "sinks.events": calls.get("sinks.emit", 0),
            "setup.import_s": import_s,
        }
        out["tracer"] = tracer
    return out


def run_reference(args: dict) -> dict:
    """Batch BPS of a trace file: what ``serve`` must reproduce."""
    from repro.core.metrics import compute_metrics
    from repro.trace_io import read_trace
    trace = read_trace(args["path"])
    ready()
    return {"bps": compute_metrics(trace, exec_time=1.0).bps}


def main(argv: list[str]) -> int:
    mode, args = argv[1], json.loads(argv[2])
    runner = {"report": run_report, "watch": run_watch,
              "reference": run_reference}[mode]
    calibrator = Calibrator().start()
    result = runner(args)
    calibrator.stop()
    result["calibration"] = calibrator.as_dict()
    tracer = result.pop("tracer", None)
    if tracer is not None and args.get("spans_out"):
        tracer.write(args["spans_out"])
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
