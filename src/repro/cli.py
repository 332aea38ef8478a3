"""Command-line toolkit: ``bps`` (or ``python -m repro``).

Subcommands:

- ``analyze`` — compute BPS/IOPS/BW/ARPT from a recorded trace file
  (CSV, JSONL, blkparse text, or fio JSON) — the paper's promised
  easy-to-use toolkit.
- ``figures`` — regenerate a paper figure/table by its id in
  :data:`repro.experiments.figures.FIGURES` (``bps figures --list``).
- ``experiments`` — list the Table 2 experiment registry.
- ``simulate`` — run one workload on one simulated platform and print
  its metric set.
- ``watch`` — stream a trace through the live metrics engine
  (:mod:`repro.live`): per-window BPS as records "complete", anomaly
  flags, optional JSONL / Prometheus telemetry sinks; ``--attribute``
  adds ranked root-cause suspects to every flag.
- ``diagnose`` — post-hoc root-cause attribution over a recorded
  trace (:mod:`repro.diagnose`): same detector and attributor as
  ``watch --attribute``, rendered as a report.
- ``serve`` — the always-on multi-tenant daemon (:mod:`repro.serve`):
  concurrent JSONL trace streams over TCP / unix socket / HTTP, one
  isolated metric stream per tenant, budgets with load shedding, one
  aggregated Prometheus scrape plus a JSON query API.
- ``grid-worker`` — one host's sweep worker daemon for distributed
  sweeps (``bps sweep --grid-workers``; :mod:`repro.exec.gridworker`).
- ``chaos`` — the network-chaos invariant runner (:mod:`repro.chaos`):
  real daemons behind a seeded fault-injecting proxy, results required
  bit-identical to the undisturbed paths.
- ``chaos-proxy`` — the seeded TCP interposer on its own, for putting
  chaos in front of any dispatcher/daemon pair by hand.

``analyze``, ``replay``, and ``watch`` accept ``-`` as the trace path
to read JSONL records from standard input.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.metrics import MetricSet, compute_metrics
from repro.errors import ReproError, SalvageError
from repro.experiments.figures import FIGURES
from repro.experiments.registry import SWEEPS
from repro.trace_io import ErrorPolicy, TRACE_READERS, read_trace
from repro.util.tables import TextTable
from repro.util.units import format_rate, format_seconds, parse_size


def _render_metrics(metrics: MetricSet) -> str:
    table = TextTable(["metric", "value"])
    table.add_row(["BPS (blocks/s)", f"{metrics.bps:,.1f}"])
    table.add_row(["IOPS (ops/s)", f"{metrics.iops:,.1f}"])
    table.add_row(["bandwidth", format_rate(metrics.bandwidth)])
    table.add_row(["ARPT", format_seconds(metrics.arpt)])
    table.add_row(["union I/O time", format_seconds(metrics.union_io_time)])
    table.add_row(["execution time", format_seconds(metrics.exec_time)])
    table.add_row(["application ops", f"{metrics.app_ops:,}"])
    table.add_row(["application blocks (B)", f"{metrics.app_blocks:,}"])
    table.add_row(["fs bytes moved", f"{metrics.fs_bytes:,}"])
    table.add_row(["fs amplification", f"{metrics.fs_amplification:.3f}x"])
    return table.render()


def _error_policy(args: argparse.Namespace) -> ErrorPolicy | None:
    """Build the trace-ingestion error policy from CLI flags."""
    if getattr(args, "on_error", "strict") == "strict":
        return None
    return ErrorPolicy(
        "salvage",
        max_error_ratio=args.max_error_ratio,
        quarantine_path=args.quarantine or None,
    )


def _print_salvage_report(policy: ErrorPolicy | None) -> None:
    report = policy.report if policy is not None else None
    if report is None or not report.entries:
        return
    print(report.summary())
    if policy.quarantine_path:
        print(f"quarantined lines written to {policy.quarantine_path}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    policy = _error_policy(args)
    trace = read_trace(args.trace, fmt=args.format, errors=policy)
    _print_salvage_report(policy)
    first, last = trace.span()
    exec_time = args.exec_time if args.exec_time else (last - first)
    metrics = compute_metrics(trace, exec_time=exec_time,
                              block_size=args.block_size)
    print(f"trace: {args.trace} ({len(trace)} records, "
          f"{len(trace.pids())} processes)")
    print(_render_metrics(metrics))
    if args.bins:
        from repro.core.timeline import binned_bps
        edges, values = binned_bps(trace, bins=args.bins,
                                   block_size=args.block_size)
        print("\nBPS over time:")
        table = TextTable(["window", "BPS (blocks/s)"])
        for index, value in enumerate(values):
            table.add_row([
                f"[{edges[index]:.6g}, {edges[index + 1]:.6g})",
                f"{value:,.0f}",
            ])
        print(table.render())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.list or not args.figure_id:
        table = TextTable(["id", "title", "paper expectation"])
        for spec in FIGURES.values():
            table.add_row([spec.figure_id, spec.title,
                           spec.paper_expectation])
        print(table.render())
        return 0
    from repro.experiments.figures import regenerate
    from repro.experiments.runner import ExperimentScale
    scale = ExperimentScale(factor=args.scale, repetitions=args.reps)
    print(regenerate(args.figure_id, scale))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    traces = {}
    for path in (args.trace_a, args.trace_b):
        # One policy per file so each quarantine report stays scoped.
        policy = _error_policy(args)
        traces[path] = read_trace(path, fmt=args.format, errors=policy)
        _print_salvage_report(policy)
    metrics = {}
    for path, trace in traces.items():
        first, last = trace.span()
        metrics[path] = compute_metrics(trace, exec_time=last - first,
                                        block_size=args.block_size)
    a, b = metrics[args.trace_a], metrics[args.trace_b]
    table = TextTable(["metric", "A", "B", "B/A"])

    def row(name, va, vb, render=lambda v: f"{v:,.1f}"):
        ratio = vb / va if va else float("inf")
        table.add_row([name, render(va), render(vb), f"{ratio:.3f}x"])

    row("BPS (blocks/s)", a.bps, b.bps)
    row("IOPS", a.iops, b.iops)
    row("bandwidth", a.bandwidth, b.bandwidth, format_rate)
    row("ARPT", a.arpt, b.arpt, format_seconds)
    row("union I/O time", a.union_io_time, b.union_io_time,
        format_seconds)
    row("execution time", a.exec_time, b.exec_time, format_seconds)
    print(f"A = {args.trace_a} ({len(traces[args.trace_a])} records)")
    print(f"B = {args.trace_b} ({len(traces[args.trace_b])} records)")
    print(table.render())
    faster = "B" if b.exec_time < a.exec_time else "A"
    print(f"\noverall: {faster} completed its I/O faster; BPS agrees: "
          f"{'yes' if (b.bps > a.bps) == (faster == 'B') else 'NO'}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.core.timeline import (
        overlap_surplus,
        per_process_breakdown,
        render_gantt,
    )
    policy = _error_policy(args)
    trace = read_trace(args.trace, fmt=args.format, errors=policy)
    _print_salvage_report(policy)
    print(render_gantt(trace, width=args.width))
    print()
    table = TextTable(["pid", "ops", "blocks", "union T",
                       "BPS (blocks/s)", "mean response"])
    for summary in per_process_breakdown(trace):
        table.add_row([
            summary.pid, summary.ops, f"{summary.blocks:,}",
            format_seconds(summary.union_time),
            f"{summary.bps:,.0f}",
            format_seconds(summary.mean_response),
        ])
    print(table.render())
    print(f"\ncross-process overlap surplus: "
          f"{format_seconds(overlap_surplus(trace))} "
          f"(per-process T summed minus global union T)")
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENT_SETS
    table = TextTable(["set", "knob", "paper tool", "figures",
                       "misleading metrics"])
    for spec in EXPERIMENT_SETS.values():
        table.add_row([
            spec.set_id, spec.knob, spec.paper_tool,
            ",".join(spec.figures),
            ",".join(spec.expected_misleading) or "(none)",
        ])
    print(table.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentScale
    if args.smoke:
        scale = ExperimentScale(factor=min(args.scale, 0.25),
                                repetitions=min(args.reps, 2))
    else:
        scale = ExperimentScale(factor=args.scale, repetitions=args.reps)
    run_kwargs = {}
    checkpoint = args.checkpoint
    if args.resume and not checkpoint:
        checkpoint = f".bps-sweep-{args.sweep}.ckpt.jsonl"
    if checkpoint:
        # --checkpoint alone journals a fresh run; --resume picks up
        # any completed jobs already recorded there.
        run_kwargs["checkpoint"] = checkpoint
        run_kwargs["resume"] = args.resume
    if args.job_timeout is not None:
        from repro.exec import SupervisorPolicy
        run_kwargs["policy"] = SupervisorPolicy(
            job_timeout=args.job_timeout)
    if args.grid_workers:
        run_kwargs["grid_workers"] = args.grid_workers
    if args.worker_heartbeat is not None:
        run_kwargs["grid_heartbeat"] = args.worker_heartbeat
    if args.worker_liveness is not None:
        run_kwargs["grid_liveness"] = args.worker_liveness
    sweep = SWEEPS[args.sweep](scale, **run_kwargs)
    supervision = getattr(sweep, "supervision", None)
    if supervision is not None and (
            supervision.crashes or supervision.timeouts or
            supervision.job_errors or supervision.serial_fallback):
        print(f"supervision: {supervision.summary()}")
        print()
    if checkpoint:
        print(f"checkpoint journal: {checkpoint}")
        print()
    print(sweep.render_cc_figure(f"{args.sweep} — normalized CC"))
    print()
    if args.ci:
        print(sweep.render_cc_table_with_ci())
    else:
        print(sweep.render_cc_table())
    if args.detail:
        print()
        print(sweep.render_detail(["IOPS", "BW", "ARPT", "BPS",
                                   "exec_time"]))
    if args.jackknife:
        from repro.core.sensitivity import sweep_direction_robust
        print()
        table = TextTable(["metric", "direction robust to any "
                                     "single point's removal?"])
        for metric in ("IOPS", "BW", "ARPT", "BPS"):
            robust = sweep_direction_robust(sweep, metric)
            table.add_row([metric, "yes" if robust else "NO"])
        print(table.render())
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(sweep.to_csv())
        print(f"\nwrote per-point series to {args.csv}")
    return 0


def _cmd_grid_worker(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.exec import serve_grid_worker
    # SIGTERM unwinds like Ctrl-C, so a running cell's job child is
    # killed on the way out instead of orphaned.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    token = args.token or os.environ.get("REPRO_GRID_TOKEN") or None
    return serve_grid_worker(
        args.listen,
        token=token,
        once=args.once,
        exit_after_jobs=args.exit_after_jobs,
        heartbeat=args.heartbeat,
        liveness=args.liveness,
    )


def _load_schedule(args: argparse.Namespace, mode: str):
    """Build the chaos schedule a chaos subcommand was asked for."""
    import json as _json

    from repro.chaos import random_chaos_schedule, schedule_from_dict
    from repro.util.rng import RngStream
    if getattr(args, "schedule", ""):
        with open(args.schedule) as handle:
            return schedule_from_dict(_json.load(handle))
    return random_chaos_schedule(
        RngStream.from_seed(args.seed, "chaos-cli"),
        mode=mode, severity=args.severity,
        partitions=args.partitions, resets=args.resets)


def _cmd_chaos_proxy(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.chaos import ChaosProxy, schedule_to_dict
    schedule = _load_schedule(args, args.mode)
    proxy = ChaosProxy(args.upstream, schedule, listen=args.listen)
    host, port = proxy.start()
    print(f"chaos-proxy listening on {host}:{port} -> {args.upstream}",
          flush=True)
    print(schedule.describe(), flush=True)
    try:
        while True:
            _time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        print(_json.dumps({"schedule": schedule_to_dict(schedule),
                           "stats": proxy.stats()}, sort_keys=True))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from repro.chaos import random_chaos_schedule, run_chaos
    from repro.experiments.runner import ExperimentScale
    from repro.util.rng import RngStream
    checks = ("grid", "serve") if args.check == "all" else (args.check,)
    scale = ExperimentScale(factor=args.scale, repetitions=args.reps)
    grid_schedule = serve_schedule = None
    if args.schedule:
        # An explicit schedule applies to the check matching its mode;
        # the other check (if also selected) keeps its built-in mix.
        loaded = _load_schedule(args, "frames")
        if loaded.mode == "frames":
            grid_schedule = loaded
        else:
            serve_schedule = loaded
    elif (args.severity != 1.0 or args.partitions != 1
            or args.resets != 1):
        rng = RngStream.from_seed(args.seed, "chaos-cli")
        grid_schedule = random_chaos_schedule(
            rng, mode="frames", severity=args.severity,
            partitions=args.partitions, resets=args.resets)
        serve_schedule = random_chaos_schedule(
            rng, mode="lines", severity=args.severity,
            partitions=args.partitions, resets=args.resets)
    report = run_chaos(
        seed=args.seed, checks=checks, workers=args.workers,
        scale=scale, records=args.records, timeout=args.timeout,
        grid_schedule=grid_schedule, serve_schedule=serve_schedule)
    text = _json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote chaos report to {args.json}", file=sys.stderr)
    for check in report["checks"]:
        verdict = "identical" if check["passed"] else "DIVERGED"
        print(f"chaos {check['check']}: {verdict}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.system import SystemConfig
    from repro.workloads import HpioWorkload, IORWorkload, IOzoneWorkload
    config = SystemConfig(
        kind=args.kind,
        device_spec=args.device,
        n_servers=args.servers,
        seed=args.seed,
    )
    if args.workload == "iozone":
        workload = IOzoneWorkload(
            file_size=parse_size(args.size),
            record_size=parse_size(args.record),
            nproc=args.nproc,
            mode="sequential" if args.nproc == 1 else "throughput",
        )
    elif args.workload == "ior":
        workload = IORWorkload(
            file_size=parse_size(args.size),
            transfer_size=parse_size(args.record),
            nproc=args.nproc,
        )
    else:
        workload = HpioWorkload(
            region_count=args.regions,
            region_spacing=parse_size(args.record),
            nproc=args.nproc,
        )
    measurement = workload.run(config)
    print(f"workload: {measurement.label} on {args.kind}/{args.device}")
    print(_render_metrics(measurement.metrics(block_size=args.block_size)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report
    from repro.experiments.runner import ExperimentScale
    scale = ExperimentScale(factor=args.scale, repetitions=args.reps)
    text = generate_report(scale)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.system import SystemConfig
    from repro.workloads.replay_trace import TraceReplayWorkload
    policy = _error_policy(args)
    trace = read_trace(args.trace, fmt=args.format, errors=policy)
    _print_salvage_report(policy)
    first, last = trace.span()
    original = compute_metrics(trace, exec_time=last - first,
                               block_size=args.block_size)
    config = SystemConfig(kind=args.kind, device_spec=args.device,
                          n_servers=args.servers, seed=args.seed)
    workload = TraceReplayWorkload(trace=trace, mode=args.mode)
    measurement = workload.run(config)
    replayed = measurement.metrics(block_size=args.block_size)
    table = TextTable(["metric", "original", f"replayed on {args.device}"])
    table.add_row(["BPS (blocks/s)", f"{original.bps:,.0f}",
                   f"{replayed.bps:,.0f}"])
    table.add_row(["IOPS", f"{original.iops:,.1f}",
                   f"{replayed.iops:,.1f}"])
    table.add_row(["ARPT", format_seconds(original.arpt),
                   format_seconds(replayed.arpt)])
    table.add_row(["union I/O time",
                   format_seconds(original.union_io_time),
                   format_seconds(replayed.union_io_time)])
    table.add_row(["execution time",
                   format_seconds(original.exec_time),
                   format_seconds(replayed.exec_time)])
    print(f"replayed {len(trace)} records ({args.mode} mode) on "
          f"{args.kind}/{args.device}")
    print(table.render())
    speedup = original.exec_time / replayed.exec_time
    print(f"\nprojected speedup on the simulated platform: "
          f"{speedup:.2f}x")
    return 0


def _parse_speed(value: str) -> float | None:
    """``--speed`` argument: a positive factor or ``max`` (no pacing)."""
    if value == "max":
        return None
    try:
        speed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"speed must be a positive number or 'max', got {value!r}")
    if speed <= 0:
        raise argparse.ArgumentTypeError(
            f"speed must be > 0, got {value}")
    return speed


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.live import (
        BpsAnomalyDetector,
        JsonlSink,
        PrometheusSink,
        apply_sink_policy,
        watch_trace,
    )
    policy = _error_policy(args)
    try:
        trace = read_trace(args.trace, fmt=args.format, errors=policy)
    except SalvageError as exc:
        # Salvage budget exhausted mid-stream: the quarantine summary
        # is the diagnosis, so print it before bowing out non-zero.
        _print_salvage_report(policy)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_salvage_report(policy)
    # Wrap here (not just inside watch_trace) so the summary lines
    # below can tell a healthy sink from one that dropped everything.
    named_sinks = {}
    if args.jsonl_out:
        named_sinks["jsonl_out"] = JsonlSink(args.jsonl_out)
    if args.prom_out:
        named_sinks["prom_out"] = PrometheusSink(args.prom_out)
    named_sinks = {
        name: apply_sink_policy([sink], args.sink_errors,
                                args.sink_max_failures)[0]
        for name, sink in named_sinks.items()}
    sinks = list(named_sinks.values())
    detector = None
    if not args.no_detector:
        detector = BpsAnomalyDetector(drop_factor=args.drop_factor,
                                      history=args.baseline_history)
    attribute = getattr(args, "attribute", False)
    server_of = None
    if attribute and args.servers:
        from repro.diagnose import stripe_server_of
        server_of = stripe_server_of(args.servers,
                                     parse_size(args.stripe_size))
    if attribute and args.no_detector:
        print("error: --attribute needs the anomaly detector "
              "(drop --no-detector)", file=sys.stderr)
        return 2

    table = TextTable(["window", "ops", "BPS (blocks/s)", "bandwidth",
                       "flag"])

    def on_event(event: dict) -> None:
        if event["type"] == "anomaly":
            # Anomaly events follow their window's row; mark them on a
            # row of their own so the stream stays append-only.
            table.add_row([
                f"[{event['t0']:.6g}, {event['t1']:.6g})", "", "", "",
                f"! BPS {event['bps']:,.0f} vs baseline "
                f"{event['baseline']:,.0f}",
            ])
            for suspect in event.get("suspects", ()):
                table.add_row([
                    "", "", "", "",
                    f"  -> {suspect['kind']} {suspect['target']}: "
                    f"{suspect['evidence']}",
                ])
            return
        table.add_row([
            f"[{event['t0']:.6g}, {event['t1']:.6g})",
            f"{event['ops']:,}",
            f"{event['bps']:,.0f}",
            format_rate(event["bandwidth"]),
            "",
        ])

    result = watch_trace(
        trace,
        window=args.window,
        bins=args.bins,
        block_size=args.block_size,
        speed=args.speed,
        sinks=sinks,
        sink_errors=args.sink_errors,
        sink_max_failures=args.sink_max_failures,
        detector=detector,
        attribute=attribute,
        server_of=server_of,
        exec_time=args.exec_time,
        on_window=on_event,
    )
    print(f"watched: {args.trace} ({len(trace)} records, "
          f"{len(result.windows)} windows, "
          f"{len(result.anomalies)} anomalies)")
    print(table.render())
    print("\ncumulative (streamed):")
    print(_render_metrics(result.metrics))
    for anomaly in result.anomalies:
        print(f"anomaly: window [{anomaly.window_start:.6g}, "
              f"{anomaly.window_end:.6g}) BPS {anomaly.bps:,.0f} vs "
              f"baseline {anomaly.baseline:,.0f} "
              f"({anomaly.severity:.1f}x drop)")
        for suspect in anomaly.suspects:
            print(f"  suspect: {suspect.kind} {suspect.target} "
                  f"(score {suspect.score:.1f}) — {suspect.evidence}")
    def sink_status(name: str, wrote: str) -> None:
        sink = named_sinks[name]
        dropped = getattr(sink, "dropped_events", 0)
        if not dropped:
            print(f"{wrote} {getattr(args, name)}")
        else:
            state = "disabled" if getattr(sink, "disabled", False) \
                else "failing"
            print(f"sink {getattr(args, name)}: {state}, "
                  f"{dropped} event(s) dropped")

    if args.jsonl_out:
        sink_status("jsonl_out", "wrote event stream to")
    if args.prom_out:
        sink_status("prom_out", "wrote Prometheus exposition to")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    import json

    from repro.diagnose import diagnose_trace, stripe_server_of
    from repro.live import BpsAnomalyDetector

    policy = _error_policy(args)
    try:
        trace = read_trace(args.trace, fmt=args.format, errors=policy)
    except SalvageError as exc:
        _print_salvage_report(policy)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_salvage_report(policy)
    detector = BpsAnomalyDetector(drop_factor=args.drop_factor,
                                  history=args.baseline_history)
    server_of = None
    if args.servers:
        server_of = stripe_server_of(args.servers,
                                     parse_size(args.stripe_size))
    diagnosis = diagnose_trace(
        trace,
        window=args.window,
        bins=args.bins,
        origin=args.origin,
        block_size=args.block_size,
        detector=detector,
        server_of=server_of,
    )
    if args.json:
        print(json.dumps(diagnosis.as_dict(), sort_keys=True))
        return 0
    result = diagnosis.result
    print(f"diagnosed: {args.trace} ({len(trace)} records, "
          f"{len(result.windows)} windows, "
          f"{len(result.anomalies)} anomalies)")
    if not result.anomalies:
        print("no anomalies — nothing to attribute")
        return 0
    for anomaly in result.anomalies:
        drop = "stalled" if anomaly.bps == 0 \
            else f"{anomaly.severity:.1f}x drop"
        print(f"anomaly: window [{anomaly.window_start:.6g}, "
              f"{anomaly.window_end:.6g}) BPS {anomaly.bps:,.0f} vs "
              f"baseline {anomaly.baseline:,.0f} ({drop})")
        for suspect in anomaly.suspects:
            print(f"  suspect: {suspect.kind} {suspect.target} "
                  f"(score {suspect.score:.1f}) — {suspect.evidence}")
    top = diagnosis.top_suspect
    if top is None:
        print("\nno suspects survived the baseline diff "
              "(warm-up window, or the drop has no concentrated cause)")
    else:
        print(f"\ntop suspect: {top.kind} {top.target} — {top.evidence}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        BpsServer,
        ServeConfig,
        TenantBudget,
        run_server,
    )
    tcp, unix, http = args.tcp, args.unix, args.http
    if not (tcp or unix or http):
        tcp = "127.0.0.1:4040"
    max_bytes = parse_size(args.max_bytes_per_sec) \
        if args.max_bytes_per_sec else None
    budget = TenantBudget(
        max_bytes_per_sec=max_bytes,
        max_records_per_sec=args.max_records_per_sec or None,
        burst_seconds=args.burst_seconds,
        shed_factor=args.shed_factor,
        evict_after_sheds=args.evict_after_sheds or None,
    )
    config = ServeConfig(
        window=args.window,
        block_size=args.block_size,
        budget=budget,
        error_mode=args.on_error,
        max_error_ratio=args.max_error_ratio,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        max_tenants=args.max_tenants,
        out_dir=args.out_dir or None,
        prom_out=args.prom_out or None,
        sink_errors=args.sink_errors,
        drop_factor=0.0 if args.no_detector else args.drop_factor,
        baseline_history=args.baseline_history,
        attribute=args.attribute,
        write_timeout=args.write_timeout,
        **({"max_body_bytes": parse_size(args.max_body_bytes)}
           if args.max_body_bytes else {}),
    )
    server = BpsServer(config, tcp=tcp or None, unix=unix or None,
                       http=http or None)
    return run_server(server)


def _add_trace_error_options(parser: argparse.ArgumentParser) -> None:
    """Shared ingestion-policy flags for trace-reading subcommands."""
    parser.add_argument("--on-error", choices=("strict", "salvage"),
                        default="strict",
                        help="'strict' fails on the first malformed "
                             "record; 'salvage' quarantines bad lines, "
                             "keeps the healthy ones, and reports what "
                             "was dropped")
    parser.add_argument("--max-error-ratio", type=float, default=0.25,
                        help="salvage gives up (exit 1) when more than "
                             "this fraction of lines is bad "
                             "(default 0.25)")
    parser.add_argument("--quarantine", default="",
                        help="salvage: also copy rejected lines to "
                             "this file for offline inspection")


def build_parser() -> argparse.ArgumentParser:
    """The toolkit's argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="bps",
        description="BPS I/O metric toolkit (IPDPSW'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="compute metrics from a recorded trace file")
    analyze.add_argument("trace",
                         help="path to the trace file, or - for stdin "
                              "(jsonl)")
    analyze.add_argument("--format", choices=sorted(TRACE_READERS),
                         help="trace format (default: guess from suffix)")
    analyze.add_argument("--block-size", type=int, default=512,
                         help="BPS block unit in bytes (default 512)")
    analyze.add_argument("--exec-time", type=float, default=None,
                         help="application execution time in seconds "
                              "(default: trace span)")
    analyze.add_argument("--bins", type=int, default=0,
                         help="also print BPS over time in N windows")
    _add_trace_error_options(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    figures = sub.add_parser(
        "figures", help="regenerate a paper figure or table")
    figures.add_argument("figure_id", nargs="?", default="",
                         help=", ".join(FIGURES))
    figures.add_argument("--list", action="store_true",
                         help="list available artifacts")
    figures.add_argument("--scale", type=float, default=1.0,
                         help="data-size scale factor (default 1.0)")
    figures.add_argument("--reps", type=int, default=5,
                         help="repetitions per sweep point (default 5)")
    figures.set_defaults(func=_cmd_figures)

    experiments = sub.add_parser(
        "experiments", help="list the Table 2 experiment registry")
    experiments.set_defaults(func=_cmd_experiments)

    compare = sub.add_parser(
        "compare", help="A/B comparison of two recorded traces")
    compare.add_argument("trace_a")
    compare.add_argument("trace_b")
    compare.add_argument("--format", choices=sorted(TRACE_READERS),
                         help="trace format for both (default: guess)")
    compare.add_argument("--block-size", type=int, default=512)
    _add_trace_error_options(compare)
    compare.set_defaults(func=_cmd_compare)

    gantt = sub.add_parser(
        "gantt", help="timeline view of a trace: per-process Gantt "
                      "chart, breakdowns, overlap surplus")
    gantt.add_argument("trace", help="path to the trace file")
    gantt.add_argument("--format", choices=sorted(TRACE_READERS),
                       help="trace format (default: guess from suffix)")
    gantt.add_argument("--width", type=int, default=72,
                       help="chart width in characters")
    _add_trace_error_options(gantt)
    gantt.set_defaults(func=_cmd_gantt)

    sweep = sub.add_parser(
        "sweep", help="run one experiment sweep and print its CC table")
    sweep.add_argument("sweep", choices=sorted(SWEEPS))
    sweep.add_argument("--scale", type=float, default=1.0,
                       help="data-size scale factor (default 1.0)")
    sweep.add_argument("--reps", type=int, default=5,
                       help="repetitions per point (default 5)")
    sweep.add_argument("--ci", action="store_true",
                       help="add Fisher confidence intervals")
    sweep.add_argument("--detail", action="store_true",
                       help="also print the per-point metric series")
    sweep.add_argument("--csv", default="",
                       help="write the per-point series to this CSV file")
    sweep.add_argument("--jackknife", action="store_true",
                       help="check each direction's robustness to "
                            "single-point removal")
    sweep.add_argument("--smoke", action="store_true",
                       help="CI-sized run: caps scale at 0.25 and "
                            "repetitions at 2")
    sweep.add_argument("--checkpoint", default="",
                       help="journal completed jobs to this file "
                            "(crash-safe JSONL; enables --resume)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip jobs already completed in the "
                            "checkpoint journal (default journal: "
                            ".bps-sweep-<name>.ckpt.jsonl)")
    sweep.add_argument("--job-timeout", type=float, default=None,
                       help="kill and retry any sweep job running "
                            "longer than this many seconds")
    sweep.add_argument("--grid-workers", default="", metavar="ADDRS",
                       help="dispatch the sweep's cells to these bps "
                            "grid-worker daemons (comma-separated "
                            "host:port list) instead of the local "
                            "fork pool")
    sweep.add_argument("--worker-heartbeat", type=float, default=None,
                       metavar="SECONDS",
                       help="socket backend: ping a silent worker "
                            "after this long (env "
                            "REPRO_GRID_HEARTBEAT; default 2.0; "
                            "non-positive values are clamped with a "
                            "warning)")
    sweep.add_argument("--worker-liveness", type=float, default=None,
                       metavar="SECONDS",
                       help="socket backend: declare an unresponsive "
                            "worker dead and requeue its cell after "
                            "this long (env REPRO_GRID_LIVENESS; "
                            "default 10.0; clamped to > heartbeat "
                            "with a warning)")
    sweep.set_defaults(func=_cmd_sweep)

    grid_worker = sub.add_parser(
        "grid-worker", help="run one host's sweep worker daemon for "
                            "distributed sweeps (bps sweep "
                            "--grid-workers)")
    grid_worker.add_argument("--listen", default="127.0.0.1:0",
                             metavar="HOST:PORT",
                             help="TCP listen address; port 0 binds an "
                                  "ephemeral port (printed on the "
                                  "first output line; default "
                                  "127.0.0.1:0)")
    grid_worker.add_argument("--token", default="",
                             help="shared auth token dispatchers must "
                                  "present (default: REPRO_GRID_TOKEN "
                                  "env var). The wire protocol is "
                                  "pickle: trusted networks only")
    grid_worker.add_argument("--once", action="store_true",
                             help="exit after the first dispatcher "
                                  "session")
    grid_worker.add_argument("--exit-after-jobs", type=int, default=0,
                             metavar="N",
                             help="exit after completing N cells "
                                  "(chaos/rolling-restart testing)")
    grid_worker.add_argument("--heartbeat", type=float, default=None,
                             metavar="SECONDS",
                             help="ping a silent dispatcher after "
                                  "this long (env "
                                  "REPRO_GRID_HEARTBEAT; default 2.0)")
    grid_worker.add_argument("--liveness", type=float, default=None,
                             metavar="SECONDS",
                             help="drop a session whose dispatcher "
                                  "stays unresponsive this long — the "
                                  "half-open-connection guard (env "
                                  "REPRO_GRID_LIVENESS; default 10.0)")
    grid_worker.set_defaults(func=_cmd_grid_worker)

    simulate = sub.add_parser(
        "simulate", help="run one workload on a simulated platform")
    simulate.add_argument("--workload",
                          choices=("iozone", "ior", "hpio"),
                          default="iozone")
    simulate.add_argument("--kind", choices=("local", "pfs"),
                          default="local")
    simulate.add_argument("--device", default="sata-hdd-7200",
                          help="device spec name (see repro.devices)")
    simulate.add_argument("--servers", type=int, default=4,
                          help="PFS server count")
    simulate.add_argument("--size", default="16MiB",
                          help="total data size (e.g. 64MiB)")
    simulate.add_argument("--record", default="64KiB",
                          help="record/transfer size, or region spacing "
                               "for hpio")
    simulate.add_argument("--regions", type=int, default=1024,
                          help="hpio region count")
    simulate.add_argument("--nproc", type=int, default=1)
    simulate.add_argument("--block-size", type=int, default=512)
    simulate.add_argument("--seed", type=int, default=12345)
    simulate.set_defaults(func=_cmd_simulate)

    report = sub.add_parser(
        "report", help="run every artifact and write a full "
                       "reproduction report (each sweep runs once)")
    report.add_argument("--out", default="",
                        help="write Markdown here (default: stdout)")
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument("--reps", type=int, default=5)
    report.set_defaults(func=_cmd_report)

    replay = sub.add_parser(
        "replay", help="replay a recorded trace on a simulated "
                       "platform (what-if analysis)")
    replay.add_argument("trace",
                        help="path to the trace file, or - for stdin "
                             "(jsonl)")
    replay.add_argument("--format", choices=sorted(TRACE_READERS),
                        help="trace format (default: guess from suffix)")
    replay.add_argument("--kind", choices=("local", "pfs"),
                        default="local")
    replay.add_argument("--device", default="sata-hdd-7200")
    replay.add_argument("--servers", type=int, default=4)
    replay.add_argument("--mode", choices=("timed", "asap"),
                        default="timed",
                        help="'timed' keeps original think gaps; "
                             "'asap' drops them")
    replay.add_argument("--block-size", type=int, default=512)
    replay.add_argument("--seed", type=int, default=12345)
    _add_trace_error_options(replay)
    replay.set_defaults(func=_cmd_replay)

    watch = sub.add_parser(
        "watch", help="stream a trace through the live metrics engine "
                      "(windowed BPS, anomaly flags, telemetry sinks)")
    watch.add_argument("trace",
                       help="path to the trace file, or - for stdin "
                            "(jsonl)")
    watch.add_argument("--format", choices=sorted(TRACE_READERS),
                       help="trace format (default: guess from suffix; "
                            "jsonl for stdin)")
    watch.add_argument("--window", type=float, default=None,
                       help="metric window width in trace seconds "
                            "(default: span / --bins)")
    watch.add_argument("--bins", type=int, default=20,
                       help="window count when --window is not given "
                            "(default 20)")
    watch.add_argument("--speed", type=_parse_speed, default=None,
                       metavar="FACTOR|max",
                       help="pacing: 1 = real time, 10 = 10x faster, "
                            "max = no pacing (default max)")
    watch.add_argument("--block-size", type=int, default=512,
                       help="BPS block unit in bytes (default 512)")
    watch.add_argument("--exec-time", type=float, default=None,
                       help="application execution time in seconds "
                            "(default: trace span)")
    watch.add_argument("--jsonl-out", default="",
                       help="also write every stream event to this "
                            "JSONL file")
    watch.add_argument("--prom-out", default="",
                       help="maintain a Prometheus text exposition "
                            "file at this path")
    watch.add_argument("--no-detector", action="store_true",
                       help="disable the BPS anomaly detector")
    watch.add_argument("--drop-factor", type=float, default=3.0,
                       help="flag windows whose BPS falls below "
                            "baseline/FACTOR (default 3.0)")
    watch.add_argument("--baseline-history", type=int, default=8,
                       help="rolling-baseline window count (default 8)")
    watch.add_argument("--sink-errors",
                       choices=("raise", "warn", "disable"),
                       default="warn",
                       help="telemetry sink failure policy: 'raise' "
                            "aborts the watch, 'warn' drops the "
                            "event, 'disable' turns a sink off after "
                            "repeated failures (default warn)")
    watch.add_argument("--sink-max-failures", type=int, default=5,
                       help="consecutive failures before 'disable' "
                            "turns a sink off (default 5)")
    watch.add_argument("--attribute", action="store_true",
                       help="diff each flagged window's trace graph "
                            "against a rolling healthy baseline and "
                            "print ranked root-cause suspects")
    watch.add_argument("--servers", type=int, default=0,
                       help="with --attribute: server count for "
                            "stripe-based offset -> server attribution "
                            "(0 = no server-level suspects)")
    watch.add_argument("--stripe-size", default="64KiB",
                       help="with --servers: stripe width for server "
                            "attribution (default 64KiB)")
    _add_trace_error_options(watch)
    watch.set_defaults(func=_cmd_watch)

    diagnose = sub.add_parser(
        "diagnose", help="post-hoc root-cause attribution: find the "
                         "flagged BPS windows in a recorded trace and "
                         "rank typed suspects with evidence")
    diagnose.add_argument("trace",
                          help="trace file to diagnose ('-' = stdin "
                               "JSONL)")
    diagnose.add_argument("--format", choices=sorted(TRACE_READERS),
                          default=None,
                          help="trace format (default: sniff from "
                               "extension/content)")
    diagnose.add_argument("--window", type=float, default=None,
                          help="metric window width in trace seconds "
                               "(default: span / --bins)")
    diagnose.add_argument("--bins", type=int, default=20,
                          help="derive the window as span/bins when "
                               "--window is not given (default 20)")
    diagnose.add_argument("--origin", type=float, default=None,
                          help="trace time anchoring window 0 "
                               "(default: first record start)")
    diagnose.add_argument("--block-size", type=int, default=512,
                          help="BPS block unit in bytes (default 512)")
    diagnose.add_argument("--drop-factor", type=float, default=3.0,
                          help="flag a window when baseline/BPS "
                               "exceeds this (default 3.0)")
    diagnose.add_argument("--baseline-history", type=int, default=8,
                          help="rolling-baseline window count "
                               "(default 8)")
    diagnose.add_argument("--servers", type=int, default=0,
                          help="server count for stripe-based offset "
                               "-> server attribution (0 = pid/op "
                               "suspects only)")
    diagnose.add_argument("--stripe-size", default="64KiB",
                          help="stripe width for server attribution "
                               "(default 64KiB)")
    diagnose.add_argument("--json", action="store_true",
                          help="emit the full report as one JSON "
                               "object instead of text")
    _add_trace_error_options(diagnose)
    diagnose.set_defaults(func=_cmd_diagnose)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant streaming daemon: "
                      "concurrent JSONL trace streams in, one "
                      "aggregated Prometheus scrape + JSON API out")
    serve.add_argument("--tcp", default="", metavar="HOST:PORT",
                       help="JSONL stream listener (default "
                            "127.0.0.1:4040 when no listener is given; "
                            "port 0 = ephemeral)")
    serve.add_argument("--unix", default="", metavar="PATH",
                       help="JSONL stream listener on a unix socket")
    serve.add_argument("--http", default="", metavar="HOST:PORT",
                       help="HTTP listener: GET /metrics (Prometheus), "
                            "GET /tenants[/NAME] (JSON), GET "
                            "/tenants/NAME/anomalies, POST "
                            "/ingest/NAME, POST /tenants/NAME/end")
    serve.add_argument("--window", type=float, default=1.0,
                       help="metric window width in trace seconds "
                            "(default 1.0)")
    serve.add_argument("--block-size", type=int, default=512,
                       help="BPS block unit in bytes (default 512)")
    serve.add_argument("--max-bytes-per-sec", default="",
                       metavar="SIZE",
                       help="per-tenant ingest budget in trace bytes/s "
                            "(accepts 64MiB-style suffixes; default "
                            "unlimited)")
    serve.add_argument("--max-records-per-sec", type=float, default=0,
                       help="per-tenant ingest budget in records/s "
                            "(default unlimited)")
    serve.add_argument("--burst-seconds", type=float, default=1.0,
                       help="token-bucket depth in seconds of budget "
                            "(default 1.0)")
    serve.add_argument("--shed-factor", type=float, default=4.0,
                       help="shed (drop-with-accounting) once throttle "
                            "arrears exceed this many bucket depths "
                            "(default 4.0)")
    serve.add_argument("--evict-after-sheds", type=int, default=0,
                       help="evict a tenant after this many shed "
                            "records (0 = never)")
    serve.add_argument("--idle-timeout", type=float, default=300.0,
                       help="evict tenants idle this many seconds, "
                            "flushing a final snapshot (0 = never; "
                            "default 300)")
    serve.add_argument("--max-tenants", type=int, default=1024,
                       help="refuse new tenants past this many active "
                            "(default 1024)")
    serve.add_argument("--out-dir", default="",
                       help="write per-tenant JSONL event files here")
    serve.add_argument("--prom-out", default="",
                       help="also maintain the aggregated Prometheus "
                            "exposition as a textfile at this path")
    serve.add_argument("--max-body-bytes", default="", metavar="SIZE",
                       help="cap one HTTP ingest body (413 past it; "
                            "accepts 64MiB-style suffixes; default "
                            "64MiB)")
    serve.add_argument("--write-timeout", type=float, default=10.0,
                       help="disconnect a client that cannot drain an "
                            "ack/response write within this many "
                            "seconds (default 10)")
    serve.add_argument("--no-detector", action="store_true",
                       help="disable the per-tenant BPS anomaly "
                            "detector")
    serve.add_argument("--drop-factor", type=float, default=3.0,
                       help="flag windows whose BPS falls below "
                            "baseline/FACTOR (default 3.0)")
    serve.add_argument("--baseline-history", type=int, default=8,
                       help="rolling-baseline window count (default 8)")
    serve.add_argument("--attribute", action="store_true",
                       help="attach ranked root-cause suspects to "
                            "every flagged window (queryable via GET "
                            "/tenants/NAME/anomalies)")
    serve.add_argument("--sink-errors",
                       choices=("raise", "warn", "disable"),
                       default="disable",
                       help="per-tenant telemetry sink failure policy "
                            "(default disable: a dead sink degrades "
                            "telemetry, never the stream)")
    _add_trace_error_options(serve)
    serve.set_defaults(func=_cmd_serve)

    def _add_schedule_options(sub_parser) -> None:
        sub_parser.add_argument(
            "--seed", type=int, default=20130520,
            help="chaos schedule seed (default 20130520)")
        sub_parser.add_argument(
            "--schedule", default="", metavar="PATH",
            help="JSON chaos schedule to replay (overrides the "
                 "seeded random one)")
        sub_parser.add_argument(
            "--severity", type=float, default=1.0,
            help="scale the random schedule's fault probabilities "
                 "(default 1.0)")
        sub_parser.add_argument(
            "--partitions", type=int, default=1,
            help="random schedule: short network partitions to "
                 "inject (default 1)")
        sub_parser.add_argument(
            "--resets", type=int, default=1,
            help="random schedule: hard connection resets to inject "
                 "(default 1)")

    chaos = sub.add_parser(
        "chaos", help="run the network-chaos invariant checks: real "
                      "daemons behind a seeded fault proxy, results "
                      "must be bit-identical to the clean paths")
    chaos.add_argument("--check", choices=("grid", "serve", "all"),
                       default="all",
                       help="which invariant to check (default all)")
    _add_schedule_options(chaos)
    chaos.add_argument("--workers", type=int, default=2,
                       help="grid check: worker daemons to spawn "
                            "(default 2)")
    chaos.add_argument("--records", type=int, default=400,
                       help="serve check: records to stream "
                            "(default 400)")
    chaos.add_argument("--scale", type=float, default=0.25,
                       help="grid check: sweep scale factor "
                            "(default 0.25)")
    chaos.add_argument("--reps", type=int, default=2,
                       help="grid check: repetitions per point "
                            "(default 2)")
    chaos.add_argument("--timeout", type=float, default=300.0,
                       help="serve check: hard deadline in seconds "
                            "(default 300)")
    chaos.add_argument("--json", default="", metavar="PATH",
                       help="also write the chaos report here")
    chaos.set_defaults(func=_cmd_chaos)

    chaos_proxy = sub.add_parser(
        "chaos-proxy", help="run the seeded fault-injecting TCP "
                            "interposer standalone (Ctrl-C stops it "
                            "and prints the stats)")
    chaos_proxy.add_argument("--upstream", required=True,
                             metavar="HOST:PORT",
                             help="the real daemon to sit in front of")
    chaos_proxy.add_argument("--listen", default="127.0.0.1:0",
                             metavar="HOST:PORT",
                             help="where clients should connect "
                                  "(default 127.0.0.1:0, printed on "
                                  "the first output line)")
    chaos_proxy.add_argument("--mode", choices=("frames", "lines"),
                             default="frames",
                             help="protocol framing: 'frames' for the "
                                  "grid wire protocol, 'lines' for "
                                  "serve JSONL streams (default "
                                  "frames)")
    _add_schedule_options(chaos_proxy)
    chaos_proxy.set_defaults(func=_cmd_chaos_proxy)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Toolkit entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
