"""Perf bench: what always-on attribution costs the streaming path.

``--attribute`` rides the live ingest loop: every delivered record is
additionally folded into the :class:`~repro.diagnose.graph.TraceGraph`
bucket of its start window, and every closed window is popped and
either learned (healthy) or diffed (flagged).  The diagnose design's
promise is that this tax is small enough to leave attribution on
wherever a detector runs.  Three figures back that up:

1. **Micro**: per-record attribution cost in µs, measured as the
   wall-time delta between ``watch_trace`` replays of the same
   synthetic trace with and without ``attribute=True``.  Rounds are
   interleaved base/attr so CPU-frequency drift hits both sides
   equally.  Asserted against a generous absolute ceiling — the
   order-of-magnitude tripwire, immune to machine speed.
2. **Projection**: that per-record cost scaled by the live run's
   actual record rate — the fraction of a monitored run's wall time
   attribution consumes.  Asserted < 5% always; this is the
   operational claim (attribution must not slow the system it
   watches) and both factors come from the same machine, so the
   ratio is noise-robust.
3. **End-to-end**: the same simulated run observed by a
   :class:`~repro.live.tap.LiveTap` with and without attribution,
   interleaved best-of rounds.  A sub-second simulation's wall time
   swings +-20% with machine load — far more than attribution's real
   ~1% cost — so this figure is a wide sanity backstop, not the
   gate; the binding 5% assert is the projection above, whose two
   factors each come from long interleaved measurements.

Results land in ``benchmarks/output/perf_diagnose_overhead.json`` for
CI's regression gate.  Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized
variant.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.records import IORecord, TraceCollection
from repro.diagnose import stripe_server_of
from repro.live import BpsAnomalyDetector, LiveTap
from repro.live.replay import watch_trace
from repro.system import SystemConfig
from repro.util.tables import TextTable
from repro.util.units import KiB, MiB
from repro.workloads.base import run_workload
from repro.workloads.synthetic import RandomAccessWorkload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: The diagnose design's promise: attribution costs a monitored run
#: < 5% of wall time.  The projection assert uses this directly; the
#: end-to-end re-run only backstops it (same-machine repeat runs of
#: the simulation swing +-20% under load, so a tight assert there
#: would gate the machine, not the code).
ATTRIBUTION_OVERHEAD_BUDGET = 0.05
END_TO_END_BUDGET = 0.50

#: Absolute ceiling on the per-record graph-feed cost.  The columnar
#: fold (array ops per chunk, a dict probe per row, a Python step per
#: edge) costs ~3-4 µs/record on a 2-vCPU VM; 15 µs catches a
#: per-record fold loop or an O(windows) scan creeping back in without
#: racing the hardware.
MICRO_CEILING_US = 15.0

REPLAY_RECORDS = 20_000 if SMOKE else 60_000
REPLAY_ROUNDS = 3 if SMOKE else 5
LIVE_ROUNDS = 2 if SMOKE else 3
OPS_PER_PROC = 48 if SMOKE else 128
WINDOW = 0.02


def synthesize(n: int, *, seed: int = 7) -> TraceCollection:
    """Dense overlapping completion stream across 8 pids, 3 servers."""
    rng = random.Random(seed)
    records = []
    t = 0.0
    for i in range(n):
        duration = rng.uniform(0.002, 0.01)
        records.append(IORecord(pid=i % 8, op="read", nbytes=64 * KiB,
                                start=t, end=t + duration,
                                offset=(i % 24) * 64 * KiB))
        t += 0.0004
    return TraceCollection(records)


def time_replay(trace: TraceCollection, attribute: bool) -> float:
    detector = BpsAnomalyDetector()
    t0 = time.perf_counter()
    watch_trace(trace, window=0.05, detector=detector,
                attribute=attribute,
                server_of=stripe_server_of(3) if attribute else None)
    return time.perf_counter() - t0


def replay_micro() -> tuple[float, float]:
    """Best base/attr replay seconds over interleaved rounds."""
    trace = synthesize(REPLAY_RECORDS)
    time_replay(trace, False)
    time_replay(trace, True)
    base = attr = float("inf")
    for _ in range(REPLAY_ROUNDS):
        base = min(base, time_replay(trace, False))
        attr = min(attr, time_replay(trace, True))
    return base, attr


def time_live(attribute: bool) -> tuple[float, int]:
    """One healthy simulated run under a live tap; (seconds, records)."""
    workload = RandomAccessWorkload(file_size=8 * MiB, io_size=4 * KiB,
                                    ops_per_proc=OPS_PER_PROC, nproc=4)
    cfg = SystemConfig(kind="pfs", n_servers=3,
                       device_spec="sata-hdd-7200", replication=1,
                       seed=11)
    holder = {}
    records = []

    def attach(system):
        system.recorder.subscribe(records.append)
        holder["tap"] = LiveTap(
            system, window=WINDOW, heartbeat_s=WINDOW,
            detector=BpsAnomalyDetector(drop_factor=2.5, history=8,
                                        min_history=3),
            attribute=attribute)

    t0 = time.perf_counter()
    metrics = run_workload(workload, cfg, on_system=attach)
    holder["tap"].result(exec_time=metrics.exec_time)
    return time.perf_counter() - t0, len(records)


def live_overhead() -> tuple[float, float, int]:
    """Best base/attr live-run seconds (interleaved) and record count."""
    time_live(False)
    base = attr = float("inf")
    n_records = 0
    for _ in range(LIVE_ROUNDS):
        seconds, n_records = time_live(False)
        base = min(base, seconds)
        seconds, _ = time_live(True)
        attr = min(attr, seconds)
    return base, attr, n_records


def test_attribution_overhead(artifact, artifact_json):
    replay_base, replay_attr = replay_micro()
    micro_us = (replay_attr - replay_base) / REPLAY_RECORDS * 1e6
    replay_ratio = replay_attr / replay_base - 1.0

    live_base, live_attr, n_records = live_overhead()
    end_to_end = live_attr / live_base - 1.0
    # The operational claim: per-record graph-feed cost at the live
    # run's actual record rate, as a share of the run's wall time.
    projected = max(0.0, micro_us) * n_records / (live_base * 1e6)

    table = TextTable(["measurement", "value"])
    table.add_row(["graph feed cost (µs/record)", f"{micro_us:.2f}"])
    table.add_row(["replay overhead (offline)", f"{replay_ratio:+.2%}"])
    table.add_row(["live run records", f"{n_records}"])
    table.add_row(["live run base (s)", f"{live_base:.3f}"])
    table.add_row(["projected live overhead", f"{projected:+.3%}"])
    table.add_row(["end-to-end live overhead", f"{end_to_end:+.2%}"])
    text = (f"{REPLAY_RECORDS} records x {REPLAY_ROUNDS} interleaved "
            f"replay rounds, {LIVE_ROUNDS} interleaved live rounds "
            f"(smoke={SMOKE}, budgets "
            f"{ATTRIBUTION_OVERHEAD_BUDGET:.0%} projected / "
            f"{END_TO_END_BUDGET:.0%} end-to-end, micro ceiling "
            f"{MICRO_CEILING_US:.0f}µs)\n" + table.render())
    artifact("perf_diagnose_overhead", text)
    artifact_json("perf_diagnose_overhead", {
        "smoke": SMOKE,
        "replay_records": REPLAY_RECORDS,
        "replay_seconds": {"base": round(replay_base, 6),
                           "attribute": round(replay_attr, 6)},
        "replay_overhead": round(replay_ratio, 6),
        "micro_us_per_record": round(micro_us, 3),
        "live_records": n_records,
        "live_seconds": {"base": round(live_base, 6),
                         "attribute": round(live_attr, 6)},
        "projected_live_overhead": round(projected, 6),
        "end_to_end_overhead": round(end_to_end, 6),
        "floors": {
            "projected_live_overhead": ATTRIBUTION_OVERHEAD_BUDGET,
            "end_to_end_overhead": END_TO_END_BUDGET,
            "micro_us_per_record": MICRO_CEILING_US,
        },
    })

    assert micro_us < MICRO_CEILING_US, (
        f"graph feed costs {micro_us:.2f}µs/record "
        f"(ceiling {MICRO_CEILING_US:.0f}µs) — the attribution hot "
        f"path regressed by an order of magnitude")
    assert projected < ATTRIBUTION_OVERHEAD_BUDGET, (
        f"projected attribution overhead {projected:.3%} "
        f"({micro_us:.2f}µs x {n_records} records over "
        f"{live_base:.2f}s) exceeds the "
        f"{ATTRIBUTION_OVERHEAD_BUDGET:.0%} budget")
    assert end_to_end < END_TO_END_BUDGET, (
        f"live run with attribution is {end_to_end:.1%} slower "
        f"(budget {END_TO_END_BUDGET:.0%})")
