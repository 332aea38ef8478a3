"""Perf bench: what the wire-integrity layer costs when nothing fails.

The chaos PR hardened both distributed protocols with per-unit
checksums — CRC32 over every grid frame payload
(:mod:`repro.exec.backends.wire`) and an optional ``crc`` key on serve
lines (:mod:`repro.serve.protocol`).  Integrity must be cheap enough
to leave on unconditionally.  Three measurements back that up:

1. **Micro**: frame round-trips over a real ``socketpair`` and serve
   line encode/decode pairs, each against a checksum-free variant of
   the same framing.  This isolates the per-unit CRC cost in µs.
2. **Projection**: the per-unit delta scaled by a generous
   frames-per-cell allowance against the recorded socket sweep
   baseline (``benchmarks/output/perf_sweep_backends.json``, the
   pre-chaos PR's 57 cells/s figure).  Asserted < 5% always — this is
   the physically meaningful claim and is immune to machine noise.
3. **End-to-end**: the same Set 1 sweep that produced the baseline,
   re-run on the checksummed wire over both the fork and socket
   backends.  Raw cells/s drifts with machine load, so the asserted
   quantity is the machine-invariant socket/fork *ratio* against the
   baseline's recorded ``socket_overhead_vs_fork`` (5% budget full, a
   noise-tolerant 25% in smoke mode — single-round sweep timings
   wobble more than the CRC ever could).

Results land in ``benchmarks/output/perf_chaos_overhead.json`` for
CI's regression gate.  Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized
variant.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import socket
import subprocess
import sys
import time

from repro.core.records import IORecord
from repro.exec.backends.wire import _HEADER, _recv_exact, recv_frame, send_frame
from repro.experiments.runner import ExperimentScale
from repro.experiments.set1 import run_set1
from repro.serve.protocol import decode_wire_line, record_line
from repro.util.tables import TextTable

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: The chaos design's promise: checksummed framing costs the sweep
#: < 5%.  The projection assert uses this directly; the end-to-end
#: re-run gets noise headroom in smoke mode (shared CI cores move
#: sweep timings by more than the CRC ever could).
CHECKSUM_OVERHEAD_BUDGET = 0.05
END_TO_END_BUDGET = 0.25 if SMOKE else 0.05

#: Upper-bound allowance for wire frames one sweep cell costs end to
#: end (job + done + handshake share + heartbeat traffic).  Real cells
#: exchange ~a handful; 50 keeps the projection conservative.
FRAMES_PER_CELL = 50

FRAMES = 4_000 if SMOKE else 20_000
LINES = 10_000 if SMOKE else 50_000
ROUNDS = 3 if SMOKE else 5

#: Mirrors bench_sweep_backends' full mode — the baseline this bench
#: compares against was recorded at this exact configuration.  Two
#: rounds minimum: the first full-scale round doubles as the warm-up
#: (worker-side spec rebuild, page cache).
SWEEP_WORKERS = 2
SWEEP_SCALE = ExperimentScale(factor=1.0, repetitions=3)
SWEEP_ROUNDS = 2 if SMOKE else 3

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
BASELINE_PATH = OUTPUT_DIR / "perf_sweep_backends.json"
REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: A realistic grid unit: one cell's done-frame payload.
FRAME_PAYLOAD = {
    "kind": "done", "index": 7,
    "result": (123.4, 56.7, 0.0089, 4321.0, 1.25, 0.87, 1500, 3000,
               6_144_000),
    "blob": b"x" * 512,
}


def send_frame_unchecked(sock: socket.socket, obj) -> None:
    """The same framing with the checksum zeroed out (baseline)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(data), 0) + data)


def recv_frame_unchecked(sock: socket.socket):
    length, _crc = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    return pickle.loads(_recv_exact(sock, length))


def time_frames(send, recv) -> float:
    a, b = socket.socketpair()
    try:
        a.settimeout(30.0)
        b.settimeout(30.0)
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            for _ in range(FRAMES):
                send(a, FRAME_PAYLOAD)
                recv(b)
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        a.close()
        b.close()


def time_lines(checksum: bool) -> float:
    record = IORecord(pid=1, op="read", nbytes=4096,
                      start=0.25, end=0.262)
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for seq in range(LINES):
            line = record_line(record, seq=seq, checksum=checksum)
            decode_wire_line(line.decode())
        best = min(best, time.perf_counter() - t0)
    return best


def spawn_workers(n):
    procs, addrs = [], []
    env = dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC))
    for _ in range(n):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "grid-worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        banner = proc.stdout.readline().strip()
        assert "grid-worker listening on" in banner, banner
        procs.append(proc)
        addrs.append(banner.rsplit(" ", 1)[-1])
    return procs, ",".join(addrs)


def time_sweeps() -> tuple[dict[str, float], int]:
    """Best wall seconds for the fork and socket sweeps, and cells."""
    procs, addrs = spawn_workers(SWEEP_WORKERS)
    seconds = {"fork": float("inf"), "socket": float("inf")}
    try:
        # Warm-up sessions: child imports, worker-side spec rebuild.
        warm = ExperimentScale(factor=0.25, repetitions=1)
        run_set1(warm, workers=SWEEP_WORKERS)
        run_set1(warm, grid_workers=addrs)
        for _ in range(SWEEP_ROUNDS):
            t0 = time.perf_counter()
            run_set1(SWEEP_SCALE, workers=SWEEP_WORKERS)
            seconds["fork"] = min(seconds["fork"],
                                  time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_set1(SWEEP_SCALE, grid_workers=addrs)
            seconds["socket"] = min(seconds["socket"],
                                    time.perf_counter() - t0)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)
    return seconds, 6 * SWEEP_SCALE.repetitions


def load_baseline() -> dict | None:
    try:
        payload = json.loads(BASELINE_PATH.read_text())
        return {
            "cells_per_sec": float(payload["cells_per_sec"]["socket"]),
            "socket_overhead_vs_fork":
                float(payload["socket_overhead_vs_fork"]),
        }
    except (OSError, KeyError, ValueError, TypeError):
        return None


def test_checksummed_framing_overhead(artifact, artifact_json):
    seconds = {
        "frames_crc": time_frames(send_frame, recv_frame),
        "frames_plain": time_frames(send_frame_unchecked,
                                    recv_frame_unchecked),
        "lines_crc": time_lines(True),
        "lines_plain": time_lines(False),
    }
    micro = {
        "frame_extra_us": (seconds["frames_crc"]
                           - seconds["frames_plain"]) / FRAMES * 1e6,
        "line_extra_us": (seconds["lines_crc"]
                          - seconds["lines_plain"]) / LINES * 1e6,
    }

    baseline = load_baseline()
    sweep_seconds, cells = time_sweeps()
    cells_per_sec = cells / sweep_seconds["socket"]
    ratio_now = sweep_seconds["socket"] / sweep_seconds["fork"]

    # The claim that matters: CRC cost per cell against the recorded
    # pre-chaos per-cell wall time.
    reference = (baseline["cells_per_sec"] if baseline
                 else cells_per_sec)
    projected = (FRAMES_PER_CELL * max(0.0, micro["frame_extra_us"])
                 / 1e6) * reference
    # Machine-invariant end-to-end check: the socket/fork ratio now
    # versus the ratio the baseline recorded on the pre-chaos wire.
    if baseline:
        ratio_base = 1.0 + baseline["socket_overhead_vs_fork"]
        end_to_end = ratio_now / ratio_base - 1.0
    else:
        end_to_end = 0.0

    table = TextTable(["measurement", "value"])
    table.add_row(["frame CRC cost (µs/frame)",
                   f"{micro['frame_extra_us']:.2f}"])
    table.add_row(["line crc cost (µs/line)",
                   f"{micro['line_extra_us']:.2f}"])
    table.add_row(["projected sweep overhead",
                   f"{projected:+.3%}"])
    table.add_row(["socket sweep (cells/s)", f"{cells_per_sec:.3f}"])
    table.add_row(["socket/fork ratio now", f"{ratio_now:.4f}"])
    table.add_row(["baseline socket/fork ratio",
                   f"{1.0 + baseline['socket_overhead_vs_fork']:.4f}"
                   if baseline else "(missing)"])
    table.add_row(["end-to-end vs baseline", f"{end_to_end:+.2%}"])
    text = (f"{FRAMES} frames / {LINES} lines per round, best of "
            f"{ROUNDS}; sweep best of {SWEEP_ROUNDS} (smoke={SMOKE}, "
            f"budgets {CHECKSUM_OVERHEAD_BUDGET:.0%} projected / "
            f"{END_TO_END_BUDGET:.0%} end-to-end)\n" + table.render())
    artifact("perf_chaos_overhead", text)
    artifact_json("perf_chaos_overhead", {
        "smoke": SMOKE,
        "frames": FRAMES,
        "lines": LINES,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "micro_extra_us": {k: round(v, 3) for k, v in micro.items()},
        "frames_per_cell_allowance": FRAMES_PER_CELL,
        "sweep_cells_per_sec": round(cells_per_sec, 3),
        "socket_fork_ratio": round(ratio_now, 6),
        "baseline": baseline,
        "projected_sweep_overhead": round(projected, 6),
        "end_to_end_overhead": round(end_to_end, 6),
        "floors": {
            "projected_sweep_overhead": CHECKSUM_OVERHEAD_BUDGET,
            "end_to_end_overhead": END_TO_END_BUDGET,
        },
    })

    assert projected < CHECKSUM_OVERHEAD_BUDGET, (
        f"projected checksum overhead {projected:.3%} "
        f"({FRAMES_PER_CELL} frames/cell at "
        f"{micro['frame_extra_us']:.2f}µs) exceeds the "
        f"{CHECKSUM_OVERHEAD_BUDGET:.0%} budget")
    if baseline:
        assert end_to_end < END_TO_END_BUDGET, (
            f"socket/fork ratio {ratio_now:.4f} is {end_to_end:.1%} "
            f"above the baseline ratio "
            f"{1.0 + baseline['socket_overhead_vs_fork']:.4f} "
            f"(budget {END_TO_END_BUDGET:.0%})")
