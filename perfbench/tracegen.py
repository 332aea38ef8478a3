"""Seeded synthetic I/O trace for the ``watch`` and ``serve`` workloads.

The trace is built from the seed alone, before any timing starts, and
handed to the program only as a JSONL file (``watch``) or as the bytes
of that file sent over a socket (``serve``).  Its shape is chosen so
that every stage of the streaming path has real work:

- ``PIDS`` processes each issue requests back to back, so records of
  different pids overlap and complete in a different order than they
  start;
- offsets walk each pid's file, so requests stripe over ``SERVERS``
  servers of ``STRIPE`` bytes (the ``bps watch --servers 4`` default
  stripe geometry);
- reads and writes are mixed;
- one server, picked by the seed, is ``DEGRADE_FACTOR`` times slower
  over ``[degraded_from, degraded_until)``, which drops windowed BPS
  and is what attribution must name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

PIDS = 8
SERVERS = 4
STRIPE = 64 * 1024
SIZES = (4096, 16384, 65536, 131072)
WRITE_SHARE = 0.3
DEGRADE_FACTOR = 25.0
#: Degraded span as shares of each pid's nominal timeline.
DEGRADE_WINDOW = (0.45, 0.6)


@dataclass(frozen=True)
class TraceSpec:
    """What the generator promises about the trace it wrote."""

    records: int
    degraded_server: str
    degraded_from: float
    degraded_until: float


def _service_time(rng: random.Random, nbytes: int) -> float:
    """Nominal request latency: fixed cost + transfer, with jitter."""
    return (0.0005 + nbytes / 80e6) * rng.lognormvariate(0.0, 0.25)


def generate(path: str, records: int, seed: int) -> TraceSpec:
    """Write ``records`` JSONL records to ``path``; same seed, same bytes."""
    rng = random.Random(seed)
    degraded = rng.randrange(SERVERS)
    per_pid = records // PIDS
    # Nominal span of one pid's timeline, used to place the degraded
    # interval at the same share of every trace.
    mean_service = sum(0.0005 + s / 80e6 for s in SIZES) / len(SIZES)
    nominal = per_pid * (mean_service + 0.0001)
    degraded_from = nominal * DEGRADE_WINDOW[0]
    degraded_until = nominal * DEGRADE_WINDOW[1]
    rows = []
    for index in range(PIDS):
        pid = 100 + index
        clock = rng.uniform(0.0, 0.001)
        offset = rng.randrange(64) * STRIPE
        count = per_pid + (1 if index < records % PIDS else 0)
        for _ in range(count):
            nbytes = rng.choice(SIZES)
            op = "write" if rng.random() < WRITE_SHARE else "read"
            duration = _service_time(rng, nbytes)
            server = (offset // STRIPE) % SERVERS
            if server == degraded and \
                    degraded_from <= clock < degraded_until:
                duration *= DEGRADE_FACTOR
            start = clock
            end = start + duration
            rows.append((start, pid, op, nbytes, end, offset))
            offset += nbytes
            clock = end + rng.expovariate(1.0 / 0.0001)
    rows.sort()
    with open(path, "w") as handle:
        for start, pid, op, nbytes, end, offset in rows:
            handle.write(json.dumps({
                "pid": pid, "op": op, "nbytes": nbytes,
                "start": start, "end": end,
                "file": f"/data/pid{pid}.dat", "offset": offset,
                "success": True, "layer": "app", "retries": 0,
            }) + "\n")
    return TraceSpec(records=len(rows),
                     degraded_server=f"server{degraded}",
                     degraded_from=degraded_from,
                     degraded_until=degraded_until)
