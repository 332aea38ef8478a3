"""Open-loop scrape schedule, shared by every workload's scraper."""

from __future__ import annotations

import threading
import time


class OpenLoopScraper(threading.Thread):
    """Calls ``scrape()`` on a fixed schedule while a workload runs.

    Scrape ``k`` is due at ``t0 + k * period``.  Its latency runs from
    when it was due until ``scrape()`` returned, so time that a busy
    process or daemon makes it wait counts, and a stall delays every
    scrape queued behind it; a late scrape starts at once and is never
    skipped.  ``scrape()`` returns whether the scrape succeeded.
    """

    def __init__(self, scrape, period: float, t0: float) -> None:
        super().__init__(daemon=True)
        self.scrape = scrape
        self.period = period
        self.t0 = t0
        self.latencies: list[float] = []
        #: How late each scrape started (how far the schedule slipped).
        self.late: list[float] = []
        self.failures = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        k = 1
        while True:
            due = self.t0 + k * self.period
            if self._stop_event.wait(max(0.0, due - time.perf_counter())):
                return
            started = time.perf_counter()
            ok = self.scrape()
            self.latencies.append(time.perf_counter() - due)
            self.late.append(started - due)
            self.failures += not ok
            k += 1

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=60)
