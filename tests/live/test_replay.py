"""watch_trace pacing: a paced replay still streams window by window."""

from repro.core.records import IORecord, TraceCollection
from repro.live import watch_trace


def test_paced_replay_closes_windows_between_sleeps():
    # One second of trace, far fewer rows than one full chunk.
    records = [IORecord(pid=0, op="read", nbytes=4096, start=k * 0.01,
                        end=k * 0.01 + 0.005) for k in range(100)]
    closed = []
    closed_at_sleep = []
    result = watch_trace(
        TraceCollection(records), window=0.1, speed=1.0,
        on_window=lambda event: closed.append(event),
        sleep=lambda seconds: closed_at_sleep.append(len(closed)))
    assert len(result.windows) == 10
    # Windows close while the replay is still sleeping its way through
    # the trace, not all at once after the last sleep.
    assert closed_at_sleep[-1] >= 8
    assert len(set(closed_at_sleep)) >= 8
