"""Engine scheduling: ordering, determinism, deadlock detection."""

import math

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_time_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_call_later_advances_time(self, engine):
        seen = []
        engine.call_later(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]
        assert engine.now == 1.5

    def test_events_run_in_time_order(self, engine):
        order = []
        engine.call_later(2.0, order.append, "late")
        engine.call_later(1.0, order.append, "early")
        engine.run()
        assert order == ["early", "late"]

    def test_fifo_tie_breaking_at_equal_times(self, engine):
        order = []
        for i in range(5):
            engine.call_later(1.0, order.append, i)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_call_soon_runs_at_current_time(self, engine):
        times = []
        engine.call_later(1.0, lambda: engine.call_soon(
            lambda: times.append(engine.now)))
        engine.run()
        assert times == [1.0]

    def test_delay_absorbed_by_the_clock_keeps_its_fifo_place(self, engine):
        # At t=1e9 a 1e-9 delay does not move the clock: the event is due
        # now, behind the entry pushed earlier for 1e9 and ahead of a
        # later call_soon, exactly as on a single (time, seq) heap.
        order = []

        def at_1e9():
            order.append("first")
            engine.call_later(1e-9, order.append, "a")
            engine.call_soon(order.append, "b")
        engine.call_later(1e9, at_1e9)
        engine.call_later(1e9, order.append, "pushed earlier")
        engine.run()
        assert order == ["first", "pushed earlier", "a", "b"]
        assert engine.now == 1e9

    def test_call_at_absolute_time(self, engine):
        times = []
        engine.call_at(3.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [3.0]

    def test_call_at_past_raises(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.call_later(-0.1, lambda: None)

    def test_nan_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.call_later(float("nan"), lambda: None)

    def test_args_passed_through(self, engine):
        seen = []
        engine.call_later(0.0, seen.append, 42)
        engine.run()
        assert seen == [42]


class TestRun:
    def test_run_until_stops_early(self, engine):
        seen = []
        engine.call_later(1.0, seen.append, "a")
        engine.call_later(5.0, seen.append, "b")
        engine.run(until=2.0)
        assert seen == ["a"]
        assert engine.now == 2.0
        engine.run()
        assert seen == ["a", "b"]

    def test_step_runs_one_event(self, engine):
        seen = []
        engine.call_later(1.0, seen.append, 1)
        engine.call_later(2.0, seen.append, 2)
        assert engine.step()
        assert seen == [1]
        assert engine.step()
        assert not engine.step()

    def test_pending_events_counter(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.call_later(2.0, lambda: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0

    def test_reentrant_run_rejected(self, engine):
        def reenter():
            with pytest.raises(SimulationError):
                engine.run()
        engine.call_later(0.0, reenter)
        engine.run()

    def test_empty_run_is_noop(self, engine):
        engine.run()
        assert engine.now == 0.0


class TestDeadlockDetection:
    def test_waiting_process_raises_deadlock(self, engine):
        def waiter(eng):
            yield eng.completion()  # nobody will trigger this
        engine.spawn(waiter(engine))
        with pytest.raises(DeadlockError):
            engine.run()

    def test_deadlock_detection_can_be_disabled(self, engine):
        def waiter(eng):
            yield eng.completion()
        engine.spawn(waiter(engine))
        engine.run(detect_deadlock=False)  # completes without raising

    def test_no_deadlock_when_all_processes_finish(self, engine):
        def worker(eng):
            yield eng.timeout(1.0)
        engine.spawn(worker(engine))
        engine.run()
        assert engine.live_processes == 0


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build_and_run():
            eng = Engine()
            log = []

            def worker(eng, i, delay):
                yield eng.timeout(delay)
                log.append((eng.now, i))
                yield eng.timeout(delay / 2)
                log.append((eng.now, i))

            for i, delay in enumerate((0.3, 0.1, 0.2)):
                eng.spawn(worker(eng, i, delay))
            eng.run()
            return log

        assert build_and_run() == build_and_run()


class TestStepInvariants:
    def test_step_runs_one_event(self, engine):
        log = []
        engine.call_later(1.0, log.append, "a")
        engine.call_later(2.0, log.append, "b")
        assert engine.step() is True
        assert (log, engine.now) == (["a"], 1.0)
        assert engine.step() is True
        assert engine.step() is False
        assert (log, engine.now) == (["a", "b"], 2.0)

    def test_step_guards_against_time_going_backwards(self, engine):
        # Force a corrupt heap entry (no public API can create one) and
        # check step() enforces the same invariant run() does.
        import heapq
        engine.now = 5.0
        heapq.heappush(engine._heap, (1.0, 0, lambda: None, ()))
        with pytest.raises(SimulationError):
            engine.step()

    def test_step_respects_until(self, engine):
        log = []
        engine.call_later(3.0, log.append, "late")
        assert engine.step(until=2.0) is False
        # Clock clamps forward to `until`, event stays queued.
        assert engine.now == 2.0
        assert engine.pending_events == 1
        assert log == []
        assert engine.step() is True
        assert engine.now == 3.0

    def test_step_until_never_moves_time_backwards(self, engine):
        engine.call_later(10.0, lambda: None)
        engine.run(until=6.0)
        assert engine.now == 6.0
        assert engine.step(until=2.0) is False
        assert engine.now == 6.0  # clamp is monotonic

    def test_step_after_run_until_continues_forward(self, engine):
        log = []
        engine.call_later(1.0, log.append, "early")
        engine.call_later(4.0, log.append, "late")
        engine.run(until=2.0)
        assert (engine.now, log) == (2.0, ["early"])
        assert engine.step() is True
        assert (engine.now, log) == (4.0, ["early", "late"])

    def test_rerun_with_smaller_until_keeps_time_monotonic(self, engine):
        engine.call_later(10.0, lambda: None)
        engine.run(until=6.0)
        engine.run(until=3.0)  # must NOT rewind the clock
        assert engine.now == 6.0
