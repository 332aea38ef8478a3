"""Processes: composition, results, error propagation, kill."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import ProcessKilled


class TestBasics:
    def test_return_value_is_result(self, engine):
        def proc(eng):
            yield eng.timeout(1.0)
            return 42
        process = engine.spawn(proc(engine))
        engine.run()
        assert process.result() == 42
        assert process.finished

    def test_processes_are_waitable(self, engine):
        def child(eng):
            yield eng.timeout(2.0)
            return "child-result"

        def parent(eng):
            value = yield eng.spawn(child(eng))
            return value, eng.now

        process = engine.spawn(parent(engine))
        engine.run()
        assert process.result() == ("child-result", 2.0)

    def test_spawn_requires_generator(self, engine):
        def not_a_generator():
            return 42
        with pytest.raises(SimulationError):
            engine.spawn(not_a_generator)

    def test_yielding_non_waitable_fails_process(self, engine):
        def bad(eng):
            yield "nonsense"
        process = engine.spawn(bad(engine))
        engine.run()
        with pytest.raises(SimulationError):
            process.result()

    def test_process_cannot_wait_on_itself(self, engine):
        holder = {}

        def selfish(eng):
            yield holder["me"]
        process = engine.spawn(selfish(engine))
        holder["me"] = process
        engine.run()
        with pytest.raises(SimulationError):
            process.result()

    def test_anonymous_names_are_unique(self, engine):
        def proc(eng):
            yield eng.timeout(0.0)
        a = engine.spawn(proc(engine))
        b = engine.spawn(proc(engine))
        engine.run()
        assert a.name != b.name


class TestErrorPropagation:
    def test_exception_becomes_result_error(self, engine):
        def failing(eng):
            yield eng.timeout(1.0)
            raise ValueError("inner")
        process = engine.spawn(failing(engine))
        engine.run()
        with pytest.raises(ValueError, match="inner"):
            process.result()

    def test_child_failure_propagates_to_parent(self, engine):
        def child(eng):
            yield eng.timeout(1.0)
            raise RuntimeError("child broke")

        def parent(eng):
            try:
                yield eng.spawn(child(eng))
            except RuntimeError as exc:
                return f"handled: {exc}"

        process = engine.spawn(parent(engine))
        engine.run()
        assert process.result() == "handled: child broke"

    def test_unhandled_child_failure_fails_parent(self, engine):
        def child(eng):
            yield eng.timeout(1.0)
            raise RuntimeError("boom")

        def parent(eng):
            yield eng.spawn(child(eng))

        process = engine.spawn(parent(engine))
        engine.run()
        with pytest.raises(RuntimeError):
            process.result()

    def test_immediate_exception_before_first_yield(self, engine):
        def broken(eng):
            raise KeyError("early")
            yield  # pragma: no cover
        process = engine.spawn(broken(engine))
        engine.run()
        with pytest.raises(KeyError):
            process.result()


class TestKill:
    def test_kill_interrupts_waiting_process(self, engine):
        def sleeper(eng):
            yield eng.timeout(100.0)
        process = engine.spawn(sleeper(engine))
        engine.call_later(1.0, process.kill)
        engine.run(detect_deadlock=False)
        assert process.finished
        with pytest.raises(ProcessKilled):
            process.result()

    def test_killed_process_can_clean_up(self, engine):
        cleaned = []

        def sleeper(eng):
            try:
                yield eng.timeout(100.0)
            except ProcessKilled:
                cleaned.append(eng.now)
                return "cleaned"
        process = engine.spawn(sleeper(engine))
        engine.call_later(2.0, process.kill)
        engine.run(detect_deadlock=False)
        assert cleaned == [2.0]
        assert process.result() == "cleaned"

    def test_caught_kill_is_not_woken_by_the_old_waitable(self, engine):
        # The 5 s timeout the process waited on before the kill still
        # fires at t=5; it must not resume the 100 s sleep it moved on to.
        def sleeper(eng):
            try:
                yield eng.timeout(5.0)
            except ProcessKilled:
                yield eng.timeout(100.0)
            return eng.now
        process = engine.spawn(sleeper(engine))
        engine.call_later(1.0, process.kill)
        engine.run()
        assert process.result() == 101.0

    def test_kill_before_start(self, engine):
        def proc(eng):
            yield eng.timeout(1.0)
            return "ran"
        process = engine.spawn(proc(engine))
        process.kill()  # still at t=0, before the first step
        engine.run()
        with pytest.raises(ProcessKilled):
            process.result()

    def test_kill_finished_process_is_noop(self, engine):
        def proc(eng):
            yield eng.timeout(1.0)
            return "done"
        process = engine.spawn(proc(engine))
        engine.run()
        process.kill()
        assert process.result() == "done"

    def test_live_process_count(self, engine):
        def proc(eng):
            yield eng.timeout(1.0)
        engine.spawn(proc(engine))
        engine.spawn(proc(engine))
        assert engine.live_processes == 2
        engine.run()
        assert engine.live_processes == 0
