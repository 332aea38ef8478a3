"""Engine stress properties: random process graphs always terminate
consistently, and the two-queue kernel keeps the (time, seq) order.

Hypothesis drives random trees of processes (spawn / timeout / resource
use / completions) and checks global invariants: time never runs
backwards, every process finishes, resources end balanced, and a replay
produces the identical timeline.  It also drives random callback
programs through :class:`Engine` and through a plain ``(time, seq)``
heap scheduler side by side: both must run the same events at the same
times and leave the same number queued.
"""

import heapq
import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import Resource

# A "program" is a list of actions per process; actions reference
# bounded resources and delays so everything terminates.
action = st.sampled_from(["timeout", "acquire", "spawn_child"])
program = st.lists(
    st.tuples(action,
              st.floats(min_value=0.0, max_value=2.0, allow_nan=False)),
    min_size=0, max_size=8)
programs = st.lists(program, min_size=1, max_size=6)


def run_program(progs, capacity):
    engine = Engine()
    resource = Resource(engine, capacity=capacity)
    timeline: list[tuple[float, int, int]] = []

    def worker(eng, my_program, ident, depth=0):
        for index, (kind, delay) in enumerate(my_program):
            timeline.append((eng.now, ident, index))
            if kind == "timeout":
                yield eng.timeout(delay)
            elif kind == "acquire":
                grant = resource.acquire()
                yield grant
                try:
                    yield eng.timeout(delay)
                finally:
                    resource.release()
            elif kind == "spawn_child" and depth < 2:
                child = eng.spawn(worker(eng, my_program[index + 1:],
                                         ident * 100 + index,
                                         depth + 1))
                yield child
        return ident

    processes = [engine.spawn(worker(engine, prog, ident))
                 for ident, prog in enumerate(progs)]
    engine.run()
    return engine, processes, timeline, resource


class TestEngineStress:
    @given(programs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_always_terminates_cleanly(self, progs, capacity):
        engine, processes, timeline, resource = run_program(progs,
                                                            capacity)
        # All processes finished with their own id as result.
        for ident, process in enumerate(processes):
            assert process.finished
            assert process.result() == ident
        assert engine.live_processes == 0
        # Resource fully released.
        assert resource.in_use == 0
        assert resource.queue_length == 0
        # Observed times never decrease.
        times = [t for t, _pid, _idx in timeline]
        assert times == sorted(times)

    @given(programs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_replay_identical(self, progs, capacity):
        first = run_program(progs, capacity)
        second = run_program(progs, capacity)
        assert first[2] == second[2]          # identical timelines
        assert first[0].now == second[0].now  # identical end times


class TestEngineScale:
    def test_many_processes(self):
        engine = Engine()
        resource = Resource(engine, capacity=4)

        def worker(eng, i):
            grant = resource.acquire()
            yield grant
            try:
                yield eng.timeout(0.001)
            finally:
                resource.release()
            return i

        processes = [engine.spawn(worker(engine, i)) for i in range(500)]
        engine.run()
        assert [p.result() for p in processes] == list(range(500))
        # 500 holds of 1ms through 4 slots: 125ms total.
        assert engine.now == pytest.approx(0.125)


class HeapEngine:
    """Reference scheduler: every event on one ``(time, seq)`` heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = 0

    def call_later(self, delay, callback, *args):
        if not delay >= 0:
            raise SimulationError(f"invalid delay: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq,
                                    callback, args))

    def call_at(self, when, callback, *args):
        self.call_later(when - self.now, callback, *args)

    def call_soon(self, callback, *args):
        self.call_later(0.0, callback, *args)

    def step(self, until=math.inf):
        if not self._heap:
            return False
        if self._heap[0][0] > until:
            self.now = max(self.now, until)
            return False
        self.now, _seq, callback, args = heapq.heappop(self._heap)
        callback(*args)
        return True

    def run(self, until=math.inf):
        while self.step(until):
            pass

    @property
    def pending_events(self):
        return len(self._heap)


# A callback program: event i is scheduled by event ``parent`` (-1: from
# outside, before driving) through ``how``.  Delays include ties (0),
# 1e-9 (absorbed by the clock once it reaches 1e9) and a jump to 1e9.
HOWS = ("later", "soon", "at")
DELAYS = (0.0, 0.0, 1e-9, 0.25, 1.0, 1e9)
UNTILS = (math.inf, 0.0, 0.25, 1.0, 1e9, 1e9 + 1.0)
events = st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                            st.sampled_from(HOWS),
                            st.sampled_from(DELAYS)),
                  max_size=40)
drives = st.lists(st.tuples(st.sampled_from(("step", "run", "later",
                                             "soon")),
                            st.integers(min_value=0, max_value=5)),
                  max_size=25)


def simulate(engine, program, drive):
    """Schedule ``program`` on ``engine``, drive it with interleaved
    ``step``/``run(until=...)`` calls and outside scheduling, then drain;
    returns every ``(now, id)`` run and the state after each drive."""
    log = []
    children = defaultdict(list)
    for ident, (raw, how, delay) in enumerate(program):
        parent = raw % (ident + 1) - 1  # an earlier event, or -1
        children[parent].append((ident, how, delay))

    def schedule(ident, how, delay):
        if how == "later":
            engine.call_later(delay, fire, ident)
        elif how == "soon":
            engine.call_soon(fire, ident)
        else:
            engine.call_at(engine.now + delay, fire, ident)

    def fire(ident):
        log.append((engine.now, ident))
        for child in children[ident]:
            schedule(*child)

    for root in children[-1]:
        schedule(*root)
    for index, (action, choice) in enumerate(drive):
        if action == "step":
            log.append(("step", engine.step(UNTILS[choice])))
        elif action == "run":
            engine.run(UNTILS[choice])
        else:
            schedule(-2 - index, action, DELAYS[choice])
        log.append((action, engine.now, engine.pending_events))
    engine.run()
    log.append(("end", engine.now, engine.pending_events))
    return log


class TestOrderMatchesHeap:
    @given(events, drives)
    @settings(max_examples=300, deadline=None)
    def test_same_events_same_times_as_a_single_heap(self, program,
                                                     drive):
        assert (simulate(Engine(), program, drive)
                == simulate(HeapEngine(), program, drive))
