"""Discrete-event simulation engine.

A small, dependency-free, SimPy-style kernel: generator-based processes
scheduled in ``(time, seq)`` order (deterministic FIFO tie-breaking) on a
heap plus a ready queue for events due now.  The whole
parallel-I/O stack (devices, network, file systems, middleware) is built as
processes on this engine, which is what lets BPS's overlap semantics be
exercised with exactly-controlled timelines.
"""

from repro.sim.events import Completion, Timeout, AllOf, AnyOf, Waitable
from repro.sim.engine import Engine
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Resource, PriorityResource, TokenBucket
from repro.sim.monitor import Monitor, UtilizationTracker

__all__ = [
    "Engine",
    "Process",
    "ProcessKilled",
    "Completion",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Waitable",
    "Resource",
    "PriorityResource",
    "TokenBucket",
    "Monitor",
    "UtilizationTracker",
]
