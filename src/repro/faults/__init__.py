"""Declarative fault plans and their injection into built systems.

A :class:`~repro.faults.plan.FaultPlan` is a list of timed
:class:`~repro.faults.plan.FaultEvent` windows — device degradation and
fault-rate windows, I/O-server crash/slowdown, network-link flaps and
latency spikes, straggler processes.  Plans are plain data: they can be
written by hand, generated from a seeded
:class:`~repro.util.rng.RngStream`
(:func:`~repro.faults.plan.random_fault_plan`), stored in configs, and
replayed bit-identically.

:class:`~repro.faults.injector.FaultPlanInjector` arms a plan against a
live :class:`~repro.system.System`: every event becomes engine callbacks
at its start and recovery times, flipping the corresponding hook
(``BlockDevice.degrade`` / ``FaultInjector`` probability /
``IOServer.crash`` / ``NetworkLink`` flap / ``FaultState`` straggler
factors).
"""

from repro import _lazy_exports

#: Every public name and the module it is imported from on first use
#: (PEP 562), so reading a plan does not load the simulator.
_EXPORTS = {
    **dict.fromkeys((
        "DEVICE_DEGRADE", "DEVICE_FAULTS", "FAULT_KINDS", "FaultEvent",
        "FaultPlan", "LINK_DOWN", "LINK_LATENCY", "SERVER_CRASH",
        "SERVER_SLOWDOWN", "STRAGGLER", "random_fault_plan"),
        "repro.faults.plan"),
    "FaultState": "repro.faults.state",
    "FaultPlanInjector": "repro.faults.injector",
    "arm_fault_plan": "repro.faults.injector",
}

__all__ = sorted(_EXPORTS)

__getattr__ = _lazy_exports(globals(), _EXPORTS)
