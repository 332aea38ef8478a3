"""repro — a full reproduction of "BPS: A Performance Metric of I/O System".

He, Sun, Yin.  IEEE IPDPSW 2013.  DOI 10.1109/IPDPSW.2013.64.

The package provides, from the bottom up:

- a deterministic discrete-event simulator (:mod:`repro.sim`);
- device, network, local-FS, and parallel-FS substrates
  (:mod:`repro.devices`, :mod:`repro.net`, :mod:`repro.fs`,
  :mod:`repro.pfs`);
- the instrumented I/O middleware where BPS measures
  (:mod:`repro.middleware`);
- **the paper's contribution** — BPS, its measurement methodology, and
  the correlation-based evaluation (:mod:`repro.core`);
- workloads shaped after IOzone/IOR/Hpio (:mod:`repro.workloads`);
- the complete evaluation-section reproduction
  (:mod:`repro.experiments`);
- an offline toolkit for real traces (:mod:`repro.trace_io`,
  :mod:`repro.cli`);
- a streaming metrics engine — windowed BPS, online union time,
  anomaly flags, telemetry sinks — for watching runs live
  (:mod:`repro.live`).

Quick taste::

    from repro import IOzoneWorkload, SystemConfig
    measurement = IOzoneWorkload().run(SystemConfig(kind="local"))
    print(measurement.metrics().bps)
"""

import importlib

__version__ = "1.0.0"

#: Every public name and the module it is imported from on first use
#: (PEP 562), so ``import repro.trace_io`` does not load the simulator.
_EXPORTS = {
    **dict.fromkeys((
        "IORecord", "TraceCollection", "MetricSet", "bps", "iops",
        "bandwidth", "arpt", "union_io_time", "union_time",
        "union_time_paper", "compute_metrics", "EXPECTED_DIRECTIONS",
        "normalized_cc", "correlation_table", "RunMeasurement",
        "SweepAnalysis"), "repro.core"),
    **dict.fromkeys(("System", "SystemConfig", "build_system"),
                    "repro.system"),
    **dict.fromkeys(("FaultEvent", "FaultPlan", "random_fault_plan"),
                    "repro.faults"),
    **dict.fromkeys(("StreamingUnion", "MetricStream", "LiveTap",
                     "BpsAnomalyDetector", "watch_trace"), "repro.live"),
    "RetryPolicy": "repro.middleware",
    **dict.fromkeys((
        "HotSpotWorkload", "IOzoneWorkload", "IORWorkload",
        "HpioWorkload", "RandomAccessWorkload", "MixedReadWriteWorkload",
        "ReplayWorkload", "ReplayOp"), "repro.workloads"),
    "ReproError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """A package ``__getattr__`` (PEP 562) that imports each name of
    ``exports`` from its module on first use and caches it in
    ``namespace``, the package's ``globals()``."""
    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} "
                                 f"has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value
    return __getattr__


__getattr__ = _lazy_exports(globals(), _EXPORTS)
