"""Start ``bps serve`` for the benchmark.

    python3 perfbench/serve_launcher.py SUMMARY.json SPANS.jsonl|- serve ...

Samples host speed on the daemon's main thread (``calibrate.py``) and,
unless ``SPANS`` is ``-``, wraps the daemon's public functions in spans;
then runs the same ``repro.cli`` entry point as ``python -m repro serve
...`` (which ends in ``run_server``).  When the daemon exits, the
calibration samples and per-layer totals go to ``SUMMARY.json`` and
every span to ``SPANS.jsonl``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    calibrator = Calibrator().start()
    from repro import cli
    from repro.live.anomaly import BpsAnomalyDetector
    from repro.live.stream import MetricStream
    from repro.serve import tenant as tenant_module
    from repro.serve.budget import IngestMeter
    from repro.serve.registry import TenantRegistry
    import_s = time.perf_counter() - PROCESS_START

    summary_path, spans_path, cli_args = argv[1], argv[2], argv[3:]
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.span(tenant_module.Tenant, "feed_line", "serve.feed_line")
        tracer.span(tenant_module, "decode_wire_line", "trace_io.decode")
        tracer.span(IngestMeter, "admit", "serve.admit")
        tracer.span(TenantRegistry, "prometheus_text",
                    "serve.scrape_handle")
        tracer.span(MetricStream, "ingest", "live.ingest")
        tracer.span(MetricStream, "advance_watermark", "live.watermark")
        tracer.span(MetricStream, "finalize", "live.finalize")
        tracer.span(MetricStream, "snapshot", "live.snapshot")
        tracer.span(BpsAnomalyDetector, "observe", "anomaly.observe")
    code = cli.main(cli_args)
    calibrator.stop()
    summary = {"import_s": import_s, "calibration": calibrator.as_dict()}
    if tracer is not None:
        tracer.restore()
        summary["scrape_handle"] = tracer.durations("serve.scrape_handle")
        summary.update(tracer.summary())
        tracer.write(spans_path)
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
