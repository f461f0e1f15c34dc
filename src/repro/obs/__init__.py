"""repro.obs — zero-dependency tracing and metrics for the reproduction.

The observability layer behind every perf claim in this repo: nested
:class:`Span` timing via :class:`Tracer`, process-local counters/gauges/
histograms via :class:`MetricsRegistry`, and schema-stable JSON/CSV
exporters.  Disabled by default; pass ``collector=Collector()`` to
``run_experiment`` or a sweep, or use the CLI's ``--trace`` /
``--metrics-out`` flags.

Quick start::

    from repro.obs import Collector, format_trace, to_json
    from repro.sim.experiment import SINGLE_ANTENNA, run_experiment

    collector = Collector()
    result = run_experiment(SINGLE_ANTENNA, collector=collector)
    print(format_trace(collector.spans, max_depth=2))
    print(to_json(collector))
"""

from .collector import NULL_COLLECTOR, Collector, active
from .export import (
    SCHEMA_ID,
    SchemaError,
    collector_payload,
    to_json,
    validate_payload,
    write_json,
    write_metrics_csv,
    write_spans_csv,
)
from .metrics import HistogramData, MetricsRegistry, NullMetricsRegistry
from .tracing import (
    NULL_SPAN,
    NullTracer,
    SpanRecord,
    Tracer,
    format_trace,
    graft,
)

__all__ = [
    "Collector",
    "NULL_COLLECTOR",
    "NULL_SPAN",
    "active",
    "SCHEMA_ID",
    "SchemaError",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "HistogramData",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "collector_payload",
    "format_trace",
    "graft",
    "to_json",
    "validate_payload",
    "write_json",
    "write_metrics_csv",
    "write_spans_csv",
]
