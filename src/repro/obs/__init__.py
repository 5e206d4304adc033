"""Runtime telemetry: metrics registry, span timers, exporters, reports.

See DESIGN.md §7 for the schema, the instrument naming convention, and
the telemetry-vs-trace boundary.  The short version: telemetry measures
*how long and how much* (histograms, counters, gauges — mergeable across
sweep workers), the decision trace records *what was decided*, and
nothing in this package is ever consulted by scheduling code.

On top of the raw artifacts sits the diagnosis layer (all offline,
trace-in / report-out): :mod:`repro.obs.timeline` pivots a decision
trace into per-task / per-flow / per-link timelines,
:mod:`repro.obs.chrometrace` exports them as Perfetto-viewable Chrome
trace-event JSON, :mod:`repro.obs.explain` renders reject/preempt/drop
verdicts, and :mod:`repro.obs.diffing` compares two runs' artifact
bundles with regression detection.
"""

from repro.obs.chrometrace import (
    chrome_events,
    dumps_chrome,
    write_chrome_trace,
)
from repro.obs.diffing import (
    DIFF_SCHEMA_VERSION,
    Bundle,
    DiffError,
    DiffReport,
    MetricDelta,
    append_history,
    diff_bundles,
    diff_paths,
    latest_history,
    load_bundle,
)
from repro.obs.explain import TaskVerdict, explain_run, explain_task
from repro.obs.export import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryError,
    dumps_jsonl,
    load_jsonl,
    write_jsonl,
)
from repro.obs.hotpath import HotPathCounters
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import render_stats, stats_json
from repro.obs.spans import SpanTimers, span_tree
from repro.obs.timeline import (
    RunTimeline,
    TaskTimeline,
    build_timeline,
    timeline_from,
)

__all__ = [
    "DIFF_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "Bundle",
    "Counter",
    "DiffError",
    "DiffReport",
    "Gauge",
    "Histogram",
    "HotPathCounters",
    "MetricDelta",
    "MetricsRegistry",
    "RunTimeline",
    "SpanTimers",
    "TaskTimeline",
    "TaskVerdict",
    "TelemetryError",
    "append_history",
    "build_timeline",
    "chrome_events",
    "diff_bundles",
    "diff_paths",
    "dumps_chrome",
    "dumps_jsonl",
    "explain_run",
    "explain_task",
    "latest_history",
    "load_bundle",
    "load_jsonl",
    "render_stats",
    "span_tree",
    "stats_json",
    "timeline_from",
    "write_chrome_trace",
    "write_jsonl",
]
