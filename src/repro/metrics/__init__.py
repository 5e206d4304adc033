"""Metrics: the paper's evaluation quantities (§V-A) and time series.

* **task completion ratio** — tasks whose every flow met its deadline /
  all tasks;
* **flow completion ratio** — flows meeting deadlines / all flows;
* **application throughput** — bytes of flows meeting deadlines / total
  offered bytes (the paper's size-weighted counterpart of the flow ratio);
* **wasted bandwidth ratio** — bytes transmitted by flows that ultimately
  missed / total task size (Fig. 8's definition);
* **effective application throughput over time** — the Fig. 14 trace,
  from a :class:`~repro.metrics.transmission.TransmissionLog`, which also
  gives each link's useful and wasted bytes.

Plus :mod:`repro.metrics.tracestats`, which digests a decision trace
(:mod:`repro.trace`) into headline admission/preemption/slice counts.
The allocation hot path's work counters live in
:mod:`repro.obs.hotpath`.
"""

from repro.metrics.summary import RunMetrics, summarize
from repro.metrics.tracestats import TraceDigest, trace_digest
from repro.metrics.transmission import TransmissionLog

__all__ = [
    "RunMetrics",
    "summarize",
    "TraceDigest",
    "trace_digest",
    "TransmissionLog",
]
