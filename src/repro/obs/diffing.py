"""Cross-run regression diffing over artifact bundles.

``repro-taps diff <run-a> <run-b>`` compares two artifact bundles — a
``run --out-dir`` directory (trace JSONL + telemetry JSONL + any perf
records), a bare trace or telemetry JSONL file, a single perf record
JSON, or a ``benchmarks/results/history/`` store (its newest record) —
and reports per-metric deltas with a severity model built
around one fact: **decision metrics are deterministic, wall-clock
metrics are not.**

* *Deterministic* metrics (trace-digest counts, admission-decision
  counters) carry a direction — fewer accepted tasks, more rejections,
  more expiries is worse — and **any** worsening is a blocking
  ``regression`` (exit 1).  Two identical-seed runs are guaranteed to
  produce zero of these, because their traces are byte-identical.
* *Timing* metrics (admission latency percentiles, span totals, perf
  record seconds, speedups) are compared against a **relative
  threshold** (default 10%).  A worsening beyond the threshold is a
  non-blocking ``warning`` by default — shared CI runners are too noisy
  to gate on wall clock — escalated to a blocking ``regression`` with
  ``strict_timing`` (the knob a quiet dedicated box can afford).

The report is machine-readable (:meth:`DiffReport.to_json`) and the CLI
exits non-zero exactly when a blocking regression was found, so CI can
gate merges on decision quality while only surfacing timing drift.

:func:`append_history` / :func:`latest_history` maintain the
append-only ``benchmarks/results/history/`` perf record store
(``0001-<name>.json``, ``0002-<name>.json``, …) of full-scale records.
Perf records compare only at one ``scale`` and ``workload``; a pair that
differs in either is refused with :class:`DiffError`, since every count
in it would read as a change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.metrics.tracestats import TraceDigest, trace_digest
from repro.obs.export import TELEMETRY_SCHEMA_VERSION
from repro.obs.export import load_jsonl as load_telemetry_jsonl
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import span_tree
from repro.trace.events import SCHEMA_VERSION as TRACE_SCHEMA_VERSION
from repro.trace.recorder import load_jsonl as load_trace_jsonl
from repro.util.jsonl import read_jsonl

DIFF_SCHEMA_VERSION = 1
"""Version of the ``diff --json`` report shape."""

#: default relative threshold for timing comparisons (10%)
TIMING_THRESHOLD = 0.10


class DiffError(ValueError):
    """A bundle could not be loaded or the pair has nothing comparable."""


# -- bundle loading ------------------------------------------------------------


@dataclass(slots=True)
class Bundle:
    """One side of a diff: whatever artifacts the path held."""

    label: str
    source: Path
    digest: TraceDigest | None = None
    trace_sha: str | None = None
    telemetry: MetricsRegistry | None = None
    perf: dict[str, dict] = field(default_factory=dict)


def _load(load, path: Path):
    """``load(path)``, with a file that fails to load as a :class:`DiffError`."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise DiffError(f"{path}: {exc}") from None


def _load_trace_into(bundle: Bundle, path: Path) -> None:
    trace = _load(load_trace_jsonl, path)
    bundle.digest = trace_digest(trace.events)
    bundle.trace_sha = hashlib.sha256(path.read_bytes()).hexdigest()


def _load_perf_json(path: Path) -> dict | None:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DiffError(f"{path}: not readable JSON: {exc}") from None
    # chrome traces and other arrays are not perf records
    return data if isinstance(data, dict) else None


def load_bundle(path: str | Path, label: str | None = None) -> Bundle:
    """Load whatever artifacts ``path`` holds (see module doc).

    Raises :class:`DiffError` when nothing comparable is found or an
    artifact in it fails to load.
    """
    src = Path(path)
    bundle = Bundle(label=label or str(path), source=src)
    if src.is_dir():
        from repro.exp.runner import run_files

        files = run_files(src)
        if files["trace"].exists():
            _load_trace_into(bundle, files["trace"])
        if files["telemetry"].exists():
            bundle.telemetry = _load(load_telemetry_jsonl, files["telemetry"])
        records = {
            p.name: rec
            for p in sorted(src.glob("*.json"))
            if (rec := _load_perf_json(p)) is not None
        }
        if bundle.digest is None and bundle.telemetry is None and records:
            # a history store: compare only its newest record
            newest = sorted(records)[-1]
            bundle.perf = {"latest": records[newest]}
        else:
            bundle.perf = {Path(n).stem: r for n, r in records.items()}
    elif src.suffix == ".jsonl":
        # which of the two run artifacts the file holds
        schemas = {"trace": TRACE_SCHEMA_VERSION,
                   "telemetry": TELEMETRY_SCHEMA_VERSION}
        if _load(lambda p: read_jsonl(p, schemas)[0], src) == "trace":
            _load_trace_into(bundle, src)
        else:
            bundle.telemetry = _load(load_telemetry_jsonl, src)
    elif src.suffix == ".json":
        rec = _load_perf_json(src)
        if rec is None:
            raise DiffError(f"{src}: JSON is not an object (perf record)")
        bundle.perf = {src.stem: rec}
    else:
        raise DiffError(f"{src}: no artifact bundle found")
    if bundle.digest is None and bundle.telemetry is None and not bundle.perf:
        raise DiffError(f"{src}: no artifact bundle found")
    return bundle


# -- metric model --------------------------------------------------------------

#: direction per decision-count name: True = higher is worse
_COUNT_DIRECTIONS = {
    "tasks_accepted": False,
    "flows_met": False,
    "tasks_rejected": True,
    "tasks_preempted": True,
    "tasks_dropped": True,
    "deadline_expiries": True,
}

#: digest fields compared with no direction (a change is informational)
_NEUTRAL_COUNTS = (
    "events", "tasks_arrived", "trial_attempts", "fault_reallocations",
    "link_state_changes", "slices", "flows_completed",
)

#: perf-record subtrees / leaves that are not comparable metrics
_PERF_SKIP = {"workload", "trace_events"}

#: perf-record blocks two records must share to be compared at all
_PERF_IDENTITY = ("scale", "workload")


@dataclass(slots=True)
class MetricDelta:
    """One compared metric."""

    metric: str
    kind: str  # "count" | "timing" | "info"
    a: float
    b: float
    severity: str  # "regression" | "warning" | "improvement" | "info" | "ok"
    direction: str = "neutral"  # "higher_worse" | "lower_worse" | "neutral"
    rel_change: float | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "kind": self.kind,
            "a": self.a,
            "b": self.b,
            "severity": self.severity,
            "direction": self.direction,
            "rel_change": self.rel_change,
        }

    def line(self) -> str:
        arrow = f"{self.a:g} -> {self.b:g}"
        rel = (
            f" ({self.rel_change:+.1%})" if self.rel_change is not None else ""
        )
        return f"[{self.severity:<11}] {self.metric}: {arrow}{rel}"


@dataclass(slots=True)
class DiffReport:
    """Outcome of one bundle diff."""

    a_label: str
    b_label: str
    timing_threshold: float
    strict_timing: bool
    deltas: list[MetricDelta] = field(default_factory=list)
    metrics_compared: int = 0
    traces_identical: bool | None = None

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.severity == "regression"]

    @property
    def warnings(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.severity == "warning"]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.severity == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def findings(self) -> list[MetricDelta]:
        """Every delta worth surfacing (anything but ``ok``)."""
        return [d for d in self.deltas if d.severity != "ok"]

    def summary(self) -> str:
        return (
            f"diff: {len(self.regressions)} regression(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.improvements)} improvement(s) over "
            f"{self.metrics_compared} compared metric(s)"
        )

    def lines(self) -> list[str]:
        out = [f"a: {self.a_label}", f"b: {self.b_label}"]
        if self.traces_identical is not None:
            out.append(
                "traces byte-identical"
                if self.traces_identical
                else "traces differ"
            )
        order = {"regression": 0, "warning": 1, "improvement": 2, "info": 3}
        for d in sorted(self.findings(),
                        key=lambda d: (order[d.severity], d.metric)):
            out.append("  " + d.line())
        out.append(self.summary())
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": DIFF_SCHEMA_VERSION,
            "a": self.a_label,
            "b": self.b_label,
            "timing_threshold": self.timing_threshold,
            "strict_timing": self.strict_timing,
            "traces_identical": self.traces_identical,
            "metrics_compared": self.metrics_compared,
            "regressions": len(self.regressions),
            "warnings": len(self.warnings),
            "improvements": len(self.improvements),
            "ok": self.ok,
            "deltas": [d.to_json() for d in self.findings()],
        }


def _count_delta(metric: str, a: float, b: float,
                 higher_worse: bool | None) -> MetricDelta | None:
    if a == b:
        return None
    if higher_worse is None:
        severity, direction = "info", "neutral"
    else:
        worsened = b > a if higher_worse else b < a
        severity = "regression" if worsened else "improvement"
        direction = "higher_worse" if higher_worse else "lower_worse"
    rel = (b - a) / a if a else None
    return MetricDelta(metric, "count", a, b, severity, direction, rel)


def _timing_delta(metric: str, a: float, b: float, threshold: float,
                  strict: bool, higher_worse: bool = True) -> MetricDelta:
    direction = "higher_worse" if higher_worse else "lower_worse"
    if a <= 0 or b < 0:
        severity = "ok" if a == b else "info"
        return MetricDelta(metric, "timing", a, b, severity, direction, None)
    rel = (b - a) / a
    worsened = rel > threshold if higher_worse else rel < -threshold
    improved = rel < -threshold if higher_worse else rel > threshold
    if worsened:
        severity = "regression" if strict else "warning"
    elif improved:
        severity = "improvement"
    else:
        severity = "ok"
    return MetricDelta(metric, "timing", a, b, severity, direction, rel)


def _digest_deltas(a: TraceDigest, b: TraceDigest) -> list[MetricDelta]:
    out = []
    for name, higher_worse in _COUNT_DIRECTIONS.items():
        d = _count_delta(f"trace/{name}", getattr(a, name),
                         getattr(b, name), higher_worse)
        if d:
            out.append(d)
    for name in _NEUTRAL_COUNTS:
        d = _count_delta(f"trace/{name}", getattr(a, name),
                         getattr(b, name), None)
        if d:
            out.append(d)
    clauses = sorted(set(a.rejects_by_clause) | set(b.rejects_by_clause))
    for c in clauses:
        d = _count_delta(
            f"trace/rejects[{c}]",
            a.rejects_by_clause.get(c, 0), b.rejects_by_clause.get(c, 0),
            None,
        )
        if d:
            out.append(d)
    return out


def _admission_hist(reg: MetricsRegistry) -> Histogram | None:
    h = reg.get("controller/admission_latency_seconds")
    return h if isinstance(h, Histogram) and h.count else None


def _telemetry_deltas(
    a: MetricsRegistry, b: MetricsRegistry,
    threshold: float, strict: bool,
) -> tuple[list[MetricDelta], int]:
    out: list[MetricDelta] = []
    compared = 0
    for name, higher_worse in _COUNT_DIRECTIONS.items():
        ia, ib = a.get(f"controller/{name}"), b.get(f"controller/{name}")
        if ia is None or ib is None:
            continue
        compared += 1
        d = _count_delta(f"telemetry/controller/{name}",
                         ia.value, ib.value, higher_worse)
        if d:
            out.append(d)
    ha, hb = _admission_hist(a), _admission_hist(b)
    if ha is not None and hb is not None:
        for label, qa, qb in (
            ("p50", ha.quantile(0.5), hb.quantile(0.5)),
            ("p99", ha.quantile(0.99), hb.quantile(0.99)),
            ("mean", ha.mean, hb.mean),
        ):
            compared += 1
            out.append(_timing_delta(
                f"telemetry/admission_{label}_seconds", qa, qb,
                threshold, strict,
            ))
    run_a, run_b = span_tree(a).get("run"), span_tree(b).get("run")
    if run_a is not None and run_b is not None:
        compared += 1
        out.append(_timing_delta("telemetry/span_run_total_seconds",
                                 run_a[1], run_b[1], threshold, strict))
    return out, compared


def _flatten(record: Any, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a perf record as ``path/to/leaf -> value``."""
    out: dict[str, float] = {}
    if isinstance(record, dict):
        for k, v in record.items():
            if k in _PERF_SKIP:
                continue
            out.update(_flatten(v, f"{prefix}{k}/"))
    elif isinstance(record, bool):
        pass
    elif isinstance(record, (int, float)):
        out[prefix.rstrip("/")] = float(record)
    return out


def _perf_deltas(
    name: str, a: dict, b: dict, threshold: float, strict: bool,
) -> tuple[list[MetricDelta], int]:
    for block in _PERF_IDENTITY:
        if a.get(block) != b.get(block):
            raise DiffError(
                f"perf records {name!r} measure different {block}s: "
                f"{a.get(block)!r} vs {b.get(block)!r}"
            )
    fa, fb = _flatten(a), _flatten(b)
    out: list[MetricDelta] = []
    compared = 0
    for key in sorted(set(fa) & set(fb)):
        va, vb = fa[key], fb[key]
        leaf = key.rsplit("/", 1)[-1]
        metric = f"perf/{name}/{key}"
        compared += 1
        if "seconds" in leaf:
            out.append(_timing_delta(metric, va, vb, threshold, strict))
        elif key.startswith("speedup/"):
            out.append(_timing_delta(metric, va, vb, threshold, strict,
                                     higher_worse=False))
        elif leaf in _COUNT_DIRECTIONS:
            d = _count_delta(metric, va, vb, _COUNT_DIRECTIONS[leaf])
            if d:
                out.append(d)
        else:
            d = _count_delta(metric, va, vb, None)
            if d:
                out.append(d)
    return out, compared


def diff_bundles(
    a: Bundle,
    b: Bundle,
    timing_threshold: float = TIMING_THRESHOLD,
    strict_timing: bool = False,
) -> DiffReport:
    """Compare two bundles over everything they have in common.

    Raises :class:`DiffError` when the pair shares no comparable
    artifact kind, or when two perf records measure a different
    ``scale`` or ``workload``.
    """
    report = DiffReport(
        a_label=a.label, b_label=b.label,
        timing_threshold=timing_threshold, strict_timing=strict_timing,
    )
    comparable = False
    if a.digest is not None and b.digest is not None:
        comparable = True
        deltas = _digest_deltas(a.digest, b.digest)
        report.deltas.extend(deltas)
        report.metrics_compared += (
            len(_COUNT_DIRECTIONS) + len(_NEUTRAL_COUNTS)
        )
        if a.trace_sha and b.trace_sha:
            report.traces_identical = a.trace_sha == b.trace_sha
    if a.telemetry is not None and b.telemetry is not None:
        comparable = True
        deltas, compared = _telemetry_deltas(
            a.telemetry, b.telemetry, timing_threshold, strict_timing
        )
        report.deltas.extend(deltas)
        report.metrics_compared += compared
    shared_perf = sorted(set(a.perf) & set(b.perf))
    if not shared_perf and len(a.perf) == 1 and len(b.perf) == 1:
        # single records on both sides (e.g. history latest vs a fresh
        # perf JSON): compare them regardless of file name
        only_a, only_b = next(iter(a.perf)), next(iter(b.perf))
        deltas, compared = _perf_deltas(
            only_b, a.perf[only_a], b.perf[only_b],
            timing_threshold, strict_timing,
        )
        comparable = comparable or compared > 0
        report.deltas.extend(deltas)
        report.metrics_compared += compared
    for name in shared_perf:
        deltas, compared = _perf_deltas(
            name, a.perf[name], b.perf[name], timing_threshold, strict_timing
        )
        comparable = comparable or compared > 0
        report.deltas.extend(deltas)
        report.metrics_compared += compared
    if not comparable:
        raise DiffError(
            f"nothing comparable between {a.label} and {b.label} "
            f"(no shared artifact kind)"
        )
    return report


def diff_paths(
    path_a: str | Path,
    path_b: str | Path,
    timing_threshold: float = TIMING_THRESHOLD,
    strict_timing: bool = False,
) -> DiffReport:
    """Load and diff two artifact paths (the CLI entry point)."""
    return diff_bundles(
        load_bundle(path_a), load_bundle(path_b),
        timing_threshold=timing_threshold, strict_timing=strict_timing,
    )


# -- append-only perf history --------------------------------------------------


def append_history(
    record: dict, history_dir: str | Path, name: str = "perf"
) -> Path:
    """Append ``record`` to the history store as the next numbered file."""
    root = Path(history_dir)
    root.mkdir(parents=True, exist_ok=True)
    seq = len(list(root.glob("*.json"))) + 1
    out = root / f"{seq:04d}-{name}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    return out


def latest_history(history_dir: str | Path) -> Path | None:
    """The newest record file in the store, or ``None`` when empty."""
    records = sorted(Path(history_dir).glob("*.json"))
    return records[-1] if records else None
