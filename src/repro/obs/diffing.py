"""Cross-run regression diffing over artifact bundles.

``repro-taps diff <run-a> <run-b>`` compares two artifact bundles — a
``run --out-dir`` directory (trace JSONL + telemetry JSONL), a bare trace
or telemetry JSONL file, a single perf record JSON, or a
``benchmarks/results/history/`` store (its newest record).
:func:`load_bundle` turns each side into one flat map of named metrics:

* ``trace/<count>`` — the trace digest's counts, with
  ``trace/rejects[<clause or reason>]`` for each reject clause or reason
  (one seen on only one side compares against 0 on the other);
* ``telemetry/<counter>`` — every telemetry counter;
* ``telemetry/admission_{p50,p99,mean}_seconds`` — the admission span's
  histogram (:func:`~repro.obs.spans.admission_histogram`);
* ``telemetry/span/<path>/{calls,seconds}`` — each span path of
  :func:`~repro.obs.spans.span_tree`;
* ``perf/<path>`` — a perf record's numeric leaves outside its ``scale``
  and ``workload`` identity blocks; its ``layers`` block is the same span
  tree, ``perf/layers/<path>/{calls,seconds}``.

One loop compares the names both sides share and classifies each by its
name alone, around one fact: **decision metrics are deterministic,
wall-clock metrics are not.**

* A leaf named in :data:`_COUNT_DIRECTIONS` carries a direction — fewer
  accepted tasks, more rejections, more expiries is worse — and **any**
  worsening is a blocking ``regression`` (exit 1).  Two identical-seed
  runs produce none, because their traces are byte-identical.
* A leaf ending in ``seconds``, and a perf record's ``speedup/*`` (where
  lower is worse), is a *timing*: a worsening beyond
  :data:`TIMING_THRESHOLD` is a non-blocking ``warning``, since shared
  hosts are too noisy to gate on wall clock.
* Anything else is a neutral count: a change is ``info``.

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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.metrics.tracestats import TraceDigest, trace_digest
from repro.obs.export import TELEMETRY_SCHEMA_VERSION
from repro.obs.export import load_jsonl as load_telemetry_jsonl
from repro.obs.registry import Counter
from repro.obs.spans import admission_histogram, span_tree
from repro.trace.events import SCHEMA_VERSION as TRACE_SCHEMA_VERSION
from repro.trace.recorder import load_jsonl as load_trace_jsonl
from repro.util.jsonl import read_jsonl

DIFF_SCHEMA_VERSION = 2
"""Version of the ``diff --json`` report shape."""

#: relative change beyond which a timing is a finding (10%)
TIMING_THRESHOLD = 0.10

#: direction per decision-count leaf: True = higher is worse
_COUNT_DIRECTIONS = {
    "tasks_accepted": False,
    "flows_met": False,
    "tasks_rejected": True,
    "tasks_preempted": True,
    "tasks_dropped": True,
    "deadline_expiries": True,
}

#: perf-record blocks two records must share to be compared at all
_PERF_IDENTITY = ("scale", "workload")

#: the two JSONL artifacts a bundle may hold, by header kind
_JSONL_SCHEMAS = {"trace": TRACE_SCHEMA_VERSION,
                  "telemetry": TELEMETRY_SCHEMA_VERSION}


class DiffError(ValueError):
    """A bundle could not be loaded or the pair has nothing comparable."""


# -- bundle loading ------------------------------------------------------------


@dataclass(slots=True)
class Bundle:
    """One side of a diff: its metrics by name, plus what identifies it."""

    label: str
    metrics: dict[str, float] = field(default_factory=dict)
    trace_sha: str | None = None
    #: a perf record's identity blocks (``None`` for run artifacts)
    identity: dict[str, Any] | None = None


def _load(load, path: Path):
    """``load(path)``, with a file that fails to load as a :class:`DiffError`."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise DiffError(f"{path}: {exc}") from None


def _load_trace(bundle: Bundle, path: Path) -> None:
    digest = trace_digest(_load(load_trace_jsonl, path).events)
    bundle.metrics.update(
        (f"trace/{f.name}", getattr(digest, f.name))
        for f in fields(TraceDigest) if f.name != "rejects_by_clause"
    )
    bundle.metrics.update(
        (f"trace/rejects[{c}]", n) for c, n in digest.rejects_by_clause.items()
    )
    bundle.trace_sha = hashlib.sha256(path.read_bytes()).hexdigest()


def _load_telemetry(bundle: Bundle, path: Path) -> None:
    registry = _load(load_telemetry_jsonl, path)
    m = bundle.metrics
    m.update((f"telemetry/{c.name}", c.value)
             for c in registry.instruments() if isinstance(c, Counter))
    h = admission_histogram(registry)
    if h is not None:
        m["telemetry/admission_p50_seconds"] = h.quantile(0.5)
        m["telemetry/admission_p99_seconds"] = h.quantile(0.99)
        m["telemetry/admission_mean_seconds"] = h.mean
    for span, (calls, seconds) in span_tree(registry).items():
        m[f"telemetry/span/{span}/calls"] = calls
        m[f"telemetry/span/{span}/seconds"] = seconds


_JSONL_LOADERS = {"trace": _load_trace, "telemetry": _load_telemetry}


def _flatten(value: Any, name: str, out: dict[str, float]) -> None:
    """The numeric leaves under ``value`` as ``name/path/to/leaf``."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{name}/{k}", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[name] = value


def _load_perf(bundle: Bundle, path: Path) -> None:
    record = _load(lambda p: json.loads(p.read_text()), path)
    if not isinstance(record, dict):  # e.g. a Chrome trace's event array
        raise DiffError(f"{path}: JSON is not an object (perf record)")
    bundle.identity = {block: record.get(block) for block in _PERF_IDENTITY}
    for key, value in record.items():
        if key not in _PERF_IDENTITY:
            _flatten(value, f"perf/{key}", bundle.metrics)


def load_bundle(path: str | Path) -> Bundle:
    """Load the metrics ``path`` holds (see module doc).

    Raises :class:`DiffError` when nothing loadable is found or an
    artifact in it fails to load.
    """
    src = Path(path)
    bundle = Bundle(label=str(path))
    if src.is_dir():
        from repro.exp.runner import run_files

        files = {k: p for k, p in run_files(src).items() if p.exists()}
        for kind, file in files.items():
            _JSONL_LOADERS[kind](bundle, file)
        if not files:  # a history store: its newest record
            newest = latest_history(src)
            if newest is None:
                raise DiffError(f"{src}: no artifact bundle found")
            _load_perf(bundle, newest)
    elif src.suffix == ".jsonl":
        kind = _load(lambda p: read_jsonl(p, _JSONL_SCHEMAS)[0], src)
        _JSONL_LOADERS[kind](bundle, src)
    elif src.suffix == ".json":
        _load_perf(bundle, src)
    else:
        raise DiffError(f"{src}: no artifact bundle found")
    return bundle


# -- comparison ----------------------------------------------------------------


@dataclass(slots=True)
class MetricDelta:
    """One metric that changed enough to report."""

    metric: str
    kind: str  # "count" | "timing"
    a: float
    b: float
    severity: str  # "regression" | "warning" | "improvement" | "info"
    direction: str = "neutral"  # "higher_worse" | "lower_worse" | "neutral"
    rel_change: float | None = None

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    def line(self) -> str:
        arrow = f"{self.a:g} -> {self.b:g}"
        rel = (
            f" ({self.rel_change:+.1%})" if self.rel_change is not None else ""
        )
        return f"[{self.severity:<11}] {self.metric}: {arrow}{rel}"


_SEVERITY_ORDER = {"regression": 0, "warning": 1, "improvement": 2, "info": 3}


@dataclass(slots=True)
class DiffReport:
    """Outcome of one bundle diff: every finding, worst first."""

    a_label: str
    b_label: str
    metrics_compared: int = 0
    traces_identical: bool | None = None
    deltas: list[MetricDelta] = field(default_factory=list)

    def _with(self, severity: str) -> list[MetricDelta]:
        return [d for d in self.deltas if d.severity == severity]

    @property
    def regressions(self) -> list[MetricDelta]:
        return self._with("regression")

    @property
    def warnings(self) -> list[MetricDelta]:
        return self._with("warning")

    @property
    def improvements(self) -> list[MetricDelta]:
        return self._with("improvement")

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

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
        out.extend("  " + d.line() for d in self.deltas)
        out.append(self.summary())
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": DIFF_SCHEMA_VERSION,
            "a": self.a_label,
            "b": self.b_label,
            "timing_threshold": TIMING_THRESHOLD,
            "traces_identical": self.traces_identical,
            "metrics_compared": self.metrics_compared,
            "regressions": len(self.regressions),
            "warnings": len(self.warnings),
            "improvements": len(self.improvements),
            "ok": self.ok,
            "deltas": [d.to_json() for d in self.deltas],
        }


def _compare(name: str, a: float, b: float) -> MetricDelta | None:
    """The finding for metric ``name`` going ``a -> b``, classified by
    its name alone; ``None`` when there is nothing to report."""
    if a == b:
        return None
    rel = (b - a) / a if a else None
    leaf = name.rsplit("/", 1)[-1]
    if leaf in _COUNT_DIRECTIONS:
        higher_worse = _COUNT_DIRECTIONS[leaf]
        worse = b > a if higher_worse else b < a
        return MetricDelta(
            name, "count", a, b, "regression" if worse else "improvement",
            "higher_worse" if higher_worse else "lower_worse", rel,
        )
    speedup = name.startswith("perf/speedup/")
    if not (speedup or leaf.endswith("seconds")):
        return MetricDelta(name, "count", a, b, "info", "neutral", rel)
    direction = "lower_worse" if speedup else "higher_worse"
    if rel is None:  # from zero: no relative change to judge
        return MetricDelta(name, "timing", a, b, "info", direction, rel)
    worsening = -rel if speedup else rel
    if abs(worsening) <= TIMING_THRESHOLD:
        return None
    severity = "warning" if worsening > 0 else "improvement"
    return MetricDelta(name, "timing", a, b, severity, direction, rel)


def diff_bundles(a: Bundle, b: Bundle) -> DiffReport:
    """Compare every metric the two bundles share.

    Raises :class:`DiffError` when they share none, or when two perf
    records measure a different ``scale`` or ``workload``.
    """
    if a.identity is not None and b.identity is not None:
        for block in _PERF_IDENTITY:
            if a.identity[block] != b.identity[block]:
                raise DiffError(
                    f"perf records measure different {block}s: "
                    f"{a.identity[block]!r} vs {b.identity[block]!r}"
                )
    names = a.metrics.keys() & b.metrics.keys()
    if "trace/events" in names:
        # both sides hold a trace: a reject clause or reason seen on one
        # side only counts 0 on the other
        names |= {n for n in a.metrics.keys() ^ b.metrics.keys()
                  if n.startswith("trace/rejects[")}
    if not names:
        raise DiffError(
            f"nothing comparable between {a.label} and {b.label} "
            f"(no shared metric)"
        )
    report = DiffReport(a.label, b.label, metrics_compared=len(names))
    if a.trace_sha and b.trace_sha:
        report.traces_identical = a.trace_sha == b.trace_sha
    for name in sorted(names):
        delta = _compare(name, a.metrics.get(name, 0), b.metrics.get(name, 0))
        if delta is not None:
            report.deltas.append(delta)
    report.deltas.sort(key=lambda d: _SEVERITY_ORDER[d.severity])
    return report


def diff_paths(path_a: str | Path, path_b: str | Path) -> DiffReport:
    """Load and diff two artifact paths (the CLI entry point)."""
    return diff_bundles(load_bundle(path_a), load_bundle(path_b))


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
