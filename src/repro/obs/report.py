"""Render a human-readable run report from a telemetry registry.

``repro-taps stats <run-dir>`` loads the run's telemetry export into a
:class:`~repro.obs.registry.MetricsRegistry` and prints
:func:`render_stats`; ``--json`` prints :func:`stats_json`, the dict that
text is rendered from, so the two report the same numbers.  A live
registry (the one ``run_traced(telemetry=...)`` filled) renders the same
way — nothing here re-simulates.  Sections degrade gracefully: a registry
that lacks an instrument (e.g. a bare controller benchmark never saw the
engine) simply omits its section rather than erroring.

Instrument names consumed here are the contract published in DESIGN.md
§7; renaming an instrument means updating both.
"""

from __future__ import annotations

from repro.obs.export import TELEMETRY_SCHEMA_VERSION
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.spans import span_tree

#: (key, counter) of each admission-decision count
_DECISIONS = (
    ("accepted", "controller/tasks_accepted"),
    ("rejected", "controller/tasks_rejected"),
    ("preempted", "controller/tasks_preempted"),
    ("reallocations", "controller/reallocations"),
    ("trials_rolled_back", "alloc/trials_rolled_back"),
)


def _value(reg: MetricsRegistry, name: str) -> float | None:
    inst = reg.get(name)
    return inst.value if inst is not None else None


def stats_json(reg: MetricsRegistry) -> dict:
    """The ``repro-taps stats --json`` payload, which :func:`render_stats`
    renders as text (CI and scripts consume this instead of scraping the
    text report)."""
    out: dict = {"schema": TELEMETRY_SCHEMA_VERSION, "meta": dict(reg.meta)}
    hist = reg.get("controller/admission_latency_seconds")
    if isinstance(hist, Histogram) and hist.count:
        out["admission_latency"] = {
            "count": hist.count, "mean": hist.mean, "sum": hist.sum,
            "max": hist.max, **hist.percentiles(0.50, 0.90, 0.99),
        }
    decisions = {key: value for key, name in _DECISIONS
                 if (value := _value(reg, name)) is not None}
    if decisions:
        out["decisions"] = decisions
    caches = {}
    hits = _value(reg, "alloc/union_cache_hits")
    misses = _value(reg, "alloc/union_cache_misses")
    if hits is not None or misses is not None:
        caches["union_cache"] = {"hits": hits or 0, "misses": misses or 0}
    evaluated = _value(reg, "alloc/candidates_evaluated")
    if evaluated is not None:
        caches["path_prune"] = {
            "pruned": _value(reg, "alloc/candidates_pruned") or 0,
            "evaluated": evaluated,
        }
    if caches:
        out["caches"] = caches
    spans = span_tree(reg)
    if spans:
        out["spans"] = [
            {"path": path, "calls": calls, "total_seconds": seconds,
             "mean_seconds": seconds / calls if calls else 0.0}
            for path, (calls, seconds) in spans.items()
        ]
    return out


def _fmt_seconds(s: float) -> str:
    if s == 0:
        return "0"
    if s < 1e-3:
        return f"{s * 1e6:.1f}µs"
    if s < 1.0:
        return f"{s * 1e3:.2f}ms"
    return f"{s:.3f}s"


def _fmt_rate(num: float, den: float) -> str:
    return f"{num / den:6.1%}" if den else "   n/a"


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def render_stats(reg: MetricsRegistry) -> str:
    """The full ``repro-taps stats`` report: :func:`stats_json` as text."""
    doc = stats_json(reg)
    lines = [f"Telemetry report (schema {doc['schema']})"]
    lines.extend(f"  {k}: {v}" for k, v in sorted(doc["meta"].items()))
    if not len(reg):
        lines.append("  (no instruments recorded)")
        return "\n".join(lines) + "\n"
    if "admission_latency" in doc:
        lat = doc["admission_latency"]
        t = {k: _fmt_seconds(v) for k, v in lat.items() if k != "count"}
        lines += _section("Admission latency") + [
            f"  {lat['count']} admissions, mean {t['mean']}, total {t['sum']}",
            f"  p50 {t['p50']}  p90 {t['p90']}  p99 {t['p99']}  max {t['max']}"]
    decisions = doc.get("decisions", {})
    if "accepted" in decisions or "rejected" in decisions:
        counts = {key: decisions.get(key) or 0
                  for key in ("accepted", "rejected")}
        lines += _section("Admission decisions")
        for key, n in counts.items():
            lines.append(f"  {key}   {n:>8}  "
                         f"({_fmt_rate(n, sum(counts.values()))})")
        if decisions.get("preempted"):
            lines.append(f"  preempted  {decisions['preempted']:>8}  "
                         "(victim tasks discarded)")
        if "reallocations" in decisions:
            rollbacks = decisions.get("trials_rolled_back")
            lines.append(
                f"  reallocation rounds {decisions['reallocations']:>8}"
                + (f"  ({rollbacks:g} trials rolled back)" if rollbacks
                   else ""))
    caches = doc.get("caches", {})
    if caches:
        lines += _section("Cache and prune effectiveness")
        if "union_cache" in caches:
            cache = caches["union_cache"]
            hits, misses = cache["hits"], cache["misses"]
            lines.append(f"  {'union cache':<13} "
                         f"{_fmt_rate(hits, hits + misses)}  "
                         f"({hits} hits / {misses} misses)")
        if "path_prune" in caches:
            prune = caches["path_prune"]
            pruned, evaluated = prune["pruned"], prune["evaluated"]
            lines.append(f"  {'path prune':<13} {_fmt_rate(pruned, evaluated)}"
                         f"  ({pruned} of {evaluated} candidates)")
    spans = doc.get("spans", [])
    if spans:
        total = sum(s["total_seconds"] for s in spans if "/" not in s["path"])
        lines += _section("Span-time breakdown")
        lines.append(f"  {'span':<44} {'calls':>8} {'total':>10} {'mean':>10}")
        for s in spans:
            depth = s["path"].count("/")
            label = "  " * depth + s["path"].rsplit("/", 1)[-1]
            share = (f"  {s['total_seconds'] / total:5.1%}"
                     if depth == 0 and total else "")
            lines.append(f"  {label:<44} {s['calls']:>8} "
                         f"{_fmt_seconds(s['total_seconds']):>10} "
                         f"{_fmt_seconds(s['mean_seconds']):>10}{share}")
    return "\n".join(lines) + "\n"
