"""The ``repro-taps stats`` report: one computation, two renderings.

:func:`~repro.obs.report.render_stats` renders the dict
:func:`~repro.obs.report.stats_json` returns, from a registry that was
either filled live or loaded from a telemetry export.
"""

from repro.obs.export import TELEMETRY_SCHEMA_VERSION, dumps_jsonl, load_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_stats, stats_json


def test_live_registry_reports_like_its_export(traced_run):
    _result, _recorder, registry = traced_run
    loaded = load_jsonl(dumps_jsonl(registry).splitlines())
    assert stats_json(registry) == stats_json(loaded)
    assert render_stats(registry) == render_stats(loaded)
    assert "Span-time breakdown" in render_stats(registry)


def test_json_carries_every_section_the_text_prints(traced_run):
    _result, _recorder, registry = traced_run
    doc = stats_json(registry)
    assert set(doc) == {"schema", "meta", "admission_latency", "decisions",
                        "caches", "spans"}
    assert set(doc["caches"]) == {"union_cache", "path_prune"}
    prune = doc["caches"]["path_prune"]
    assert prune["evaluated"] == registry.get("alloc/candidates_evaluated").value
    assert prune["pruned"] == registry.get("alloc/candidates_pruned").value


def test_empty_registry_reports_no_instruments():
    text = render_stats(MetricsRegistry(meta={"seed": 1}))
    assert text == (f"Telemetry report (schema {TELEMETRY_SCHEMA_VERSION})\n"
                    "  seed: 1\n  (no instruments recorded)\n")
    assert stats_json(MetricsRegistry()) == {
        "schema": TELEMETRY_SCHEMA_VERSION, "meta": {}}
