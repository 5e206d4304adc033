"""JSONL telemetry export: round-trip fidelity and strict validation.

The telemetry file is a versioned artifact other tooling (CI, ``stats``)
consumes, so the loader must reject anything mis-shaped rather than
render a half-plausible report from it.
"""

import json

import pytest

from repro.obs.export import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryError,
    dumps_jsonl,
    load_jsonl,
    write_jsonl,
)
from repro.obs.registry import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry(meta={"scale": "small", "seed": 3})
    reg.counter("controller/tasks_accepted").inc(12)
    reg.counter("alloc/intervals_scanned").inc(0)
    h = reg.histogram("controller/admission_latency_seconds")
    for v in (1e-4, 2e-4, 5e-3, 1e-2):
        h.observe(v)
    with reg.spans.span("run"):
        pass
    return reg


def test_jsonl_round_trip_is_byte_identical():
    reg = _sample_registry()
    text = dumps_jsonl(reg)
    assert json.loads(text.splitlines()[0])["schema"] == TELEMETRY_SCHEMA_VERSION
    loaded = load_jsonl(text.splitlines())
    assert isinstance(loaded, MetricsRegistry)
    assert loaded.meta == {"scale": "small", "seed": 3}
    # the loaded registry re-exports to identical bytes
    assert dumps_jsonl(loaded) == text


def test_run_export_round_trip_is_byte_identical(traced_run):
    """A real run's export reloads to a registry that writes the same
    bytes."""
    _result, _recorder, registry = traced_run
    text = dumps_jsonl(registry)
    assert dumps_jsonl(load_jsonl(text.splitlines())) == text


def test_write_and_load_file(tmp_path):
    path = write_jsonl(_sample_registry(), tmp_path / "telemetry.jsonl")
    reg = load_jsonl(path)
    assert reg.get("controller/tasks_accepted").value == 12
    assert reg.get("alloc/intervals_scanned").value == 0


def test_loaded_histogram_quantiles_survive_round_trip():
    reg = _sample_registry()
    live = reg.get("controller/admission_latency_seconds")
    loaded = load_jsonl(dumps_jsonl(reg).splitlines())
    rebuilt = loaded.get("controller/admission_latency_seconds")
    assert rebuilt.quantile(0.5) == live.quantile(0.5)
    assert rebuilt.quantile(0.99) == live.quantile(0.99)


def _lines():
    return dumps_jsonl(_sample_registry()).splitlines()


def _counter_line(lines):
    """Index and parsed body of the first counter instrument line.

    Instrument lines are sorted by name, so the counter is not at a fixed
    index — locate it by kind before mutating it.
    """
    for i, line in enumerate(lines[1:], start=1):
        item = json.loads(line)
        if item.get("kind") == "counter":
            return i, item
    raise AssertionError("sample registry has no counter line")


def test_load_rejects_empty_file():
    with pytest.raises(TelemetryError, match="no header"):
        load_jsonl([])


def test_load_rejects_foreign_header():
    with pytest.raises(TelemetryError, match="not a telemetry file"):
        load_jsonl(['{"kind":"trace-header","schema":1}'])


def test_load_rejects_header_junk():
    with pytest.raises(TelemetryError, match="not JSON"):
        load_jsonl(["nonsense"])


def test_load_rejects_schema_mismatch():
    lines = _lines()
    head = json.loads(lines[0])
    head["schema"] = TELEMETRY_SCHEMA_VERSION + 1
    lines[0] = json.dumps(head)
    with pytest.raises(TelemetryError, match="unsupported telemetry schema"):
        load_jsonl(lines)


def test_load_rejects_extra_header_field():
    lines = _lines()
    head = json.loads(lines[0])
    head["extra"] = 1
    lines[0] = json.dumps(head)
    with pytest.raises(TelemetryError, match="header field mismatch"):
        load_jsonl(lines)


def test_load_rejects_unknown_kind():
    lines = _lines() + ['{"kind":"gauge","name":"x","value":1}']
    with pytest.raises(TelemetryError, match="unknown instrument kind"):
        load_jsonl(lines)


def test_load_rejects_missing_field():
    lines = _lines()
    i, item = _counter_line(lines)
    del item["value"]
    lines[i] = json.dumps(item)
    with pytest.raises(TelemetryError, match="field mismatch"):
        load_jsonl(lines)


def test_load_rejects_extra_field():
    lines = _lines()
    i, item = _counter_line(lines)
    item["surprise"] = True
    lines[i] = json.dumps(item)
    with pytest.raises(TelemetryError, match="field mismatch"):
        load_jsonl(lines)


def test_load_rejects_wrong_value_type():
    lines = _lines()
    i, item = _counter_line(lines)
    item["value"] = "12"
    lines[i] = json.dumps(item)
    with pytest.raises(TelemetryError, match="must be a number"):
        load_jsonl(lines)


def test_load_rejects_bool_masquerading_as_number():
    lines = _lines()
    i, item = _counter_line(lines)
    item["value"] = True
    lines[i] = json.dumps(item)
    with pytest.raises(TelemetryError, match="must be a number"):
        load_jsonl(lines)


def test_load_rejects_histogram_count_mismatch():
    lines = _lines()
    for i, line in enumerate(lines):
        item = json.loads(line)
        if item.get("kind") == "histogram":
            item["count"] += 1
            lines[i] = json.dumps(item)
            break
    with pytest.raises(TelemetryError, match="counts sum"):
        load_jsonl(lines)


def test_load_rejects_wrong_bucket_count():
    lines = _lines()
    for i, line in enumerate(lines):
        item = json.loads(line)
        if item.get("kind") == "histogram":
            item["counts"] = item["counts"][:-1]
            lines[i] = json.dumps(item)
            break
    with pytest.raises(TelemetryError, match="non-negative ints"):
        load_jsonl(lines)


def test_load_rejects_repeated_instrument():
    """The exporter writes one line per name; a second line of that
    name is refused, not merged into the first."""
    lines = _lines()
    i, _item = _counter_line(lines)
    lines.append(lines[i])
    with pytest.raises(TelemetryError, match="duplicate instrument"):
        load_jsonl(lines)




def test_load_rejects_impossible_bucket_layout():
    """Every histogram has the one fixed layout, so a line that carries
    its own (here an impossible ``lo``) is a field mismatch."""
    lines = _lines()
    for i, line in enumerate(lines):
        item = json.loads(line)
        if item.get("kind") == "histogram":
            item["lo"] = 0
            lines[i] = json.dumps(item)
            break
    with pytest.raises(TelemetryError, match="field mismatch.*'lo'"):
        load_jsonl(lines)


def test_load_rejects_non_string_labels():
    """Instruments have no labels: a line that carries any is a field
    mismatch, not an extension."""
    lines = _lines()
    i, item = _counter_line(lines)
    item["labels"] = {"link": 4}
    lines[i] = json.dumps(item)
    with pytest.raises(TelemetryError, match="field mismatch.*'labels'"):
        load_jsonl(lines)
