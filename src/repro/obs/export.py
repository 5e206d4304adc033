"""Telemetry export: versioned JSONL snapshots.

A run's telemetry file, written next to its trace output, holds one
header object (``telemetry-header`` with :data:`TELEMETRY_SCHEMA_VERSION`
and the run meta) followed by one object per instrument, stably ordered by
``(name, labels)``.  :func:`load_jsonl` reads it back into a
:class:`~repro.obs.registry.MetricsRegistry` with **strict** validation
(exact field sets, types, bucket-layout consistency, one line per
instrument) and raises :class:`TelemetryError` on any deviation —
``repro-taps stats`` turns that into a non-zero exit, so a schema drift
can never render as a half-plausible report.

Serialization is deterministic: equal registries produce byte-identical
files (the round-trip tests assert export → load → export equality).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.registry import MetricsRegistry
from repro.util.jsonl import read_jsonl

TELEMETRY_SCHEMA_VERSION = 1
"""Version of the telemetry JSONL schema.

Bump on any change to the header shape, instrument kinds, their field
sets, or the default histogram bucket layout's *meaning*.  Checked on
load; ``repro-taps stats`` refuses mismatched files.
"""


class TelemetryError(ValueError):
    """A telemetry artifact violated the schema."""


# -- JSONL ---------------------------------------------------------------------

#: the header's exact field set
_HEADER_FIELDS = {"kind", "schema", "meta"}

#: exact field sets per instrument kind (validation is closed-world:
#: unknown or missing fields are schema violations, not extensions)
_FIELDS = {
    "counter": {"kind", "name", "labels", "value"},
    "gauge": {"kind", "name", "labels", "value", "max"},
    "histogram": {"kind", "name", "labels", "lo", "growth", "buckets",
                  "counts", "sum", "count", "min", "max"},
}
#: the fields of each kind that must be numbers (a histogram's ``buckets``
#: and ``count`` must also be ints)
_NUMBERS = {"counter": ("value",), "gauge": ("value", "max"),
            "histogram": ("lo", "growth", "sum", "min", "max")}


def header(registry: MetricsRegistry) -> dict[str, Any]:
    return {
        "kind": "telemetry-header",
        "schema": TELEMETRY_SCHEMA_VERSION,
        "meta": dict(sorted(registry.meta.items())),
    }


def dumps_jsonl(registry: MetricsRegistry) -> str:
    """The registry as a JSONL string (header + one line per instrument)."""
    lines = [json.dumps(header(registry), separators=(",", ":"), sort_keys=True)]
    lines.extend(
        json.dumps(snap, separators=(",", ":"), sort_keys=True)
        for snap in registry.snapshot()
    )
    return "\n".join(lines) + "\n"


def write_jsonl(registry: MetricsRegistry, path: str | Path) -> Path:
    out = Path(path)
    out.write_text(dumps_jsonl(registry))
    return out


def _fail(msg: str) -> None:
    raise TelemetryError(msg)


def _validate_instrument(item: Any, lineno: int) -> None:
    if not isinstance(item, dict):
        _fail(f"line {lineno}: instrument must be an object")
    kind = item.get("kind")
    want = _FIELDS.get(kind) if isinstance(kind, str) else None
    if want is None:
        _fail(f"line {lineno}: unknown instrument kind {kind!r}")
    if set(item) != want:
        _fail(f"line {lineno}: field mismatch for {kind}: "
              f"{sorted(set(item) ^ want)}")
    if not isinstance(item["name"], str) or not item["name"]:
        _fail(f"line {lineno}: name must be a non-empty string")
    labels = item["labels"]
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        _fail(f"line {lineno}: labels must be a str→str object")
    for k in _NUMBERS[kind]:
        if isinstance(item[k], bool) or not isinstance(item[k], (int, float)):
            _fail(f"line {lineno}: {kind} {k} must be a number")
    if kind != "histogram":
        return
    for k in ("buckets", "count"):
        if isinstance(item[k], bool) or not isinstance(item[k], int):
            _fail(f"line {lineno}: histogram {k} must be an int")
    counts = item["counts"]
    if (
        not isinstance(counts, list)
        or len(counts) != item["buckets"] + 2
        or not all(isinstance(c, int) and not isinstance(c, bool)
                   and c >= 0 for c in counts)
    ):
        _fail(f"line {lineno}: histogram counts must be "
              f"{item['buckets'] + 2} non-negative ints")
    if sum(counts) != item["count"]:
        _fail(f"line {lineno}: histogram counts sum to {sum(counts)}, "
              f"count says {item['count']}")


def load_jsonl(source: str | Path | Iterable[str]) -> MetricsRegistry:
    """Parse and strictly validate a telemetry JSONL export.

    Returns a :class:`~repro.obs.registry.MetricsRegistry` holding the
    header meta and one instrument per line, which exports back to the
    same bytes.  Raises :class:`TelemetryError` on a missing/foreign
    header, a schema version mismatch, or any malformed or repeated
    instrument line.
    """
    _, head, body = read_jsonl(
        source, {"telemetry": TELEMETRY_SCHEMA_VERSION}, TelemetryError
    )
    if set(head) != _HEADER_FIELDS:
        _fail(f"header field mismatch: {sorted(set(head) ^ _HEADER_FIELDS)}")
    if not isinstance(head["meta"], dict):
        _fail("header meta must be an object")
    registry = MetricsRegistry(meta=head["meta"])
    for lineno, item in body:
        _validate_instrument(item, lineno)
        if registry.get(item["name"], item["labels"]) is not None:
            _fail(f"line {lineno}: duplicate instrument {item['name']!r} "
                  f"{item['labels']}")
        try:
            registry.merge_snapshot(item)
        except ValueError as exc:
            _fail(f"line {lineno}: {exc}")
    return registry
