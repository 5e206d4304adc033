"""Telemetry export: versioned JSONL snapshots.

``telemetry.jsonl``, written next to a run's trace output, holds one
header object (``telemetry-header`` with :data:`TELEMETRY_SCHEMA_VERSION`
and the run meta) followed by one object per instrument, stably ordered by
``(name, labels)``.  :func:`load_jsonl` reads it back with **strict**
validation (exact field sets, types, bucket-layout consistency) and raises
:class:`TelemetryError` on any deviation — ``repro-taps stats`` turns that
into a non-zero exit, so a schema drift can never render as a
half-plausible report.

Serialization is deterministic: equal registries produce byte-identical
files (the round-trip tests assert export → load → merge-into-empty →
export equality).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.registry import MetricsRegistry

TELEMETRY_SCHEMA_VERSION = 1
"""Version of the telemetry JSONL schema.

Bump on any change to the header shape, instrument kinds, their field
sets, or the default histogram bucket layout's *meaning*.  Checked on
load; ``repro-taps stats`` refuses mismatched files.
"""


class TelemetryError(ValueError):
    """A telemetry artifact violated the schema."""


# -- JSONL ---------------------------------------------------------------------

#: exact field sets per instrument kind (validation is closed-world:
#: unknown or missing fields are schema violations, not extensions)
_FIELDS = {
    "counter": {"kind", "name", "labels", "value"},
    "gauge": {"kind", "name", "labels", "value", "max"},
    "histogram": {"kind", "name", "labels", "lo", "growth", "buckets",
                  "counts", "sum", "count", "min", "max"},
}


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


def _validate_instrument(item: Any, lineno: int) -> dict:
    if not isinstance(item, dict):
        _fail(f"line {lineno}: instrument must be an object")
    kind = item.get("kind")
    want = _FIELDS.get(kind)
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
    numeric = (int, float)
    if kind == "counter":
        if isinstance(item["value"], bool) or not isinstance(item["value"], numeric):
            _fail(f"line {lineno}: counter value must be a number")
    elif kind == "gauge":
        for k in ("value", "max"):
            if isinstance(item[k], bool) or not isinstance(item[k], numeric):
                _fail(f"line {lineno}: gauge {k} must be a number")
    else:  # histogram
        for k in ("lo", "growth", "sum", "min", "max"):
            if isinstance(item[k], bool) or not isinstance(item[k], numeric):
                _fail(f"line {lineno}: histogram {k} must be a number")
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
    return item


class TelemetrySnapshot:
    """A validated telemetry export, read back from JSONL."""

    __slots__ = ("schema", "meta", "instruments")

    def __init__(self, schema: int, meta: dict, instruments: list[dict]):
        self.schema = schema
        self.meta = meta
        self.instruments = instruments

    def find(self, name: str) -> list[dict]:
        """Instrument snapshots with this name (one per label set)."""
        return [i for i in self.instruments if i["name"] == name]

    def get(self, name: str) -> dict | None:
        """The single unlabelled instrument of this name, or ``None``."""
        for i in self.instruments:
            if i["name"] == name and not i["labels"]:
                return i
        return None

    def to_registry(self) -> MetricsRegistry:
        """Rebuild a live registry (quantiles etc.) from the snapshot."""
        reg = MetricsRegistry(meta=dict(self.meta))
        reg.merge_snapshot(self.instruments)
        return reg


def load_jsonl(source: str | Path | Iterable[str]) -> TelemetrySnapshot:
    """Parse and strictly validate a telemetry JSONL export.

    Raises :class:`TelemetryError` on a missing/foreign header, a schema
    version mismatch, or any malformed instrument line.
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        _fail("empty telemetry file: no header line")
    try:
        head = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"header is not JSON: {exc}") from None
    if not isinstance(head, dict) or head.get("kind") != "telemetry-header":
        _fail("not a telemetry file: first line is not a telemetry-header")
    if set(head) != {"kind", "schema", "meta"}:
        _fail(f"header field mismatch: "
              f"{sorted(set(head) ^ {'kind', 'schema', 'meta'})}")
    if head["schema"] != TELEMETRY_SCHEMA_VERSION:
        _fail(f"unsupported telemetry schema {head['schema']!r} "
              f"(this build reads schema {TELEMETRY_SCHEMA_VERSION})")
    if not isinstance(head["meta"], dict):
        _fail("header meta must be an object")
    instruments = []
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        try:
            item = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"line {lineno}: not JSON: {exc}") from None
        instruments.append(_validate_instrument(item, lineno))
    return TelemetrySnapshot(head["schema"], head["meta"], instruments)
