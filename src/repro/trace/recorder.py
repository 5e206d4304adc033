"""Ring-buffered decision-trace recorder with JSONL export.

One :class:`TraceRecorder` is shared by everything that traces a run: the
engine and the controller both ``emit()`` typed events
(:mod:`repro.trace.events`) into it, in causal order, each stamped with a
monotonically increasing sequence number.

The buffer is a ring (``collections.deque`` with ``maxlen``): at
production scale a trace of an unbounded run must not grow without bound,
so the recorder keeps the most recent ``capacity`` events and counts what
it dropped.  ``capacity=None`` keeps everything (the default for
experiment-sized runs, where the auditor needs the complete stream —
auditing a truncated trace is flagged as unsound).

Export is JSON Lines: one header object (schema version, metadata,
emitted/dropped counters) followed by one object per event.  Serialization
is deterministic — two runs that emitted identical events produce
byte-identical files, which is exactly what the controller-vs-oracle
equivalence tests assert.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.trace.events import SCHEMA_VERSION, TraceEvent, event_from_json
from repro.util.jsonl import read_jsonl


class TraceRecorder:
    """Collects trace events for one (or more) runs.

    Parameters
    ----------
    capacity:
        Ring size; the oldest events are dropped once exceeded.  ``None``
        (default) records everything.
    meta:
        Run metadata merged into the JSONL header (the controller adds
        scheduler name, priority, preemption policy at attach).  Must not
        contain anything mode-dependent: traces of decision-identical
        runs are expected to serialize identically.
    """

    __slots__ = ("_events", "_seq", "dropped", "meta")

    def __init__(
        self, capacity: int | None = None, meta: dict[str, Any] | None = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self.meta: dict[str, Any] = dict(meta) if meta else {}

    # -- recording -----------------------------------------------------------

    def emit(self, event: TraceEvent) -> TraceEvent:
        """Stamp ``event`` with the next sequence number and buffer it."""
        event.seq = self._seq
        self._seq += 1
        ev = self._events
        if ev.maxlen is not None and len(ev) == ev.maxlen:
            self.dropped += 1
        ev.append(event)
        return event

    def set_meta(self, **kwargs: Any) -> None:
        """Merge metadata into the header (controller identity, knobs)."""
        self.meta.update(kwargs)

    # -- access --------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including dropped ones)."""
        return self._seq

    @property
    def truncated(self) -> bool:
        """Whether the ring overflowed (the stream is incomplete)."""
        return self.dropped > 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        """The buffered events of one ``kind`` (e.g. ``"task-accept"``)."""
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        """Drop all buffered events and reset the counters."""
        self._events.clear()
        self._seq = 0
        self.dropped = 0

    # -- JSONL ---------------------------------------------------------------

    def _header(self) -> dict[str, Any]:
        return {
            "kind": "trace-header",
            "schema": SCHEMA_VERSION,
            "emitted": self.emitted,
            "dropped": self.dropped,
            "meta": dict(sorted(self.meta.items())),
        }

    def dumps(self) -> str:
        """The whole trace as a JSONL string (header + one line/event)."""
        lines = [json.dumps(self._header(), separators=(",", ":"))]
        lines.extend(
            json.dumps(e.to_json(), separators=(",", ":")) for e in self._events
        )
        return "\n".join(lines) + "\n"

    def to_jsonl(self, path: str | Path) -> Path:
        """Write the trace to ``path``; returns the path."""
        out = Path(path)
        out.write_text(self.dumps())
        return out


@dataclass(slots=True)
class LoadedTrace:
    """A trace read back from JSONL: header fields + typed events."""

    schema: int
    meta: dict[str, Any]
    emitted: int
    dropped: int
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return self.dropped > 0


def load_jsonl(source: str | Path | Iterable[str]) -> LoadedTrace:
    """Parse a JSONL trace (path or iterable of lines) back into events.

    Raises ``ValueError`` on a missing/foreign header, an unsupported
    schema version, or an event line that is not JSON, not an object, of
    an unknown kind, or with a missing, unknown or unreadable field (the
    message names the line).
    """
    _, header, body = read_jsonl(source, {"trace": SCHEMA_VERSION})
    events = []
    for lineno, item in body:
        try:
            events.append(event_from_json(item))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return LoadedTrace(
        schema=header["schema"],
        meta=header.get("meta", {}),
        emitted=header.get("emitted", len(events)),
        dropped=header.get("dropped", 0),
        events=events,
    )
