"""Export a run timeline as Chrome trace-event JSON (Perfetto-viewable).

``repro-taps timeline <run-dir>`` turns the artifact bundle into one
``trace.chrome.json`` — a plain JSON array in the Chrome trace-event
format, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``:

* **tasks** (pid 1) — one async track per task (``b``/``e`` events) from
  arrival to settlement, with instant markers invisible at this level
  left to the controller track;
* **network** (pid 2) — one thread lane per link carrying its exclusive
  transmission slices as complete (``X``) events, outage windows as
  ``X`` events in a ``fault`` category, plus counter (``C``) tracks for
  active flows, busy links, and down links;
* **controller** (pid 3) — admission decisions (accept / reject /
  preemption / drop / reallocation) as instant (``i``) events;
* **profile** (pid 4, only when a telemetry registry, loaded or live, is
  supplied) — the span-timer *aggregates* laid out as a flame graph:
  spans are recorded as histograms (DESIGN.md §7), so each ``X`` event
  here is a span's **total** wall time with children nested inside their
  parent, not an individual invocation.

Sim-time timelines use microseconds (``ts = sim seconds × 1e6``), the
unit the format specifies.  Export is deterministic: the same timeline
serializes byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import span_tree
from repro.obs.timeline import RunTimeline

PID_TASKS = 1
PID_NET = 2
PID_CONTROLLER = 3
PID_PROFILE = 4

_US = 1e6  # trace-event timestamps are microseconds


def _us(t: float) -> float:
    return round(t * _US, 3)


def _meta(pid: int, tid: int, name: str, what: str = "process_name") -> dict:
    return {"ph": "M", "ts": 0, "pid": pid, "tid": tid, "name": what,
            "args": {"name": name}}


def _instant(time: float, name: str, args: dict[str, Any]) -> dict:
    return {"ph": "i", "ts": _us(time), "pid": PID_CONTROLLER, "tid": 0,
            "s": "t", "name": name, "cat": "decision", "args": args}


def _counter(pid: int, time: float, name: str, value: float,
             series: str) -> dict:
    return {"ph": "C", "ts": _us(time), "pid": pid, "tid": 0,
            "name": name, "args": {series: value}}


def _task_events(tl: RunTimeline) -> list[dict]:
    out: list[dict] = []
    for tid in sorted(tl.tasks):
        task = tl.tasks[tid]
        start = task.arrival if task.arrival is not None else 0.0
        end = task.settled_at
        if end is None:
            end = tl.end_time
        name = f"task {tid}"
        common = {"cat": "task", "id": tid, "pid": PID_TASKS, "tid": 0,
                  "name": name}
        out.append({**common, "ph": "b", "ts": _us(start),
                    "args": {"deadline": task.deadline,
                             "flows": task.num_flows,
                             "bytes": task.total_bytes,
                             "outcome": task.outcome}})
        out.append({**common, "ph": "e", "ts": _us(max(end, start)),
                    "args": {}})
        # decision markers live on the controller track
        if task.decision == "accepted":
            out.append(_instant(task.decision_time, f"accept task {tid}",
                                {"victims": list(task.victims),
                                 "trials": len(task.trials)}))
        elif task.decision == "rejected":
            out.append(_instant(task.decision_time, f"reject task {tid}",
                                {"reason": task.reject_reason,
                                 "clause": task.reject_clause}))
        if task.preempted_by is not None:
            out.append(_instant(task.preempted_at, f"preempt task {tid}",
                                {"by": task.preempted_by,
                                 "killed_flows": list(task.killed_flows)}))
        if task.dropped_cause is not None:
            out.append(_instant(task.dropped_at, f"drop task {tid}",
                                {"cause": task.dropped_cause}))
    for snap in tl.plan_snapshots:
        if snap.kind == "fault-reallocation":
            out.append(_instant(snap.time, "fault reallocation",
                                {"plans": len(snap.plans)}))
    return out


def _net_events(tl: RunTimeline) -> list[dict]:
    out: list[dict] = []
    deltas: dict[str, list[tuple[float, int]]] = {
        "active flows": [], "busy links": [], "down links": [],
    }
    for fid in sorted(tl.flows):
        for sl in tl.flows[fid].slices:
            end = sl.end if sl.end is not None else tl.end_time
            deltas["active flows"].append((sl.start, 1))
            deltas["active flows"].append((end, -1))
    for link in sorted(tl.links):
        entry = tl.links[link]
        for iv in entry.busy:
            end = iv.end if iv.end is not None else tl.end_time
            out.append({"ph": "X", "ts": _us(iv.start),
                        "dur": _us(max(0.0, end - iv.start)),
                        "pid": PID_NET, "tid": link, "cat": "slice",
                        "name": f"flow {iv.flow_id}",
                        "args": {"task": iv.task_id}})
            deltas["busy links"].append((iv.start, 1))
            deltas["busy links"].append((end, -1))
        for start, end in entry.outages:
            end = end if end is not None else tl.end_time
            out.append({"ph": "X", "ts": _us(start),
                        "dur": _us(max(0.0, end - start)),
                        "pid": PID_NET, "tid": link, "cat": "fault",
                        "cname": "terrible", "name": "outage", "args": {}})
            deltas["down links"].append((start, 1))
            deltas["down links"].append((end, -1))
    for name, series in deltas.items():
        if not series:
            continue
        level = 0
        merged: dict[float, int] = {}
        for t, d in series:
            merged[t] = merged.get(t, 0) + d
        for t in sorted(merged):
            if merged[t] == 0:
                continue  # zero-sum instant (end meets start): no step
            level += merged[t]
            out.append(_counter(PID_NET, t, name, level, "n"))
    return out


def _span_flame(telemetry: MetricsRegistry) -> list[dict]:
    """The span-timer aggregates as one flame-graph layout.

    Spans are histograms (no per-invocation timestamps), so each frame
    is a span's *total* wall time; children are packed left-to-right
    inside their parent.  Path order visits every parent before its
    children.
    """
    out: list[dict] = []
    cursor: dict[str, float] = {"": 0.0}  # parent path -> next child offset
    for path, (calls, seconds) in span_tree(telemetry).items():
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        start = cursor.get(parent, 0.0)
        cursor[parent] = start + seconds
        cursor[path] = start
        out.append({"ph": "X", "ts": _us(start), "dur": _us(seconds),
                    "pid": PID_PROFILE, "tid": 0, "cat": "span-aggregate",
                    "name": path.rsplit("/", 1)[-1],
                    "args": {"path": path, "calls": calls,
                             "mean_s": seconds / calls if calls else 0.0,
                             "total_s": seconds}})
    return out


def chrome_events(
    tl: RunTimeline, telemetry: MetricsRegistry | None = None
) -> list[dict]:
    """The timeline (and optional telemetry spans) as trace-event dicts."""
    out: list[dict] = [
        _meta(PID_TASKS, 0, "tasks"),
        _meta(PID_NET, 0, "network"),
        _meta(PID_CONTROLLER, 0, "controller"),
        _meta(PID_CONTROLLER, 0, "admission decisions", "thread_name"),
    ]
    for link in sorted(tl.links):
        out.append(_meta(PID_NET, link, f"link {link}", "thread_name"))
    body = _task_events(tl) + _net_events(tl)
    if telemetry is not None:
        out.append(_meta(PID_PROFILE, 0, "controller wall-time profile"))
        body += _span_flame(telemetry)
    body.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return out + body


def dumps_chrome(
    tl: RunTimeline, telemetry: MetricsRegistry | None = None
) -> str:
    """The trace-event array as a compact JSON string."""
    return json.dumps(chrome_events(tl, telemetry), separators=(",", ":"))


def write_chrome_trace(
    path: str | Path,
    tl: RunTimeline,
    telemetry: MetricsRegistry | None = None,
) -> Path:
    """Write the Chrome trace-event JSON to ``path``; returns the path."""
    out = Path(path)
    out.write_text(dumps_chrome(tl, telemetry))
    return out
