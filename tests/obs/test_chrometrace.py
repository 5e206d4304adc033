"""Chrome trace-event export: format validity and determinism."""

import json

from repro.obs.chrometrace import (
    PID_NET,
    PID_PROFILE,
    PID_TASKS,
    chrome_events,
    dumps_chrome,
    write_chrome_trace,
)
from repro.obs.export import dumps_jsonl, load_jsonl
from repro.obs.timeline import timeline_from

REQUIRED = ("ph", "ts", "pid", "tid")


def _loaded(registry):
    """The registry as ``repro-taps timeline`` sees it: exported, loaded."""
    return load_jsonl(dumps_jsonl(registry).splitlines())


def test_every_event_has_required_fields(traced_run):
    _result, recorder, registry = traced_run
    tl = timeline_from(recorder)
    events = chrome_events(tl, _loaded(registry))
    assert events
    for ev in events:
        for key in REQUIRED:
            assert key in ev, f"{ev.get('name')}: missing {key}"
        assert ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
        if ev["ph"] == "i":
            assert ev["s"] in ("g", "p", "t")


def test_output_is_a_loadable_json_array(traced_run, tmp_path):
    _result, recorder, registry = traced_run
    tl = timeline_from(recorder)
    out = write_chrome_trace(tmp_path / "run.chrome.json", tl,
                             _loaded(registry))
    loaded = json.loads(out.read_text())
    assert isinstance(loaded, list) and loaded
    assert all(isinstance(e, dict) for e in loaded)


def test_task_async_tracks_are_balanced(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    events = chrome_events(tl)
    begins = {e["id"] for e in events if e["ph"] == "b"}
    ends = {e["id"] for e in events if e["ph"] == "e"}
    assert begins == ends == set(tl.tasks)
    # one lane per active link on the network pid
    link_tids = {e["tid"] for e in events
                 if e["pid"] == PID_NET and e["ph"] == "X"}
    assert link_tids == set(tl.links)


def test_faulted_run_exports_outage_and_validates(faulted_run, tmp_path):
    """The acceptance scenario: a traced run including a link-outage
    fault produces a valid trace-event array with the outage visible."""
    _result, recorder, registry = faulted_run
    tl = timeline_from(recorder)
    out = write_chrome_trace(tmp_path / "faulted.chrome.json", tl,
                             _loaded(registry))
    events = json.loads(out.read_text())
    assert isinstance(events, list)
    for ev in events:
        assert all(key in ev for key in REQUIRED)
    outages = [e for e in events if e.get("cat") == "fault"]
    assert outages, "the injected outage must be exported"
    assert all(e["ph"] == "X" and e["dur"] > 0 for e in outages)
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert {"active flows", "busy links", "down links"} <= counters


def test_span_flame_nests_children_in_parents(traced_run):
    _result, recorder, registry = traced_run
    tl = timeline_from(recorder)
    events = chrome_events(tl, _loaded(registry))
    frames = {
        e["args"]["path"]: (e["ts"], e["ts"] + e["dur"])
        for e in events
        if e["pid"] == PID_PROFILE and e["ph"] == "X"
    }
    assert "run" in frames
    for path, (start, end) in frames.items():
        if "/" not in path:
            continue
        parent = frames[path.rsplit("/", 1)[0]]
        assert parent[0] - 1e-6 <= start and end <= parent[1] + 1e-6, (
            f"span {path} escapes its parent"
        )


def test_export_is_deterministic(traced_run):
    _result, recorder, registry = traced_run
    tl = timeline_from(recorder)
    loaded = _loaded(registry)
    assert dumps_chrome(tl, loaded) == dumps_chrome(
        timeline_from(recorder), loaded
    )


def test_live_registry_exports_like_its_loaded_copy(traced_run):
    _result, recorder, registry = traced_run
    tl = timeline_from(recorder)
    assert dumps_chrome(tl, registry) == dumps_chrome(tl, _loaded(registry))


def test_pids_are_disjoint_namespaces(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    events = chrome_events(tl)
    pids = {e["pid"] for e in events}
    assert PID_TASKS in pids and PID_NET in pids
    assert PID_PROFILE not in pids  # no telemetry supplied
