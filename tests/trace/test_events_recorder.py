"""Event vocabulary and recorder: round-trips, ring buffer, determinism."""

import json

import pytest

from repro.trace import (
    EVENT_TYPES,
    PlanRecord,
    SCHEMA_VERSION,
    SliceStart,
    TaskAccept,
    TaskArrival,
    TaskReject,
    TraceRecorder,
    TrialBegin,
    event_from_json,
    load_jsonl,
)


def _sample_events():
    plan = PlanRecord(flow_id=7, task_id=3, path=(1, 4, 9),
                      slices=(0.0, 0.5, 0.75, 1.0), completion=1.0,
                      deadline=1.2)
    return [
        TaskArrival(0.0, task_id=3, deadline=1.2, num_flows=2,
                    total_bytes=4096.0),
        TrialBegin(0.0, task_id=3, attempt=1,
                   flows=((7, 1.2, 2048.0, 0.0), (8, 1.2, 2048.0, 0.0))),
        TaskAccept(0.0, task_id=3, victims=(1,), plans=(plan,)),
        TaskReject(0.1, task_id=4, reason="would-miss", clause=3,
                   missing=((9, 2),), lateness=((9, 0.05),),
                   victim_ratio=0.6, new_ratio=0.2),
        SliceStart(0.2, flow_id=7, task_id=3, path=(1, 4, 9)),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("event", _sample_events(),
                             ids=lambda e: e.kind)
    def test_json_round_trip_is_identity(self, event):
        rebuilt = event_from_json(json.loads(json.dumps(event.to_json())))
        assert rebuilt == event

    def test_every_kind_is_registered_and_distinct(self):
        kinds = [cls.kind for cls in EVENT_TYPES.values()]
        assert len(kinds) == len(set(kinds))
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            event_from_json({"kind": "no-such-event", "seq": 0, "t": 0.0})

    def test_float_field_takes_an_int(self):
        ev = event_from_json({"kind": "run-end", "seq": 4, "t": 2})
        assert ev.time == 2 and ev.seq == 4

    def test_plan_record_round_trip(self):
        plan = PlanRecord(flow_id=1, task_id=2, path=(5,),
                          slices=(0.125, 0.25), completion=0.25, deadline=0.5)
        assert PlanRecord.from_json(plan.to_json()) == plan


class TestRecorder:
    def test_sequence_numbers_and_counts(self):
        rec = TraceRecorder()
        for ev in _sample_events():
            rec.emit(ev)
        assert [e.seq for e in rec.events] == [0, 1, 2, 3, 4]
        assert rec.emitted == 5
        assert not rec.truncated
        assert [e.kind for e in rec.events_of_kind("task-accept")] \
            == ["task-accept"]

    def test_ring_overflow_drops_oldest_and_counts(self):
        rec = TraceRecorder(capacity=3)
        for ev in _sample_events():
            rec.emit(ev)
        assert len(rec) == 3
        assert rec.dropped == 2
        assert rec.truncated
        assert [e.seq for e in rec.events] == [2, 3, 4]  # oldest gone

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        rec = TraceRecorder(meta={"scheduler": "TAPS"})
        rec.set_meta(priority="edf_sjf")
        for ev in _sample_events():
            rec.emit(ev)
        path = rec.to_jsonl(tmp_path / "trace.jsonl")
        loaded = load_jsonl(path)
        assert loaded.schema == SCHEMA_VERSION
        assert loaded.meta == {"scheduler": "TAPS", "priority": "edf_sjf"}
        assert loaded.emitted == 5
        assert not loaded.truncated
        assert loaded.events == rec.events

    def test_dumps_is_deterministic(self):
        def build():
            rec = TraceRecorder(meta={"b": 2, "a": 1})
            for ev in _sample_events():
                rec.emit(ev)
            return rec.dumps()

        assert build() == build()

    def test_load_rejects_foreign_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            load_jsonl(empty)
        with pytest.raises(ValueError, match="not a trace file"):
            load_jsonl(['{"kind":"task-arrival"}'])
        with pytest.raises(ValueError, match="unsupported trace schema"):
            load_jsonl(['{"kind":"trace-header","schema":999}'])

    def test_load_rejects_non_json_event_line(self):
        lines = _sample_lines()
        lines[2] = "{oops"
        with pytest.raises(ValueError, match="line 3: not JSON"):
            load_jsonl(lines)

    def test_clear_resets_everything(self):
        rec = TraceRecorder(capacity=2)
        for ev in _sample_events():
            rec.emit(ev)
        rec.clear()
        assert len(rec) == 0 and rec.emitted == 0 and rec.dropped == 0


def _sample_lines() -> list[str]:
    rec = TraceRecorder()
    for ev in _sample_events():
        rec.emit(ev)
    return rec.dumps().splitlines()


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _first_plan(change):
    def mutate(d):
        return {**d, "plans": [change(d["plans"][0])] + d["plans"][1:]}
    return mutate


def _set(key, value):
    return lambda d: {**d, key: value}


class TestLoadRejectsMalformedEvents:
    """A damaged event line is a load error that names its line — never a
    ``KeyError`` or ``TypeError`` traceback, and never a silently dropped
    or mistyped field, which could let a corrupted trace audit clean or
    crash the auditor and ``explain`` mid-replay."""

    @pytest.mark.parametrize("kind, mutate, message", [
        ("slice-start", _drop("t"), r"field mismatch for slice-start: \['t'\]"),
        ("task-arrival", _drop("seq"), r"field mismatch for task-arrival"),
        ("task-arrival", lambda d: {**d, "extra": 1},
         r"field mismatch for task-arrival: \['extra'\]"),
        ("task-reject", lambda d: [d], "trace event must be an object"),
        ("trial-begin", lambda d: {**d, "kind": "trial-start"},
         "unknown trace event kind 'trial-start'"),
        ("task-accept", _first_plan(_drop("deadline")),
         r"field mismatch for plan record: \['deadline'\]"),
        ("task-accept", _first_plan(lambda p: {**p, "rate": 1.0}),
         r"field mismatch for plan record: \['rate'\]"),
        ("task-accept", _first_plan(lambda p: 7),
         "plan record must be an object"),
        ("slice-start", lambda d: {**d, "path": 5}, "malformed slice-start"),
        ("slice-start", _set("t", "soon"),
         r"malformed slice-start: 't' must be float, got \"soon\""),
        ("task-arrival", _set("seq", 1.5),
         r"malformed task-arrival: 'seq' must be int, got 1.5"),
        ("task-arrival", _set("num_flows", True),
         r"malformed task-arrival: 'num_flows' must be int, got true"),
        ("task-arrival", _set("total_bytes", False),
         r"malformed task-arrival: 'total_bytes' must be float, got false"),
        ("task-reject", _set("reason", 7),
         r"malformed task-reject: 'reason' must be str, got 7"),
        ("task-reject", _set("clause", "3"),
         r"malformed task-reject: 'clause' must be int \| None, got \"3\""),
        ("task-reject", _set("victim_ratio", [0.6]),
         r"malformed task-reject: 'victim_ratio' must be float \| None, "
         r"got \[0.6\]"),
        ("task-accept", _set("victims", ["1"]),
         r"malformed task-accept: 'victims' must be tuple\[int, \.\.\.\]"),
        ("task-reject", _set("missing", [[9, 2, 1]]),
         r"malformed task-reject: 'missing' must be "
         r"tuple\[tuple\[int, int\], \.\.\.\]"),
        ("task-reject", _set("lateness", [9, 0.05]),
         r"malformed task-reject: 'lateness' must be "
         r"tuple\[tuple\[int, float\], \.\.\.\]"),
        ("trial-begin", _set("flows", [[7, 1.2, 2048.0]]),
         r"malformed trial-begin: 'flows' must be "
         r"tuple\[tuple\[int, float, float, float\], "),
        ("task-accept", _first_plan(_set("flow", "7")),
         r"malformed plan record: 'flow' must be int, got \"7\""),
        ("task-accept", _first_plan(_set("slices", "0.0")),
         r"malformed plan record: 'slices' must be tuple\[float, \.\.\.\]"),
    ], ids=["missing-t", "missing-seq", "unknown-field", "not-an-object",
            "unknown-kind", "plan-missing-field", "plan-unknown-field",
            "plan-not-an-object", "path-not-a-list", "t-string", "seq-float",
            "int-bool", "float-bool", "str-int", "optional-int-string",
            "optional-float-list", "int-tuple-string", "pair-too-long",
            "pairs-not-nested", "four-tuple-short", "plan-int-string",
            "plan-floats-string"])
    def test_bad_event_line_names_its_line(self, kind, mutate, message):
        lines = _sample_lines()
        i = next(i for i, line in enumerate(lines)
                 if json.loads(line)["kind"] == kind)
        lines[i] = json.dumps(mutate(json.loads(lines[i])))
        with pytest.raises(ValueError, match=f"line {i + 1}: {message}"):
            load_jsonl(lines)

    def test_bool_field_refuses_a_number(self):
        d = {"kind": "flow-completed", "seq": 0, "t": 1.0, "flow_id": 1,
             "task_id": 1, "met_deadline": 1}
        with pytest.raises(ValueError, match="'met_deadline' must be bool"):
            event_from_json(d)
        assert event_from_json({**d, "met_deadline": True}).met_deadline
