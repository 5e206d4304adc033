"""Cross-run regression diffing: severity model, loading, history store."""

import json

import pytest

from repro.obs.diffing import (
    DiffError,
    append_history,
    diff_bundles,
    diff_paths,
    latest_history,
    load_bundle,
)
from repro.obs.export import write_jsonl
from repro.obs.registry import MetricsRegistry
from repro.trace.events import TaskArrival, TaskReject
from repro.trace.recorder import TraceRecorder


def _write_run_dir(tmp_path, name, recorder, registry):
    run = tmp_path / name
    run.mkdir()
    (run / "trace.jsonl").write_text(recorder.dumps())
    write_jsonl(registry, run / "telemetry.jsonl")
    return run


def _registry(counts=(3, 1), latencies=(1e-3,) * 100):
    reg = MetricsRegistry(meta={"seed": 7})
    reg.counter("controller/tasks_accepted").inc(counts[0])
    reg.counter("controller/tasks_rejected").inc(counts[1])
    h = reg.histogram("controller/admission_latency_seconds")
    for v in latencies:
        h.observe(v)
    return reg


# -- identical bundles: zero findings, exit 0 ----------------------------------


def test_identical_run_dirs_diff_clean(traced_run, tmp_path):
    _result, recorder, registry = traced_run
    a = _write_run_dir(tmp_path, "a", recorder, registry)
    b = _write_run_dir(tmp_path, "b", recorder, registry)
    report = diff_paths(a, b)
    assert report.traces_identical is True
    assert report.findings() == []
    assert report.ok and report.exit_code == 0
    assert report.metrics_compared > 0
    js = report.to_json()
    assert js["regressions"] == 0 and js["warnings"] == 0
    assert js["deltas"] == []


# -- injected timing regression ------------------------------------------------


def test_injected_admission_p99_regression_is_flagged(tmp_path):
    """A >=10% admission-latency regression is surfaced as a warning by
    default and escalates to a blocking regression under strict timing."""
    ra = _registry(latencies=(1e-3,) * 100)
    rb = _registry(latencies=(1e-2,) * 100)  # 10x slower: way over 10%
    rec = TraceRecorder()  # identical (empty) traces on both sides
    a = _write_run_dir(tmp_path, "a", rec, ra)
    b = _write_run_dir(tmp_path, "b", rec, rb)

    report = diff_paths(a, b)
    flagged = {d.metric for d in report.warnings}
    assert "telemetry/admission_p99_seconds" in flagged
    assert report.exit_code == 0, "timing drift alone must not block"

    strict = diff_paths(a, b, strict_timing=True)
    blocked = {d.metric for d in strict.regressions}
    assert "telemetry/admission_p99_seconds" in blocked
    assert strict.exit_code == 1


def test_timing_improvement_is_not_a_finding_severity_error(tmp_path):
    ra = _registry(latencies=(1e-2,) * 100)
    rb = _registry(latencies=(1e-3,) * 100)  # b got faster
    rec = TraceRecorder()
    report = diff_paths(
        _write_run_dir(tmp_path, "a", rec, ra),
        _write_run_dir(tmp_path, "b", rec, rb),
    )
    assert report.exit_code == 0
    improved = {d.metric for d in report.improvements}
    assert "telemetry/admission_p99_seconds" in improved


def test_sub_threshold_timing_drift_is_ok(tmp_path):
    ra = _registry(latencies=(1.00e-3,) * 100)
    rb = _registry(latencies=(1.05e-3,) * 100)  # +5% < 10% threshold
    rec = TraceRecorder()
    report = diff_paths(
        _write_run_dir(tmp_path, "a", rec, ra),
        _write_run_dir(tmp_path, "b", rec, rb),
    )
    assert not any(
        d.metric == "telemetry/admission_p99_seconds"
        for d in report.findings()
    )


# -- deterministic count regressions are always blocking -----------------------


def _trace_with_rejects(n):
    rec = TraceRecorder()
    for i in range(4):
        rec.emit(TaskArrival(0.1 * i, task_id=i, deadline=5.0,
                             num_flows=1, total_bytes=1.0))
    for i in range(n):
        rec.emit(TaskReject(0.5 + 0.1 * i, task_id=i, reason="would-miss",
                            clause=2, missing=((i, i),),
                            lateness=((i, 0.25),)))
    return rec


def test_count_regression_blocks(tmp_path):
    reg = _registry()
    a = _write_run_dir(tmp_path, "a", _trace_with_rejects(1), reg)
    b = _write_run_dir(tmp_path, "b", _trace_with_rejects(3), reg)
    report = diff_paths(a, b)
    assert report.traces_identical is False
    assert report.exit_code == 1
    metrics = {d.metric for d in report.regressions}
    assert "trace/tasks_rejected" in metrics


def test_count_improvement_reported_not_blocking(tmp_path):
    reg = _registry()
    a = _write_run_dir(tmp_path, "a", _trace_with_rejects(3), reg)
    b = _write_run_dir(tmp_path, "b", _trace_with_rejects(1), reg)
    report = diff_paths(a, b)
    assert report.exit_code == 0
    assert any(d.metric == "trace/tasks_rejected"
               for d in report.improvements)


# -- perf-record diffs ---------------------------------------------------------


def _perf_record(controller=2.0, speedup=3.0, accepted=20):
    return {
        "scale": "smoke",
        "slow": {"controller_seconds": controller,
                 "stats": {"tasks_accepted": accepted}},
        "speedup": {"controller": speedup},
        "workload": {"num_tasks": 24},
        "trace_events": 900,
    }


def test_perf_record_diff_directions(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(_perf_record()))
    (tmp_path / "b.json").write_text(json.dumps(
        _perf_record(controller=3.0, speedup=2.0, accepted=19)))
    report = diff_paths(tmp_path / "a.json", tmp_path / "b.json")
    # seconds up = worse, speedup down = worse, accepted down = regression
    warn = {d.metric for d in report.warnings}
    assert any(m.endswith("slow/controller_seconds") for m in warn)
    assert any(m.endswith("speedup/controller") for m in warn)
    assert any(m.endswith("stats/tasks_accepted")
               for m in (d.metric for d in report.regressions))
    # workload/trace_events metadata is skipped, not compared
    assert not any("workload" in d.metric or "trace_events" in d.metric
                   for d in report.deltas)


def test_single_records_compare_across_names(tmp_path):
    (tmp_path / "old-perf.json").write_text(json.dumps(_perf_record()))
    (tmp_path / "fresh.json").write_text(json.dumps(_perf_record()))
    report = diff_paths(tmp_path / "old-perf.json", tmp_path / "fresh.json")
    assert report.metrics_compared > 0
    assert report.findings() == []


def test_perf_records_of_different_workloads_are_refused(tmp_path):
    smoke = _perf_record()
    full = {**_perf_record(), "scale": "full"}
    bigger = {**_perf_record(), "workload": {"num_tasks": 180}}
    (tmp_path / "a.json").write_text(json.dumps(smoke))
    for name, other, block in (("full", full, "scale"),
                               ("bigger", bigger, "workload")):
        (tmp_path / f"{name}.json").write_text(json.dumps(other))
        with pytest.raises(DiffError, match=f"different {block}s"):
            diff_paths(tmp_path / "a.json", tmp_path / f"{name}.json")


# -- history store -------------------------------------------------------------


def test_append_and_latest_history(tmp_path):
    hist = tmp_path / "history"
    p1 = append_history(_perf_record(), hist)
    p2 = append_history(_perf_record(controller=2.1), hist)
    assert p1.name == "0001-perf.json" and p2.name == "0002-perf.json"
    assert latest_history(hist) == p2
    assert latest_history(tmp_path / "empty") is None


def test_history_dir_loads_as_latest_record(tmp_path):
    hist = tmp_path / "history"
    append_history(_perf_record(controller=9.0), hist)
    append_history(_perf_record(controller=2.0), hist)
    bundle = load_bundle(hist)
    assert set(bundle.perf) == {"latest"}
    assert bundle.perf["latest"]["slow"]["controller_seconds"] == 2.0
    # diffing history-latest against a fresh record works across names
    (tmp_path / "fresh.json").write_text(
        json.dumps(_perf_record(controller=2.0)))
    report = diff_bundles(bundle, load_bundle(tmp_path / "fresh.json"))
    assert report.findings() == []


# -- loader errors -------------------------------------------------------------


def test_load_bundle_rejects_empty_dir(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    with pytest.raises(DiffError, match="no artifact bundle"):
        load_bundle(empty)


def test_load_bundle_rejects_junk_jsonl(tmp_path):
    junk = tmp_path / "x.jsonl"
    junk.write_text("not json\n")
    with pytest.raises(DiffError, match="neither a trace nor a telemetry"):
        load_bundle(junk)


def test_load_bundle_rejects_json_array(tmp_path):
    arr = tmp_path / "trace.chrome.json"
    arr.write_text("[]")
    with pytest.raises(DiffError, match="not an object"):
        load_bundle(arr)


def test_diff_requires_something_comparable(tmp_path):
    # a perf record against a pure trace bundle shares no artifact kind
    (tmp_path / "perf.json").write_text(json.dumps(_perf_record()))
    run = tmp_path / "run"
    run.mkdir()
    (run / "trace.jsonl").write_text(_trace_with_rejects(1).dumps())
    with pytest.raises(DiffError, match="nothing comparable"):
        diff_paths(tmp_path / "perf.json", run)
