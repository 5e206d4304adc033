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
from repro.cli import main
from repro.obs.export import load_jsonl, write_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import span_tree
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
    h = reg.histogram("span/run/arrival/admission")
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
    assert report.deltas == []
    assert report.ok and report.exit_code == 0
    js = report.to_json()
    assert js["schema"] == 2 and "strict_timing" not in js
    assert js["regressions"] == 0 and js["warnings"] == 0
    assert js["deltas"] == []
    # every span path is compared, not only the run root
    metrics = load_bundle(a).metrics
    for span in span_tree(registry):
        assert f"telemetry/span/{span}/calls" in metrics
        assert f"telemetry/span/{span}/seconds" in metrics
    assert report.metrics_compared == len(metrics)


# -- injected timing regression ------------------------------------------------


def test_injected_admission_p99_regression_is_flagged(tmp_path):
    """A >=10% admission-latency regression is a warning, never a
    blocking regression: timing drift alone does not fail a diff."""
    ra = _registry(latencies=(1e-3,) * 100)
    rb = _registry(latencies=(1e-2,) * 100)  # 10x slower: way over 10%
    rec = TraceRecorder()  # identical (empty) traces on both sides
    a = _write_run_dir(tmp_path, "a", rec, ra)
    b = _write_run_dir(tmp_path, "b", rec, rb)

    report = diff_paths(a, b)
    flagged = {d.metric for d in report.warnings}
    assert "telemetry/admission_p99_seconds" in flagged
    assert report.regressions == []
    assert report.exit_code == 0, "timing drift alone must not block"


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
    assert report.deltas == []


def test_doubled_span_total_is_one_warning_naming_the_span(
        traced_run, tmp_path):
    """One span's total doubled, everything else byte-identical: exactly
    one finding, a warning on that span path's seconds."""
    _result, recorder, registry = traced_run
    a = _write_run_dir(tmp_path, "a", recorder, registry)
    slower = load_jsonl(a / "telemetry.jsonl")
    span = "run/arrival/admission/trial/path_calculation"
    slower.get(f"span/{span}").sum *= 2
    b = _write_run_dir(tmp_path, "b", recorder, slower)

    report = diff_paths(a, b)
    assert report.traces_identical is True
    assert [d.metric for d in report.deltas] == [
        f"telemetry/span/{span}/seconds"]
    (delta,) = report.warnings
    assert delta.kind == "timing" and delta.rel_change == pytest.approx(1.0)
    assert report.exit_code == 0


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


def test_reject_reason_on_one_side_compares_against_zero(tmp_path):
    """A clause (or reason) only one trace has counts 0 on the other."""
    reg = _registry()
    a_rec, b_rec = _trace_with_rejects(2), _trace_with_rejects(1)
    b_rec.emit(TaskReject(0.9, task_id=3, reason="unreachable", clause=None,
                          missing=(), lateness=()))
    a = _write_run_dir(tmp_path, "a", a_rec, reg)
    b = _write_run_dir(tmp_path, "b", b_rec, reg)
    for x, y, before, after in ((a, b, 0, 1), (b, a, 1, 0)):
        report = diff_paths(x, y)
        found = {d.metric: d for d in report.deltas}
        assert "trace/tasks_rejected" not in found  # 2 rejects each side
        one_sided = found["trace/rejects[unreachable]"]
        assert (one_sided.a, one_sided.b) == (before, after)
        assert one_sided.severity == "info"
        assert report.exit_code == 0


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
    assert [d.metric for d in report.regressions] == [
        "perf/slow/stats/tasks_accepted"]
    assert report.exit_code == 1
    # the identity blocks are never compared
    for side in ("a", "b"):
        names = load_bundle(tmp_path / f"{side}.json").metrics
        assert not any(n.startswith(("perf/scale", "perf/workload"))
                       for n in names)
        assert "perf/trace_events" in names


def test_single_records_compare_across_names(tmp_path):
    (tmp_path / "old-perf.json").write_text(json.dumps(_perf_record()))
    (tmp_path / "fresh.json").write_text(json.dumps(_perf_record()))
    report = diff_paths(tmp_path / "old-perf.json", tmp_path / "fresh.json")
    assert report.metrics_compared > 0
    assert report.deltas == []


def test_perf_records_of_different_workloads_are_refused(tmp_path, capsys):
    smoke = _perf_record()
    full = {**_perf_record(), "scale": "full"}
    bigger = {**_perf_record(), "workload": {"num_tasks": 180}}
    (tmp_path / "a.json").write_text(json.dumps(smoke))
    for name, other, block in (("full", full, "scale"),
                               ("bigger", bigger, "workload")):
        (tmp_path / f"{name}.json").write_text(json.dumps(other))
        with pytest.raises(DiffError, match=f"different {block}s"):
            diff_paths(tmp_path / "a.json", tmp_path / f"{name}.json")
        # the CLI refuses the pair with one error line and exit 2
        assert main(["diff", str(tmp_path / "a.json"),
                     str(tmp_path / f"{name}.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"different {block}s" in err


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
    assert bundle.metrics["perf/slow/controller_seconds"] == 2.0
    # diffing history-latest against a fresh record works across names
    (tmp_path / "fresh.json").write_text(
        json.dumps(_perf_record(controller=2.0)))
    report = diff_bundles(bundle, load_bundle(tmp_path / "fresh.json"))
    assert report.deltas == []


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
