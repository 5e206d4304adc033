"""CLI entry point (argument parsing and end-to-end subcommands)."""

import pytest

from repro.cli import main


def test_motivation_subcommand(capsys):
    assert main(["motivation"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "fig2" in out and "fig3" in out
    assert "MISMATCH" not in out


def test_nphard_subcommand(capsys):
    assert main(["nphard"]) == 0
    out = capsys.readouterr().out
    assert "hamiltonian" in out.lower()
    assert "True" in out and "False" in out


def test_figure_subcommand_fig14(capsys):
    assert main(["figure", "fig14"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out
    assert "TAPS" in out and "Fair Sharing" in out


def test_figure_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_scale_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig14", "--scale", "galactic"])


def test_zoo_subcommand(capsys):
    assert main(["zoo"]) == 0
    out = capsys.readouterr().out
    assert "fat-tree" in out and "bcube" in out and "ficonn" in out


def test_optimality_subcommand(capsys):
    assert main(["optimality", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "mean gap" in out


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "rep.md"
    assert main(["report", "--out", str(out), "--figures", "fig14"]) == 0
    assert out.exists()
    assert "fig14" in out.read_text()


def test_figure_csv_flag(tmp_path, capsys):
    out = tmp_path / "fig14.csv"
    assert main(["figure", "fig14", "--csv", str(out)]) == 0
    # fig14 is a time-series figure: csv politely skipped
    assert "csv skipped" in capsys.readouterr().out
    assert not out.exists()


def test_run_then_audit_roundtrip(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(["run", "--tasks", "8", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "tasks arrived:       8" in out
    assert trace.exists()
    assert main(["audit", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "audit OK: 0 violations" in out
    assert "scheduler: TAPS" in out


def test_run_with_fault_audits_clean(tmp_path, capsys):
    trace = tmp_path / "faulted.jsonl"
    assert main(["run", "--tasks", "8", "--fault", "0", "0.005", "0.02",
                 "--trace", str(trace)]) == 0
    assert main(["audit", str(trace)]) == 0
    assert "link state changes" in capsys.readouterr().out


def test_run_out_dir_then_stats_roundtrip(tmp_path, capsys):
    """``run --out-dir`` writes the artifact bundle; ``stats`` renders a
    report from those artifacts alone (no re-simulation)."""
    run_dir = tmp_path / "run1"
    assert main(["run", "--tasks", "8", "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()
    for name in ("trace.jsonl", "telemetry.jsonl"):
        assert (run_dir / name).exists(), name
    # the trace in the bundle is a valid audit target too
    assert main(["audit", str(run_dir / "trace.jsonl")]) == 0
    capsys.readouterr()
    assert main(["stats", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "Telemetry report" in out
    assert "Admission latency" in out and "p99" in out
    assert "accepted" in out
    assert "link" in out  # per-link peak utilization section
    assert "Span-time breakdown" in out
    # stats also accepts the telemetry file path directly
    assert main(["stats", str(run_dir / "telemetry.jsonl")]) == 0
    assert capsys.readouterr().out == out


def test_stats_rejects_corrupt_telemetry(tmp_path, capsys):
    run_dir = tmp_path / "run1"
    assert main(["run", "--tasks", "4", "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()
    tele = run_dir / "telemetry.jsonl"
    tele.write_text('{"kind":"trace-header","schema":1}\n')
    assert main(["stats", str(run_dir)]) == 1
    assert "not a telemetry file" in capsys.readouterr().err
    assert main(["stats", str(tmp_path / "nowhere")]) == 1
    assert "no telemetry" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_run_dir(tmp_path_factory):
    """One ``run --out-dir`` bundle shared by the diagnosis-layer tests.

    24 tasks at seed 7 is the CI smoke workload: it is known to produce
    both accepted and rejected tasks, so ``explain`` has work to do.
    """
    run_dir = tmp_path_factory.mktemp("cli") / "run"
    assert main(["run", "--tasks", "24", "--seed", "7",
                 "--out-dir", str(run_dir)]) == 0
    return run_dir


def test_stats_json_flag(cli_run_dir, capsys):
    import json

    capsys.readouterr()
    assert main(["stats", str(cli_run_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["decisions"]["accepted"] + doc["decisions"]["rejected"] == 24
    assert doc["admission_latency"]["count"] > 0
    assert doc["links"] and all("peak" in row for row in doc["links"])


def test_timeline_subcommand(cli_run_dir, capsys):
    import json

    capsys.readouterr()
    assert main(["timeline", str(cli_run_dir)]) == 0
    out = capsys.readouterr().out
    assert "perfetto" in out
    chrome = cli_run_dir / "trace.chrome.json"
    assert chrome.exists()
    events = json.loads(chrome.read_text())
    assert isinstance(events, list) and events
    assert all(k in ev for ev in events for k in ("ph", "ts", "pid", "tid"))


def test_explain_subcommand(cli_run_dir, capsys):
    capsys.readouterr()
    assert main(["explain", str(cli_run_dir)]) == 0
    out = capsys.readouterr().out
    assert "REJECTED" in out
    assert "clause" in out
    assert ("auditor cross-check: clause evidence consistent "
            "(0 reject-rule violations)") in out


def test_explain_single_task_json(cli_run_dir, capsys):
    import json

    capsys.readouterr()
    assert main(["explain", str(cli_run_dir), "--json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert verdicts, "seed 7 must leave tasks to explain"
    rejected = next(v for v in verdicts if v["outcome"] == "rejected")
    assert rejected["clause_consistent"] is True
    # single-task mode returns exactly that verdict
    assert main(["explain", str(cli_run_dir),
                 "--task", str(rejected["task"]), "--json"]) == 0
    solo = json.loads(capsys.readouterr().out)
    assert len(solo) == 1 and solo[0]["task"] == rejected["task"]
    # unknown task id is a clean CLI error
    assert main(["explain", str(cli_run_dir), "--task", "10000"]) == 1
    assert "does not appear" in capsys.readouterr().err


def test_diff_identical_runs_clean(cli_run_dir, tmp_path, capsys):
    """Diffing a bundle against a byte-identical copy of itself: exit 0,
    zero findings, traces flagged byte-identical."""
    import json
    import shutil

    clone = tmp_path / "clone"
    shutil.copytree(cli_run_dir, clone)
    capsys.readouterr()
    assert main(["diff", str(cli_run_dir), str(clone), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["traces_identical"] is True
    assert doc["regressions"] == 0 and doc["warnings"] == 0
    assert doc["deltas"] == []
    assert doc["metrics_compared"] > 0


def test_diff_flags_count_regression(cli_run_dir, tmp_path, capsys):
    run_b = tmp_path / "worse"
    assert main(["run", "--tasks", "24", "--seed", "3",
                 "--fault", "0", "0.01", "0.05",
                 "--out-dir", str(run_b)]) == 0
    capsys.readouterr()
    # seed 3 + fault rejects more tasks than seed 7: blocking regression
    assert main(["diff", str(cli_run_dir), str(run_b)]) == 1
    out = capsys.readouterr().out
    assert "traces differ" in out
    assert "[regression " in out
    assert "regression(s)" in out


def test_diff_unloadable_operand_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["diff", str(missing), str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_fails_on_corrupted_trace(tmp_path, capsys):
    """Flip one committed plan so its slices overlap another flow's: the
    CLI must exit non-zero and name the violated invariant."""
    import json

    trace = tmp_path / "run.jsonl"
    assert main(["run", "--tasks", "8", "--trace", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        d = json.loads(line)
        if d.get("kind") == "task-accept" and len(d["plans"]) >= 1:
            clone = dict(d["plans"][0])
            clone["flow"] = 99999  # same path+slices, different flow
            d["plans"] = d["plans"] + [clone]
            lines[i] = json.dumps(d, separators=(",", ":"))
            break
    else:
        raise AssertionError("no task-accept event in the trace")
    trace.write_text("\n".join(lines) + "\n")
    assert main(["audit", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "audit FAILED" in out
    assert "exclusive-link" in out
