"""CLI entry point (argument parsing and end-to-end subcommands)."""

import json
import re
import shutil

import pytest

from repro.cli import main
from repro.obs.export import TELEMETRY_SCHEMA_VERSION


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


def test_run_with_fault_on_missing_link_fails_in_one_line(capsys):
    assert main(["run", "--tasks", "8", "--fault", "99999", "0", "0.02"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "fault on link 99999" in err and "96 links" in err


@pytest.mark.parametrize("argv", [
    ["figure", "fig6", "--jobs", "-1"],
    ["all", "--jobs", "-1"],
    ["zoo", "--jobs", "-1"],
    ["report", "--jobs", "-1"],
    ["optimality", "--instances", "0"],
    ["diff", "A", "A", "--timing-threshold", "-1"],
    ["audit", "t.jsonl", "--max-violations", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_out_of_range_flag_is_a_usage_error(argv, capsys):
    """A value below a flag's range stops argparse (exit 2) before the
    command runs, instead of a traceback or a misleading report."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("case", ["run-out-dir", "run-trace", "timeline-out",
                                  "report-out"])
def test_unwritable_output_is_one_error_line(
    case, cli_run_dir, tmp_path, monkeypatch, capsys
):
    """An output path that cannot be written (an existing file as
    ``--out-dir``, a file in a missing directory) is one ``error:`` line
    and exit 2; ``report`` refuses before it regenerates any figure."""
    a_file, missing = tmp_path / "F", tmp_path / "nodir"
    a_file.write_text("")
    argv = {
        "run-out-dir": ["run", "--tasks", "4", "--out-dir", str(a_file)],
        "run-trace": ["run", "--tasks", "4",
                      "--trace", str(missing / "x.jsonl")],
        "timeline-out": ["timeline", str(cli_run_dir),
                         "--out", str(missing / "x.json")],
        "report-out": ["report", "--out", str(missing / "r.md")],
    }[case]
    monkeypatch.setattr("repro.cli.generate_report",
                        lambda *a, **k: pytest.fail("report regenerated"))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    tele.write_bytes(b"\xff\xfe not text\n")
    assert main(["stats", str(tele)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tele}: ") and err.count("\n") == 1


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
    assert doc["schema"] == TELEMETRY_SCHEMA_VERSION
    assert doc["decisions"]["accepted"] + doc["decisions"]["rejected"] == 24
    assert doc["admission_latency"]["count"] > 0
    assert "links" not in doc


def _seconds(shown):
    """A time as the report prints it -> (seconds, half its last digit)."""
    if shown == "0":
        return 0.0, 0.0
    for unit, scale, digits in (("µs", 1e-6, 1), ("ms", 1e-3, 2), ("s", 1.0, 3)):
        if shown.endswith(unit):
            return float(shown[:-len(unit)]) * scale, 0.5 * 10**-digits * scale
    raise AssertionError(f"not a printed time: {shown!r}")


def _same_time(shown, value):
    parsed, tolerance = _seconds(shown)
    assert abs(parsed - value) <= tolerance * (1 + 1e-9) + 1e-15, (shown, value)


def _same_share(shown, num, den):
    assert abs(float(shown) - 100 * num / den) <= 0.05 + 1e-9, (shown, num, den)


def test_stats_text_is_rendered_from_stats_json(cli_run_dir, capsys):
    """Every count, ratio and time the text report prints equals the
    ``--json`` value it is rendered from, row by row."""
    capsys.readouterr()
    assert main(["stats", str(cli_run_dir)]) == 0
    text = capsys.readouterr().out
    assert main(["stats", str(cli_run_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    head, *blocks = text.rstrip("\n").split("\n\n")
    assert head.split("\n") == [f"Telemetry report (schema {doc['schema']})"] + [
        f"  {k}: {v}" for k, v in sorted(doc["meta"].items())]
    sections = {}
    for block in blocks:
        title, _rule, *rows = block.split("\n")
        sections[title.split(" (")[0]] = (title, rows)
    assert set(sections) == {
        "Admission latency", "Admission decisions",
        "Cache and prune effectiveness", "Span-time breakdown"}

    lat = doc["admission_latency"]
    summary, quantiles = sections["Admission latency"][1]
    m = re.fullmatch(r"  (\d+) admissions, mean (\S+), total (\S+)", summary)
    assert int(m[1]) == lat["count"]
    _same_time(m[2], lat["mean"])
    _same_time(m[3], lat["sum"])
    shown = re.findall(r"(p50|p90|p99|max) (\S+)", quantiles)
    assert [key for key, _ in shown] == ["p50", "p90", "p99", "max"]
    for key, value in shown:
        _same_time(value, lat[key])

    decisions = doc["decisions"]
    total = decisions["accepted"] + decisions["rejected"]
    accepted, rejected, rounds = sections["Admission decisions"][1]
    for key, row in (("accepted", accepted), ("rejected", rejected)):
        m = re.fullmatch(rf"  {key}\s+(\d+)  \(\s*([\d.]+)%\)", row)
        assert int(m[1]) == decisions[key]
        _same_share(m[2], decisions[key], total)
    m = re.fullmatch(r"  reallocation rounds\s+(\d+)", rounds)
    assert int(m[1]) == decisions["reallocations"]

    caches = doc["caches"]
    union, prune = sections["Cache and prune effectiveness"][1]
    m = re.fullmatch(
        r"  union cache\s+([\d.]+)%  \((\d+) hits / (\d+) misses\)", union)
    hits, misses = caches["union_cache"]["hits"], caches["union_cache"]["misses"]
    assert (int(m[2]), int(m[3])) == (hits, misses)
    _same_share(m[1], hits, hits + misses)
    m = re.fullmatch(
        r"  path prune\s+([\d.]+)%  \((\d+) of (\d+) candidates\)", prune)
    pruned = caches["path_prune"]["pruned"]
    evaluated = caches["path_prune"]["evaluated"]
    assert (int(m[2]), int(m[3])) == (pruned, evaluated)
    _same_share(m[1], pruned, evaluated)

    _header, *rows = sections["Span-time breakdown"][1]
    spans = doc["spans"]
    assert len(rows) == len(spans) > 1
    root_total = sum(s["total_seconds"] for s in spans if "/" not in s["path"])
    for row, span in zip(rows, spans):
        m = re.fullmatch(
            r"  ( *)(\S+)\s+(\d+)\s+(\S+)\s+(\S+)(?:\s+([\d.]+)%)?", row)
        assert len(m[1]) == 2 * span["path"].count("/")
        assert m[2] == span["path"].rsplit("/", 1)[-1]
        assert int(m[3]) == span["calls"]
        _same_time(m[4], span["total_seconds"])
        _same_time(m[5], span["mean_seconds"])
        assert (m[6] is not None) == ("/" not in span["path"])
        if m[6] is not None:
            _same_share(m[6], span["total_seconds"], root_total)


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


def _copy_with_broken_event(run_dir, dst, **changes):
    """Copy the bundle ``run_dir`` to ``dst`` with its first slice-start
    event broken: the ``t`` field cut or, given ``changes``, those fields
    set; returns that event's line number."""
    shutil.copytree(run_dir, dst)
    trace = dst / "trace.jsonl"
    lines = trace.read_text().splitlines()
    i = next(i for i, line in enumerate(lines)
             if json.loads(line)["kind"] == "slice-start")
    event = json.loads(lines[i])
    if changes:
        event.update(changes)
    else:
        del event["t"]
    lines[i] = json.dumps(event, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    return i + 1


def test_audit_of_a_file_that_is_not_a_trace_is_one_error_line(
        cli_run_dir, tmp_path, capsys):
    """Exit 1 means "violations found"; a missing or foreign file is a
    usage error: exit 2 and one ``error:`` line, no traceback."""
    missing = tmp_path / "missing.jsonl"
    telemetry = cli_run_dir / "telemetry.jsonl"
    capsys.readouterr()
    for path, reason in ((missing, "No such file"),
                         (telemetry, "not a trace file")):
        assert main(["audit", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert reason in err


def test_diff_of_an_unloadable_trace_exits_2(cli_run_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    lineno = _copy_with_broken_event(cli_run_dir, broken)
    capsys.readouterr()
    assert main(["diff", str(cli_run_dir), str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"line {lineno}: field mismatch for slice-start" in err
    alien = tmp_path / "alien.jsonl"
    alien.write_text('{"kind":"trace-header","schema":999}\n')
    assert main(["diff", str(alien), str(alien)]) == 2
    assert "unsupported trace schema 999" in capsys.readouterr().err


def test_explain_and_timeline_report_a_malformed_trace(
        cli_run_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    lineno = _copy_with_broken_event(cli_run_dir, broken)
    capsys.readouterr()
    for command in ("explain", "timeline"):
        assert main([command, str(broken)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"line {lineno}: " in err


def test_a_mistyped_event_is_one_error_line(cli_run_dir, tmp_path, capsys):
    """A slice-start at time "soon" is a load error naming its line:
    ``audit`` exits 2 and ``explain`` 1, each with one ``error:`` line
    instead of a ``TypeError`` traceback."""
    broken = tmp_path / "soon"
    lineno = _copy_with_broken_event(cli_run_dir, broken, t="soon")
    trace = broken / "trace.jsonl"
    capsys.readouterr()
    assert main(["audit", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: line {lineno}: ")
    assert err.count("\n") == 1 and "'t' must be float" in err
    assert main(["explain", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"line {lineno}: " in err


def test_explain_reads_only_the_trace(cli_run_dir, tmp_path, capsys):
    """A bundle whose telemetry file is unreadable still explains, since
    ``explain`` reads only the trace; ``stats`` and ``timeline``, which
    read the telemetry, refuse it."""
    bundle = tmp_path / "schema7"
    shutil.copytree(cli_run_dir, bundle)
    (bundle / "telemetry.jsonl").write_text(
        '{"kind":"telemetry-header","schema":7}\n')
    capsys.readouterr()
    assert main(["explain", str(bundle)]) == 0
    assert "clause evidence consistent" in capsys.readouterr().out
    for command in ("stats", "timeline"):
        assert main([command, str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unsupported telemetry schema 7" in err


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
