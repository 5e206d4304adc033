"""Markdown report generation."""

from repro.exp.configs import Scale
from repro.exp.runner import figure_markdown, generate_report, motivation_markdown

MICRO = Scale(
    name="micro-report",
    servers_per_rack=2, racks_per_pod=2, pods=2,
    fat_tree_k=4, num_tasks=6, mean_flows_per_task=3,
    arrival_rate=300.0, seeds=(1,),
)

MICRO2 = MICRO.with_(name="micro-2seed", seeds=(1, 2))


def test_motivation_markdown_table():
    md = motivation_markdown()
    assert "### fig1" in md and "### fig3" in md
    assert "| TAPS | 2 | 1 | yes |" in md
    assert "NO" not in md


def test_generate_report_single_figure(tmp_path):
    out = generate_report(tmp_path / "r.md", MICRO, figures=["fig14"])
    text = out.read_text()
    assert text.startswith("# TAPS reproduction")
    assert "## fig14" in text
    assert "Fair Sharing" in text
    assert "micro-report" in text


def test_generate_report_sweep_figure(tmp_path):
    out = generate_report(tmp_path / "r.md", MICRO, figures=["fig12"])
    text = out.read_text()
    assert "## fig12" in text
    assert "task_completion_ratio" in text
    assert "num_tasks" in text


def test_multi_seed_report_uses_ci(tmp_path):
    out = generate_report(tmp_path / "r.md", MICRO2, figures=["fig12"])
    assert "±" in out.read_text()


def test_figure_markdown_structure():
    from repro.exp.figures import run_figure

    run = run_figure("fig14", MICRO)
    md = figure_markdown(run, MICRO, took=1.23)
    assert md.startswith("## fig14")
    assert "1.2s" in md
    assert "```" in md
