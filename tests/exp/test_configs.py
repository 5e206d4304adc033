"""Experiment scales."""

from repro.exp.configs import MEDIUM, PAPER, SCALES, SMALL


def test_three_scales_registered():
    assert set(SCALES) == {"small", "medium", "paper"}


def test_paper_scale_matches_publication():
    assert PAPER.servers_per_rack == 40
    assert PAPER.racks_per_pod == 30
    assert PAPER.pods == 30
    assert PAPER.fat_tree_k == 32
    assert PAPER.mean_flows_per_task == 1200
    assert PAPER.num_tasks == 30


def test_small_scale_builds_small_topologies():
    topo = SMALL.single_rooted()
    assert len(topo.hosts) == 36
    ft = SMALL.fat_tree()
    assert len(ft.hosts) == 16


def test_workload_config_inherits_scale():
    cfg = SMALL.workload_config()
    assert cfg.num_tasks == SMALL.num_tasks
    assert cfg.mean_flows_per_task == SMALL.mean_flows_per_task


def test_workload_config_overrides():
    cfg = SMALL.workload_config(mean_deadline=0.123)
    assert cfg.mean_deadline == 0.123
    assert cfg.num_tasks == SMALL.num_tasks


def test_with_replaces_fields():
    s = SMALL.with_(num_tasks=99)
    assert s.num_tasks == 99
    assert SMALL.num_tasks != 99


def test_medium_larger_than_small():
    assert len(MEDIUM.single_rooted().hosts) > len(SMALL.single_rooted().hosts)
