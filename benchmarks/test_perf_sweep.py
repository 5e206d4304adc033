"""Parallel sweep executor benchmark: speedup AND bit-identical results.

Runs one multi-value deadline grid (all six paper schedulers × 3 mean
deadlines × 2 seeds on the SMALL single-rooted tree = 36 independent
``Engine.run()`` points) four ways and asserts:

1. **Equivalence** (always, blocking): serial, ``--jobs 4`` pool
   fan-out, and cache-served results produce byte-identical
   ``SweepResult`` data — same ``series``, same ``raw`` metrics, same
   long- and wide-format CSV bytes.
2. **Cache**: a second pass over a warm cache performs **zero**
   ``Engine.run()`` calls (hits == grid size, misses == 0) and is >= 2x
   faster than computing serially.
3. **Parallel speedup**: wall-clock >= 2x at ``jobs=4`` — asserted only
   at full scale on a machine with >= 4 usable cores (a process pool
   cannot beat serial on the single-core CI/container case; the JSON
   records the honest measurement and the core count either way).

The measured record is written to ``benchmarks/results/perf_sweep*.json``
(grid, timings, cache stats, speedups) for EXPERIMENTS.md and the CI
artifact.  ``REPRO_PERF_SCALE=smoke`` shrinks the grid to seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path

from repro.exp.configs import SMALL
from repro.exp.executor import ExecutorConfig, ResultCache
from repro.exp.sweep import SweepGrid, run_sweep_grid
from repro.sched.registry import PAPER_ORDER
from repro.util.units import ms

PARALLEL_JOBS = 4

GRIDS = {
    # ~10 s serial on one core: 36 jobs of ~0.25 s — big enough that pool
    # startup amortises, small enough to run in every PR
    "full": dict(
        workload=dict(num_tasks=60, mean_flows_per_task=20),
        param_values=tuple(x * ms for x in (25, 40, 55)),
        schedulers=PAPER_ORDER,
        seeds=(1, 2),
    ),
    # seconds total; same shape
    "smoke": dict(
        workload=dict(num_tasks=12, mean_flows_per_task=6),
        param_values=tuple(x * ms for x in (25, 55)),
        schedulers=("Fair Sharing", "TAPS", "PDQ"),
        seeds=(1,),
    ),
}


def _grid(scale: dict) -> SweepGrid:
    return SweepGrid(
        topology=SMALL.single_rooted_spec(),
        base_workload=SMALL.workload_config(**scale["workload"]),
        param_name="mean_deadline",
        param_values=scale["param_values"],
        schedulers=tuple(scale["schedulers"]),
        seeds=scale["seeds"],
        max_paths=SMALL.max_paths,
    )


def _timed(grid: SweepGrid, config: ExecutorConfig | None):
    t0 = time.perf_counter()
    result = run_sweep_grid(grid, config)
    return time.perf_counter() - t0, result


def _csvs(result, tmp: Path, tag: str) -> tuple[bytes, bytes]:
    long_p, wide_p = tmp / f"{tag}_long.csv", tmp / f"{tag}_wide.csv"
    result.to_csv(long_p)
    result.to_csv(wide_p, metric="task_completion_ratio")
    return long_p.read_bytes(), wide_p.read_bytes()


def test_perf_sweep(results_dir):
    scale_name = os.environ.get("REPRO_PERF_SCALE", "full")
    grid = _grid(GRIDS[scale_name])
    n_jobs = len(grid.jobs())
    cores = len(os.sched_getaffinity(0))

    with tempfile.TemporaryDirectory() as tmp_str:
        tmp = Path(tmp_str)

        # serial reference; its cache instance doubles as the cold pass
        cold = ResultCache(tmp / "cache")
        t_serial, serial = _timed(grid, ExecutorConfig(jobs=1, cache=cold))
        assert cold.stats.misses == n_jobs and cold.stats.hits == 0

        # warm cache pass: zero Engine.run() calls, served from disk
        warm = ResultCache(tmp / "cache")
        t_warm, cached = _timed(grid, ExecutorConfig(jobs=1, cache=warm))
        assert warm.stats.hits == n_jobs
        assert warm.stats.misses == 0 and warm.stats.invalidations == 0

        # pool fan-out, no cache: every point recomputed across workers
        t_parallel, parallel = _timed(
            grid, ExecutorConfig(jobs=PARALLEL_JOBS, cache=None)
        )

        # 1. bit-identical results across all execution modes
        for other in (parallel, cached):
            assert other.series == serial.series
            assert other.raw == serial.raw
        s_long, s_wide = _csvs(serial, tmp, "serial")
        for tag, other in (("parallel", parallel), ("cached", cached)):
            o_long, o_wide = _csvs(other, tmp, tag)
            assert o_long == s_long
            assert o_wide == s_wide

    speedup_parallel = t_serial / t_parallel
    speedup_cached = t_serial / t_warm
    record = {
        "scale": scale_name,
        "grid": {
            "topology": "single-rooted-4x3x3",
            **GRIDS[scale_name]["workload"],
            "param_name": "mean_deadline",
            "param_values": list(GRIDS[scale_name]["param_values"]),
            "schedulers": list(GRIDS[scale_name]["schedulers"]),
            "seeds": list(GRIDS[scale_name]["seeds"]),
            "max_paths": SMALL.max_paths,
            "num_jobs": n_jobs,
        },
        "cpu_cores": cores,
        "parallel_jobs": PARALLEL_JOBS,
        "results_identical": True,
        "cache": {"cold": dataclasses.asdict(cold.stats),
                  "warm": dataclasses.asdict(warm.stats)},
        "seconds": {
            "serial": round(t_serial, 3),
            "parallel": round(t_parallel, 3),
            "cached": round(t_warm, 3),
        },
        "speedup": {
            "parallel": round(speedup_parallel, 3),
            "cached": round(speedup_cached, 3),
        },
    }
    suffix = "" if scale_name == "full" else f"_{scale_name}"
    out = results_dir / f"perf_sweep{suffix}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"\nperf record -> {out}\n"
          f"serial {t_serial:.2f}s  parallel(x{PARALLEL_JOBS}) "
          f"{t_parallel:.2f}s ({speedup_parallel:.2f}x)  "
          f"cached {t_warm:.3f}s ({speedup_cached:.1f}x)  "
          f"[{cores} core(s)]")

    if scale_name == "full":
        # warm-cache reruns must beat recomputation outright
        assert speedup_cached >= 2.0, record["speedup"]
        if cores >= PARALLEL_JOBS:
            # the acceptance floor: >= 2x wall-clock from fan-out; only
            # meaningful when the hardware can actually run 4 workers
            assert speedup_parallel >= 2.0, record["speedup"]
