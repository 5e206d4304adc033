"""Steadiness report: run the benchmark N times per workload and show spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workloads replan,fanout]
        [--seeds 1,2,3] [--save set1.json] [--against set0.json]

Each run is one ``BENCHMARK.json`` command in its own process, one at a
time, with ``--trace 0`` and the frozen ``run_seconds``; by default run
``i`` uses seed ``i + 1``.  For every end-to-end metric the report prints
the median, the quartiles (``statistics.quantiles(n=4)``), IQR/median
against the metric's bound, and max/min.  Timings are shown twice: as the
benchmark reports them (normalised to host speed) and raw.  It also checks
that runs of one seed printed identical trace digests.

``--save`` writes every run's result to a JSON file; ``--against`` loads
such a file and prints how far each median moved from it, as a share of
the earlier median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: end-to-end timings the benchmark also reports un-normalised
RAW_TIMINGS = ("run_s", "admit_p50_ms", "admit_p90_ms", "setup_s")


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its result and report objects."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    report = next(
        json.loads(line)["report"] for line in lines
        if line.startswith('{"report"')
    )
    return {"seed": seed, "result": json.loads(lines[-1]), "report": report}


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_ratio": (q3 - q1) / med if med else float("inf"),
        "max_min": hi / lo if lo else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="",
                   help="comma-separated seeds, one per run (repeat a seed "
                        "to check its trace digests agree)")
    p.add_argument("--save", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    earlier = json.loads(args.against.read_text()) if args.against else {}

    collected: dict[str, list[dict]] = {}
    status = 0
    for workload in workloads:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            run = run_once(spec["command"], workload, seed, spec["run_seconds"])
            run["wall_s"] = time.perf_counter() - t0
            runs.append(run)
            print(f"  {workload} seed={seed} {run['wall_s']:.1f}s "
                  f"correct={run['result']['correct']}", file=sys.stderr)
        collected[workload] = runs

        print(f"\n== {workload}: {len(runs)} runs, seeds {seeds}")
        print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'bound':>7}{'max/min':>9}")
        rows = [(name, [r["result"]["metrics"][name]["value"] for r in runs])
                for name in bounds]
        rows += [(f"raw.{name}", [r["report"]["raw"][name] for r in runs])
                 for name in RAW_TIMINGS]
        rows += [("kernel_us", [r["report"]["kernel_us"] for r in runs]),
                 ("wall_s", [r["wall_s"] for r in runs])]
        for name, values in rows:
            s = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if s["iqr_ratio"] > bound:
                    flag, status = " OVER BOUND", 1
                elif s["iqr_ratio"] > bound / 3:
                    flag = " over bound/3"
            print(f"{name:<28}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['iqr_ratio']:>9.2%}"
                  f"{'' if bound is None else f'{bound:.2f}':>7}"
                  f"{s['max_min']:>9.3f}{flag}")

        if not all(r["result"]["correct"] for r in runs):
            print("!! a run reported correct=false")
            status = 1
        digests: dict[int, set] = {}
        for r in runs:
            shas = tuple(t["sha256"] for t in r["report"]["traces"])
            digests.setdefault(r["seed"], set()).add(shas)
        for seed, shas in sorted(digests.items()):
            if len(shas) > 1:
                print(f"!! seed {seed}: runs printed different trace digests")
                status = 1

        if workload in earlier:
            print(f"-- median shift against {args.against}")
            for name, bound in bounds.items():
                before = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier[workload]
                )
                after = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in runs
                )
                shift = (after - before) / before
                worse = -shift if better[name] == "higher" else shift
                flag = " WORSE THAN BOUND" if worse > bound else ""
                if flag:
                    status = 1
                print(f"{name:<28}{before:>12.5g}{after:>12.5g}"
                      f"{shift:>+9.2%}{bound:>7.2f}{flag}")

    if args.save:
        args.save.write_text(json.dumps(collected, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
