"""TAPS controller benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --kernel-ref-us 600 --workload replan \\
        --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the *timed pass* and prints the end-to-end metrics:
``Engine.run`` time over the workload, the latency of every admission
decision (``on_task_arrival``: probe to accept or reject), set-up time,
peak RSS, and the task-completion and non-wasted-bandwidth ratios.
Timings are normalised to host speed (see ``clock.py``).  ``--trace 1``
runs the timed pass and then the *traced pass*, and prints the per-layer
metrics (see ``layers.py``).

Every pass records the decision trace.  After the clock stops, each timed
instance's trace must pass ``repro.trace.audit_trace``, and its SHA-256
must match every other pass over the same inputs, the traced pass
included: instrumentation may change no decision.  A pass that raises or
fails these checks counts as failed and its timings are dropped.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"report": ...}`` object with raw timings, host-speed diagnostics and
trace digests, which ``steadiness.py`` reads.  The program is imported
from ``src/`` next to this directory; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: measured set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="time budget of the timed pass; at least one full "
                        "pass over the workload's instances always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--kernel-ref-us", type=float, required=True,
                   help="calibration-kernel reference time (frozen in "
                        "BENCHMARK.json)")
    return p.parse_args(argv)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive)."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


@dataclass
class Instance:
    """One instance's results across the timed rounds."""

    run_raw: list[float] = field(default_factory=list)
    run_norm: list[float] = field(default_factory=list)
    admit_raw: list[list[float]] = field(default_factory=list)  # per round
    admit_norm: list[list[float]] = field(default_factory=list)
    sha: str = ""
    trace_bytes: int = 0
    audit_s: float = 0.0
    tasks: int = 0
    completed: int = 0
    wasted_bytes: float = 0.0
    total_bytes: float = 0.0
    failed: bool = False


def _digest(recorder) -> tuple[str, int]:
    data = recorder.dumps().encode()
    return hashlib.sha256(data).hexdigest(), len(data)


class Bench:
    """One benchmark run: set-up, timed pass, optional traced pass."""

    def __init__(self, args: argparse.Namespace) -> None:
        from clock import SpeedClock, kernel
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}"
            )
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.clock = SpeedClock(args.kernel_ref_us * 1e-6)
        for _ in range(5):  # let the interpreter specialise the kernel
            kernel()
        self.attempted = 0
        self.failed = 0

    # -- set-up ----------------------------------------------------------------

    def measure_setup(self) -> None:
        """One warm-up set-up, then ``SETUP_REPEATS`` bracketed by kernel
        samples; keeps the last set-up's objects for the passes.

        Each measured set-up starts from the same heap: the previous one
        is released and collected first, so the collector runs at the same
        points in every repeat."""
        from workloads import set_up

        wl, seed, clock = self.workload, self.args.seed, self.clock
        self.setup = set_up(wl, seed)
        gaps, parts = [], []
        for _ in range(SETUP_REPEATS):
            self.setup = None
            gc.collect()
            gaps.append(clock.sample())
            self.setup = set_up(wl, seed)
            clock.sample()
            parts.append((self.setup.paths_s, self.setup.workload_s))
        raw, norm = zip(*(clock.gap(i) for i in gaps))
        self.setup_s = statistics.median(norm)
        self.setup_raw_s = statistics.median(raw)
        self.setup_paths_s = statistics.median(p for p, _ in parts)
        self.setup_workload_s = statistics.median(w for _, w in parts)

    def _engine(self, tasks, sched, recorder):
        from repro.sim.engine import Engine

        return Engine(self.setup.topology, tasks, sched,
                      path_service=self.setup.paths, trace=recorder,
                      faults=list(self.workload.faults))

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    # -- timed pass ------------------------------------------------------------

    def timed_pass(self) -> None:
        """Round after round over every instance, until ``--seconds`` has
        passed (at least one round).  Only the first round's traces are
        audited; later rounds must reproduce their digests."""
        from layers import assert_originals
        from repro.core.controller import TapsScheduler
        from repro.metrics.summary import summarize
        from repro.trace import TraceRecorder, audit_trace

        clock = self.clock

        class TimedTaps(TapsScheduler):
            """TAPS with kernel samples around every admission and, every
            ``SAMPLE_EVERY_S``, at rate assignment and change-point calls."""

            def on_task_arrival(self, task_state, now):
                self.admissions.append(clock.sample())
                super().on_task_arrival(task_state, now)
                clock.sample()

            def assign_rates(self, now):
                clock.maybe_sample()
                super().assign_rates(now)

            def next_change(self, now):
                clock.maybe_sample()
                return super().next_change(now)

        self.instances = [Instance() for _ in self.setup.instances]
        start = time.perf_counter()
        rounds = 0
        round_s = 0.0
        while rounds == 0 or (
            time.perf_counter() - start + round_s <= self.args.seconds
        ):
            t_round = time.perf_counter()
            assert_originals()
            runs = []
            for tasks in self.setup.instances:
                sched = self.workload.scheduler(TimedTaps)
                sched.admissions = []
                recorder = TraceRecorder()
                engine = self._engine(tasks, sched, recorder)
                gc.collect()
                self.attempted += 1
                first = clock.sample()
                try:
                    result = engine.run()
                except Exception:  # a crashed run is a failed operation
                    clock.sample()
                    runs.append(None)
                    self._fail(f"timed run raised:\n{traceback.format_exc()}")
                    continue
                last = clock.sample()
                runs.append((first, last, sched, recorder, result, len(tasks)))
            if rounds == 0:
                self.peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
            for inst, run in zip(self.instances, runs):
                if run is None or inst.failed:
                    inst.failed = True
                    continue
                first, last, sched, recorder, result, n_tasks = run
                sha, nbytes = _digest(recorder)
                if rounds == 0:
                    t0 = time.perf_counter()
                    audit = audit_trace(recorder)
                    inst.audit_s = time.perf_counter() - t0
                    inst.sha, inst.trace_bytes = sha, nbytes
                    decided = sched.stats.tasks_accepted + sched.stats.tasks_rejected
                    problems = []
                    if not audit.ok:
                        problems.append(audit.summary())
                    if recorder.truncated:
                        problems.append("trace truncated")
                    if decided != n_tasks or len(sched.admissions) != n_tasks:
                        problems.append(f"{decided} of {n_tasks} tasks decided")
                    if problems:
                        inst.failed = True
                        self._fail("; ".join(problems))
                        continue
                    m = summarize(result)
                    inst.tasks = m.num_tasks
                    inst.completed = m.tasks_completed
                    inst.wasted_bytes = m.wasted_bytes
                    inst.total_bytes = m.total_bytes
                elif sha != inst.sha:
                    inst.failed = True
                    self._fail(f"trace digest changed between rounds: {sha}")
                    continue
                raw, norm = clock.span(first, last)
                inst.run_raw.append(raw)
                inst.run_norm.append(norm)
                gaps = [clock.gap(i) for i in sched.admissions]
                inst.admit_raw.append([r for r, _ in gaps])
                inst.admit_norm.append([n for _, n in gaps])
            del runs
            rounds += 1
            round_s = time.perf_counter() - t_round
        self.rounds = rounds

    def end_to_end(self) -> tuple[dict[str, tuple[float, str]], dict]:
        """The end-to-end metrics and their raw (un-normalised) timings.

        Per instance, a run time and each decision's latency are medians
        over the rounds; ``run_s`` sums instances, the admission
        percentiles pool every decision of every instance.
        """
        ok = [inst for inst in self.instances if not inst.failed]
        if not ok:
            return {}, {}

        def pooled(attr: str) -> list[float]:
            out = []
            for inst in ok:
                per_round = getattr(inst, attr)
                out.extend(statistics.median(d) for d in zip(*per_round))
            return out

        admit_norm = pooled("admit_norm")
        admit_raw = pooled("admit_raw")
        tasks = sum(i.tasks for i in ok)
        total = sum(i.total_bytes for i in ok)
        metrics = {
            "run_s": (sum(statistics.median(i.run_norm) for i in ok), "s"),
            "admit_p50_ms": (percentile(admit_norm, 50) * 1e3, "ms"),
            "admit_p90_ms": (percentile(admit_norm, 90) * 1e3, "ms"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "task_completion_ratio": (sum(i.completed for i in ok) / tasks, "ratio"),
            "unwasted_bw_ratio": (
                1.0 - sum(i.wasted_bytes for i in ok) / total, "ratio"
            ),
        }
        raw = {
            "run_s": sum(statistics.median(i.run_raw) for i in ok),
            "admit_p50_ms": percentile(admit_raw, 50) * 1e3,
            "admit_p90_ms": percentile(admit_raw, 90) * 1e3,
            "setup_s": self.setup_raw_s,
            "decisions": len(admit_norm),
        }
        return metrics, raw

    # -- traced pass -----------------------------------------------------------

    def traced_pass(self) -> dict[str, tuple[float, str]]:
        """Run every instance once with the layer spans on; returns the
        per-layer metrics summed over instances."""
        from layers import CALLBACK_SPANS, LayerTracer, TracedTaps, patched
        from repro.metrics.summary import summarize
        from repro.trace import TraceRecorder

        tracer = LayerTracer()
        runs = []
        run_s = 0.0
        with patched(tracer):
            for tasks in self.setup.instances:
                sched = self.workload.scheduler(TracedTaps)
                sched.tracer = tracer
                recorder = TraceRecorder()
                engine = self._engine(tasks, sched, recorder)
                gc.collect()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = engine.run()
                except Exception:
                    runs.append(traceback.format_exc())
                    continue
                finally:
                    run_s += time.perf_counter() - t0
                runs.append((sched, recorder, result))
        # every wrapper is gone from here on (patched() asserted it)

        c = dict(events=0, rate_recomputes=0, deadline_scan_skips=0,
                 accepted=0, rejected=0, preempted=0, reroutes=0, dropped=0,
                 hits=0, misses=0, scanned=0, candidates=0, pruned=0,
                 trial_begins=0, rollbacks=0, accepts=0, clause1=0,
                 clause2=0, clause3=0, trace_events=0, plan_records=0,
                 wasted=0.0, total=0.0)
        for inst, run in zip(self.instances, runs):
            if isinstance(run, str):
                self._fail(f"traced run raised:\n{run}")
                continue
            sched, recorder, result = run
            sha, _ = _digest(recorder)
            if not inst.failed and sha != inst.sha:
                self._fail(f"traced pass changed the decisions: {sha} != {inst.sha}")
            ec, st, prof = result.counters, sched.stats, sched.stats.profile
            c["events"] += ec.events
            c["rate_recomputes"] += ec.rate_recomputes
            c["deadline_scan_skips"] += ec.deadline_scan_skips
            c["accepted"] += st.tasks_accepted
            c["rejected"] += st.tasks_rejected
            c["preempted"] += st.tasks_preempted
            c["reroutes"] += st.fault_reroutes
            c["dropped"] += st.tasks_dropped_on_fault
            c["hits"] += prof.union_cache_hits
            c["misses"] += prof.union_cache_misses
            c["scanned"] += prof.intervals_scanned
            c["candidates"] += prof.candidates_evaluated
            c["pruned"] += prof.candidates_pruned
            c["trace_events"] += recorder.emitted
            for ev in recorder:
                kind = ev.kind
                if kind == "trial-begin":
                    c["trial_begins"] += 1
                elif kind == "trial-rollback":
                    c["rollbacks"] += 1
                    c["clause3"] += 1
                elif kind == "task-accept":
                    c["accepts"] += 1
                    c["plan_records"] += len(ev.plans)
                elif kind == "fault-reallocation":
                    c["plan_records"] += len(ev.plans)
                elif kind == "task-reject" and ev.clause is not None:
                    c[f"clause{ev.clause}"] += 1
            m = summarize(result)
            c["wasted"] += m.wasted_bytes
            c["total"] += m.total_bytes

        calls, secs = tracer.calls, tracer.seconds
        self_s = run_s - sum(secs[name] for name in CALLBACK_SPANS)
        ok = [inst for inst in self.instances if not inst.failed]
        timed_raw = sum(statistics.median(i.run_raw) for i in ok) if ok else 0.0
        _, raw = self.end_to_end()
        kernel_us = statistics.median(self.clock.kernel_seconds()) * 1e6

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "engine.run_s": (run_s, "s"),
            "engine.events": (c["events"], "count"),
            "engine.rate_recomputes": (c["rate_recomputes"], "count"),
            "engine.deadline_scan_skips": (c["deadline_scan_skips"], "count"),
            "engine.self_s": (self_s, "s"),
            "engine.us_per_event": (ratio(self_s, c["events"]) * 1e6, "us"),
            "rates.calls": (calls["rates"], "count"),
            "rates.s": (secs["rates"], "s"),
            "next_change.calls": (calls["next_change"], "count"),
            "next_change.s": (secs["next_change"], "s"),
            "admission.calls": (calls["admission"], "count"),
            "admission.s": (secs["admission"], "s"),
            "admission.self_s": (tracer.self_seconds["admission"], "s"),
            "admission.accepted": (c["accepted"], "count"),
            "admission.rejected": (c["rejected"], "count"),
            "admission.preempted": (c["preempted"], "count"),
            "admission.retries": (c["rollbacks"], "count"),
            "admission.commit_ratio": (ratio(c["accepts"], c["trial_begins"]), "ratio"),
            "fault.calls": (calls["fault"], "count"),
            "fault.s": (secs["fault"], "s"),
            "fault.reroutes": (c["reroutes"], "count"),
            "fault.tasks_dropped": (c["dropped"], "count"),
            "path_calc.calls": (calls["path_calc"], "count"),
            "path_calc.s": (secs["path_calc"], "s"),
            "path_calc.flows": (tracer.items["path_calc"], "count"),
            "path_calc.us_per_flow": (
                ratio(secs["path_calc"], tracer.items["path_calc"]) * 1e6, "us"
            ),
            "path_calc.candidates": (c["candidates"], "count"),
            "path_calc.prune_ratio": (ratio(c["pruned"], c["candidates"]), "ratio"),
            "path_calc.scan.calls": (calls["path_calc.scan"], "count"),
            "path_calc.scan.s": (secs["path_calc.scan"], "s"),
            "ledger.union_hit_ratio": (
                ratio(c["hits"], c["hits"] + c["misses"]), "ratio"
            ),
            "ledger.union_misses": (c["misses"], "count"),
            "ledger.commits": (calls["ledger.commit"], "count"),
            "ledger.commit_s": (secs["ledger.commit"], "s"),
            "ledger.rollbacks": (calls["ledger.rollback"], "count"),
            "intervals.scanned": (c["scanned"], "count"),
            "reject.calls": (calls["reject"], "count"),
            "reject.s": (secs["reject"], "s"),
            "reject.clause1": (c["clause1"], "count"),
            "reject.clause2": (c["clause2"], "count"),
            "reject.clause3": (c["clause3"], "count"),
            "trace.events": (c["trace_events"], "count"),
            "trace.plan_records": (c["plan_records"], "count"),
            "trace.bytes": (sum(i.trace_bytes for i in self.instances), "B"),
            "trace.emit_s": (secs["trace.emit"], "s"),
            "trace.audit_s": (sum(i.audit_s for i in self.instances), "s"),
            "setup.pairs": (self.setup.paths.cache_info()["pairs"], "count"),
            "setup.paths_s": (self.setup_paths_s, "s"),
            "setup.workload_s": (self.setup_workload_s, "s"),
            "bench.kernel_us": (kernel_us, "us"),
            "bench.raw_run_s": (raw.get("run_s", 0.0), "s"),
            "bench.raw_admit_p50_ms": (raw.get("admit_p50_ms", 0.0), "ms"),
            "bench.raw_admit_p90_ms": (raw.get("admit_p90_ms", 0.0), "ms"),
            "bench.trace_overhead": (ratio(run_s, timed_raw) - 1.0, "ratio"),
            "wasted_bw_ratio": (ratio(c["wasted"], c["total"]), "ratio"),
        }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program is missing: no {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(args)
    bench.measure_setup()
    bench.timed_pass()
    metrics, raw = bench.end_to_end()
    if args.trace:
        metrics = bench.traced_pass()
    ok = [i for i in bench.instances if not i.failed]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": bench.rounds,
        "traces": [
            {"instance": n, "sha256": i.sha, "bytes": i.trace_bytes,
             "failed": i.failed}
            for n, i in enumerate(bench.instances)
        ],
        "raw": raw,
        "kernel_us": statistics.median(bench.clock.kernel_seconds()) * 1e6,
        "kernel_samples": len(bench.clock.ends),
    }
    for n, inst in enumerate(bench.instances):
        print(f"trace {args.workload} seed={args.seed} instance={n} "
              f"sha256={inst.sha or '-'}")
    print(json.dumps({"report": report}))
    correct = bench.failed == 0 and len(ok) == len(bench.instances)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
