"""Run one workload of the TROD benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 trodbench/run.py --workload trod-serve --seed 1 --seconds 20 --trace 0

Workloads: ``trod-serve``, ``trod-debug``, ``cluster-rw`` (see
``workloads.py`` and README.md). The program is imported from ``src/``
of the directory the command runs in; without it the command fails.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the same measurement untraced, then again with
spans recorded around every layer's entry points; it writes the spans to
``trodbench/out/`` and prints the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from percentiles import percentile, tail_for  # noqa: E402

#: Set-ups timed before and after measuring; setup_s is the median of
#: these and of any set-up done between rounds. Those after measuring
#: sample the host's speed, which drifts over tens of seconds, at the
#: run's other end.
SETUP_REPS_BEFORE = 3
SETUP_REPS_AFTER = 2

#: The bounded latency figures are 90th percentiles of CPU time (see
#: ``workloads.Recorder``): on the host these figures come from, wall-clock
#: medians moved by up to 40% from run to run with how long the host ran
#: fast, and the 90th percentile held better (see README.md). Each
#: class's median, highest supported tail and mean are printed as well,
#: on both clocks.
STEADY_PCT = 90

#: End-to-end latency metrics: (name, class).
LATENCY_METRICS = (
    ("point_cpu_p90_us", "point"),
    ("request_cpu_p90_us", "request"),
    ("sweep_cpu_p90_us", "sweep"),
    ("history_cpu_p90_us", "history"),
)


def load_program(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program at {src}/repro; run from the root of a checkout"
        )
    sys.path.insert(0, src)


def time_setup(workload, setups: list[float], walls: list[float]) -> None:
    """One set-up, timed on the CPU clock (``setups``) and the wall clock.

    The state of the set-up before is released and collected first, so
    tearing it down is not timed.
    """
    workload.close()
    gc.collect()
    wall = time.perf_counter()
    cpu = workloads.cpu_us()
    workload.setup()
    setups.append((workloads.cpu_us() - cpu) / 1e6)
    walls.append(time.perf_counter() - wall)


def time_setups(workload, reps: int, setups: list[float], walls: list[float]) -> None:
    for _ in range(reps):
        time_setup(workload, setups, walls)


def enough(rec, minimums: dict[str, int]) -> bool:
    return all(len(rec.samples[cls]) >= n for cls, n in minimums.items())


def measure(workload, seconds: float, rec, setups: list[float], walls: list[float],
            spans=None) -> dict:
    """Run whole rounds until ``seconds`` have passed and every class has
    its minimum sample count; returns counter deltas over the rounds."""
    deltas: dict[str, float] = {}
    start = time.monotonic()
    rounds = 0
    while True:
        if workload.setup_per_round and rounds:
            time_setup(workload, setups, walls)
        before = workload.counters()
        if spans is not None:
            spans.enabled = True
        try:
            workload.run_round(rec)
        finally:
            if spans is not None:
                spans.enabled = False
        after = workload.counters()
        for key, value in after.items():
            deltas[key] = deltas.get(key, 0) + value - before.get(key, 0)
        rec.end_round()
        rounds += 1
        if time.monotonic() - start >= seconds and enough(rec, workload.min_samples):
            return deltas


def end_to_end(rec, setups: list[float]) -> dict[str, dict]:
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_cpu_s": (rec.ops / rec.busy_s, "1/s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, cls in LATENCY_METRICS:
        metrics[name] = (percentile(rec.samples[cls], STEADY_PCT), "us")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def describe_classes(workload_name: str, rec) -> None:
    for cls, samples in rec.samples.items():
        tail = tail_for(len(samples))
        line = f"{workload_name} {cls}: n={len(samples)}"
        for clock, values in (("cpu", samples), ("wall", rec.wall[cls])):
            line += f" {clock} p50={percentile(values, 50):.1f}us"
            if tail is not None:
                line += f" p{tail}={percentile(values, tail):.1f}us"
            line += f" mean={statistics.fmean(values):.1f}us"
        print(line)
    wall_s = sum(sum(v) for v in rec.wall.values()) / 1e6
    print(f"{workload_name} rounds: {rec.rounds}, {rec.ops} ops in {rec.busy_s:.2f} CPU s "
          f"({rec.ops / rec.busy_s:.1f} ops/s), operations {wall_s:.2f} wall s")


def per_layer(
    summary, delta: dict[str, float], rec, overhead_pct: float,
    recording=None, extra: dict[str, float] | None = None,
) -> dict[str, dict]:
    """The per-layer metrics of one traced phase (see README.md).

    ``recording`` is ``(summary, counters)`` of a traced set-up that
    records provenance (trod-debug's history); the ingest figures come
    from it, since that workload's measured phase writes none.
    ``extra`` holds figures a workload measured itself.
    """
    ops = rec.ops
    extra = extra or {}
    # A layer a workload does not run has no spans or counts, so its
    # metrics read 0 whatever the denominator.
    n = {cls: len(samples) for cls, samples in rec.samples.items()}
    retros, replays, queries = n["sweep"], n["request"], n["point"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def self_us(layer: str) -> float:
        return summary.layer_self_ns(layer) / 1000.0

    def calls(name: str) -> int:
        return summary.calls.get(name, 0)

    def total_us(name: str) -> float:
        return summary.total_ns.get(name, 0) / 1000.0

    def d(key: str) -> float:
        return delta.get(key, 0)

    ingest, ingested = summary, d("events_emitted")
    checkpoints = d("checkpoints")
    if recording is not None:
        ingest, counts = recording
        ingested, checkpoints = counts.get("events_emitted", 0), counts.get("checkpoints", 0)
    plan_hits = d("plan.hits") + d("plan.dml_hits")
    plan_all = plan_hits + d("plan.misses") + d("plan.dml_misses")
    pool_all = d("storage.pool_hits") + d("storage.pool_misses")
    router_all = d("router.replica_reads") + d("router.primary_reads") + d("router.stale_fallbacks")
    statements = calls("db.sql.execute")
    commits_2pc = calls("db.multistore.commit")
    m = {
        "runtime.self_us_per_op": (ratio(self_us("runtime"), ops), "us"),
        "runtime.scheduler.self_ms_per_retro": (
            ratio(self_us("runtime.scheduler") / 1000.0, retros), "ms"),
        "core.interposition.self_us_per_op": (ratio(self_us("core.interposition"), ops), "us"),
        "core.interposition.events_per_op": (ratio(d("events_emitted"), ops), "count"),
        "core.provenance.ingest_us_per_event": (
            ratio(ingest.total_ns.get("core.provenance.ingest", 0) / 1000.0, ingested), "us"),
        "core.provenance.checkpoints": (checkpoints, "count"),
        "core.provenance.query_self_us_per_op": (
            ratio(summary.self_ns.get("core.provenance.query", 0) / 1000.0, queries), "us"),
        "core.provenance.first_query_us": (extra.get("first_query_us", 0.0), "us"),
        "core.provenance.repeat_query_us": (extra.get("repeat_query_us", 0.0), "us"),
        "core.provenance.restore_ms_per_call": (
            ratio(total_us("core.provenance.restore_into") / 1000.0,
                  calls("core.provenance.restore_into")), "ms"),
        "core.provenance.restores_per_retro": (
            ratio(summary.count_under("core.provenance.restore_into", "core.retroactive.run"),
                  retros), "count"),
        "core.replay.self_ms_per_op": (ratio(self_us("core.replay") / 1000.0, replays), "ms"),
        "core.replay.injected_writes_per_op": (ratio(d("injected_writes"), replays), "count"),
        "core.retroactive.self_ms_per_op": (
            ratio(self_us("core.retroactive") / 1000.0, retros), "ms"),
        "core.retroactive.orderings_per_op": (ratio(d("orderings"), retros), "count"),
        "core.retroactive.naive_orderings_per_op": (ratio(d("naive_orderings"), retros), "count"),
        "db.sql.self_us_per_statement": (ratio(self_us("db.sql"), statements), "us"),
        "db.sql.statements_per_op": (ratio(statements, ops), "count"),
        "db.sql.batches_per_scan": (ratio(d("exec.batches_processed"), n["sweep"]), "count"),
        "db.sql.plan_cache_hit_ratio": (ratio(plan_hits, plan_all), "ratio"),
        "db.txn.commit_self_us": (
            ratio(summary.self_ns.get("db.txn.commit", 0) / 1000.0, calls("db.txn.commit")), "us"),
        "db.txn.aborts_per_op": (ratio(calls("db.txn.abort"), ops), "count"),
        "db.txn.wal_flushes_per_write": (ratio(d("wal.flushes"), n["request"]), "count"),
        "db.pages.pool_hit_ratio": (ratio(d("storage.pool_hits"), pool_all), "ratio"),
        "db.pages.page_reads_per_op": (ratio(d("storage.file_page_reads"), ops), "count"),
        "db.pages.page_writes_per_op": (ratio(d("storage.file_page_writes"), ops), "count"),
        "db.pages.evictions_per_op": (ratio(d("storage.pool_evictions"), ops), "count"),
        "db.sharding.self_us_per_op": (ratio(self_us("db.sharding"), ops), "us"),
        "db.sharding.fanout_per_op": (ratio(d("sharding.fanout_statements"), ops), "count"),
        "db.multistore.commit_self_us_per_write": (
            ratio(self_us("db.multistore"), commits_2pc), "us"),
        "db.multistore.branches_per_write": (ratio(d("branches"), commits_2pc), "count"),
        "db.replication.catch_up_ms_per_call": (
            ratio(total_us("db.replication.catch_up") / 1000.0,
                  calls("db.replication.catch_up")), "ms"),
        "db.replication.records_applied_per_write": (
            ratio(d("records_applied"), commits_2pc), "count"),
        "db.connection.self_us_per_op": (ratio(self_us("db.connection"), ops), "us"),
        "db.connection.replica_read_ratio": (ratio(d("router.replica_reads"), router_all), "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    load_program(root)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scratch = os.path.join(HERE, ".data", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    correct = True
    failed = 0
    rec = workloads.Recorder()
    try:
        setups: list[float] = []
        walls: list[float] = []
        time_setups(workload, SETUP_REPS_BEFORE, setups, walls)
        gc.collect()
        try:
            measure(workload, args.seconds, rec, setups, walls)
            if args.trace:
                from spans import SpanRecorder, SpanSummary

                untraced_rate = rec.ops / rec.busy_s
                spans = SpanRecorder()
                traced = workloads.Recorder(on_op=spans.next_op)
                spans.install()
                try:
                    if workload.setup_per_round or workload.records_in_setup:
                        # A set-up that records provenance is traced too.
                        spans.enabled = workload.records_in_setup
                        workload.setup()
                        spans.enabled = False
                    setup_end = len(spans.spans)
                    recording = None
                    if workload.records_in_setup:
                        # Fresh state: its counters count the set-up alone.
                        recording = (SpanSummary(spans.spans, stop=setup_end), workload.counters())
                    gc.collect()
                    delta = measure(workload, args.seconds, traced, [], [], spans=spans)
                finally:
                    spans.uninstall()
            workload.finish()
            figures = workload.finish_figures()
            if not args.trace:
                time_setups(workload, SETUP_REPS_AFTER, setups, walls)
        except workloads.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:  # noqa: BLE001 - an operation the program failed
            failed = 1
            correct = False
            traceback.print_exc()
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    if not correct:
        print(json.dumps({"correct": False, "attempted": max(rec.ops, 1), "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        overhead = (untraced_rate / (traced.ops / traced.busy_s) - 1.0) * 100.0
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        spans.write(path)
        print(f"{len(spans.spans)} spans written to {os.path.relpath(path, root)}")
        describe_classes(args.workload + " (traced)", traced)
        metrics = per_layer(
            SpanSummary(spans.spans, first=setup_end), delta, traced, overhead,
            recording, figures,
        )
        attempted = rec.ops + traced.ops
    else:
        print(f"{args.workload} set-ups (CPU): {', '.join(f'{t:.3f} s' for t in setups)}")
        print(f"{args.workload} set-ups (wall): {', '.join(f'{t:.3f} s' for t in walls)}")
        describe_classes(args.workload, rec)
        for name, value in figures.items():
            print(f"{args.workload} {name} = {value:.1f}")
        metrics = end_to_end(rec, setups)
        attempted = rec.ops
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
