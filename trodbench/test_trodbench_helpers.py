"""Tests for the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest -q trodbench``. Only
the span test that drives ``Runtime.run_concurrent`` imports the program
(from ``src/``).
"""

from __future__ import annotations

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from percentiles import min_samples_for, percentile, spread, tail_for  # noqa: E402
from spans import NAME, PARENT, SpanRecorder, SpanSummary, self_times  # noqa: E402


# -- percentile choice -------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    assert tail_for(1000) == 99
    assert tail_for(999) == 90
    assert tail_for(100) == 90
    assert tail_for(99) is None
    assert tail_for(0) is None


def test_nearest_rank_leaves_ten_beyond_the_tail():
    samples = list(range(1, 1001))
    p99 = percentile(samples, 99)
    assert p99 == 990
    assert sum(1 for s in samples if s > p99) == 10
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_spread_is_quartile_distance_over_median():
    median, q1, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


# -- self time ---------------------------------------------------------------


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    spans = [
        span("a.outer", 0, 100, -1),
        span("b.middle", 10, 40, 0),
        span("c.inner", 20, 30, 1),
    ]
    assert self_times(spans) == [70, 20, 10]


def test_self_time_of_sibling_spans():
    spans = [
        span("a.outer", 0, 100, -1),
        span("b.one", 10, 30, 0),
        span("b.two", 50, 60, 0),
    ]
    assert self_times(spans) == [70, 20, 10]


def test_self_time_subtracts_overlapping_children_once():
    # Interleaved workers under one scheduler span overlap in time.
    spans = [
        span("a.sched", 0, 100, -1),
        span("b.worker", 10, 50, 0),
        span("b.worker", 40, 70, 0),
        span("b.late", 90, 120, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_parked_worker_time_is_not_its_own():
    # Worker a parks (20-50) while worker b runs (25-45).
    spans = [
        span("runtime.scheduler.run", 0, 100, -1),
        span("w.a", 10, 60, 0),
        span("runtime.scheduler.checkpoint", 20, 50, 1),
        span("w.b", 25, 45, 0),
    ]
    assert self_times(spans) == [100 - 10 - 10 - 20, 20, 0, 20]


def test_concurrent_workers_are_siblings_under_the_scheduler(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(HERE), "src"))
    from repro.apps.moodle import build_moodle_app
    from repro.db import Database
    from repro.runtime import Request, Runtime

    db = Database(name="spans")
    runtime = Runtime(db)
    build_moodle_app(db, runtime)
    pair = [Request("subscribeUser", ("U1", "F1")), Request("subscribeUser", ("U1", "F1"))]
    recorder = SpanRecorder()
    recorder.install()
    try:
        recorder.enabled = True
        runtime.run_concurrent(pair, schedule=[0, 1, 0, 1])
    finally:
        recorder.uninstall()
    spans = recorder.spans
    (sched,) = [i for i, s in enumerate(spans) if s[NAME] == "runtime.scheduler.run"]
    workers = [i for i, s in enumerate(spans) if s[NAME] == "runtime.execute_request"]
    assert len(workers) == 2
    assert all(spans[i][PARENT] == sched for i in workers)
    a, b = (spans[i] for i in workers)
    assert a[1] < b[1] < a[2]  # the schedule interleaves them
    selfs = self_times(spans)
    assert all(own >= 0 for own in selfs)
    # Every instant of the scheduler span is counted once: its own time
    # plus the time some span below it ran.
    below = sum(
        own for i, own in enumerate(selfs) if i != sched and _under(spans, i, sched)
    )
    assert selfs[sched] + below == spans[sched][2] - spans[sched][1]


def _under(spans, index, ancestor):
    parent = spans[index][PARENT]
    while parent >= 0:
        if parent == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def test_summary_groups_self_time_by_layer():
    spans = [
        span("db.sql.execute", 0, 100, -1),
        span("db.txn.commit", 10, 40, 0),
        span("db.sql.execute", 200, 250, -1),
    ]
    summary = SpanSummary(spans)
    assert summary.layer_self_ns("db.sql") == 70 + 50
    assert summary.layer_self_ns("db.txn") == 30
    assert summary.calls["db.sql.execute"] == 2
    assert summary.total_ns["db.sql.execute"] == 150
    assert summary.count_under("db.txn.commit", "db.sql.execute") == 1


def test_recorder_wraps_and_restores_entry_points(monkeypatch):
    module = types.ModuleType("fake_layers")

    class Engine:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    module.Engine = Engine
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    recorder = SpanRecorder()
    recorder.install(
        [
            ("fake_layers", "Engine", "outer", "x.outer"),
            ("fake_layers", "Engine", "inner", "y.inner"),
        ]
    )
    try:
        assert Engine().outer() == 42  # disabled: nothing recorded
        assert recorder.spans == []
        recorder.enabled = True
        recorder.next_op()
        assert Engine().outer() == 42
    finally:
        recorder.uninstall()
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [("x.outer", -1, 1), ("y.inner", 0, 1)]
    assert all(s[2] >= s[1] for s in recorder.spans)
    assert Engine.__dict__["outer"].__name__ == "outer"
    assert not hasattr(Engine.__dict__["outer"], "__wrapped__")


# -- reference models ----------------------------------------------------------


def test_shop_model_totals_stock_and_history():
    shop = reference.ShopModel({"A": 2.5, "B": 10.0}, {"A": 100, "B": 100})
    assert shop.place("o1", [("A", 2), ("B", 1)]) == 15.0
    assert shop.place("o2", [("A", 3)]) == 7.5
    assert shop.stock("A") == 95
    assert shop.stock("B") == 99
    assert shop.stock_after(0, "A") == 98
    assert shop.stock_after(1, "A") == 95
    assert shop.stock_after(1, "B") == 99
    assert shop.orders == 2
    assert shop.status("o1") == "placed"
    assert shop.status("o3") is None


def test_ledger_model_history_and_aggregates():
    ledger = reference.LedgerModel({1: 100, 2: 50, 3: 0}, {1: "n", 2: "n", 3: "s"})
    ledger.transfer(1, 2, 30, csn=5)
    ledger.transfer(2, 3, 10, csn=8)
    assert [ledger.balance(k) for k in (1, 2, 3)] == [70, 70, 10]
    assert ledger.balance_at(2, 4) == 50
    assert ledger.balance_at(2, 5) == 80
    assert ledger.balance_at(2, 7) == 80
    assert ledger.balance_at(2, 8) == 70
    assert ledger.balance_at(3, 100) == 10
    assert ledger.by_region() == {"n": (2, 140), "s": (1, 10)}
    assert ledger.total == 150


def test_forum_properties():
    rows = [("U1", "F1"), ("U1", "F1"), ("U2", "F1")]
    assert reference.duplicate_keys(rows) == [("U1", "F1")]
    assert reference.duplicate_keys(rows[1:]) == []
    assert reference.orderings_within_naive(2, 2)
    assert not reference.orderings_within_naive(3, 2)
    assert not reference.orderings_within_naive(0, 2)


# -- operation timing --------------------------------------------------------


def test_recorder_times_operations_on_the_cpu_clock():
    import time

    import run
    import workloads

    rec = workloads.Recorder()
    rec.time("point", lambda: time.sleep(0.05))  # waits, spends no CPU
    rec.time("point", lambda: sum(range(200_000)))
    rec.upkeep(lambda: sum(range(200_000)))
    rec.end_round()
    waited, worked = rec.samples["point"]
    assert rec.wall["point"][0] >= 50_000
    assert waited < 10_000 < rec.wall["point"][0]
    assert worked > 0
    assert rec.busy_us > waited + worked  # upkeep counts as program time
    assert rec.ops == 2 and rec.rounds == 1
    for cls in ("request", "sweep", "history"):
        rec.samples[cls] = [1.0] * 10
    metrics = run.end_to_end(rec, [1.0, 3.0, 2.0])
    assert metrics["setup_s"]["value"] == 2.0
    assert metrics["ops_per_cpu_s"]["value"] == pytest.approx(rec.ops / rec.busy_s)
