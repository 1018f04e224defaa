"""Re-measure the reference figures quoted in README.md.

Usage, from the root of a checkout::

    python3 trodbench/figures.py

Each figure is a small, separate measurement of one behaviour of the
program that the benchmark's workloads run into:

1. the inline trace-buffer flushes of one ``trod-serve`` round;
2. ``UPDATE ... WHERE key = ?`` against the same-key ``SELECT`` on 5,000
   indexed rows;
3. ``COUNT``/``SUM`` over 5,000 rows with and without a replica attached;
4. a point ``AS OF`` read against a latest-value read on a 20,000-row
   four-shard cluster;
5. how much a fixed Python loop's speed swings from second to second.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def median_us(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


def serve_flushes() -> None:
    import workloads
    from spans import SpanRecorder

    serve = workloads.TrodServe(seed=1, scratch=HERE)
    serve.setup()
    recorder = SpanRecorder()
    recorder.install([("repro.core.tracer", "Trod", "flush", "core.provenance.flush")])
    recorder.enabled = True
    rec = workloads.Recorder()
    start = time.perf_counter()
    try:
        serve.run_round(rec)
    finally:
        recorder.uninstall()
    total = time.perf_counter() - start
    flushes = [(s[2] - s[1]) / 1e9 for s in recorder.spans]
    inline = flushes[:-1]  # the last one is the round's closing flush
    print(
        f"1. trod-serve round of {serve.WORKFLOWS} order workflows: {total:.1f} s; "
        f"inline flushes {', '.join(f'{f:.1f} s' for f in inline)} "
        f"({sum(inline):.1f} s), closing flush {flushes[-1]:.1f} s"
    )


def update_vs_select() -> None:
    from repro.db import Database

    db = Database()
    db.execute("CREATE TABLE kv (k INTEGER, v INTEGER)")
    db.execute("CREATE INDEX ix_kv_k ON kv (k)")
    for k in range(5000):
        db.execute("INSERT INTO kv VALUES (?, ?)", (k, 0))
    select = median_us(lambda: db.execute("SELECT v FROM kv WHERE k = ?", (2500,)).rows, 200)
    update = median_us(lambda: db.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (2500,)), 50)
    print(f"2. 5,000 indexed rows: UPDATE WHERE k = ? {update / 1000:.2f} ms, "
          f"SELECT WHERE k = ? {select / 1000:.2f} ms")


def replica_row_path() -> None:
    from repro.db import Database
    from repro.db.replication import ReplicaSet

    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    for k in range(5000):
        db.execute("INSERT INTO t VALUES (?, ?)", (k, k % 7))
    sql = "SELECT COUNT(*), SUM(v) FROM t"
    plain = median_us(lambda: db.execute(sql).rows, 50)
    replicas = ReplicaSet(db)
    replicas.add_replica()
    attached = median_us(lambda: db.execute(sql).rows, 50)
    print(f"3. COUNT/SUM over 5,000 rows: {plain / 1000:.2f} ms plain, "
          f"{attached / 1000:.2f} ms with a replica attached")


def as_of_read() -> None:
    import repro
    from repro.db import ShardedDatabase

    sharded = ShardedDatabase(4, shard_keys={"ledger": "acct"})
    conn = repro.connect(sharded)
    conn.execute("CREATE TABLE ledger (acct INTEGER, balance INTEGER)")
    conn.execute("CREATE INDEX ix_ledger_acct ON ledger (acct)")
    for start in range(0, 20000, 1000):
        with conn.transaction() as txn:
            for k in range(start, start + 1000):
                txn.execute("INSERT INTO ledger VALUES (?, ?)", (k, 100))
    bookmark = conn.last_commit_csn
    latest = median_us(
        lambda: conn.execute("SELECT balance FROM ledger WHERE acct = ?", (777,)).rows, 200)
    as_of = median_us(
        lambda: conn.execute(
            "SELECT balance FROM ledger WHERE acct = ? AS OF ?", (777, bookmark)).rows, 50)
    print(f"4. 20,000-row cluster: point AS OF read {as_of / 1000:.2f} ms, "
          f"latest value {latest / 1000:.2f} ms")


def loop_swing(seconds: float = 30.0) -> None:
    """Loops per second in each one-second window, against their median."""
    rates = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        window_end = time.monotonic() + 1.0
        loops = 0
        while time.monotonic() < window_end:
            total = 0
            for i in range(20_000):
                total += i
            loops += 1
        rates.append(loops)
    median = statistics.median(rates)
    print(f"5. fixed loop, {len(rates)} one-second windows: speed "
          f"{min(rates) / median - 1:+.0%} to {max(rates) / median - 1:+.0%} of its median")


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    serve_flushes()
    update_vs_select()
    replica_row_path()
    as_of_read()
    loop_swing()
    return 0


if __name__ == "__main__":
    sys.exit(main())
