"""The benchmark's three workloads.

Every workload runs in one process, on one thread, as a closed loop with
one client: the next operation starts when the previous one returns. Its
inputs come from ``random.Random`` seeded with the workload seed; the
program sees only those inputs. Every operation belongs to one latency
class, and each class holds one operation shape:

=========  ====================  ====================  =====================
class      trod-serve            trod-debug            cluster-rw
=========  ====================  ====================  =====================
point      ``orderStatus``       ``find_writers``      routed point read
request    order workflow        ``replay_request``    transfer (2PC)
sweep      ``weeklyReport``      ``retroactive.run``   ``GROUP BY`` aggregate
history    stock ``AS OF`` read  forum ``AS OF`` read  balance ``AS OF`` read
=========  ====================  ====================  =====================

A round is a fixed list of operations; a run measures whole rounds.
``trod-serve`` sets up fresh state for every round (its tables and its
provenance grow with every order, so a run of fixed-size rounds keeps
each operation's cost independent of how fast earlier rounds went); the
other two set up once and keep their state, which the measured
operations change little (``cluster-rw``) or not at all
(``trod-debug``).
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import statistics
import time
from collections import Counter
from typing import Any, Callable

import reference

CLASSES = ("point", "request", "sweep", "history")


class CheckFailed(Exception):
    """The program returned something the reference model rules out."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cpu_us() -> float:
    """The process's CPU clock (all its threads), in microseconds.

    Steal time is not counted: a process waiting for a core, or a thread
    waiting to be woken, spends none of it.
    """
    return time.process_time_ns() / 1000.0


class Recorder:
    """Times operations into per-class latency lists (microseconds).

    ``samples`` hold each operation's CPU time, the bounded figures;
    ``wall`` holds its wall-clock time, printed alongside. On a host
    shared with other work the two part: every hand-off between the
    cooperative scheduler's threads (replay, retroactive runs) waits for
    a core, and that wait reached half of a ``retroactive.run``'s wall
    time with two busy processes beside the benchmark (README.md).
    """

    def __init__(self, on_op: Callable[[], None] | None = None):
        self.samples: dict[str, list[float]] = {cls: [] for cls in CLASSES}
        self.wall: dict[str, list[float]] = {cls: [] for cls in CLASSES}
        self.on_op = on_op
        #: Program CPU time: operations plus upkeep between them (trace
        #: flushes, replica catch-up), in microseconds.
        self.busy_us = 0.0
        self.rounds = 0

    def time(self, cls: str, fn: Callable[[], Any]) -> Any:
        if self.on_op is not None:
            self.on_op()
        wall = time.perf_counter()
        cpu = cpu_us()
        result = fn()
        elapsed = cpu_us() - cpu
        self.wall[cls].append((time.perf_counter() - wall) * 1e6)
        self.samples[cls].append(elapsed)
        self.busy_us += elapsed
        return result

    def upkeep(self, fn: Callable[[], Any]) -> Any:
        start = cpu_us()
        result = fn()
        self.busy_us += cpu_us() - start
        return result

    def end_round(self) -> None:
        self.rounds += 1

    @property
    def busy_s(self) -> float:
        return self.busy_us / 1e6

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.samples.values())


class Workload:
    name = ""
    #: Set up fresh state before every round instead of once per run.
    setup_per_round = False
    #: Set-up records provenance (the traced run traces one set-up).
    records_in_setup = False
    #: Minimum samples per class in a run: a p90 needs 100.
    min_samples = {cls: 100 for cls in CLASSES}

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tally: Counter[str] = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; called once after measuring."""

    def finish_figures(self) -> dict[str, float]:
        """Figures ``finish`` measured, by name."""
        return {}

    def counters(self) -> dict[str, float]:
        """Cumulative public counters of the program, plus ``tally``."""
        return dict(self.tally)

    def close(self) -> None:
        """Release what ``setup`` made; the next ``setup`` starts afresh."""


def _add_stats(out: Counter, prefix: str, stats: dict[str, Any]) -> None:
    for key, value in stats.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] += value


# ---------------------------------------------------------------------------
# trod-serve
# ---------------------------------------------------------------------------


class TrodServe(Workload):
    """E-commerce order workflows served through ``Runtime`` with TROD on."""

    name = "trod-serve"
    setup_per_round = True
    USERS = 1500
    SKUS = 60
    INITIAL_STOCK = 1_000_000
    WORKFLOWS = 1000  # per round
    ITEMS = 2  # per cart: one operation shape
    SWEEP_EVERY = 10
    HISTORY_EVERY = 10

    INDEXES = (
        ("users", "userId"),
        ("carts", "cartId"),
        ("cart_items", "cartId"),
        ("inventory", "sku"),
        ("orders", "orderId"),
        ("payments", "orderId"),
    )

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.round = 0

    def setup(self) -> None:
        from repro.apps.ecommerce import build_ecommerce_app
        from repro.core import Trod
        from repro.db import Database
        from repro.runtime import Runtime

        self.db = db = Database(name="shop")
        self.runtime = runtime = Runtime(db)
        names = build_ecommerce_app(db, runtime)
        for table, column in self.INDEXES:
            db.execute(f"CREATE INDEX ix_{table}_{column} ON {table} ({column})")
        self.trod = Trod(db, event_names=names).attach(runtime)
        self.served = 0
        rng = self.rng
        self.prices = {
            f"SKU{i}": round(rng.uniform(1.0, 200.0), 2) for i in range(self.SKUS)
        }
        self.model = reference.ShopModel(
            self.prices, {sku: self.INITIAL_STOCK for sku in self.prices}
        )
        for i in range(self.USERS):
            self._serve("registerUser", f"U{i}", f"u{i}@shop.test", f"4000-{i:04d}")
        for sku in self.prices:
            self._serve("restock", sku, self.INITIAL_STOCK)

    def _serve(self, handler: str, *args: Any) -> Any:
        self.served += 1
        result = self.runtime.submit(handler, *args)
        check(result.ok, f"{handler}{args} failed: {result.error}")
        return result.output

    def run_round(self, rec: Recorder) -> None:
        rng = self.rng
        model = self.model
        skus = list(self.prices)
        order_ids: list[str] = []
        bookmarks: list[int] = []
        tag = f"r{self.round}"
        self.round += 1
        for i in range(self.WORKFLOWS):
            cart = f"{tag}-C{i}"
            user = f"U{rng.randrange(self.USERS)}"
            items = [(sku, rng.randint(1, 3)) for sku in rng.sample(skus, self.ITEMS)]

            def workflow() -> Any:
                for sku, qty in items:
                    self._serve("addToCart", cart, user, sku, qty, self.prices[sku])
                return self._serve("checkout", cart, user)

            out = rec.time("request", workflow)
            expected = model.place(f"order-{cart}", items)
            check(
                abs(out["total"] - expected) < 1e-6,
                f"order {cart} total {out['total']} != {expected}",
            )
            order_ids.append(out["orderId"])
            bookmarks.append(self.db.last_commit_csn)

            probe = order_ids[rng.randrange(len(order_ids))]
            status = rec.time("point", lambda: self._serve("orderStatus", probe))
            check(status == model.status(probe), f"orderStatus({probe}) = {status!r}")

            if i % self.SWEEP_EVERY == 0:
                count = rec.time("sweep", lambda: self._serve("weeklyReport"))
                check(count == model.orders, f"weeklyReport {count} != {model.orders}")
            if i % self.HISTORY_EVERY == self.HISTORY_EVERY // 2:
                k = rng.randrange(len(bookmarks))
                sku = rng.choice(skus)
                rows = rec.time(
                    "history",
                    lambda: self.db.execute(
                        "SELECT stock FROM inventory WHERE sku = ? AS OF ?",
                        (sku, bookmarks[k]),
                    ).rows,
                )
                want = model.stock_after(k, sku)
                check(rows == [(want,)], f"stock of {sku} as of order {k}: {rows} != {want}")
        # The round's whole ingest cost lands inside the measured time.
        rec.upkeep(self.trod.flush)
        self._check_state()

    def _check_state(self) -> None:
        stock = {row["sku"]: row["stock"] for row in self.db.table_rows("inventory")}
        for sku in self.prices:
            check(
                stock[sku] == self.model.stock(sku),
                f"stock of {sku}: {stock[sku]} != {self.model.stock(sku)}",
            )
        requests = len(self.trod.provenance.db.table_rows("Requests"))
        check(requests == self.served, f"Requests rows {requests} != served {self.served}")

    def close(self) -> None:
        self.db = self.runtime = self.trod = None

    def counters(self) -> dict[str, float]:
        # Each round starts from fresh state, so these count the current
        # round only; run.py takes differences around each round.
        out: Counter = Counter(self.tally)
        out["events_emitted"] += self.trod.interposition.events_emitted
        out["checkpoints"] += self.trod.provenance.checkpoint_stats["checkpoints"]
        for db in (self.db, self.trod.provenance.db):
            _add_stats(out, "exec.", db.executor_stats)
            _add_stats(out, "plan.", db.plan_cache_stats)
            _add_stats(out, "wal.", db.wal.flush_stats)
        return dict(out)


# ---------------------------------------------------------------------------
# trod-debug
# ---------------------------------------------------------------------------


class TrodDebug(Workload):
    """A developer's debugging session over a recorded forum history."""

    name = "trod-debug"
    records_in_setup = True
    USERS = 60
    FORUMS = 12
    BATCHES = 240
    RACE_EVERY = 4  # every 4th batch is a racing pair on a fresh key
    FLUSH_EVERY = 20  # batches between provenance flushes while recording
    #: Schedules (request index per transaction) under which both
    #: subscribe checks run before either insert: MDL-59854 fires.
    RACY = ([0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0])
    ROUND = {"point": 50, "request": 5, "sweep": 3, "history": 10}

    def setup(self) -> None:
        from repro.apps.moodle import build_moodle_app
        from repro.core import Trod
        from repro.db import Database
        from repro.runtime import Request, Runtime

        rng = random.Random(f"{self.name}:history:{self.seed}")
        self.db = db = Database(name="moodle")
        self.runtime = runtime = Runtime(db)
        self.trod = trod = Trod(db, event_names=build_moodle_app(db, runtime)).attach(runtime)
        #: req_id -> (output repr, error) as served
        self.seen: dict[str, tuple[str | None, str | None]] = {}
        #: racing pairs: (req_a, req_b, key, csn before, csn after)
        self.races: list[tuple[str, str, tuple[str, str], int, int]] = []
        for batch in range(self.BATCHES):
            if batch % self.RACE_EVERY == 0:
                key = (f"RU{batch}", f"F{rng.randrange(self.FORUMS)}")
                pair = [Request("subscribeUser", key), Request("subscribeUser", key)]
                before = db.last_commit_csn
                results = runtime.run_concurrent(pair, schedule=list(rng.choice(self.RACY)))
                self.races.append(
                    (results[0].req_id, results[1].req_id, key, before, db.last_commit_csn)
                )
            else:
                # Served one after the other: every scheduler hand-off is a
                # thread wake-up, and on this host those made set-up time
                # swing (1.3 to 3.2 s) when every batch ran concurrently.
                results = [
                    runtime.submit(
                        "subscribeUser",
                        f"U{rng.randrange(self.USERS)}",
                        f"F{rng.randrange(self.FORUMS)}",
                    )
                    for _ in range(2)
                ]
            for result in results:
                self._saw(result)
            self._saw(runtime.submit("fetchSubscribers", f"F{rng.randrange(self.FORUMS)}"))
            if batch % self.FLUSH_EVERY == self.FLUSH_EVERY - 1:
                trod.flush()
        # Production tracing ends here; the session below only reads.
        trod.detach()
        live = Counter(
            (row["userId"], row["forum"]) for row in db.table_rows("forum_sub")
        )
        self.live = live
        self.keys = sorted(live)
        self.replayable = [r for a, b, _k, _lo, _hi in self.races for r in (a, b)]
        #: Keys find_writers has been asked about since set-up.
        self.queried: set[tuple[str, str]] = set()
        self.first_query_us: list[float] = []
        self.repeat_query_us: list[float] = []
        for _a, _b, key, _lo, _hi in self.races:
            check(live[key] == 2, f"racing pair on {key} left {live[key]} rows, not 2")

    def _saw(self, result: Any) -> None:
        output = repr(result.output) if result.ok else None
        self.seen[result.req_id] = (output, result.error)

    def run_round(self, rec: Recorder) -> None:
        kinds = [cls for cls, n in self.ROUND.items() for _ in range(n)]
        self.rng.shuffle(kinds)
        for kind in kinds:
            getattr(self, f"_{kind}")(rec)

    def _point(self, rec: Recorder) -> None:
        # The developer asks who wrote the duplicated rows. Queries go to
        # the racing keys only: ``find_writers`` inlines the key into its
        # SQL, so a key's first query plans afresh (about three times the
        # cost of a repeat). Over all ~340 keys the first queries were 11-18%
        # of a run, moving the class's p90 between the two costs with the
        # run's length; over 60 keys they stay near 2%. ``finish`` times
        # the first query on every other key on its own.
        key = self.rng.choice(self.races)[2]
        self.queried.add(key)
        rows = rec.time("point", lambda: self._find_writers(key))
        self._check_writers(key, rows)

    def _find_writers(self, key: tuple[str, str]) -> list:
        user, forum = key
        return self.trod.debugger.find_writers("forum_sub", userId=user, forum=forum).rows

    def _check_writers(self, key: tuple[str, str], rows: list) -> None:
        check(
            len(rows) == self.live[key],
            f"find_writers{key} gave {len(rows)} rows, {self.live[key]} live",
        )

    def _request(self, rec: Recorder) -> None:
        req_id = self.rng.choice(self.replayable)
        result = rec.time("request", lambda: self.trod.replayer.replay_request(req_id))
        check(result.fidelity, f"replay of {req_id} diverged: {result.divergences}")
        output, error = self.seen[req_id]
        got = (repr(result.output) if result.error is None else None, result.error)
        check(got == (output, error), f"replay of {req_id}: {got} != served {(output, error)}")
        self.tally["injected_writes"] += sum(len(step.injected) for step in result.steps)

    def _sweep(self, rec: Recorder) -> None:
        from repro.apps.moodle import subscribe_user_fixed

        req_a, req_b, key, _lo, _hi = self.rng.choice(self.races)
        result = rec.time(
            "sweep",
            lambda: self.trod.retroactive.run(
                [req_a, req_b],
                patches={"subscribeUser": subscribe_user_fixed},
                invariant=self._no_duplicates(key),
            ),
        )
        check(result.all_ok, f"fixed handler failed on {key}: {result.summary()}")
        check(
            reference.orderings_within_naive(result.explored, result.naive_orderings),
            f"explored {result.explored} orderings of naive {result.naive_orderings}",
        )
        self.tally["orderings"] += result.explored
        self.tally["naive_orderings"] += result.naive_orderings

    def _history(self, rec: Recorder) -> None:
        _a, _b, (user, forum), before, after = self.rng.choice(self.races)
        csn, want = (before, 0) if self.rng.random() < 0.5 else (after, 2)
        count = rec.time(
            "history",
            lambda: self.db.execute(
                "SELECT COUNT(*) FROM forum_sub WHERE userId = ? AND forum = ? AS OF ?",
                (user, forum, csn),
            ).scalar(),
        )
        check(count == want, f"({user}, {forum}) as of {csn}: {count} rows != {want}")

    @staticmethod
    def _no_duplicates(key: tuple[str, str]) -> Callable[[Any], list[str]]:
        def invariant(dev: Any) -> list[str]:
            rows = [(r["userId"], r["forum"]) for r in dev.table_rows("forum_sub")]
            return [f"duplicate {k}" for k in reference.duplicate_keys(rows) if k == key]

        return invariant

    def finish(self) -> None:
        # Outside the measured time: every key's writers match its live
        # rows, and the unpatched handler breaks the invariant on a pair
        # that raced when served. A key not queried before is queried
        # twice, timing its first query (planned afresh) and a repeat.
        for key in self.keys:
            if key in self.queried:
                self._check_writers(key, self._find_writers(key))
                continue
            for samples in (self.first_query_us, self.repeat_query_us):
                start = time.perf_counter()
                rows = self._find_writers(key)
                samples.append((time.perf_counter() - start) * 1e6)
                self._check_writers(key, rows)
            self.queried.add(key)
        req_a, req_b, key, _lo, _hi = self.races[0]
        result = self.trod.retroactive.run([req_a, req_b], invariant=self._no_duplicates(key))
        check(
            any(o.invariant_violations for o in result.outcomes),
            f"original handler kept {key} unique in every ordering",
        )

    def finish_figures(self) -> dict[str, float]:
        if not self.first_query_us:
            return {}
        return {
            "first_query_us": statistics.median(self.first_query_us),
            "repeat_query_us": statistics.median(self.repeat_query_us),
        }

    def counters(self) -> dict[str, float]:
        out: Counter = Counter(self.tally)
        for db in (self.db, self.trod.provenance.db):
            _add_stats(out, "exec.", db.executor_stats)
            _add_stats(out, "plan.", db.plan_cache_stats)
            _add_stats(out, "wal.", db.wal.flush_stats)
        out["checkpoints"] += self.trod.provenance.checkpoint_stats["checkpoints"]
        out["events_emitted"] += self.trod.interposition.events_emitted
        return dict(out)

    def close(self) -> None:
        self.db = self.runtime = self.trod = None


# ---------------------------------------------------------------------------
# cluster-rw
# ---------------------------------------------------------------------------


class ClusterRW(Workload):
    """A 4-shard paged cluster with one async replica per shard."""

    name = "cluster-rw"
    SHARDS = 4
    ROWS = 20_000  # ~5,000 per shard: ~310 4-KB pages against a 256-page pool
    MEMO = 200  # bytes of padding per row
    REGIONS = 8
    BALANCE = 1_000
    LOAD_BATCH = 1_000
    ZIPF_THETA = 0.99
    #: Per round, in this order: catch the replicas up, one aggregate,
    #: point and AS OF reads (all served by caught-up replicas), then one
    #: transfer. Reads never see a stale replica, so each read class
    #: keeps one path. With four transfers per round the transfer class
    #: split into two modes (about 60 and 115 ms: an UPDATE's cost
    #: depends on what ran on its shard since the last write); with one
    #: transfer after the reads it has one. The first point read of a
    #: round, after the catch-up, costs three to four times the others;
    #: with 20 reads a round those were 5% of the class and its p90 sat on
    #: the knee between the two costs (136-173 us over five seeds, spread
    #: 0.17); with 60 they are under 2% and the p90 falls among the others.
    POINTS = 60
    HISTORY = 1
    TRANSFERS = 1

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.sharded = None
        self.setups = 0
        weights = [1.0 / (rank + 1) ** self.ZIPF_THETA for rank in range(self.ROWS)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def _key(self) -> int:
        return self._hot[bisect.bisect_left(self._cdf, self.rng.random())]

    def setup(self) -> None:
        import repro
        from repro.db import Database, ShardedDatabase

        self.close()
        self.setups += 1
        self.data_dir = os.path.join(self.scratch, f"cluster-{self.setups}")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        rng = random.Random(f"{self.name}:data:{self.seed}")
        keys = list(range(self.ROWS))
        rng.shuffle(keys)
        self._hot = keys  # Zipf rank -> key, so hot keys spread over shards
        shards = [
            Database(
                name=f"ledger-shard{i}",
                storage="paged",
                data_dir=os.path.join(self.data_dir, f"shard{i}"),
            )
            for i in range(self.SHARDS)
        ]
        self.sharded = sharded = ShardedDatabase(
            databases=shards, shard_keys={"ledger": "acct"}, name="ledger"
        )
        self.conn = conn = repro.connect(sharded)
        conn.execute(
            "CREATE TABLE ledger (acct INTEGER, region TEXT, balance INTEGER, memo TEXT)"
        )
        conn.execute("CREATE INDEX ix_ledger_acct ON ledger (acct)")
        regions = {k: f"region{rng.randrange(self.REGIONS)}" for k in range(self.ROWS)}
        balances = {k: self.BALANCE + rng.randrange(1000) for k in range(self.ROWS)}
        memo = "m" * self.MEMO
        for start in range(0, self.ROWS, self.LOAD_BATCH):
            with conn.transaction() as txn:
                for k in range(start, min(self.ROWS, start + self.LOAD_BATCH)):
                    txn.execute(
                        "INSERT INTO ledger VALUES (?, ?, ?, ?)",
                        (k, regions[k], balances[k], memo),
                    )
        sharded.attach_replicas(1)
        self.model = reference.LedgerModel(balances, regions)
        self.bookmarks: list[int] = []

    def run_round(self, rec: Recorder) -> None:
        rng = self.rng
        model = self.model
        conn = self.conn
        self.tally["records_applied"] += rec.upkeep(self.sharded.catch_up_replicas)

        rows = rec.time(
            "sweep",
            lambda: conn.execute(
                "SELECT region, COUNT(*), SUM(balance) FROM ledger GROUP BY region"
            ).rows,
        )
        got = {region: (n, total) for region, n, total in rows}
        check(got == model.by_region(), "per-region aggregate differs from the ledger model")
        check(
            sum(total for _n, total in got.values()) == model.total,
            "total balance changed across transfers",
        )

        reads = ["point"] * self.POINTS + ["history"] * (self.HISTORY if self.bookmarks else 0)
        rng.shuffle(reads)
        for kind in reads:
            key = self._key()
            if kind == "point":
                rows = rec.time(
                    "point",
                    lambda: conn.execute(
                        "SELECT balance FROM ledger WHERE acct = ?", (key,)
                    ).rows,
                )
                check(rows == [(model.balance(key),)], f"balance of {key}: {rows}")
            else:
                csn = rng.choice(self.bookmarks)
                rows = rec.time(
                    "history",
                    lambda: conn.execute(
                        "SELECT balance FROM ledger WHERE acct = ? AS OF ?", (key, csn)
                    ).rows,
                )
                want = model.balance_at(key, csn)
                check(rows == [(want,)], f"balance of {key} as of {csn}: {rows} != {want}")

        shard_of = self.sharded.router.shard_for_value
        for _ in range(self.TRANSFERS):
            # Every transfer spans two shards (2PC): one operation shape.
            src = self._key()
            dst = self._key()
            while shard_of(dst) == shard_of(src):
                dst = self._key()
            amount = rng.randint(1, 50)

            def transfer() -> Any:
                with conn.transaction() as txn:
                    txn.execute(
                        "UPDATE ledger SET balance = balance - ? WHERE acct = ?",
                        (amount, src),
                    )
                    txn.execute(
                        "UPDATE ledger SET balance = balance + ? WHERE acct = ?",
                        (amount, dst),
                    )
                return txn

            txn = rec.time("request", transfer)
            model.transfer(src, dst, amount, txn.csn)
            self.bookmarks.append(txn.csn)
            self.tally["branches"] += len(txn.raw.stores_joined())

    def counters(self) -> dict[str, float]:
        out: Counter = Counter(self.tally)
        sharded = self.sharded
        _add_stats(out, "storage.", sharded.storage_stats)
        _add_stats(out, "sharding.", sharded.stats)
        dbs = list(sharded.shards)
        for replica_set in sharded.replica_sets.values():
            dbs.extend(replica.database for replica in replica_set.replicas)
        for db in dbs:
            _add_stats(out, "exec.", db.executor_stats)
            _add_stats(out, "plan.", db.plan_cache_stats)
        for db in sharded.shards:
            _add_stats(out, "wal.", db.wal.flush_stats)
        router = getattr(self.conn, "_sharded_router", None)
        if router is not None:
            _add_stats(out, "router.", router.stats)
        return dict(out)

    def close(self) -> None:
        if self.sharded is None:
            return
        for shard in self.sharded.shards:
            shard.close()
        self.sharded = None
        shutil.rmtree(self.data_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (TrodServe, TrodDebug, ClusterRW)}
