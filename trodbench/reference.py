"""Reference models the benchmark checks the program's outputs against.

Each model is built from the benchmark's generated inputs alone, never
from the program's earlier output, and holds the answer every checked
operation must return. None of them imports the program.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Iterable, Sequence


class ShopModel:
    """Orders, stock and prices of one ``trod-serve`` round."""

    def __init__(self, prices: dict[str, float], stock: dict[str, int]):
        self.prices = dict(prices)
        self.initial_stock = dict(stock)
        self.sold: Counter[str] = Counter()
        self.totals: dict[str, float] = {}
        #: Stock of every SKU after each placed order, in order; entry k
        #: is the state a bookmark taken after the k-th order must show.
        self._stock_after: list[dict[str, int]] = []

    def place(self, order_id: str, items: Sequence[tuple[str, int]]) -> float:
        """Record one order of ``(sku, qty)`` items; returns its total."""
        total = 0.0
        for sku, qty in items:
            total += qty * self.prices[sku]
            self.sold[sku] += qty
        self.totals[order_id] = total
        self._stock_after.append(
            {sku: self.stock(sku) for sku in self.initial_stock}
        )
        return total

    def stock(self, sku: str) -> int:
        return self.initial_stock[sku] - self.sold[sku]

    def stock_after(self, order_index: int, sku: str) -> int:
        """Stock of ``sku`` right after the ``order_index``-th order."""
        return self._stock_after[order_index][sku]

    @property
    def orders(self) -> int:
        return len(self.totals)

    def status(self, order_id: str) -> str | None:
        return "placed" if order_id in self.totals else None


class LedgerModel:
    """The ``cluster-rw`` ledger: balances with per-key history."""

    def __init__(self, balances: dict[int, int], regions: dict[int, str]):
        self.balances = dict(balances)
        self.regions = dict(regions)
        #: key -> ascending [(csn, balance after that csn)]
        self._history: dict[int, list[tuple[int, int]]] = {
            key: [(0, value)] for key, value in balances.items()
        }

    def transfer(self, src: int, dst: int, amount: int, csn: int) -> None:
        """Apply one committed transfer stamped with its commit ``csn``."""
        self.balances[src] -= amount
        self.balances[dst] += amount
        self._history[src].append((csn, self.balances[src]))
        self._history[dst].append((csn, self.balances[dst]))

    def balance(self, key: int) -> int:
        return self.balances[key]

    def balance_at(self, key: int, csn: int) -> int:
        """Balance of ``key`` as of commit position ``csn``."""
        history = self._history[key]
        index = bisect.bisect_right(history, (csn, float("inf"))) - 1
        return history[max(index, 0)][1]

    def by_region(self) -> dict[str, tuple[int, int]]:
        """region -> (row count, balance sum)."""
        out: dict[str, list[int]] = {}
        for key, value in self.balances.items():
            entry = out.setdefault(self.regions[key], [0, 0])
            entry[0] += 1
            entry[1] += value
        return {region: (n, total) for region, (n, total) in out.items()}

    @property
    def total(self) -> int:
        return sum(self.balances.values())


def duplicate_keys(rows: Iterable[tuple]) -> list[tuple]:
    """Keys that occur more than once: the no-duplicates invariant."""
    counts = Counter(rows)
    return sorted(key for key, n in counts.items() if n > 1)


def orderings_within_naive(explored: int, naive: int) -> bool:
    """A pruned enumeration never explores more orderings than naive."""
    return 1 <= explored <= naive
