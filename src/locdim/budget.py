"""Work budgets shared by the exact solvers.

Every potentially exponential search in this package charges its inner-loop
work against a Budget; exceeding it raises, and callers translate that into
an honest "unknown"/interval answer instead of a silent wrong one.
"""

from __future__ import annotations

import time


class BudgetExceededError(Exception):
    """A solver ran out of its node or time budget."""


class Budget:
    """Mutable counter of search effort with optional node and time caps."""

    def __init__(self, max_nodes: int | None = None,
                 max_seconds: float | None = None) -> None:
        for name, cap in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
            if cap is not None and not cap >= 0:  # NaN fails every comparison
                raise ValueError(f"{name} must be >= 0, got {cap!r}")
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self._started = time.monotonic()

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"node budget exhausted ({self.nodes} > {self.max_nodes})"
            )
        if (self.max_seconds is not None
                and time.monotonic() - self._started > self.max_seconds):
            raise BudgetExceededError(
                f"time budget exhausted (> {self.max_seconds}s)"
            )

