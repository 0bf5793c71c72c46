"""Aggregate function implementations for the relational engine."""

from __future__ import annotations

import math
from typing import Any

from repro.common.errors import ExecutionError


class Aggregate:
    """Incremental aggregate accumulator (one instance per group per aggregate)."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError

    def load(self, *state: Any) -> None:
        """Seed the accumulator with one group's partial state: when the
        vector fold refuses a batch, the streaming group-by hands each
        vector aggregate over to per-group-code accumulators through this.
        Non-distinct accumulators only."""
        raise NotImplementedError


class CountAggregate(Aggregate):
    """COUNT(*) or COUNT(expr); NULLs are skipped when counting an expression."""

    def __init__(self, count_nulls: bool = False, distinct: bool = False) -> None:
        self._count = 0
        self._count_nulls = count_nulls
        self._distinct = distinct
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None and not self._count_nulls:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1

    def result(self) -> int:
        return self._count

    def load(self, count: int) -> None:
        self._count = count


class SumAggregate(Aggregate):
    def __init__(self, distinct: bool = False) -> None:
        self._total: float | int | None = None
        self._distinct = distinct
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        if self._total is None:
            # An INTEGER total, also over BOOLEAN: True starts it at 1.
            self._total = int(value) if isinstance(value, bool) else value
        else:
            self._total += value

    def result(self) -> Any:
        return self._total

    def load(self, total: Any) -> None:
        self._total = total


class AvgAggregate(Aggregate):
    def __init__(self, distinct: bool = False) -> None:
        self._total = 0.0
        self._count = 0
        self._distinct = distinct
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._total += value
        self._count += 1

    def result(self) -> float | None:
        if self._count == 0:
            return None
        return self._total / self._count

    def load(self, total: float, count: int) -> None:
        self._total = total
        self._count = count


class MinAggregate(Aggregate):
    def __init__(self, **_kwargs: Any) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value < self._value:
            self._value = value

    def result(self) -> Any:
        return self._value

    def load(self, value: Any) -> None:
        self._value = value


class MaxAggregate(Aggregate):
    def __init__(self, **_kwargs: Any) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value > self._value:
            self._value = value

    def result(self) -> Any:
        return self._value

    def load(self, value: Any) -> None:
        self._value = value


class StddevAggregate(Aggregate):
    """Sample standard deviation via Welford's online algorithm."""

    def __init__(self, distinct: bool = False) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._distinct = distinct
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def result(self) -> float | None:
        if self._count < 2:
            return None
        return math.sqrt(self._m2 / (self._count - 1))


_AGGREGATE_FACTORIES = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "avg": AvgAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "stddev": StddevAggregate,
}


def make_aggregate(name: str, count_star: bool = False, distinct: bool = False) -> Aggregate:
    """Create an accumulator for an aggregate function by name."""
    key = name.lower()
    if key not in _AGGREGATE_FACTORIES:
        raise ExecutionError(f"unknown aggregate function: {name!r}")
    if key == "count":
        return CountAggregate(count_nulls=count_star, distinct=distinct)
    return _AGGREGATE_FACTORIES[key](distinct=distinct)
