"""Queue-size measurements.

Four measurements are tracked per run: the running maximum of the per-round
maximum queue (max-max), its time average (avg-max), the running maximum of
the per-round mean queue (max-avg), and its time average (avg-avg). Channel
use is summarized as the average number of switched-on stations per round.
"""

from __future__ import annotations

from dataclasses import dataclass


class MetricsAccumulator:
    """Running aggregates over the rounds seen so far."""

    __slots__ = ("n", "rounds", "max_max", "sum_max", "max_total", "sum_total",
                 "on_mode_sum", "collisions")

    def __init__(self, n: int):
        self.n = n
        self.rounds = 0
        self.max_max = 0
        self.sum_max = 0
        self.max_total = 0
        self.sum_total = 0
        self.on_mode_sum = 0
        self.collisions = 0

    @property
    def avg_max(self) -> float:
        return self.sum_max / self.rounds if self.rounds else 0.0

    @property
    def avg_avg(self) -> float:
        return self.sum_total / (self.rounds * self.n) if self.rounds else 0.0

    @property
    def max_avg(self) -> float:
        return self.max_total / self.n

    @property
    def avg_access(self) -> float:
        return self.on_mode_sum / self.rounds if self.rounds else 0.0

    def snapshot(self) -> "MetricsSummary":
        return MetricsSummary(
            rounds=self.rounds,
            max_max=self.max_max,
            avg_max=self.avg_max,
            max_avg=self.max_avg,
            avg_avg=self.avg_avg,
            avg_access=self.avg_access,
            collisions=self.collisions,
        )


@dataclass(frozen=True)
class MetricsSummary:
    rounds: int
    max_max: int
    avg_max: float
    max_avg: float
    avg_avg: float
    avg_access: float
    collisions: int


def metrics_update(acc: MetricsAccumulator, queues, on_mode: int, *,
                   collision: bool = False, total: int | None = None) -> MetricsAccumulator:
    """Fold one round's queue snapshot into the accumulator."""
    round_max = max(queues)
    round_total = sum(queues) if total is None else total
    acc.rounds += 1
    if round_max > acc.max_max:
        acc.max_max = round_max
    acc.sum_max += round_max
    if round_total > acc.max_total:
        acc.max_total = round_total
    acc.sum_total += round_total
    acc.on_mode_sum += on_mode
    if collision:
        acc.collisions += 1
    return acc
