"""Round loop: injection, action collection, channel resolution, restraint
accounting, queue updates, and conservation checking.

Each round runs in a fixed order: the adversary injects, switched-on stations
act, the channel resolves to silence / one delivery / collision, feedback goes
back to the on-mode stations, and the restrain limit is asserted.

The loop reads the adversary as a stream of release events
(`adversary.releases`), opened once per `advance` and bounded by its stop: it
holds the next release round in a local, so a round that injects nothing
costs the adversary one comparison.

`Engine.advance(stop, reports=None)` is the one way to play rounds: it plays
up to round `stop`, appends one RoundReport per round to `reports` when given
a list, and stops. At every stop the queues are checked against the packet
count: they must sum to the packets injected and not yet delivered, and none
may be negative. A run is observed between stops: `eng.advance(r)` followed by
`eng.acc.snapshot()` is a checkpoint, `step()` plays one round and returns its
report, and `run()` finishes the run however far it has been advanced.
"""

from __future__ import annotations

from dataclasses import dataclass

# The loop reads the release stream. adversary_step stays importable from here
# because perfbench/tracer.py wraps engine.adversary_step by name.
from .adversary import AdversaryState, adversary_step, make_distribution, releases  # noqa: F401
from .core import (
    COLLISION, SILENCE, ChannelObservation, ProtocolInvariantBroken,
    RestrainViolation, SimConfig, SimulationError, derive_stream, single,
    validate_config,
)
# The loop folds metrics itself. metrics_update stays importable from here
# because perfbench/tracer.py wraps engine.metrics_update by name.
from .metrics import MetricsAccumulator, MetricsSummary, metrics_update  # noqa: F401
from .protocols import PROTOCOLS


NO_RELEASE = (0, None)   # what the loop reads once the release stream is spent


@dataclass(frozen=True)
class RoundReport:
    observation: ChannelObservation
    on_mode: int
    injections: int
    delivered: bool


@dataclass(frozen=True)
class SimResult:
    """Counters and measurements from one finished run."""

    config: SimConfig
    injected: int
    delivered: int
    queued_total: int
    final_queues: tuple[int, ...]
    collisions: int
    max_cycle_collisions: int
    max_on_mode: int
    metrics: MetricsSummary


class Engine:
    """One simulation world; single-threaded, deterministic in the seed."""

    def __init__(self, config):
        self.config = config = validate_config(config)
        self.n = config.n
        self.queues = list(config.initial_queues)
        self.system = PROTOCOLS[config.protocol.name].system(config)
        self.adversary = AdversaryState(
            rho=config.rho, burst_p=config.burst_p, stock_b=config.stock_b,
            distribution=make_distribution(config.distribution, config.n),
        )
        self.rng_adversary = derive_stream(config.seed, "adversary")
        # Observations are immutable, so a plain delivery by station i is
        # always the same object: index i of this list.
        self.plain_singles = [None] + [single(sid) for sid in range(1, config.n + 1)]
        self.acc = MetricsAccumulator(config.n)
        self.round = 0
        self.injected = sum(config.initial_queues)
        self.delivered = 0
        self.queued_total = self.injected
        self.collisions = 0
        self.cycle = 0               # cycle (rounds cn+1 .. cn+n) of the last collision
        self.cycle_collisions = 0    # collisions seen in that cycle
        self.max_cycle_collisions = 0
        self.max_on_mode = 0
        self.limit = config.restrain_limit

    def advance(self, stop: int, reports=None) -> None:
        """Play rounds self.round + 1 .. stop; the only implementation of a round.

        Counters, metric sums and the protocol's bound methods live in locals
        while the loop runs and are written back when it reaches `stop`. When
        `reports` is a list, one RoundReport per round is appended to it. A
        `stop` at or below the current round plays nothing. A SimulationError
        leaves the engine mid-round; it cannot be resumed.
        """
        start = self.round
        if stop <= start:
            return
        queues = self.queues
        system = self.system
        actions = system.actions
        finish_round = system.finish_round if system.wants_feedback else None
        note_injections = system.note_injections if system.wants_injection_notes else None
        need_obs = finish_round is not None or reports is not None
        plain_singles = self.plain_singles
        stream = releases(self.adversary, self.rng_adversary, start, stop)
        next_r, injections = next(stream, NO_RELEASE)
        limit = self.limit
        n = self.n
        injected = self.injected
        delivered = self.delivered
        total = self.queued_total
        collisions = self.collisions
        cycle = self.cycle
        cycle_collisions = self.cycle_collisions
        max_cycle_collisions = self.max_cycle_collisions
        max_on_mode = self.max_on_mode
        acc = self.acc
        max_max = acc.max_max
        sum_max = acc.sum_max
        max_total = acc.max_total
        sum_total = acc.sum_total
        on_mode_sum = acc.on_mode_sum
        round_max = max(queues)

        for r in range(start + 1, stop + 1):
            injected_now = 0
            if r == next_r:
                for sid, count in injections.items():
                    q = queues[sid - 1] + count
                    queues[sid - 1] = q
                    if q > round_max:
                        round_max = q
                    injected_now += count
                injected += injected_now
                total += injected_now
                if note_injections is not None:
                    note_injections(injections)
                next_r, injections = next(stream, NO_RELEASE)

            attempts, on_count = actions(r, queues)
            n_attempts = len(attempts)
            if n_attempts == 1:
                sid, bits = attempts[0]
                q = queues[sid - 1]
                if q <= 0:
                    raise ProtocolInvariantBroken(
                        f"round {r}: station {sid} transmitted with an empty queue")
                queues[sid - 1] = q - 1
                delivered += 1
                total -= 1
                if q == round_max and q not in queues:
                    round_max = q - 1   # this station alone held the max
                success = sid
                if not need_obs:
                    obs = None
                elif bits is None:
                    obs = plain_singles[sid]
                else:
                    obs = single(sid, bits)
            elif n_attempts == 0:
                success = None
                obs = SILENCE
            else:
                for sid, _ in attempts:
                    if queues[sid - 1] <= 0:
                        raise ProtocolInvariantBroken(
                            f"round {r}: station {sid} transmitted with an empty queue")
                success = None
                obs = COLLISION
                collisions += 1
                if (r - 1) // n != cycle:
                    cycle = (r - 1) // n
                    cycle_collisions = 0
                cycle_collisions += 1
                if cycle_collisions > max_cycle_collisions:
                    max_cycle_collisions = cycle_collisions

            if finish_round is not None:
                finish_round(r, obs, success, queues)

            if on_count > max_on_mode:
                max_on_mode = on_count
            if limit is not None and on_count > limit:
                raise RestrainViolation(r, on_count, limit)

            if round_max > max_max:
                max_max = round_max
            sum_max += round_max
            if total > max_total:
                max_total = total
            sum_total += total
            on_mode_sum += on_count
            if reports is not None:
                reports.append(RoundReport(obs, on_count, injected_now, n_attempts == 1))

        acc.rounds += stop - start
        acc.max_max = max_max
        acc.sum_max = sum_max
        acc.max_total = max_total
        acc.sum_total = sum_total
        acc.on_mode_sum = on_mode_sum
        acc.collisions += collisions - self.collisions
        self.round = stop
        self.injected = injected
        self.delivered = delivered
        self.queued_total = total
        self.collisions = collisions
        self.cycle = cycle
        self.cycle_collisions = cycle_collisions
        self.max_cycle_collisions = max_cycle_collisions
        self.max_on_mode = max_on_mode

        queued = sum(queues)
        if queued != total or min(queues) < 0:
            raise SimulationError(
                f"round {stop}: conservation broken (queues hold {queued} packets, "
                f"lowest {min(queues)}; {injected} injected - {delivered} delivered "
                f"= {total})")

    def step(self) -> RoundReport:
        """Advance one round and report what happened on the channel."""
        reports = []
        self.advance(self.round + 1, reports)
        return reports[0]

    def run(self) -> SimResult:
        """Play the rest of the configured rounds and return the result."""
        self.advance(self.config.rounds)
        return SimResult(
            config=self.config,
            injected=self.injected,
            delivered=self.delivered,
            queued_total=self.queued_total,
            final_queues=tuple(self.queues),
            collisions=self.collisions,
            max_cycle_collisions=self.max_cycle_collisions,
            max_on_mode=self.max_on_mode,
            metrics=self.acc.snapshot(),
        )


def run_simulation(config) -> SimResult:
    """Run a validated (or raw) configuration to completion."""
    return Engine(config).run()
