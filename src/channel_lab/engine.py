"""Round loop: injection, action collection, channel resolution, restraint
accounting, queue updates, and conservation checking.

Each round runs in a fixed order: the adversary injects, switched-on stations
act, the channel resolves to silence / one delivery / collision, feedback goes
back to the on-mode stations, and the restrain limit is asserted. Whenever the
loop stops (at the end of a run, at a checkpoint, after a single step) the
queues are checked against the packet count: they must sum to the packets
injected and not yet delivered, and none may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import AdversaryState, adversary_step, make_distribution
from .core import (
    COLLISION, SILENCE, ChannelObservation, ProtocolInvariantBroken,
    RestrainViolation, SimConfig, SimulationError, derive_stream, single,
    validate_config,
)
# The loop folds metrics itself. metrics_update stays importable from here
# because perfbench/tracer.py wraps engine.metrics_update by name.
from .metrics import MetricsAccumulator, MetricsSummary, metrics_update  # noqa: F401
from .protocols import make_system


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
    checkpoints: tuple = ()
    reports: tuple = ()


class Engine:
    """One simulation world; single-threaded, deterministic in the seed."""

    def __init__(self, config, *, checkpoint_rounds=(), collect_reports=False):
        self.config = config = validate_config(config)
        self.n = config.n
        self.queues = list(config.initial_queues)
        self.system = make_system(config)
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
        self.checkpoint_rounds = frozenset(checkpoint_rounds)
        self.checkpoints = []
        self.collect_reports = collect_reports
        self.reports = []
        limit = config.restrain_limit
        declared = self.system.declared
        if limit is None:
            self.limit = declared
        elif declared is None:
            self.limit = limit
        else:
            self.limit = min(limit, declared)

    def _advance(self, stop: int, reports=None) -> None:
        """Play rounds self.round + 1 .. stop; the only implementation of a round.

        Counters, metric sums and the protocol's bound methods live in locals
        while the loop runs and are written back when it reaches `stop`. When
        `reports` is a list, one RoundReport per round is appended to it. A
        SimulationError leaves the engine mid-round; it cannot be resumed.
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
        step_adversary = adversary_step
        adversary = self.adversary
        rng = self.rng_adversary
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
            injections = step_adversary(adversary, r, rng)
            injected_now = 0
            if injections:
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
        if stop in self.checkpoint_rounds:
            self.checkpoints.append((stop, acc.snapshot()))

    def step(self) -> RoundReport:
        """Advance one round and report what happened on the channel."""
        reports = self.reports if self.collect_reports else []
        self._advance(self.round + 1, reports)
        return reports[-1]

    def run(self) -> SimResult:
        rounds = self.config.rounds
        reports = self.reports if self.collect_reports else None
        for checkpoint in sorted(self.checkpoint_rounds):
            if checkpoint <= rounds:
                self._advance(checkpoint, reports)
        self._advance(rounds, reports)
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
            checkpoints=tuple(self.checkpoints),
            reports=tuple(self.reports),
        )


def run_simulation(config, *, checkpoint_rounds=(), collect_reports=False) -> SimResult:
    """Run a validated (or raw) configuration to completion."""
    return Engine(config, checkpoint_rounds=checkpoint_rounds,
                  collect_reports=collect_reports).run()
