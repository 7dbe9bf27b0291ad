"""Packet injection: the stochastic stock adversary, leaky-bucket compliance
checking, and schedule-targeting attack plans against fixed-schedule protocols.

The adversary is a stream of release events. `releases(state, rng, start,
stop)` yields `(round, {station: count})` only for the rounds in
start+1..stop that inject packets, so the engine's round loop does adversary
work only in those rounds. The adversary draws from its own random stream,
never from the protocol's, so the events depend only on the seed and the
adversary's parameters. `adversary_step` plays one round through the same
stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import DistributionSpec


class ScheduleUnavailable(RuntimeError):
    """Raised when an attack needs a transmission schedule the protocol cannot give."""


# ---------------------------------------------------------------------------
# Target distributions
# ---------------------------------------------------------------------------

class Focused:
    """Two favored stations absorb most packets; the rest share a thin tail.

    Station probabilities: P(1) = P(2) = 1/3 + 1/(3n), P(i) = 1/(3n) for i > 2.
    """

    kind = "focused"

    def __init__(self, n: int):
        self.n = n
        self._p1 = Fraction(1, 3) + Fraction(1, 3 * n)
        # A uniform u below t1 picks station 1, below t2 station 2, and
        # station 3 + int((u - t2) / tail) otherwise, at most n.
        self.t1 = float(self._p1)
        self.t2 = float(2 * self._p1)
        self.tail = 1.0 / (3 * n)

    def probability(self, station: int) -> Fraction:
        if station in (1, 2):
            return self._p1
        return Fraction(1, 3 * self.n)

    def sample(self, rng) -> int:
        """One packet's target from one rng.random(); `releases` inlines this law."""
        u = rng.random()
        if u < self.t1:
            return 1
        if u < self.t2:
            return 2
        station = 3 + int((u - self.t2) / self.tail)
        return min(station, self.n)


class Flat:
    """Uniform target choice over all stations."""

    kind = "flat"

    def __init__(self, n: int):
        self.n = n

    def probability(self, station: int) -> Fraction:
        return Fraction(1, self.n)


class SingleTarget:
    """Every packet goes to one fixed station."""

    kind = "single"

    def __init__(self, target: int):
        self.target = target


class Plan:
    """Fixed injection schedule of (round, station, count) entries."""

    kind = "plan"

    def __init__(self, entries):
        self.entries = tuple(sorted(tuple(e) for e in entries))
        by_round: dict[int, dict[int, int]] = {}
        for rnd, sid, cnt in self.entries:
            if cnt:
                row = by_round.setdefault(rnd, {})
                row[sid] = row.get(sid, 0) + cnt
        self._rounds = sorted(by_round)
        self._by_round = by_round

    def releases(self, start: int, stop: int):
        """Yield (round, {station: count}) for the planned rounds in start+1..stop."""
        rounds, by_round = self._rounds, self._by_round
        for i in range(bisect_right(rounds, start), bisect_right(rounds, stop)):
            rnd = rounds[i]
            yield rnd, by_round[rnd]

    def total(self) -> int:
        return sum(cnt for _, _, cnt in self.entries)

    def to_json(self) -> list[dict]:
        return [{"round": r, "station": s, "count": c} for r, s, c in self.entries]


def make_distribution(spec: DistributionSpec, n: int):
    if spec.kind == "focused":
        return Focused(n)
    if spec.kind == "flat":
        return Flat(n)
    if spec.kind == "single":
        return SingleTarget(spec.target)
    if spec.kind == "plan":
        return Plan(spec.plan)
    raise ValueError(f"unknown distribution kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Stochastic stock adversary
# ---------------------------------------------------------------------------

@dataclass
class AdversaryState:
    """Withholds packets in a stock and releases them in bursts.

    Each round the stock grows by one with probability rho; the whole stock is
    then released with probability burst_p, or unconditionally once it reaches
    stock_b, so the stock never ends a round above the cap.
    """

    rho: float
    burst_p: float
    stock_b: int
    distribution: object
    stock: int = 0


def releases(state: AdversaryState, rng, start: int, stop: int):
    """Yield (round, {station: packets}) for each round in start+1..stop that injects.

    Each round draws two rng.random() (the stock grows with the first, a burst
    comes with the second), then one draw per released packet: rng.random()
    for a focused target, rng.randrange(n) for a flat one, none for a single
    target. The stream is bounded by `stop`: it never draws for a later round,
    and it writes the stock back to `state` once it is exhausted. A plan
    yields its own rounds and draws nothing. The yielded dicts are read-only.
    """
    dist = state.distribution
    if isinstance(dist, Plan):
        yield from dist.releases(start, stop)
        return
    random, randrange = rng.random, rng.randrange
    rho, burst_p, stock_b = state.rho, state.burst_p, state.stock_b
    kind = dist.kind
    if kind == "focused":
        t1, t2, tail, n = dist.t1, dist.t2, dist.tail, dist.n
    elif kind == "flat":
        n = dist.n
    stock = state.stock
    for r in range(start + 1, stop + 1):
        if random() < rho:
            stock += 1
        if (random() < burst_p or stock >= stock_b) and stock:
            if kind == "focused":
                out = {}
                for _ in range(stock):
                    u = random()
                    if u < t1:
                        sid = 1
                    elif u < t2:
                        sid = 2
                    else:
                        sid = 3 + int((u - t2) / tail)
                        if sid > n:
                            sid = n
                    out[sid] = out.get(sid, 0) + 1
            elif kind == "flat":
                out = {}
                for _ in range(stock):
                    sid = randrange(n) + 1
                    out[sid] = out.get(sid, 0) + 1
            else:
                out = {dist.target: stock}
            stock = 0
            yield r, out
    state.stock = stock


def adversary_step(state: AdversaryState, round_no: int, rng) -> dict[int, int]:
    """Advance the adversary one round; returns {station: packets} injected."""
    out: dict[int, int] = {}
    for _, out in releases(state, rng, round_no - 1, round_no):
        pass
    return out


# ---------------------------------------------------------------------------
# Leaky-bucket compliance
# ---------------------------------------------------------------------------

def validate_leaky_bucket(trace, rho: float, b: int):
    """Check a per-round injection trace against the (rho, b) bound.

    Returns None when every window [t1, t2] satisfies
    injections <= rho * (t2 - t1 + 1) + b, else the first violating window,
    ordered by its end round and then by its start round.
    """
    # With rho = num/den exactly and D(t) = den*sum(trace[:t]) - num*t, window
    # [t1, t2] violates iff D(t2) - D(t1 - 1) > den*b. All terms are integers,
    # so the comparison is exact; scanning end rounds against the running
    # prefix minimum finds the earliest violating end in one pass.
    num, den = rho.as_integer_ratio()
    bound = den * b
    d = 0
    running_min = 0
    prefix = [0]
    for t2, count in enumerate(trace, start=1):
        d += den * count - num
        prefix.append(d)
        if d - running_min > bound:
            for t1 in range(1, t2 + 1):
                if d - prefix[t1 - 1] > bound:
                    return (t1, t2)
        if d < running_min:
            running_min = d
    return None


# ---------------------------------------------------------------------------
# Attacks on fixed-schedule protocols
# ---------------------------------------------------------------------------

def min_schedule_attack(schedule, tau: int, n: int, k: int) -> Plan:
    """Build a plan overloading the station with the fewest scheduled slots.

    `schedule` maps a round to the set of stations switched on that round; it
    must exist (fixed in advance), so protocols that adapt to the channel
    raise ScheduleUnavailable. The plan injects floor(tau*k/n) + 1 packets into
    the least-scheduled station (ties broken toward the lowest ID), spread
    evenly over [1, tau].
    """
    if schedule is None:
        raise ScheduleUnavailable("protocol does not expose a fixed schedule")
    counts = {sid: 0 for sid in range(1, n + 1)}
    for rnd in range(1, tau + 1):
        for sid in schedule(rnd):
            counts[sid] += 1
    target = min(counts, key=lambda sid: (counts[sid], sid))
    total = (tau * k) // n + 1
    rounds = [max(1, math.ceil(j * tau / total)) for j in range(1, total + 1)]
    merged: dict[int, int] = {}
    for rnd in rounds:
        merged[rnd] = merged.get(rnd, 0) + 1
    return Plan((rnd, target, cnt) for rnd, cnt in sorted(merged.items()))
