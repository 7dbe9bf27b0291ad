"""Packet injection: the stochastic stock adversary, leaky-bucket compliance
checking, and schedule-targeting attack plans against fixed-schedule protocols.

The adversary is a stream of release events. `releases(state, rng, start,
stop)` yields `(round, {station: count})` only for the rounds in
start+1..stop that inject packets, so the engine's round loop does adversary
work only in those rounds. Where the packets go is the config's own
`core.DistributionSpec`, read as validated: focused and flat targets are drawn
per packet, a single target takes every packet, and a plan is played as
written. The adversary draws from its own random stream, never from the
protocol's, so the events depend only on the seed and the adversary's
parameters. `adversary_step` plays one round through the same stream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .core import DistributionSpec, randbelow

_ROUND = itemgetter(0)   # the round of a (round, station, count) plan entry


class ScheduleUnavailable(RuntimeError):
    """Raised when an attack needs a transmission schedule the protocol cannot give."""


# ---------------------------------------------------------------------------
# Stochastic stock adversary
# ---------------------------------------------------------------------------

@dataclass
class AdversaryState:
    """Withholds packets in a stock and releases them in bursts.

    Each round the stock grows by one with probability rho; the whole stock is
    then released with probability burst_p, or unconditionally once it reaches
    stock_b, so the stock never ends a round above the cap. Released packets
    go to stations 1..n as `distribution` says.
    """

    rho: float
    burst_p: float
    stock_b: int
    n: int
    distribution: DistributionSpec
    stock: int = 0


def releases(state: AdversaryState, rng, start: int, stop: int):
    """Yield (round, {station: packets}) for each round in start+1..stop that injects.

    Each round draws two rng.random() (the stock grows with the first, a burst
    comes with the second), then one draw per released packet: rng.random()
    for a focused target, core.randbelow(rng.getrandbits, n) for a flat one
    (the law of rng.randrange(n)), none for a single target. The stream is
    bounded by `stop`: it never draws for a later round, and it writes the
    stock back to `state` once it is exhausted. A plan, sorted by round as
    `validate_config` leaves it, yields its own rounds with same-round entries
    merged and zero counts skipped, and draws nothing. The yielded dicts are
    read-only.
    """
    dist = state.distribution
    kind = dist.kind
    if kind == "plan":
        plan = dist.plan
        lo = bisect_right(plan, start, key=_ROUND)
        hi = bisect_right(plan, stop, key=_ROUND)
        for rnd, entries in groupby(plan[lo:hi], key=_ROUND):
            out = {}
            for _, sid, cnt in entries:
                if cnt:
                    out[sid] = out.get(sid, 0) + cnt
            if out:
                yield rnd, out
        return
    random, getrandbits = rng.random, rng.getrandbits
    rho, burst_p, stock_b, n = state.rho, state.burst_p, state.stock_b, state.n
    # Focused: P(1) = P(2) = (n + 1)/(3n), P(i) = 1/(3n) for i > 2. A uniform u
    # below t1 picks station 1, below t2 station 2, else 3 + int((u - t2) / tail)
    # up to n. Each threshold is one correctly rounded division.
    t1 = (n + 1) / (3 * n)
    t2 = 2 * (n + 1) / (3 * n)
    tail = 1.0 / (3 * n)
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
                    sid = randbelow(getrandbits, n) + 1
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

def min_schedule_attack(schedule, tau: int, n: int, k: int) -> DistributionSpec:
    """Build a plan that overloads the station with the fewest scheduled slots.

    `schedule` maps a round to the set of stations switched on that round; it
    must exist (fixed in advance), so protocols that adapt to the channel
    raise ScheduleUnavailable. The plan injects floor(tau*k/n) + 1 packets into
    the least-scheduled station (ties broken toward the lowest ID), spread
    evenly over [1, tau]. The plan is a sorted "plan" `DistributionSpec`, so a
    run takes it as `dataclasses.replace(config, distribution=spec)`.
    """
    if schedule is None:
        raise ScheduleUnavailable("protocol does not expose a fixed schedule")
    counts = {sid: 0 for sid in range(1, n + 1)}
    for rnd in range(1, tau + 1):
        for sid in schedule(rnd):
            counts[sid] += 1
    target = min(counts, key=lambda sid: (counts[sid], sid))
    total = (tau * k) // n + 1
    merged = Counter(max(1, math.ceil(j * tau / total)) for j in range(1, total + 1))
    return DistributionSpec("plan", plan=tuple((rnd, target, cnt)
                                            for rnd, cnt in sorted(merged.items())))
