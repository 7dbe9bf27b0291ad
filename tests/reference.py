"""A naive model of the whole round, written from the documented behaviour.

`ReferenceModel(config)` plays one synchronous round at a time, the way the
paper's model describes it: the adversary injects, the switched-on stations
act, the channel resolves to silence, one delivery or a collision, feedback
goes back to the stations that were on, and the restrain limit is checked. No
packet is ever dropped. Every `SimResult` field is folded naively, recomputing
max and sum over the queues each round.

It shares no loop, adversary or driver code with `channel_lab`. It imports
the token station state machines, which it drives, the record types the
engine reports in (`SimResult`, `MetricsSummary`, `RoundReport`,
`ChannelObservation`) and the error classes it raises. Integer draws use
`random.randrange`, so the reference also cross-checks the engine's own
integer draw law.
"""

import hashlib
import random

from channel_lab.core import ChannelObservation, ProtocolInvariantBroken, RestrainViolation
from channel_lab.engine import RoundReport, SimResult
from channel_lab.metrics import MetricsSummary
from channel_lab.protocols import IDLE, LISTENING, AdaptiveStation, FullSensingStation


def stream(seed, label):
    """The Mersenne Twister seeded by SHA-256("<seed as 16 hex digits>|<label>")."""
    digest = hashlib.sha256(f"{seed & (2 ** 64 - 1):016x}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


# ---------------------------------------------------------------------------
# Adversary
# ---------------------------------------------------------------------------

class StockAdversary:
    """The stock adversary, one round per call.

    Each round the stock grows by one with probability rho (first random()),
    then the whole stock is released with probability burst_p (second
    random()), or unconditionally once it holds stock_b packets. Released
    packets pick targets one draw each: "focused" gives stations 1 and 2
    probability 1/3 + 1/(3n) each and every other station 1/(3n) from one
    random(), "flat" is randrange(n), and "single(i)" sends everything to
    station i with no draw. A plan injects its entries for the round and draws
    nothing.
    """

    def __init__(self, config):
        self.n = config.n
        self.rho = config.rho
        self.burst_p = config.burst_p
        self.stock_b = config.stock_b
        self.dist = config.distribution
        self.rng = stream(config.seed, "adversary")
        self.stock = 0

    def target(self):
        n, kind = self.n, self.dist.kind
        if kind == "single":
            return self.dist.target
        if kind == "flat":
            return self.rng.randrange(n) + 1
        u = self.rng.random()
        if u < (n + 1) / (3 * n):
            return 1
        if u < 2 * (n + 1) / (3 * n):
            return 2
        return min(3 + int((u - 2 * (n + 1) / (3 * n)) / (1 / (3 * n))), n)

    def inject(self, round_no):
        """{station: packets} injected in round `round_no`."""
        out = {}
        if self.dist.kind == "plan":
            for rnd, sid, count in self.dist.plan:
                if rnd == round_no and count:
                    out[sid] = out.get(sid, 0) + count
            return out
        if self.rng.random() < self.rho:
            self.stock += 1
        burst = self.rng.random() < self.burst_p
        if (burst or self.stock >= self.stock_b) and self.stock:
            for _ in range(self.stock):
                sid = self.target()
                out[sid] = out.get(sid, 0) + 1
            self.stock = 0
        return out


# ---------------------------------------------------------------------------
# Drivers: actions(round, queues) -> (attempts, on_count), then finish_round
# ---------------------------------------------------------------------------

class Driver:
    """Base of the drivers: it ignores injections and channel feedback."""

    def __init__(self, config):
        self.config = config

    def note_injections(self, round_no, injections):
        pass

    def finish_round(self, round_no, obs, success_sid, queues):
        pass


class ObserverListTokenDriver(Driver):
    """Token driver that rebuilds and sorts an observer list every round.

    Every round it wakes the stations due in the calendar, collects the ones
    that switched on into an observer list, sorts it by ID and, in
    finish_round, skips the observers that went idle during their own decide.
    """

    def __init__(self, config):
        sids = range(1, config.n + 1)
        if config.protocol.name == "adaptive":
            self.stations = [AdaptiveStation(sid, config.n) for sid in sids]
        else:
            k = config.protocol.variant_k or 1
            self.stations = [FullSensingStation(sid, config.n, k) for sid in sids]
        self.calendar = {}
        self.active = [s for s in self.stations if s.state is not IDLE]
        for s in self.stations:
            if s.state is IDLE:
                self.calendar.setdefault(s.wake_round, []).append(s)
        self._observers = []

    def actions(self, round_no, queues):
        for s in self.calendar.pop(round_no, ()):
            s.state = LISTENING
            self.active.append(s)
        attempts = []
        observers = []
        still_active = []
        for s in self.active:
            action = s.decide(round_no, queues[s.sid - 1])
            if action.kind == "transmit":
                attempts.append((s.sid, action.bits))
            if action.kind != "off":
                observers.append(s)
            if s.state is IDLE:
                self.calendar.setdefault(s.wake_round, []).append(s)
            else:
                still_active.append(s)
        self.active = still_active
        observers.sort(key=lambda s: s.sid)
        self._observers = observers
        if len(attempts) > 1 and isinstance(self.stations[0], AdaptiveStation):
            raise ProtocolInvariantBroken(
                f"round {round_no}: {len(attempts)} adaptive stations transmitted")
        return sorted(attempts, key=lambda a: a[0]), len(observers)

    def finish_round(self, round_no, obs, success_sid, queues):
        dropped = False
        for s in self._observers:
            if s.state is IDLE:
                continue
            s.observe(round_no, obs, own_ack=(s.sid == success_sid))
            if s.state is IDLE:
                self.calendar.setdefault(s.wake_round, []).append(s)
                dropped = True
        if dropped:
            self.active = [s for s in self.active if s.state is not IDLE]


def backoff_window(kind, failures):
    """Window after `failures` failures: 2^i, 2i or 2i^2, within [1, 2048]."""
    i = failures
    w = {"exponential": 2 ** min(i, 11), "linear": 2 * i, "square": 2 * i * i}[kind]
    return max(1, min(2048, w))


class PollingStation:
    """A backoff station: a slot in its window, a failure counter, its own stream."""

    def __init__(self, sid, kind, rng):
        self.sid = sid
        self.kind = kind
        self.attempts = 0
        self.slot = None
        self.rng = rng

    def draw(self, round_no):
        self.slot = round_no + self.rng.randrange(backoff_window(self.kind, self.attempts))


class PollingBackoffDriver(Driver):
    """Polls every backlogged station every round, in ID order.

    A station draws its slot in the window that opens the round it needs one:
    in the round a packet reaches it empty (initial backlogs in round 1), and
    at the end of a round it transmitted in, for the next round, after a
    collision or after a success that leaves it packets. A success resets the
    failure counter; a collision adds one.
    """

    def __init__(self, config):
        kind = config.protocol.backoff_kind
        self.stations = [PollingStation(sid, kind, stream(config.seed, f"backoff.{sid}"))
                         for sid in range(1, config.n + 1)]
        for s, q in zip(self.stations, config.initial_queues):
            if q > 0:
                s.draw(1)
        self._attempted = []

    def note_injections(self, round_no, injections):
        for sid in injections:
            s = self.stations[sid - 1]
            if s.slot is None:
                s.draw(round_no)

    def actions(self, round_no, queues):
        self._attempted = [s.sid for s in self.stations if s.slot == round_no]
        return [(sid, None) for sid in self._attempted], len(self._attempted)

    def finish_round(self, round_no, obs, success_sid, queues):
        for sid in self._attempted:
            s = self.stations[sid - 1]
            if sid == success_sid:
                s.attempts = 0
                s.slot = None
                if queues[sid - 1] > 0:
                    s.draw(round_no + 1)
            else:
                s.attempts += 1
                s.draw(round_no + 1)


class RoundRobinDriver(Driver):
    """Station (r - 1) mod n + 1 is on in round r and sends if it holds a packet."""

    def actions(self, round_no, queues):
        sid = (round_no - 1) % self.config.n + 1
        return ([(sid, None)] if queues[sid - 1] > 0 else []), 1


class InterleavedDriver(Driver):
    """Round j*L + i + 1 switches on set j mod m_i of level i; members with packets send."""

    def actions(self, round_no, queues):
        families = self.config.protocol.families
        levels = len(families)
        sets = families[(round_no - 1) % levels].sets
        members = sets[((round_no - 1) // levels) % len(sets)]
        return [(sid, None) for sid in members if queues[sid - 1] > 0], len(members)


class StateAwareDriver(Driver):
    """The largest queue sends, lowest ID on ties; nobody is on when all are empty."""

    def actions(self, round_no, queues):
        best = max(queues)
        if best == 0:
            return [], 0
        return [(queues.index(best) + 1, None)], 1


DRIVERS = {
    "adaptive": ObserverListTokenDriver,
    "fullsensing": ObserverListTokenDriver,
    "fullsensing_mod": ObserverListTokenDriver,
    "backoff": PollingBackoffDriver,
    "round_robin": RoundRobinDriver,
    "interleaved": InterleavedDriver,
    "state_aware": StateAwareDriver,
}


# ---------------------------------------------------------------------------
# The round
# ---------------------------------------------------------------------------

class ReferenceModel:
    """One run of `config` (a validated SimConfig), played round by round."""

    def __init__(self, config):
        self.config = config
        self.n = config.n
        self.adversary = StockAdversary(config)
        self.driver = DRIVERS[config.protocol.name](config)
        self.queues = list(config.initial_queues)
        self.round = 0
        self.injected = sum(self.queues)
        self.delivered = 0
        self.collisions = 0
        self.cycle_collisions = {}   # cycle c (rounds cn+1 .. cn+n) -> its collisions
        self.queue_maxima = []       # max(queues) at the end of each round
        self.queue_totals = []       # sum(queues) at the end of each round
        self.on_modes = []

    def play_round(self):
        """Play the next round and return its RoundReport."""
        r = self.round + 1
        queues = self.queues
        injections = self.adversary.inject(r)
        for sid, count in injections.items():
            queues[sid - 1] += count
        self.injected += sum(injections.values())
        self.driver.note_injections(r, injections)

        attempts, on_count = self.driver.actions(r, queues)
        for sid, _ in attempts:
            if queues[sid - 1] == 0:
                raise ProtocolInvariantBroken(
                    f"round {r}: station {sid} transmitted with an empty queue")
        if not attempts:
            obs, success = ChannelObservation("silence"), None
        elif len(attempts) == 1:
            (success, bits), = attempts
            obs = ChannelObservation("single", success, bits)
            queues[success - 1] -= 1
            self.delivered += 1
        else:
            obs, success = ChannelObservation("collision"), None
            self.collisions += 1
            cycle = (r - 1) // self.n
            self.cycle_collisions[cycle] = self.cycle_collisions.get(cycle, 0) + 1
        self.driver.finish_round(r, obs, success, queues)
        limit = self.config.restrain_limit
        if limit is not None and on_count > limit:
            raise RestrainViolation(r, on_count, limit)

        self.queue_maxima.append(max(queues))
        self.queue_totals.append(sum(queues))
        self.on_modes.append(on_count)
        self.round = r
        return RoundReport(obs, on_count, sum(injections.values()), success is not None)

    def advance(self, stop, reports):
        """Play rounds up to `stop`, appending each round's report to `reports`."""
        while self.round < stop:
            reports.append(self.play_round())

    def result(self):
        """The SimResult of the rounds played so far."""
        rounds, n = len(self.queue_maxima), self.n
        metrics = MetricsSummary(
            rounds=rounds,
            max_max=max(self.queue_maxima, default=0),
            avg_max=sum(self.queue_maxima) / rounds if rounds else 0.0,
            max_avg=max(self.queue_totals, default=0) / n,
            avg_avg=sum(self.queue_totals) / (rounds * n) if rounds else 0.0,
            avg_access=sum(self.on_modes) / rounds if rounds else 0.0,
            collisions=self.collisions,
        )
        return SimResult(
            config=self.config,
            injected=self.injected,
            delivered=self.delivered,
            queued_total=sum(self.queues),
            final_queues=tuple(self.queues),
            collisions=self.collisions,
            max_cycle_collisions=max(self.cycle_collisions.values(), default=0),
            max_on_mode=max(self.on_modes, default=0),
            metrics=metrics,
        )
