"""Differential test: the token driver against the observer-list driver.

ObserverListTokenSystem is the driver that the single active list replaced,
kept here as the reference. Every round it wakes the stations due in the
calendar, collects the ones that switched on into an observer list, sorts it
by ID and, in finish_round, skips the observers that went idle during their
own decide. The active-list driver must reproduce it exactly: after every
round the same report, the same set of transmit attempts and the same
(state, wake_round, order) at every station. After every round each
station's cached position `pos` must also be its index in its own list.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from channel_lab.core import (
    DistributionSpec, ProtocolInvariantBroken, ProtocolSpec, SimConfig, SimulationError,
)
from channel_lab.engine import Engine
from channel_lab.protocols import (
    BIG, IDLE, LAST_BIG, LISTENING, AdaptiveStation, FullSensingStation,
)


class ObserverListTokenSystem:
    """Token driver that rebuilds and sorts an observer list every round."""

    wants_feedback = True
    wants_injection_notes = False

    def __init__(self, config):
        sids = range(1, config.n + 1)
        if config.protocol.name == "adaptive":
            self.stations = [AdaptiveStation(sid, config.n) for sid in sids]
        else:
            k = config.protocol.variant_k or 0
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
        on_count = 0
        still_active = []
        for s in self.active:
            action = s.decide(round_no, queues[s.sid - 1])
            kind = action.kind
            if kind == "transmit":
                attempts.append((s.sid, action.bits))
                observers.append(s)
                on_count += 1
            elif kind == "listen":
                observers.append(s)
                on_count += 1
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
        return attempts, on_count

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


def recording(eng):
    """Make `eng` record each round's transmit attempts; returns the record."""
    system = eng.system
    actions = system.actions
    listed = []

    def recorded(round_no, queues):
        attempts, on_count = actions(round_no, queues)
        listed.append(sorted(attempts, key=lambda a: a[0]))
        return attempts, on_count

    system.actions = recorded
    return listed


def station_states(eng):
    return [(s.state, s.wake_round, tuple(s.order)) for s in eng.system.stations]


def play(eng):
    """One round's report, or the class of the SimulationError it raised."""
    try:
        return eng.step()
    except SimulationError as exc:
        return type(exc)


def compare(config):
    """Play `config` on both drivers round by round; returns the reference engine."""
    new = Engine(config)
    ref = Engine(config)
    ref.system = ObserverListTokenSystem(ref.config)
    new_listed, ref_listed = recording(new), recording(ref)
    for r in range(1, config.rounds + 1):
        ref_report = play(ref)
        assert play(new) == ref_report, f"round {r}"
        if isinstance(ref_report, type):
            return ref
        assert new_listed[-1] == ref_listed[-1], f"round {r}"
        assert station_states(new) == station_states(ref), f"round {r}"
        for s in new.system.stations:
            assert s.pos == s.order.index(s.sid), f"round {r}, station {s.sid}"
    assert new.queues == ref.queues
    return ref


PROTOCOLS = (ProtocolSpec("adaptive"), ProtocolSpec("fullsensing")) + tuple(
    ProtocolSpec("fullsensing_mod", variant_k=k) for k in (1, 2, 3))


@st.composite
def token_configs(draw):
    """Token runs of 2..12 stations with initial queues large enough to go big."""
    n = draw(st.integers(2, 12))
    target = draw(st.sampled_from(["flat", "focused", "single"]))
    if target == "single":
        distribution = DistributionSpec("single", target=draw(st.integers(1, n)))
    else:
        distribution = DistributionSpec(target)
    return SimConfig(
        n=n,
        protocol=draw(st.sampled_from(PROTOCOLS)),
        rho=draw(st.floats(0.05, 1.0)),
        rounds=draw(st.integers(1, 3000)),
        seed=draw(st.integers(0, 2 ** 32)),
        burst_p=draw(st.floats(0.05, 1.0)),
        stock_b=draw(st.integers(1, 64)),
        distribution=distribution,
        initial_queues=tuple(draw(st.lists(st.integers(0, 5 * n), min_size=n, max_size=n))),
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(token_configs())
def test_active_list_matches_observer_list_driver(config):
    compare(config)


def test_reference_runs_reach_big_stations_and_collisions():
    # Guards the differential test against vacuity on a typical draw.
    seen = {}
    for protocol in (ProtocolSpec("adaptive"), ProtocolSpec("fullsensing")):
        config = SimConfig(
            n=6, protocol=protocol, rho=0.9, rounds=1500, seed=3, burst_p=0.5,
            stock_b=16, distribution=DistributionSpec("focused"),
            initial_queues=(25, 0, 4, 0, 30, 2),
        )
        states = set()
        ref = Engine(config)
        ref.system = ObserverListTokenSystem(ref.config)
        for _ in range(config.rounds):
            ref.step()
            states.update(s.state for s in ref.system.stations)
        seen[protocol.name] = (states, ref.collisions)
        assert compare(config).queues == ref.queues
    assert {BIG, LAST_BIG} <= seen["adaptive"][0]
    assert BIG in seen["fullsensing"][0]
    assert seen["fullsensing"][1] > 0
