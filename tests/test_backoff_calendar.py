"""Differential test: the backoff slot calendar against the polling driver.

PollingBackoffSystem is the driver the calendar replaced, kept here as the
reference. Every round it asks each backlogged station, in ID order, whether
its slot has come, and a station draws a slot the first round it is asked
without one. The calendar must reproduce it exactly: the same per-round
reports, the same final queues and the same failure counters, so every slot
draw happens in the same round with the same window.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from channel_lab.core import (
    OFF, TRANSMIT, DistributionSpec, ProtocolSpec, SimConfig, derive_stream,
)
from channel_lab.engine import Engine
from channel_lab.protocols import backoff_window

KINDS = ("exponential", "linear", "square")


class PollingStation:
    """A backoff station that draws its slot lazily, when it is first asked."""

    def __init__(self, sid, kind, rng):
        self.sid = sid
        self.kind = kind
        self.attempts = 0
        self.slot = None
        self.rng = rng

    def decide(self, round_no, queue_len):
        if queue_len <= 0:
            return OFF
        if self.slot is None:
            self.slot = round_no + self.rng.randrange(backoff_window(self.kind, self.attempts))
        if self.slot == round_no:
            return TRANSMIT
        return OFF

    def on_success(self):
        self.attempts = 0
        self.slot = None

    def on_failure(self):
        self.attempts += 1
        self.slot = None


class PollingBackoffSystem:
    """Polls every backlogged station every round."""

    wants_feedback = True
    wants_injection_notes = True

    def __init__(self, config):
        kind = config.protocol.backoff_kind
        self.stations = [
            PollingStation(sid, kind, derive_stream(config.seed, f"backoff.{sid}"))
            for sid in range(1, config.n + 1)
        ]
        self.pending = {sid for sid, q in enumerate(config.initial_queues, start=1) if q > 0}
        self._attempted = []

    def note_injections(self, injections):
        self.pending.update(injections)

    def actions(self, round_no, queues):
        attempts = []
        for sid in sorted(self.pending):
            if self.stations[sid - 1].decide(round_no, queues[sid - 1]).kind == "transmit":
                attempts.append((sid, None))
        self._attempted = [sid for sid, _ in attempts]
        return attempts, len(attempts)

    def finish_round(self, round_no, obs, success_sid, queues):
        if success_sid is not None:
            self.stations[success_sid - 1].on_success()
            if queues[success_sid - 1] == 0:
                self.pending.discard(success_sid)
        elif len(self._attempted) > 1:
            for sid in self._attempted:
                self.stations[sid - 1].on_failure()


def run(config, reference=None):
    """Run `config` on the calendar driver, or on the `reference` driver class.

    Returns the result, its per-round reports, every round's transmit attempts
    in the order the driver listed them, and each station's final failure
    counter.
    """
    eng = Engine(config)
    if reference is not None:
        eng.system = reference(eng.config)
    system = eng.system
    actions = system.actions
    listed = []

    def recorded(round_no, queues):
        attempts, on_count = actions(round_no, queues)
        listed.append(list(attempts))
        return attempts, on_count

    system.actions = recorded
    reports = []
    eng.advance(config.rounds, reports)
    return eng.run(), reports, listed, [station.attempts for station in system.stations]


@st.composite
def backoff_configs(draw):
    """Backoff runs of up to 12 stations (SimConfig directly, so n = 1 is allowed).

    Plans put several packets on a few stations in the same rounds, so some
    land on idle stations and others on stations waiting out a collision.
    """
    n = draw(st.integers(1, 12))
    rounds = draw(st.integers(1, 400))
    targets = ["plan", "flat"] + (["focused"] if n >= 2 else [])
    target = draw(st.sampled_from(targets))
    if target == "plan":
        hot = draw(st.integers(1, n))
        entries = draw(st.lists(
            st.tuples(st.integers(1, rounds), st.integers(1, hot), st.integers(0, 3)),
            max_size=60))
        distribution = DistributionSpec("plan", plan=tuple(sorted(entries)))
    else:
        distribution = DistributionSpec(target)
    return SimConfig(
        n=n,
        protocol=ProtocolSpec("backoff", backoff_kind=draw(st.sampled_from(KINDS))),
        rho=draw(st.floats(0.05, 1.0)),
        rounds=rounds,
        seed=draw(st.integers(0, 2 ** 32)),
        burst_p=draw(st.floats(0.05, 1.0)),
        stock_b=draw(st.integers(1, 16)),
        distribution=distribution,
        initial_queues=tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(backoff_configs())
def test_calendar_matches_polling_driver(config):
    calendar, calendar_reports, calendar_listed, calendar_failures = run(config)
    polling, polling_reports, polling_listed, polling_failures = run(
        config, PollingBackoffSystem)
    assert calendar_reports == polling_reports
    assert calendar_listed == polling_listed
    assert calendar.final_queues == polling.final_queues
    assert calendar_failures == polling_failures


class WatchedPollingSystem(PollingBackoffSystem):
    """Counts injections into stations that are waiting out a collision."""

    def __init__(self, config):
        super().__init__(config)
        self.into_backoff = 0

    def note_injections(self, injections):
        self.into_backoff += sum(self.stations[sid - 1].attempts > 0 for sid in injections)
        super().note_injections(injections)


def test_reference_run_meets_collisions_and_injections_mid_backoff():
    # Guards the differential test against vacuity on a typical draw.
    config = SimConfig(
        n=3, protocol=ProtocolSpec("backoff", backoff_kind="exponential"), rho=1.0,
        rounds=200, seed=7, burst_p=0.5, stock_b=8,
        distribution=DistributionSpec("flat"), initial_queues=(2, 2, 2),
    )
    eng = Engine(config)
    eng.system = WatchedPollingSystem(eng.config)
    reports = []
    eng.advance(config.rounds, reports)
    result = eng.run()
    assert result.collisions > 0
    assert eng.system.into_backoff > 0
    assert run(config)[:2] == (result, reports)
