"""Differential test: the engine against the naive whole-round model.

`reference.ReferenceModel` plays the paper's synchronous round one round at a
time, written from the documented behaviour. The engine must reproduce it
exactly for every protocol string and injection target, over runs cut at
random stops: the same RoundReport for every round, the same attempts in every
round (sorted for the token protocols, whose driver lists them in no fixed
order), and at every stop the same SimResult, adversary stream state and
station states. A run that fails must fail with the same SimulationError
class in the same round.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from channel_lab.core import SimulationError, validate_config
from channel_lab.engine import Engine, SimResult
from channel_lab.protocols import BIG, LAST_BIG

from reference import ReferenceModel
from test_engine import FOLD_CASES, config

DATA = Path(__file__).resolve().parent / "data"
PROTOCOLS = (
    "adaptive", "fullsensing", "fullsensing_mod", "round_robin", "interleaved",
    "backoff(exponential)", "backoff(linear)", "backoff(square)", "state_aware",
)
TOKEN = ("adaptive", "fullsensing", "fullsensing_mod")
BACKOFF = ("backoff(exponential)", "backoff(linear)", "backoff(square)")


def recording(driver, sort):
    """Make `driver` record each round's transmit attempts; returns the record."""
    actions = driver.actions
    listed = []

    def recorded(round_no, queues):
        attempts, on_count = actions(round_no, queues)
        listed.append(sorted(attempts, key=lambda a: a[0]) if sort else list(attempts))
        return attempts, on_count

    driver.actions = recorded
    return listed


def play(model, stop, reports):
    """Advance `model` to `stop`; the class of the SimulationError it raised, or None."""
    try:
        model.advance(stop, reports)
    except SimulationError as exc:
        return type(exc)
    return None


def engine_result(eng):
    """The SimResult that `run()` would build from the rounds played so far."""
    return SimResult(eng.config, eng.injected, eng.delivered, eng.queued_total,
                     tuple(eng.queues), eng.collisions, eng.max_cycle_collisions,
                     eng.max_on_mode, eng.acc.snapshot())


def station_states(stations):
    """Per station: (state, wake_round, order) for token stations, else the backoff state."""
    if hasattr(stations[0], "order"):
        return [(s.state, s.wake_round, tuple(s.order)) for s in stations]
    return [(s.attempts, s.slot, s.rng.getstate()) for s in stations]


def compare(doc, stops):
    """Play `doc` on the engine and the reference to each stop; returns the reference."""
    eng = Engine(doc)
    ref = ReferenceModel(eng.config)
    token = eng.config.protocol.name in TOKEN
    eng_listed = recording(eng.system, sort=token)
    ref_listed = recording(ref.driver, sort=False)
    eng_reports, ref_reports = [], []
    stations = getattr(eng.system, "stations", None)
    for stop in stops:
        failed = play(eng, stop, eng_reports)
        assert play(ref, stop, ref_reports) is failed, f"stop {stop}"
        assert eng_reports == ref_reports, f"stop {stop}"
        assert eng_listed == ref_listed, f"stop {stop}"
        if failed:
            return ref
        assert engine_result(eng) == ref.result(), f"stop {stop}"
        assert eng.rng_adversary.getstate() == ref.adversary.rng.getstate(), f"stop {stop}"
        if stations:
            assert station_states(stations) == station_states(ref.driver.stations)
            if token:
                assert all(s.pos == s.order.index(s.sid) for s in stations), f"stop {stop}"
    assert eng.run() == ref.result()
    return ref


@st.composite
def distributions(draw, n, rounds, max_entries):
    """An injection target for a run of `rounds` rounds, and a strategy for its stops.

    The target is focused, flat, single(i) or a plan of up to `max_entries`
    entries, some with count 0. For a plan, some stops fall just before or on
    an entry's round.
    """
    stop_values = st.integers(0, rounds)
    target = draw(st.sampled_from(["focused", "flat", "single", "plan"]))
    if target == "single":
        return f"single({draw(st.integers(1, n))})", stop_values
    if target != "plan":
        return target, stop_values
    entries = draw(st.lists(
        st.tuples(st.integers(1, rounds), st.integers(1, n), st.integers(0, 3)),
        max_size=max_entries))
    if entries:
        near = sorted({rnd - d for rnd, _, _ in entries for d in (0, 1)})
        stop_values = st.one_of(stop_values, st.sampled_from(near))
    return {"plan": [{"round": rnd, "station": sid, "count": cnt}
                     for rnd, sid, cnt in entries]}, stop_values


@st.composite
def runs(draw, kinds=PROTOCOLS, restrain=True):
    """A run of up to 1,500 rounds of a protocol from `kinds`, cut at random stops.

    Initial queues of up to 5n let token stations go big. A plan holds up to
    40 entries (see `distributions`). With `restrain`, three runs in ten have a
    restrain limit of 1 to 3, so some runs fail.
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "interleaved":
        n = draw(st.sampled_from((4, 8, 16)))
        protocol = f"interleaved({DATA / f'families_{n}.json'})"
    else:
        n = draw(st.integers(2, 12))
        protocol = kind
        if kind == "fullsensing_mod":
            protocol = f"fullsensing_mod({draw(st.integers(1, 3))})"
    rounds = draw(st.integers(1, 1500))
    distribution, stop_values = draw(distributions(n, rounds, max_entries=40))
    doc = {
        "n": n, "protocol": protocol, "rounds": rounds,
        "rho": draw(st.floats(0.01, 1.0)), "burst_p": draw(st.floats(0.01, 1.0)),
        "stock_b": draw(st.integers(1, 64)), "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "distribution": distribution,
        "initial_queues": draw(st.lists(st.integers(0, 5 * n), min_size=n, max_size=n)),
    }
    limit = draw(st.sampled_from((None,) * 7 + (1, 2, 3))) if restrain else None
    if limit is not None:
        doc["restrain_limit"] = limit
    stops = sorted(draw(st.lists(stop_values, max_size=6))) + [rounds]
    return doc, stops


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_engine_matches_reference(case):
    compare(*case)


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_fixed_case_matches_reference(case):
    # 3,000 rounds at rho = 0.9 per protocol family, preloaded queues and
    # plan entries on both sides of the stops included.
    protocol, extra = FOLD_CASES[case]
    compare(config(**{"protocol": protocol, "rho": 0.9, "rounds": 3000, **extra}),
            [1, 7, 500, 3000])


# Vacuity guards: fixed runs showing that the differential test reaches the
# states it exists to check.

def test_token_runs_reach_big_stations_and_collisions():
    seen = {}
    for protocol in ("adaptive", "fullsensing"):
        doc = {"n": 6, "protocol": protocol, "rho": 0.9, "rounds": 1500, "seed": 3,
               "burst_p": 0.5, "stock_b": 16, "initial_queues": [25, 0, 4, 0, 30, 2]}
        ref = ReferenceModel(validate_config(doc))
        states = set()
        for _ in range(doc["rounds"]):
            ref.play_round()
            states.update(s.state for s in ref.driver.stations)
        seen[protocol] = (states, ref.collisions)
        assert compare(doc, [1, 700, 1500]).result() == ref.result()
    assert {BIG, LAST_BIG} <= seen["adaptive"][0]
    assert BIG in seen["fullsensing"][0]
    assert seen["fullsensing"][1] > 0


def test_backoff_run_collides_and_injects_mid_backoff():
    doc = {"n": 3, "protocol": "backoff(exponential)", "rho": 1.0, "rounds": 200,
           "seed": 7, "burst_p": 0.5, "stock_b": 8, "distribution": "flat",
           "initial_queues": [2, 2, 2]}
    ref = ReferenceModel(validate_config(doc))
    driver, into_backoff = ref.driver, []
    note_injections = driver.note_injections

    def watched(round_no, injections):
        into_backoff.extend(sid for sid in injections if driver.stations[sid - 1].attempts)
        note_injections(round_no, injections)

    driver.note_injections = watched
    ref.advance(doc["rounds"], [])
    assert ref.collisions > 0
    assert into_backoff
    assert compare(doc, [50, 200]).result() == ref.result()


def test_adversary_makes_forced_flushes_and_burst_releases():
    # A release of stock_b packets is a forced flush; a smaller one came with
    # the burst coin.
    doc = {"n": 6, "protocol": "round_robin", "rho": 0.8, "burst_p": 0.1, "stock_b": 4,
           "rounds": 3000, "seed": 17}
    ref = ReferenceModel(validate_config(doc))
    reports = []
    ref.advance(doc["rounds"], reports)
    sizes = [report.injections for report in reports if report.injections]
    assert doc["stock_b"] in sizes
    assert any(size < doc["stock_b"] for size in sizes)
    assert compare(doc, [1, 7, 500, 3000]).result() == ref.result()
