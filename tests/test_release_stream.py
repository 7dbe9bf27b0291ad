"""The bounded release stream against the whole-round model's adversary.

`adversary.releases(state, rng, start, stop)` plays a stretch of rounds in
one generator. `reference.StockAdversary` plays one round per call. Over
runs cut at random stops, both must yield the same (round, {station:
packets}) events, and at every stop hold the same stock and leave the
adversary stream in the same state.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from channel_lab.adversary import AdversaryState, releases
from channel_lab.core import derive_stream, validate_config

from reference import StockAdversary
from test_reference import distributions


def compare_at_stops(doc, stops):
    """Play the stream and the reference to each stop in turn; return all events."""
    config = validate_config(doc)
    state = AdversaryState(rho=config.rho, burst_p=config.burst_p, stock_b=config.stock_b,
                           n=config.n, distribution=config.distribution)
    rng = derive_stream(config.seed, "adversary")
    reference = StockAdversary(config)
    events = []
    start = 0
    for stop in stops:
        got = [(rnd, dict(out)) for rnd, out in releases(state, rng, start, stop)]
        expected = []
        for rnd in range(start + 1, stop + 1):
            out = reference.inject(rnd)
            if out:
                expected.append((rnd, out))
        assert got == expected, f"stretch {start}..{stop}"
        assert state.stock == reference.stock
        assert rng.getstate() == reference.rng.getstate()
        events += got
        start = max(start, stop)
    return events


@st.composite
def stretches(draw):
    """An adversary and a run of up to 3,000 rounds cut at random stops.

    stock_b stays at 8 or below, so forced flushes happen next to burst
    releases. A plan holds up to 60 entries (see `test_reference.distributions`).
    """
    n = draw(st.integers(2, 12))
    rounds = draw(st.integers(1, 3000))
    distribution, stop_values = draw(distributions(n, rounds, max_entries=60))
    doc = {
        "n": n, "protocol": "round_robin", "rounds": rounds,
        "rho": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "burst_p": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "stock_b": draw(st.integers(1, 8)), "seed": draw(st.integers(0, 2 ** 32)),
        "distribution": distribution,
    }
    return doc, sorted(draw(st.lists(stop_values, max_size=8))) + [rounds]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stretches())
def test_stream_matches_reference_step_at_every_stop(case):
    compare_at_stops(*case)
