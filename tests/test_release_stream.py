"""Differential test: the adversary's release stream against the per-round step.

reference_step is the per-round adversary that the stream replaced, kept here
as the reference. The stream must reproduce it exactly over a run split at
arbitrary stops: at every stop the same release events, the same stock and
the same random state, so every number is drawn in the same order and none is
drawn for a round past the stop.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from channel_lab.adversary import (
    AdversaryState, Flat, Focused, Plan, SingleTarget, releases,
)
from channel_lab.core import derive_stream
from channel_lab.engine import Engine


def reference_sample(dist, rng):
    """One packet's target as the per-round adversary drew it.

    A focused target comes from Focused.sample, the per-packet law that
    tests/test_adversary.py checks; the flat and single-target samplers are
    copies of the ones the stream inlined.
    """
    if isinstance(dist, Flat):
        return rng.randrange(dist.n) + 1
    if isinstance(dist, SingleTarget):
        return dist.target
    return dist.sample(rng)


def reference_plan(plan, round_no):
    out = {}
    for rnd, sid, cnt in plan.entries:
        if rnd == round_no and cnt:
            out[sid] = out.get(sid, 0) + cnt
    return out


def reference_step(state, round_no, rng):
    """Advance the adversary one round; returns {station: packets} injected."""
    dist = state.distribution
    if isinstance(dist, Plan):
        return reference_plan(dist, round_no)

    if rng.random() < state.rho:
        state.stock += 1
    release = rng.random() < state.burst_p
    if state.stock >= state.stock_b:
        release = True
    if not release or state.stock == 0:
        return {}
    out = {}
    for _ in range(state.stock):
        sid = reference_sample(dist, rng)
        out[sid] = out.get(sid, 0) + 1
    state.stock = 0
    return out


def adversary(dist, rho, burst_p, stock_b):
    return AdversaryState(rho=rho, burst_p=burst_p, stock_b=stock_b, distribution=dist)


def compare_at_stops(dist, rho, burst_p, stock_b, seed, stops):
    """Play the stream and the reference to each stop in turn; return all events."""
    stream_state = adversary(dist, rho, burst_p, stock_b)
    reference_state = adversary(dist, rho, burst_p, stock_b)
    stream_rng = derive_stream(seed, "adversary")
    reference_rng = derive_stream(seed, "adversary")
    events = []
    start = 0
    for stop in stops:
        got = list(releases(stream_state, stream_rng, start, stop))
        expected = []
        for rnd in range(start + 1, stop + 1):
            out = reference_step(reference_state, rnd, reference_rng)
            if out:
                expected.append((rnd, out))
        assert got == expected, f"stretch {start}..{stop}"
        assert stream_state.stock == reference_state.stock
        assert stream_rng.getstate() == reference_rng.getstate()
        events += got
        start = max(start, stop)
    return events


@st.composite
def stretches(draw):
    """An adversary and a run of up to 3,000 rounds cut at random stops.

    stock_b stays at 8 or below, so forced flushes happen next to burst
    releases. A plan puts up to 60 entries, some with count 0, in the run,
    and some of its stops fall just before or on an entry's round.
    """
    n = draw(st.integers(2, 12))
    rounds = draw(st.integers(1, 3000))
    stop_values = st.integers(0, rounds)
    target = draw(st.sampled_from(["focused", "flat", "single", "plan"]))
    if target == "focused":
        dist = Focused(n)
    elif target == "flat":
        dist = Flat(n)
    elif target == "single":
        dist = SingleTarget(draw(st.integers(1, n)))
    else:
        entries = draw(st.lists(
            st.tuples(st.integers(1, rounds), st.integers(1, n), st.integers(0, 3)),
            max_size=60))
        dist = Plan(entries)
        if entries:
            near = sorted({rnd - d for rnd, _, _ in entries for d in (0, 1)})
            stop_values = st.one_of(stop_values, st.sampled_from(near))
    stops = sorted(draw(st.lists(stop_values, max_size=8))) + [rounds]
    return (dist, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
            draw(st.integers(1, 8)), draw(st.integers(0, 2 ** 32)), stops)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stretches())
def test_stream_matches_reference_step_at_every_stop(case):
    compare_at_stops(*case)


def test_fixed_draw_reaches_forced_flush_and_burst_release():
    # Guards the differential test against vacuity: a release of stock_b
    # packets is a forced flush, a smaller one came with the burst coin.
    stock_b = 4
    events = compare_at_stops(Focused(6), 0.8, 0.1, stock_b, 17, [1, 7, 500, 3000])
    sizes = [sum(out.values()) for _, out in events]
    assert stock_b in sizes
    assert any(size < stock_b for size in sizes)


def test_plan_stream_yields_only_its_rounds_in_the_stretch():
    plan = Plan([(3, 2, 4), (3, 1, 1), (7, 2, 2), (9, 1, 0)])
    state = adversary(plan, 0.5, 0.5, 256)
    rng = derive_stream(6, "adversary")
    before = rng.getstate()
    assert list(releases(state, rng, 0, 10)) == [(3, {2: 4, 1: 1}), (7, {2: 2})]
    assert list(releases(state, rng, 3, 6)) == []
    assert list(releases(state, rng, 2, 3)) == [(3, {2: 4, 1: 1})]
    assert rng.getstate() == before


def test_advance_draws_nothing_past_its_stop():
    # At rho = 1e-9 the next release is about 10**9 rounds away; an
    # unbounded stream would run on to it. Two draws per round, none after.
    seed = 29
    eng = Engine({"n": 8, "protocol": "round_robin", "rho": 1e-9, "stock_b": 10 ** 6,
                  "rounds": 5000, "seed": seed})
    for stop in (1000, 1001, 2500):
        eng.advance(stop)
        fresh = derive_stream(seed, "adversary")
        for _ in range(2 * stop):
            fresh.random()
        assert eng.rng_adversary.getstate() == fresh.getstate()
    assert eng.injected == 0
