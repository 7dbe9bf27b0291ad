import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from channel_lab.adversary import (
    AdversaryState, ScheduleUnavailable, adversary_step, min_schedule_attack, releases,
    validate_leaky_bucket,
)
from channel_lab.core import DistributionSpec, derive_stream, validate_config
from channel_lab.engine import Engine, run_simulation

DATA = Path(__file__).resolve().parent / "data"
FLAT = DistributionSpec("flat")
PLAN = DistributionSpec("plan", plan=((3, 1, 1), (3, 2, 4), (7, 2, 2), (9, 1, 0)))


def fresh_state(rho, p, b, dist=FLAT, n=4):
    return AdversaryState(rho=rho, burst_p=p, stock_b=b, n=n, distribution=dist)


class TestAdversaryStep:
    def test_rho_one_p_one_releases_one_per_round(self):
        state = fresh_state(1.0, 1.0, 256)
        rng = derive_stream(1, "adversary")
        for rnd in range(1, 50):
            out = adversary_step(state, rnd, rng)
            assert sum(out.values()) == 1
            assert state.stock == 0

    def test_rho_one_p_zero_bursts_at_cap(self):
        # Hand trace: the stock grows by one each round and only the forced
        # flush at b=5 releases, so rounds 5, 10, 15, ... emit 5 packets.
        state = fresh_state(1.0, 0.0, 5)
        rng = derive_stream(2, "adversary")
        for rnd in range(1, 21):
            out = adversary_step(state, rnd, rng)
            if rnd % 5 == 0:
                assert sum(out.values()) == 5
            else:
                assert out == {}

    def test_stock_never_ends_above_cap(self):
        state = fresh_state(0.9, 0.05, 7)
        rng = derive_stream(3, "adversary")
        for rnd in range(1, 5000):
            adversary_step(state, rnd, rng)
            assert 0 <= state.stock <= 7

    def test_mean_release_rate_converges(self):
        state = fresh_state(0.5, 0.5, 256)
        rng = derive_stream(4, "adversary")
        total = sum(sum(adversary_step(state, rnd, rng).values())
                    for rnd in range(1, 1_000_001))
        assert abs(total / 1_000_000 - 0.5) < 0.01

    def test_total_injections_bounded_by_rounds_plus_cap(self):
        state = fresh_state(1.0, 0.3, 64)
        rng = derive_stream(5, "adversary")
        rounds = 20_000
        total = sum(sum(adversary_step(state, rnd, rng).values())
                    for rnd in range(1, rounds + 1))
        assert total <= rounds + 64

    def test_plan_injects_exactly_as_scheduled(self):
        state = fresh_state(0.5, 0.5, 256, dist=PLAN)
        rng = derive_stream(6, "adversary")
        seen = {rnd: adversary_step(state, rnd, rng) for rnd in range(1, 10)}
        assert seen[3] == {2: 4, 1: 1}
        assert seen[7] == {2: 2}
        assert all(v == {} for rnd, v in seen.items() if rnd not in (3, 7))


def test_plan_stream_yields_only_its_rounds_in_the_stretch():
    state = fresh_state(0.5, 0.5, 256, dist=PLAN)
    rng = derive_stream(6, "adversary")
    before = rng.getstate()
    assert list(releases(state, rng, 0, 10)) == [(3, {2: 4, 1: 1}), (7, {2: 2})]
    assert list(releases(state, rng, 3, 6)) == []
    assert list(releases(state, rng, 2, 3)) == [(3, {2: 4, 1: 1})]
    assert rng.getstate() == before


def focused_targets(n, packets, seed):
    """Per-station counts of `packets` focused packets drawn through `releases`.

    rho = 1 and burst_p = 0 make the stock grow by one each round and flush
    at stock_b = 50, so `packets`, a multiple of 50, are drawn in full releases.
    """
    state = fresh_state(1.0, 0.0, 50, dist=DistributionSpec("focused"), n=n)
    counts = {}
    for _, out in releases(state, derive_stream(seed, "adversary"), 0, packets):
        for sid, cnt in out.items():
            counts[sid] = counts.get(sid, 0) + cnt
    assert sum(counts.values()) == packets
    return counts


def within_three_sigma(hits, draws, p):
    sigma = (draws * p * (1 - p)) ** 0.5
    return abs(hits - draws * p) < 3 * sigma


class TestFocusedDistribution:
    """The focused law as the release stream draws it.

    P(1) = P(2) = 1/3 + 1/(3n) and P(i) = 1/(3n) for i > 2. The stream's
    thresholds are checked bit for bit against tests/reference.py by
    test_reference.py and test_release_stream.py; these tests check the law.
    """

    def test_probabilities_n4(self):
        # Each station's share of 10^5 packets lies in a 3 sigma band around
        # 5/12, 5/12, 1/12, 1/12.
        draws = 100_000
        counts = focused_targets(4, draws, seed=8)
        for sid, p in zip((1, 2, 3, 4), (Fraction(5, 12),) * 2 + (Fraction(1, 12),) * 2):
            assert within_three_sigma(counts.get(sid, 0), draws, float(p)), sid

    def test_empirical_frequency_station_one(self):
        # 3 sigma band around P(1) = 3/8 at 10^5 packets.
        n, draws = 8, 100_000
        counts = focused_targets(n, draws, seed=9)
        assert within_three_sigma(counts[1], draws, float(Fraction(n + 1, 3 * n)))

    def test_samples_stay_in_range(self):
        counts = focused_targets(5, 10_000, seed=10)
        assert set(counts) == {1, 2, 3, 4, 5}


def brute_force_leaky_bucket(trace, rho, b):
    """Quadratic reference in exact arithmetic: first violating window by
    (end, start) order."""
    rho = Fraction(rho)
    prefix = [0]
    for v in trace:
        prefix.append(prefix[-1] + v)
    for t2 in range(1, len(trace) + 1):
        for t1 in range(1, t2 + 1):
            if prefix[t2] - prefix[t1 - 1] > rho * (t2 - t1 + 1) + b:
                return (t1, t2)
    return None


class TestLeakyBucket:
    def test_forced_arithmetic_example(self):
        assert validate_leaky_bucket([1, 1, 1], 0.5, 1) == (1, 3)

    def test_all_zero_trace_ok(self):
        assert validate_leaky_bucket([0] * 50, 0.1, 1) is None

    def test_window_at_float_rounding_edge(self):
        assert validate_leaky_bucket([0, 0, 0, 3], 0.9999999999999999, 1) == (3, 4)
        assert validate_leaky_bucket([0, 0, 0, 3], 1.0, 1) == (4, 4)

    def test_single_spike_within_burstiness(self):
        assert validate_leaky_bucket([5], 0.5, 5) is None
        assert validate_leaky_bucket([7], 0.5, 5) == (1, 1)

    def test_window_exactly_at_the_bound_complies(self):
        # [1, 2] holds 0.5 * 2 + 1 = 2 packets exactly; one more packet in
        # round 2 makes it the first violating window.
        assert validate_leaky_bucket([1, 1], 0.5, 1) is None
        assert validate_leaky_bucket([1, 2], 0.5, 1) == (1, 2)

    def test_window_at_the_bound_with_an_inexact_rate(self):
        # The float 0.1 is a little above 1/10, so [1, 10] may hold
        # 0.1 * 10 + 2 = 3 packets and not one more.
        trace = [1] + [0] * 8 + [2]
        assert validate_leaky_bucket(trace, 0.1, 2) is None
        assert validate_leaky_bucket(trace[:-1] + [3], 0.1, 2) == (1, 10)

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=40),
           st.floats(min_value=0.05, max_value=1.0),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=200, deadline=None)
    # 3 > 2*rho + 1 exactly, although 2*rho + 1 rounds to 3.0 in floats.
    @example(trace=[0, 0, 0, 3], rho=0.9999999999999999, b=1)
    def test_matches_brute_force(self, trace, rho, b):
        assert validate_leaky_bucket(trace, rho, b) == brute_force_leaky_bucket(trace, rho, b)

    def test_adversary_trace_passes_with_one_extra_burst(self):
        # Frozen-seed check that a generated trace respects the nominal rate
        # with burstiness slack b+1 over 10^5 rounds.
        rho, p, b = 0.5, 0.5, 256
        state = fresh_state(rho, p, b)
        rng = derive_stream(12, "adversary")
        trace = [sum(adversary_step(state, rnd, rng).values())
                 for rnd in range(1, 100_001)]
        assert validate_leaky_bucket(trace, rho, b + 1) is None


class TestMinScheduleAttack:
    def test_round_robin_ties_break_to_lowest_id(self):
        n, tau, k = 4, 8, 1
        schedule = lambda r: ((r - 1) % n + 1,)
        spec = min_schedule_attack(schedule, tau, n, k)
        assert spec.kind == "plan" and list(spec.plan) == sorted(spec.plan)
        assert sum(cnt for _, _, cnt in spec.plan) == tau * k // n + 1 == 3
        assert {sid for _, sid, _ in spec.plan} == {1}
        assert all(1 <= rnd <= tau for rnd, _, _ in spec.plan)

    def test_targets_station_with_zero_slots(self):
        schedule = lambda r: tuple(s for s in ((r - 1) % 4 + 1,) if s != 3)
        spec = min_schedule_attack(schedule, 8, 4, 1)
        assert {sid for _, sid, _ in spec.plan} == {3}

    def test_unavailable_schedule_raises(self):
        with pytest.raises(ScheduleUnavailable):
            min_schedule_attack(None, 8, 4, 1)

    @pytest.mark.parametrize("protocol, n, tau, k", [
        ("round_robin", 4, 8, 1),
        (f"interleaved({DATA / 'families_8.json'})", 8, 48, 4),
    ])
    def test_attack_plan_runs_and_overloads_its_target(self, protocol, n, tau, k):
        # Each scheduled slot delivers at most one of the target's packets, so
        # whatever the target holds beyond its slots is still queued at tau.
        config = validate_config({"n": n, "protocol": protocol, "rho": 0.5,
                                  "rounds": tau, "seed": 1})
        schedule = Engine(config).system.schedule_oracle()
        spec = min_schedule_attack(schedule, tau, n, k)
        result = run_simulation(dataclasses.replace(config, distribution=spec))
        (target,) = {sid for _, sid, _ in spec.plan}
        planned = sum(cnt for _, _, cnt in spec.plan)
        slots = sum(target in schedule(r) for r in range(1, tau + 1))
        assert planned > slots
        assert result.injected == planned
        assert result.final_queues[target - 1] >= planned - slots
