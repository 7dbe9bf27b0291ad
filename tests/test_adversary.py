from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from channel_lab.adversary import (
    AdversaryState, Flat, Focused, Plan, ScheduleUnavailable, adversary_step,
    make_distribution, min_schedule_attack, validate_leaky_bucket,
)
from channel_lab.core import DistributionSpec, derive_stream


def fresh_state(rho, p, b, dist=None):
    return AdversaryState(rho=rho, burst_p=p, stock_b=b,
                          distribution=dist or Flat(4))


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
        plan = Plan([(3, 2, 4), (3, 1, 1), (7, 2, 2)])
        state = fresh_state(0.5, 0.5, 256, dist=plan)
        rng = derive_stream(6, "adversary")
        seen = {rnd: adversary_step(state, rnd, rng) for rnd in range(1, 10)}
        assert seen[3] == {2: 4, 1: 1}
        assert seen[7] == {2: 2}
        assert all(v == {} for rnd, v in seen.items() if rnd not in (3, 7))


class TestFocusedDistribution:
    def test_probabilities_n4(self):
        dist = Focused(4)
        assert dist.probability(1) == Fraction(1, 3) + Fraction(1, 12) == Fraction(5, 12)
        assert dist.probability(2) == Fraction(5, 12)
        assert dist.probability(3) == Fraction(1, 12)
        assert dist.probability(4) == Fraction(1, 12)

    def test_probabilities_sum_to_one(self):
        for n in (2, 3, 4, 7, 32):
            dist = Focused(n)
            assert sum(dist.probability(i) for i in range(1, n + 1)) == 1

    def test_empirical_frequency_station_one(self):
        # 3 sigma band around P(1) at 10^5 draws.
        n = 8
        dist = Focused(n)
        rng = derive_stream(9, "focused")
        draws = 100_000
        hits = sum(1 for _ in range(draws) if dist.sample(rng) == 1)
        p1 = float(dist.probability(1))
        sigma = (draws * p1 * (1 - p1)) ** 0.5
        assert abs(hits - draws * p1) < 3 * sigma

    def test_samples_stay_in_range(self):
        dist = Focused(5)
        rng = derive_stream(10, "focused")
        assert all(1 <= dist.sample(rng) <= 5 for _ in range(10_000))

    def test_make_distribution_dispatch(self):
        assert isinstance(make_distribution(DistributionSpec("focused"), 4), Focused)
        assert isinstance(make_distribution(DistributionSpec("flat"), 4), Flat)
        plan = make_distribution(DistributionSpec("plan", plan=((1, 1, 1),)), 4)
        assert isinstance(plan, Plan)


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
        plan = min_schedule_attack(schedule, tau, n, k)
        assert plan.total() == tau * k // n + 1 == 3
        assert {sid for _, sid, _ in plan.entries} == {1}
        assert all(1 <= rnd <= tau for rnd, _, _ in plan.entries)

    def test_targets_station_with_zero_slots(self):
        schedule = lambda r: tuple(s for s in ((r - 1) % 4 + 1,) if s != 3)
        plan = min_schedule_attack(schedule, 8, 4, 1)
        assert {sid for _, sid, _ in plan.entries} == {3}

    def test_unavailable_schedule_raises(self):
        with pytest.raises(ScheduleUnavailable):
            min_schedule_attack(None, 8, 4, 1)

    def test_plan_round_trips_to_json(self):
        plan = Plan([(1, 2, 3)])
        assert plan.to_json() == [{"round": 1, "station": 2, "count": 3}]
