import pytest

from channel_lab.core import (
    BITS_BIG, BITS_LAST_BIG, COLLISION, SILENCE, DistributionSpec,
    ProtocolInvariantBroken, ProtocolSpec, SimConfig, derive_stream, single,
    validate_config,
)
from channel_lab.engine import Engine
from channel_lab.protocols import (
    AdaptiveStation, BackoffStation, BackoffSystem, FullSensingStation, InterleavedSystem,
    RoundRobinSystem, StateAwareSystem, backoff_window,
)
from channel_lab import protocols, selectors
from channel_lab.selectors import SelectorFamily

N = 8


def with_order(st, order):
    """Give station `st` the list `order` and the position cache that goes with it."""
    if order:
        st.order = list(order)
        st.pos = st.order.index(st.sid)
    return st


def adaptive_in(state, n=N, order=None, wake=0):
    st = with_order(AdaptiveStation(1, n), order)
    st.state = state
    st.wake_round = wake
    return st


def fullsensing_in(state, n=N, sid=1, variant_k=1, order=None):
    st = with_order(FullSensingStation(sid, n, variant_k), order)
    st.state = state
    return st


class TestTokenStationFront:
    @pytest.mark.parametrize("moved, order, pos", [
        (1, [1, 4, 2, 3, 5, 6, 7, 8], 3),   # moved station stood ahead: pos stays
        (3, [3, 4, 1, 2, 5, 6, 7, 8], 0),   # the station itself: pos becomes 0
        (7, [7, 4, 1, 2, 3, 5, 6, 8], 4),   # moved station stood behind: pos + 1
        (4, [4, 1, 2, 3, 5, 6, 7, 8], 3),   # already at the head: nothing moves
    ])
    def test_front_moves_one_station_and_keeps_pos(self, moved, order, pos):
        st = with_order(FullSensingStation(3, N), [4, 1, 2, 3, 5, 6, 7, 8])
        assert st.pos == 3
        st.front(moved)
        assert st.order == order
        assert st.pos == pos == st.order.index(st.sid)
        assert st.predecessor() == st.order[pos - 1]

class TestAdaptiveStation:
    def test_initial_roles(self):
        stations = [AdaptiveStation(sid, 4) for sid in range(1, 5)]
        assert stations[0].state == "transmitting"
        assert stations[1].state == "listening"
        assert [st.state for st in stations[2:]] == ["idle", "idle"]
        assert [st.wake_round for st in stations[2:]] == [2, 3]

    def test_heavy_queue_turns_transmitter_big(self):
        st = adaptive_in("transmitting")
        action = st.decide(5, 3 * N + 1)
        assert action.kind == "transmit" and action.bits is BITS_BIG
        assert st.state == "big"

    def test_light_queue_transmits_plain_then_idles(self):
        st = adaptive_in("transmitting")
        action = st.decide(5, 3)
        assert action.kind == "transmit" and action.bits is None
        assert st.state == "idle"
        assert st.wake_round == 5 + N - 1

    def test_empty_queue_goes_silent(self):
        st = adaptive_in("transmitting")
        assert st.decide(5, 0).kind == "off"
        assert st.state == "idle"

    def test_listener_hearing_big_goes_idle(self):
        st = adaptive_in("listening")
        assert st.decide(5, 2).kind == "listen"
        st.observe(5, single(3, BITS_BIG), own_ack=False)
        assert st.state == "idle"
        assert st.wake_round == 5 + N  # same slot next cycle

    def test_listener_hearing_last_big_moves_list(self):
        st = adaptive_in("listening", order=[1, 2, 3, 4, 5, 6, 7, 8])
        st.observe(5, single(3, BITS_LAST_BIG), own_ack=False)
        assert st.order[0] == 3
        assert st.state == "idle"
        assert st.wake_round == 5 + N + 1  # position shifted up by the move

    def test_listener_after_the_mover_keeps_its_slot(self):
        st = adaptive_in("listening", order=[3, 1, 2, 4, 5, 6, 7, 8])
        st.observe(5, single(3, BITS_LAST_BIG), own_ack=False)
        assert st.wake_round == 5 + N

    def test_listener_takes_token_on_plain_or_silence(self):
        for obs in (single(3), SILENCE):
            st = adaptive_in("listening")
            st.observe(5, obs, own_ack=False)
            assert st.state == "transmitting"

    def test_big_demotes_only_at_cycle_end(self):
        st = adaptive_in("big")
        assert st.decide(N + 1, 3 * N).bits is BITS_BIG  # mid-cycle, stays big
        assert st.state == "big"
        action = st.decide(2 * N, 3 * N)  # cycle-closing round, queue at threshold
        assert action.bits is BITS_LAST_BIG
        assert st.state == "last_big"

    def test_last_big_hands_over_at_cycle_end(self):
        st = adaptive_in("last_big", order=[2, 3, 1, 4, 5, 6, 7, 8])
        assert st.decide(N + 3, 9).bits is BITS_LAST_BIG
        assert st.state == "last_big"
        action = st.decide(2 * N, 9)
        assert action.bits is BITS_LAST_BIG
        assert st.state == "transmitting"
        assert st.order[0] == 1  # moved itself to the front at handoff

    def test_collision_is_a_broken_invariant(self):
        st = adaptive_in("listening")
        with pytest.raises(ProtocolInvariantBroken):
            st.observe(5, COLLISION, own_ack=False)


class TestFullSensingStation:
    def test_listener_waits_through_collision(self):
        st = fullsensing_in("listening", sid=3)
        st.observe(5, COLLISION, own_ack=False)
        assert st.state == "listening"

    def test_listener_takes_token_from_predecessor(self):
        st = fullsensing_in("listening", sid=3)  # predecessor is 2
        st.observe(5, single(2), own_ack=False)
        assert st.state == "transmitting"

    def test_listener_learns_big_from_order_mismatch(self):
        st = fullsensing_in("listening", sid=3)
        st.observe(2, single(7), own_ack=False)
        assert st.order[0] == 7
        assert st.state == "idle"
        # position rose from 2 to 3; slot 3 of the next cycle is round 11
        assert st.wake_round == 11

    def test_successful_heavy_transmitter_becomes_big(self):
        st = fullsensing_in("transmitting", sid=1)
        assert st.decide(9, 3 * N + 6).kind == "transmit"
        st.observe(9, single(1), own_ack=True)
        assert st.state == "big"

    def test_successful_light_transmitter_idles(self):
        st = fullsensing_in("transmitting", sid=1)
        st.decide(9, 5)
        st.observe(9, single(1), own_ack=True)
        assert st.state == "idle"
        assert st.wake_round == 9 + N - 1

    def test_modified_variant_raises_big_threshold(self):
        st = fullsensing_in("transmitting", sid=1, variant_k=2)
        st.decide(9, 3 * N + 6)  # above 3n but below 2n + kn = 4n
        st.observe(9, single(1), own_ack=True)
        assert st.state == "idle"
        st2 = fullsensing_in("transmitting", sid=1, variant_k=2)
        st2.decide(9, 4 * N + 2)
        st2.observe(9, single(1), own_ack=True)
        assert st2.state == "big"

    def test_interrupted_transmitter_learns_and_sleeps(self):
        st = fullsensing_in("transmitting", sid=3)
        st.decide(10, 5)
        st.observe(10, COLLISION, own_ack=False)
        assert st.order[0] == 2  # predecessor identified as the big station
        assert st.state == "idle"

    def test_modified_variant_sleeps_extra_cycles(self):
        st = fullsensing_in("transmitting", sid=3, variant_k=3)
        st.decide(10, 5)
        st.observe(10, COLLISION, own_ack=False)
        base = fullsensing_in("transmitting", sid=3)
        base.decide(10, 5)
        base.observe(10, COLLISION, own_ack=False)
        assert st.wake_round == base.wake_round + (3 - 1) * N

    def test_empty_transmitter_listens_and_learns_from_big_single(self):
        st = fullsensing_in("transmitting", sid=3)
        assert st.decide(10, 0).kind == "listen"
        st.observe(10, single(2), own_ack=False)
        assert st.order[0] == 2
        assert st.state == "idle"

    def test_big_exits_at_cycle_end_below_two_n(self):
        st = fullsensing_in("big", sid=5)
        st.decide(2 * N, 2 * N + 1)  # transmits; queue after send is 2n
        st.observe(2 * N, single(5), own_ack=True)
        assert st.state == "transmitting"
        assert st.order[0] == 5
        assert st.token_from_exit

    def test_big_stays_when_queue_still_heavy(self):
        st = fullsensing_in("big", sid=5)
        st.decide(2 * N, 3 * N)
        st.observe(2 * N, single(5), own_ack=True)
        assert st.state == "big"


def round_robin_oracle(n):
    cfg = validate_config({"n": n, "protocol": "round_robin", "rho": 0.5,
                           "rounds": 10, "seed": 0})
    return RoundRobinSystem(cfg).schedule_oracle()


class TestRoundRobin:
    def test_first_round_is_station_one(self):
        assert round_robin_oracle(4)(1) == (1,)

    def test_wraparound(self):
        oracle = round_robin_oracle(4)
        assert oracle(4) == (4,)
        assert oracle(5) == (1,)

    def test_station_three_pattern(self):
        oracle = round_robin_oracle(4)
        turns = [r for r in range(1, 17) if oracle(r) == (3,)]
        assert turns == [3, 7, 11, 15]


class TestInterleavedSchedule:
    def make_schedule(self, lengths):
        """round -> (level, 1-based set index) of a system whose level i has
        lengths[i - 1] sets of i stations, so no two levels share a set."""
        fams, where = [], {}
        for i, m in enumerate(lengths, start=1):
            sets = tuple(tuple(range(j + 1, j + 1 + i)) for j in range(m))
            fams.append(SelectorFamily(8, 2 ** i, i, sets))
            where.update({s: (i, j) for j, s in enumerate(sets, start=1)})
        config = SimConfig(n=8, protocol=ProtocolSpec("interleaved", families=tuple(fams)),
                           rho=0.5, rounds=10, seed=0)
        system = InterleavedSystem(config)
        return lambda t: where[system.active_set(t)]

    def test_decomposition_level_one(self):
        schedule = self.make_schedule([2, 5, 6])
        assert schedule(7) == (1, 1)

    def test_first_pass_level_three(self):
        schedule = self.make_schedule([2, 5, 6])
        assert schedule(3) == (3, 1)

    def test_full_period_revisits_with_advanced_index(self):
        schedule = self.make_schedule([2, 5, 6])
        # Level 1 has m=2: rounds 1, 4, 7, ... alternate its two sets.
        indices = [schedule(t)[1] for t in (1, 4, 7, 10)]
        assert indices == [1, 2, 1, 2]

    def test_levels_cycle_in_order(self):
        schedule = self.make_schedule([2, 5, 6])
        levels = [schedule(t)[0] for t in range(1, 10)]
        assert levels == [1, 2, 3, 1, 2, 3, 1, 2, 3]

    def test_missing_levels_fall_back_to_singletons(self, tmp_path):
        fam = SelectorFamily(8, 4, 2, ((1, 2), (3, 4), (5, 6), (7, 8)))
        path = tmp_path / "fam.json"
        selectors.save_family_file(path, fam)
        cfg = validate_config({"n": 8, "protocol": f"interleaved({path})",
                               "rho": 0.5, "rounds": 10, "seed": 0})
        families = cfg.protocol.families
        assert len(families) == 3
        assert families[1] == fam  # omega = 4 is level 2
        assert families[0].provenance == "singletons"
        assert families[2].provenance == "singletons"

    def test_singleton_family_shape(self, tmp_path):
        fam = SelectorFamily(4, 4, 2, ((1, 2), (3, 4)))
        path = tmp_path / "fam.json"
        selectors.save_family_file(path, fam)
        cfg = validate_config({"n": 4, "protocol": f"interleaved({path})",
                               "rho": 0.5, "rounds": 10, "seed": 0})
        assert cfg.protocol.families[0].sets == ((1,), (2,), (3,), (4,))


class TestBackoffWindow:
    def test_exponential_values(self):
        assert backoff_window("exponential", 3) == 8
        assert backoff_window("exponential", 11) == 2048
        assert backoff_window("exponential", 12) == 2048

    def test_linear_and_square_values(self):
        assert backoff_window("linear", 3) == 6
        assert backoff_window("square", 3) == 18

    def test_window_zero_is_at_least_one(self):
        for kind in ("exponential", "linear", "square"):
            assert backoff_window(kind, 0) >= 1

    def test_cap_binds_everywhere(self):
        for kind in ("exponential", "linear", "square"):
            assert all(backoff_window(kind, i) <= 2048 for i in range(0, 2000))

    def test_windows_never_shrink(self):
        for kind in ("exponential", "linear", "square"):
            values = [backoff_window(kind, i) for i in range(0, 200)]
            assert values == sorted(values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            backoff_window("cubic", 1)


class TestBackoffStation:
    def test_fresh_packet_transmits_in_unit_window(self):
        st = BackoffStation(1, "exponential", derive_stream(0, "backoff.1"))
        assert st.draw_slot(1) == 1 and st.slot == 1  # window(0) = 1

    def test_failure_grows_the_window(self):
        st = BackoffStation(1, "exponential", derive_stream(0, "backoff.1"))
        st.draw_slot(1)
        st.on_failure()
        assert st.attempts == 1 and st.slot is None
        assert st.draw_slot(2) in (2, 3)  # window(1) = 2

    def test_success_resets_the_counter(self):
        st = BackoffStation(1, "square", derive_stream(0, "backoff.1"))
        st.draw_slot(1)
        st.on_failure()
        st.on_failure()
        st.draw_slot(3)
        st.on_success()
        assert st.attempts == 0 and st.slot is None

    @pytest.mark.parametrize("kind", ["exponential", "linear", "square"])
    def test_draw_reads_the_window_law_once_per_draw(self, kind, monkeypatch):
        # draw_slot looks its window up in a table that ends at the cap; the
        # window must be backoff_window(kind, i) for every failure count i,
        # past the table's end too, drawn with exactly one randbelow from the
        # station's own stream.
        rng = derive_stream(0, "backoff.1")
        windows = []

        def recording_randbelow(getrandbits, window):
            assert getrandbits == rng.getrandbits
            windows.append(window)
            return window - 1

        monkeypatch.setattr(protocols, "randbelow", recording_randbelow)
        st = BackoffStation(1, kind, rng)
        for i in range(5001):
            st.attempts = i
            assert st.draw_slot(10) == 10 + backoff_window(kind, i) - 1
        assert windows == [backoff_window(kind, i) for i in range(5001)]


def backoff_config(n=4, kind="exponential", plan=(), initial=None, rounds=100, **overrides):
    """A backoff run fed by a fixed plan of (round, station, count) injections."""
    fields = dict(
        n=n, protocol=ProtocolSpec("backoff", backoff_kind=kind), rho=0.5,
        rounds=rounds, seed=11, distribution=DistributionSpec("plan", plan=tuple(plan)),
        initial_queues=tuple(initial or (0,) * n),
    )
    fields.update(overrides)
    return SimConfig(**fields)


class TestBackoffSystem:
    def test_packet_into_empty_station_transmits_in_its_round(self):
        eng = Engine(backoff_config(plan=[(5, 3, 1)]))
        reports = []
        eng.advance(eng.config.rounds, reports)
        result = eng.run()
        kinds = [report.observation.kind for report in reports[:5]]
        assert kinds == ["silence"] * 4 + ["single"]
        assert reports[4].observation.sender == 3
        assert result.final_queues == (0, 0, 0, 0)

    def test_station_emptied_by_a_success_leaves_the_calendar(self):
        eng = Engine(backoff_config(plan=[(1, 2, 2), (9, 2, 1)], rounds=12))
        reports = [eng.step() for _ in range(4)]
        system = eng.system
        assert eng.queues[1] == 0
        assert system.calendar == {}
        assert system.stations[1].slot is None
        eng.advance(eng.config.rounds, reports)
        senders = [(r, rep.observation.sender) for r, rep in enumerate(reports, start=1)
                   if rep.delivered]
        assert senders == [(1, 2), (2, 2), (9, 2)]

    def test_injection_into_a_booked_station_does_not_draw_again(self):
        system = BackoffSystem(backoff_config(n=2, initial=(1, 1)))
        queues = [1, 1]
        attempts, on_count = system.actions(1, queues)
        assert attempts == [(1, None), (2, None)] and on_count == 2
        system.finish_round(1, COLLISION, None, queues)   # both draw in window 2
        station = system.stations[0]
        slot, state = station.slot, station.rng.getstate()
        assert slot in (2, 3)
        queues[0] += 1
        system.note_injections(2, {1: 1})
        system.actions(2, queues)
        assert station.slot == slot
        assert station.rng.getstate() == state

    def test_injection_into_an_empty_station_draws_once(self):
        system = BackoffSystem(backoff_config(n=2))
        station = system.stations[1]
        system.note_injections(7, {2: 3})                # drawn here, for round 7
        assert station.slot == 7 and system.calendar == {7: [2]}
        reference = derive_stream(11, "backoff.2")
        reference.randrange(1)                           # window(0) = 1 still draws
        assert station.rng.getstate() == reference.getstate()
        attempts, _ = system.actions(7, [0, 3])
        assert attempts == [(2, None)]
        assert station.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("kind", ["exponential", "linear", "square"])
    def test_single_station_sends_whenever_it_holds_a_packet(self, kind):
        config = backoff_config(n=1, kind=kind, rho=0.7, rounds=3000,
                                distribution=DistributionSpec("flat"))
        eng = Engine(config)
        reports = []
        eng.advance(eng.config.rounds, reports)
        result = eng.run()
        assert result.collisions == 0
        queue = 0
        for report in reports:
            queue += report.injections
            assert report.delivered == (queue > 0)
            queue -= report.delivered
        assert result.final_queues == (queue,)
        assert result.delivered > 1000


def state_aware_choose(queues):
    attempts, on_count = StateAwareSystem(SimConfig(
        n=len(queues), protocol=ProtocolSpec("state_aware"), rho=0.5, rounds=10,
        seed=0)).actions(1, list(queues))
    assert on_count == len(attempts)
    return attempts[0][0] if attempts else None


class TestStateAwareChoose:
    def test_all_empty_is_none(self):
        assert state_aware_choose([0, 0, 0]) is None

    def test_tie_breaks_to_lowest_id(self):
        assert state_aware_choose([2, 5, 5]) == 2

    def test_unique_maximum(self):
        assert state_aware_choose([7, 1, 0]) == 1


class TestScheduleOracles:
    def test_round_robin_oracle_matches_turn_function(self):
        oracle = round_robin_oracle(4)
        assert [oracle(r) for r in range(1, 13)] == [(1,), (2,), (3,), (4,)] * 3

    def test_interleaved_oracle_matches_schedule(self, tmp_path):
        rng = derive_stream(1, "gen")
        fam = selectors.generate_selector_random(8, 4, 2, 20, rng)
        path = tmp_path / "fam.json"
        selectors.save_family_file(path, fam)
        cfg = validate_config({"n": 8, "protocol": f"interleaved({path})",
                               "rho": 0.5, "rounds": 10, "seed": 0})
        system = InterleavedSystem(cfg)
        oracle = system.schedule_oracle()
        families = cfg.protocol.families
        levels = len(families)
        # Level i plays its sets in order in rounds i, i + L, i + 2L, ...
        for i, level_family in enumerate(families, start=1):
            m = len(level_family.sets)
            played = [oracle(i + j * levels) for j in range(2 * m)]
            assert played == list(level_family.sets) * 2
        for t in range(1, 40):
            attempts, on_count = system.actions(t, [1] * 8)
            assert tuple(sid for sid, _ in attempts) == oracle(t)
            assert on_count == len(oracle(t))
