from pathlib import Path

import pytest

from channel_lab.core import (
    BITS_BIG, ProtocolInvariantBroken, RestrainViolation, SimulationError,
)
from channel_lab.engine import Engine, run_simulation
from channel_lab.metrics import MetricsAccumulator, metrics_update

DATA = Path(__file__).resolve().parent / "data"


def config(**overrides):
    doc = {"n": 8, "protocol": "round_robin", "rho": 0.5, "rounds": 1000, "seed": 3}
    doc.update(overrides)
    return doc


class ScriptedSystem:
    """Protocol stand-in that makes the same attempts every round."""

    wants_feedback = False
    wants_injection_notes = False

    def __init__(self, attempts, on_count=None):
        self.attempts = attempts
        self.on_count = len(attempts) if on_count is None else on_count

    def actions(self, round_no, queues):
        return list(self.attempts), self.on_count


def scripted_engine(attempts, on_count=None, *, limit=None, queues=(0,) * 8, **overrides):
    """An engine with no injections whose protocol is replaced by a script."""
    eng = Engine(config(distribution={"plan": []}, initial_queues=list(queues), **overrides))
    eng.system = ScriptedSystem(attempts, on_count)
    eng.limit = limit
    return eng


class TestResolveChannel:
    def test_no_attempts_is_silence(self):
        assert scripted_engine([]).step().observation.kind == "silence"

    def test_single_attempt_carries_sender_and_bits(self):
        queues = (0, 1, 1, 0, 0, 0, 0, 0)
        report = scripted_engine([(3, None)], queues=queues).step()
        obs = report.observation
        assert obs.kind == "single" and obs.sender == 3
        assert report.delivered
        report = scripted_engine([(2, BITS_BIG)], queues=queues).step()
        assert report.observation.bits is BITS_BIG

    def test_two_attempts_collide(self):
        eng = scripted_engine([(1, None), (2, None)], queues=(1, 1, 0, 0, 0, 0, 0, 0))
        report = eng.step()
        assert report.observation.kind == "collision" and not report.delivered
        assert eng.collisions == 1 and eng.queues[:2] == [1, 1]


class TestRestrainCheck:
    def test_two_on_mode_within_limit_two(self):
        eng = scripted_engine([], on_count=2, limit=2)
        assert eng.step().on_mode == 2
        assert eng.max_on_mode == 2

    def test_three_on_mode_violates_limit_two(self):
        eng = scripted_engine([], on_count=3, limit=2)
        with pytest.raises(RestrainViolation) as excinfo:
            eng.step()
        assert excinfo.value.count == 3 and excinfo.value.round == 1

    def test_unbounded_always_ok(self):
        eng = scripted_engine([], on_count=50, limit=None)
        for _ in range(5):
            eng.step()
        assert eng.max_on_mode == 50


class TestRunRound:
    def test_round_report_fields(self):
        eng = Engine(config(rho=1.0, p=1.0, protocol="state_aware"))
        report = eng.step()
        assert report.injections == 1
        assert report.on_mode in (0, 1)

    def test_empty_round_robin_round_is_silent(self):
        eng = Engine(config(distribution={"plan": []}))
        report = eng.step()
        assert report.observation.kind == "silence"
        assert eng.delivered == 0

    def test_two_backoff_stations_collide_on_first_round(self):
        # window(0) = 1 forces both preloaded stations onto the same slot.
        eng = Engine(config(protocol="backoff(exponential)",
                            initial_queues=[1, 1, 0, 0, 0, 0, 0, 0],
                            distribution={"plan": []}))
        report = eng.step()
        assert report.observation.kind == "collision"
        stations = eng.system.stations
        assert stations[0].attempts == 1 and stations[1].attempts == 1

    def test_empty_queue_transmission_is_flagged(self):
        eng = scripted_engine([(1, None)])
        with pytest.raises(ProtocolInvariantBroken, match="round 1: station 1"):
            eng.step()

    def test_empty_queue_in_a_collision_is_flagged(self):
        eng = scripted_engine([(1, None), (2, None)], queues=(1, 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ProtocolInvariantBroken, match="station 2"):
            eng.step()


class DrainingSystem(ScriptedSystem):
    """Breaks conservation: takes a packet out of the queues it is handed."""

    def actions(self, round_no, queues):
        queues[0] -= 1
        return [], 0


class TestConservationCheck:
    def test_mutating_queues_is_caught_by_run(self):
        eng = Engine(config(rounds=50, initial_queues=[5] * 8))
        eng.system = DrainingSystem([])
        with pytest.raises(SimulationError, match="conservation broken"):
            eng.run()

    def test_mutating_queues_is_caught_by_step(self):
        eng = Engine(config(distribution={"plan": []}, initial_queues=[5] * 8))
        eng.system = DrainingSystem([])
        with pytest.raises(SimulationError, match="round 1: conservation broken"):
            eng.step()

    def test_negative_queue_is_caught_even_when_the_sum_matches(self):
        class Shifting(ScriptedSystem):
            def actions(self, round_no, queues):
                queues[0] -= 1
                queues[1] += 1
                return [], 0

        eng = Engine(config(distribution={"plan": []}))
        eng.system = Shifting([])
        with pytest.raises(SimulationError, match="lowest -1"):
            eng.step()


FOLD_CASES = {
    "adaptive": ("adaptive", {}),
    "fullsensing_preloaded": ("fullsensing", {"distribution": "flat",
                                              "initial_queues": [30] * 8}),
    "fullsensing_mod": ("fullsensing_mod(2)", {}),
    "round_robin": ("round_robin", {}),
    "round_robin_preloaded": ("round_robin", {"initial_queues": [0, 0, 0, 40, 0, 0, 0, 0]}),
    "backoff_exponential": ("backoff(exponential)", {}),
    "backoff_square": ("backoff(square)", {"rho": 0.5}),
    "state_aware": ("state_aware", {}),
    "interleaved": (f"interleaved({DATA / 'families_8.json'})", {}),
    # Plan entries on both sides of the stops at 1, 7 and 500 and on the
    # last round of either run length (2000 and 3000).
    "plan": ("round_robin", {"distribution": {"plan": [
        {"round": rnd, "station": sid, "count": 2}
        for rnd, sid in ((1, 1), (7, 2), (8, 3), (500, 4), (501, 5), (2000, 6), (3000, 7))]}}),
    "single_target": ("backoff(linear)", {"distribution": "single(3)"}),
}


def run_with_reports(doc):
    """Run `doc` to completion, gathering one RoundReport per round."""
    eng = Engine(doc)
    reports = []
    eng.advance(eng.config.rounds, reports)
    return eng.run(), reports


class TestAdvance:
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_stretches_match_one_unobserved_run(self, case):
        # Stopping and observing a run leaves its course unchanged: stretches,
        # single steps and one long advance reach the same state and reports.
        protocol, extra = FOLD_CASES[case]
        doc = config(**{"protocol": protocol, "rho": 0.9, "rounds": 2000, **extra})
        expected = run_simulation(doc)
        whole = []
        Engine(doc).advance(doc["rounds"], whole)

        eng = Engine(doc)
        reports = []
        for stop in (1, 7, 500):
            eng.advance(stop, reports)
        at_500 = eng.acc.snapshot()
        assert at_500.rounds == 500 and reports == whole[:500]
        for stop in (500, 3, 0):   # at or below the current round: plays nothing
            eng.advance(stop, reports)
        assert eng.round == 500 and len(reports) == 500
        assert eng.acc.snapshot() == at_500
        eng.advance(doc["rounds"], reports)
        assert reports == whole
        assert eng.run() == expected

        stepped = Engine(doc)
        assert [stepped.step() for _ in range(500)] == whole[:500]
        assert stepped.acc.snapshot() == at_500
        assert stepped.run() == expected


class TestMetricFold:
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_running_sums_match_the_reference_fold(self, case):
        # metrics_update recomputes max and sum of the queues every round;
        # the engine keeps them incrementally and must agree both when
        # stepped round by round and over one long stretch.
        protocol, extra = FOLD_CASES[case]
        doc = config(**{"protocol": protocol, "rho": 0.9, "rounds": 3000, **extra})
        eng = Engine(doc)
        ref = MetricsAccumulator(eng.n)
        for _ in range(doc["rounds"]):
            report = eng.step()
            metrics_update(ref, eng.queues, report.on_mode,
                           collision=report.observation.kind == "collision")
        assert eng.acc.snapshot() == ref.snapshot()
        assert run_simulation(doc).metrics == ref.snapshot()


class TestRunSimulation:
    def test_adaptive_never_collides(self):
        result = run_simulation(config(protocol="adaptive", rho=1.0, rounds=10_000))
        assert result.collisions == 0
        assert result.max_on_mode == 2

    def test_fullsensing_collisions_bounded_by_cycles(self):
        result = run_simulation(config(protocol="fullsensing", rho=0.9, rounds=100_000))
        assert result.collisions <= 100_000 // 8
        assert result.max_cycle_collisions <= 1
        assert result.max_on_mode <= 3

    def test_zero_rounds_is_an_empty_summary(self):
        result = run_simulation(config(rounds=0))
        assert result.metrics.rounds == 0
        assert result.metrics.avg_max == 0.0
        assert result.injected == result.delivered + result.queued_total == 0

    def test_initial_queues_count_as_injected(self):
        result = run_simulation(config(rounds=0, initial_queues=[2] * 8))
        assert result.injected == 16 and result.queued_total == 16

    def test_conservation_at_every_round(self):
        # Drives the loop with reports on and checks the final balance against
        # the queues themselves, not only against the counters.
        result, reports = run_with_reports(config(protocol="backoff(linear)", rounds=5000))
        assert result.injected == result.delivered + result.queued_total
        assert sum(result.final_queues) == result.queued_total
        assert len(reports) == 5000
        assert sum(r.injections for r in reports) == result.injected

    def test_determinism_of_report_stream(self):
        a, a_reports = run_with_reports(config(rounds=2000))
        b, b_reports = run_with_reports(config(rounds=2000))
        assert a_reports == b_reports
        assert a.metrics == b.metrics

    def test_restrain_limit_enforced(self):
        with pytest.raises(RestrainViolation):
            run_simulation(config(protocol="backoff(exponential)", rho=1.0,
                                  rounds=3000, restrain_limit=1))

    def test_plan_distribution_reaches_target_station(self):
        plan = {"plan": [{"round": 1, "station": 5, "count": 3}]}
        result = run_simulation(config(rounds=2, distribution=plan,
                                       protocol="state_aware"))
        assert result.injected == 3
        assert result.delivered == 2  # one delivery per round once queued


class TestAdaptiveTraceInvariants:
    def test_lists_stay_synchronized_at_cycle_starts(self):
        # The front-move is announced over one full cycle; sync is asserted at
        # every cycle boundary with no handoff announcement still in flight.
        eng = Engine(config(protocol="adaptive", rho=1.0, rounds=0,
                            distribution="single(3)"))
        checked = 0
        for r in range(1, 20_000):
            eng.step()
            if r % 8 == 0 and all(st.state != "last_big" for st in eng.system.stations):
                lists = eng.system.local_lists()
                assert len(set(lists)) == 1, f"lists diverged after round {r}"
                checked += 1
        assert checked > 100

    def test_exactly_one_token_holder_and_listener_every_round(self):
        eng = Engine(config(protocol="adaptive", rho=0.9, rounds=0))
        for r in range(1, 10_000):
            eng.step()
            holders = [st.sid for st in eng.system.stations
                       if st.state in ("transmitting", "big", "last_big")]
            listeners = [st.sid for st in eng.system.stations
                         if st.state == "listening"]
            assert len(holders) == 1, f"round {r}: token holders {holders}"
            assert len(listeners) <= 1, f"round {r}: listeners {listeners}"

    def test_interleaved_on_sets_match_oracle(self, tmp_path):
        from channel_lab import selectors
        from channel_lab.core import derive_stream
        rng = derive_stream(5, "gen")
        fam = selectors.generate_selector_random(8, 4, 3, 20, rng)
        path = tmp_path / "fam.json"
        selectors.save_family_file(path, fam)
        eng = Engine(config(protocol=f"interleaved({path})", rho=0.8))
        oracle = eng.system.schedule_oracle()
        reports = []
        eng.advance(eng.config.rounds, reports)
        for t, report in enumerate(reports, start=1):
            assert report.on_mode == len(oracle(t))
