"""Acceptance suite: one test per release criterion, each printing a verdict
line. Tolerances are fixed here, not tuned elsewhere."""

import json

import pytest

from channel_lab import selectors
from channel_lab.cli import expand_sweep, render_csv, sweep_size
from channel_lab.core import derive_stream, validate_config
from channel_lab.engine import run_simulation
from channel_lab.protocols import backoff_window


SEEDS = range(10)


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def selector_files(tmp_path_factory):
    """Verified interleaved-selector inputs for n = 4 and n = 8."""
    root = tmp_path_factory.mktemp("families")
    paths = {}
    for n in (4, 8):
        rng = derive_stream(1234, f"acceptance.selectors.{n}")
        families = []
        for omega in (2, 4, 8):
            if omega > n:
                continue
            families.append(selectors.generate_selector_random(n, omega, 2, 20, rng))
        path = root / f"families_{n}.json"
        selectors.save_family_file(path, families)
        paths[n] = str(path)
    return paths


def test_criterion_01_adaptive_throughput_one():
    # n=32, rho=1.0, p=0.5, b=256, 10 seeds x 100k rounds: no collisions,
    # restrain 2, and total queued never above l + (n-1)^2 + n + b = 4290
    # with l = n(3n-1)+1 = 3041.
    bound = 3041 + 961 + 32 + 256
    assert bound == 4290
    worst = 0
    for seed in SEEDS:
        result = run_simulation({
            "n": 32, "protocol": "adaptive", "rho": 1.0, "p": 0.5, "b": 256,
            "rounds": 100_000, "seed": seed,
        })
        assert result.collisions == 0
        assert result.max_on_mode <= 2
        peak_total = result.metrics.max_avg * 32
        assert peak_total <= bound
        worst = max(worst, peak_total)
    report(1, f"10 seeds, zero collisions, on-mode <= 2, "
              f"peak total queue {worst:.0f} <= {bound}")


def test_criterion_02_fullsensing_stability_window():
    # Stable side rho=0.96 drains the preloaded 96-per-station queues after
    # round 50k; unstable side rho=0.98 (past 31/32) grows. Flat targets,
    # and at most one collision per 32-round cycle, on-mode <= 3 throughout.
    for rho, expect_growth in ((0.96, False), (0.98, True)):
        for seed in SEEDS:
            result = run_simulation({
                "n": 32, "protocol": "fullsensing", "rho": rho,
                "rounds": 200_000, "seed": seed, "distribution": "flat",
                "initial_queues": [96] * 32,
            }, checkpoint_rounds=[50_000])
            at_50k = result.checkpoints[0][1].avg_max
            final = result.metrics.avg_max
            if expect_growth:
                assert final > at_50k, (rho, seed, at_50k, final)
            else:
                assert final < at_50k, (rho, seed, at_50k, final)
            assert result.max_cycle_collisions <= 1
            assert result.max_on_mode <= 3
    report(2, "avg-max falls at rho=0.96 and grows at rho=0.98 on 10/10 seeds; "
              "<= 1 collision per cycle, on-mode <= 3")


def test_criterion_03_round_robin_destabilization():
    # Focused injection: station 1 receives ~rho/3 of all packets against a
    # 1/32 service share, so rho=0.2 blows past delta while rho=0.05 idles.
    low_ok = sum(
        run_simulation({"n": 32, "protocol": "round_robin", "rho": 0.05,
                        "rounds": 500_000, "seed": seed}).metrics.avg_max < 200
        for seed in SEEDS)
    high_ok = sum(
        run_simulation({"n": 32, "protocol": "round_robin", "rho": 0.2,
                        "rounds": 500_000, "seed": seed}).metrics.avg_max > 1024
        for seed in SEEDS)
    assert low_ok >= 8
    assert high_ok >= 8
    report(3, f"avg-max < 200 at rho=0.05 on {low_ok}/10 seeds, "
              f"> 1024 at rho=0.2 on {high_ok}/10 seeds")


def test_criterion_04_backoff_window_law():
    for kind, law in (("exponential", lambda i: 2 ** i),
                      ("linear", lambda i: 2 * i),
                      ("square", lambda i: 2 * i * i)):
        for failures in range(1, 100_001):
            expected = min(2048, law(failures))
            window = backoff_window(kind, failures)
            assert window == expected
            assert window <= 2048
    report(4, "window(i) = min(2048, 2^i | 2i | 2i^2) over 1e5 failures per kind")


def test_criterion_05_selector_generation_oracle():
    cases = [
        (8, 2, 2), (8, 2, 4), (8, 2, 8), (8, 4, 2), (8, 4, 4), (8, 4, 8),
        (8, 8, 2), (8, 8, 8), (12, 2, 4), (12, 4, 2), (12, 4, 12), (12, 8, 4),
        (16, 2, 2), (16, 2, 16), (16, 4, 4), (16, 4, 16), (16, 8, 2),
        (16, 8, 4), (16, 8, 16), (16, 2, 4),
    ]
    assert len(cases) == 20
    for n, omega, k in cases:
        rng = derive_stream(99, f"acceptance.gen.{n}.{omega}.{k}")
        family = selectors.generate_selector_random(n, omega, k, 20, rng)
        assert selectors.verify_selector_exact(family) is None, (n, omega, k)
        thin = selectors.dilute(family, 2)
        assert all(len(s) <= 2 for s in thin.sets)
        assert selectors.verify_selector_exact(thin) is None, (n, omega, k)
    report(5, "20 generated families verify exactly, before and after dilution to k=2")


def test_criterion_06_superimposed_codes():
    code = selectors.kautz_singleton(2, 20)
    assert selectors.verify_disjunct(code, 2) is None
    for b in range(2, 11):
        ident = selectors.identity_code(b)
        for d in range(1, b):
            assert selectors.verify_disjunct(ident, d) is None
    report(6, "kautz_singleton(2, 20) exhaustively 2-disjunct; identity codes "
              "pass for all d < b <= 10")


def test_criterion_07_poly_construction_pipeline():
    rng = derive_stream(77, "acceptance.poly")
    disperser = selectors.random_disperser(16, 2, 3, 1.0, 0.5, rng)
    assert selectors.verify_disperser(disperser) is None
    code = selectors.kautz_singleton(2, 16)
    assert selectors.verify_disjunct(code, 2) is None
    family = selectors.construct_selector_poly(
        16, 8, 4, selectors.PolyParams(c=2), disperser, code)
    assert all(len(s) <= 4 for s in family.sets)
    assert selectors.verify_selector_exact(family) is None
    # The spliced branch, forced by overriding the amortized-children bound,
    # must satisfy the same structural and oracle checks.
    spliced = selectors.construct_selector_poly(
        16, 8, 4, selectors.PolyParams(c=2, alpha=0.0), disperser, code)
    assert spliced.provenance == "poly"
    assert all(len(s) <= 4 for s in spliced.sets)
    assert selectors.verify_selector_exact(spliced) is None
    report(7, f"pipeline output verifies exactly (auto branch: "
              f"{family.provenance}; forced splice: {len(spliced.sets)} sets, all <= 4)")


def test_criterion_08_conservation_and_determinism(selector_files):
    protocols = [
        "adaptive", "fullsensing", "fullsensing_mod(2)", "round_robin",
        "backoff(exponential)", "backoff(linear)", "backoff(square)",
        "state_aware",
    ]
    runs = 0
    for n in (4, 8):
        names = protocols + [f"interleaved({selector_files[n]})"]
        for protocol in names:
            for rho in (0.1, 0.5, 0.9):
                for seed in (1, 2, 3):
                    config = validate_config({
                        "n": n, "protocol": protocol, "rho": rho,
                        "rounds": 2000, "seed": seed,
                    })
                    first = run_simulation(config)
                    again = run_simulation(config)
                    # The queues themselves must hold exactly the packets
                    # injected and not delivered; the CSV must be byte-stable.
                    assert first.injected == first.delivered + first.queued_total
                    assert sum(first.final_queues) == first.queued_total
                    assert render_csv([first]) == render_csv([again])
                    runs += 1
    assert runs == 2 * 9 * 3 * 3
    report(8, f"{runs} runs conserve packets and reproduce byte-identical CSV")


def test_criterion_09_state_aware_stays_small():
    for seed in SEEDS:
        result = run_simulation({"n": 16, "protocol": "state_aware", "rho": 0.9,
                                 "rounds": 200_000, "seed": seed})
        assert result.metrics.avg_max < 1024
    report(9, "state-aware avg-max below 1024 on 10/10 seeds at rho=0.9")


def test_criterion_10_full_scale_parameters_accepted():
    # Full-scale sweeps (120 repetitions, 1e6 rounds, 0.001 grid) are not run
    # at desk scale, but the harness must plan them.
    doc = {
        "protocol": "round_robin",
        "n": list(range(4, 33)),
        "rho": [round(0.001 * i, 3) for i in range(1, 1001)],
        "seeds": 120,
        "rounds": 1_000_000,
    }
    assert sweep_size(doc) == 29 * 1000 * 120
    first = next(iter(expand_sweep(doc)))
    assert first.rounds == 1_000_000
    assert first.n == 4 and first.seed == 0
    report(10, f"sweep planner accepts {sweep_size(doc)} full-scale cells "
               "(execution reserved for criteria 1-9)")
