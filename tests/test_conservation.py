"""Per-station packet conservation across every protocol string.

For each station i, final_queues[i] == initial[i] + injected_i - delivered_i,
where injected_i comes from a replay of the stock adversary written here from
its documented behaviour (no channel_lab code is shared with it) and
delivered_i counts the delivered rounds whose observation names station i.
"""

import hashlib
import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from channel_lab.engine import Engine

DATA = Path(__file__).resolve().parent / "data"
FAMILY_SIZES = (4, 8, 16)   # committed interleaved family files
_MASK64 = (1 << 64) - 1


def replay_injections(n, rho, burst_p, stock_b, seed, rounds, distribution):
    """Per-station packet counts the stock adversary injects over `rounds`.

    The adversary's stream is a Mersenne Twister seeded by
    SHA-256("<seed as 16 hex digits>|adversary"). Each round the stock grows
    by one with probability rho, then the whole stock is released with
    probability burst_p, or unconditionally once it holds stock_b packets.
    Released packets pick targets one draw each: "flat" is uniform, "focused"
    gives stations 1 and 2 probability 1/3 + 1/(3n) each and every other
    station 1/(3n), and "single(i)" sends everything to station i.
    """
    digest = hashlib.sha256(f"{seed & _MASK64:016x}|adversary".encode()).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    draw = rng.random
    if distribution == "focused":
        first, second = (n + 1) / (3 * n), 2 * (n + 1) / (3 * n)
        tail = 1.0 / (3 * n)

        def target():
            u = draw()
            if u < first:
                return 1
            if u < second:
                return 2
            return min(3 + int((u - second) / tail), n)
    elif distribution == "flat":
        def target():
            return rng.randrange(n) + 1
    else:
        station = int(distribution[len("single("):-1])

        def target():
            return station

    counts = [0] * (n + 1)
    stock = 0
    for _ in range(rounds):
        if draw() < rho:
            stock += 1
        release = draw() < burst_p or stock >= stock_b
        if release and stock:
            for _ in range(stock):
                counts[target()] += 1
            stock = 0
    return counts[1:]


@st.composite
def runs(draw):
    kind = draw(st.sampled_from([
        "adaptive", "fullsensing", "fullsensing_mod", "round_robin", "interleaved",
        "backoff(exponential)", "backoff(linear)", "backoff(square)", "state_aware",
    ]))
    if kind == "interleaved":
        n = draw(st.sampled_from(FAMILY_SIZES))
        protocol = f"interleaved({DATA / f'families_{n}.json'})"
    else:
        n = draw(st.integers(2, 12))
        protocol = kind
        if kind == "fullsensing_mod":
            protocol = f"fullsensing_mod({draw(st.integers(1, 3))})"
    distribution = draw(st.sampled_from(["focused", "flat", f"single({draw(st.integers(1, n))})"]))
    return {
        "n": n, "protocol": protocol, "rounds": draw(st.integers(0, 600)),
        "rho": draw(st.floats(0.05, 1.0)), "burst_p": draw(st.floats(0.05, 1.0)),
        "stock_b": draw(st.integers(1, 64)), "seed": draw(st.integers(0, _MASK64)),
        "distribution": distribution,
        "initial_queues": draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
    }


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_station_conserves_its_packets(config):
    eng = Engine(config)
    reports = []
    eng.advance(eng.config.rounds, reports)
    result = eng.run()
    n = config["n"]
    injected = replay_injections(n, config["rho"], config["burst_p"], config["stock_b"],
                                 config["seed"], config["rounds"], config["distribution"])
    delivered = [0] * n
    for report in reports:
        if report.delivered:
            delivered[report.observation.sender - 1] += 1
    initial = config["initial_queues"]
    assert sum(injected) + sum(initial) == result.injected
    assert list(result.final_queues) == [
        q0 + inj - out for q0, inj, out in zip(initial, injected, delivered)]
