"""Per-station packet conservation across every protocol string.

For each station i, final_queues[i] == initial[i] + injected_i - delivered_i,
where injected_i comes from a replay of the whole-round model's adversary
(`reference.StockAdversary`, which shares no code with channel_lab) and
delivered_i counts the delivered rounds whose observation names station i.
"""

from hypothesis import HealthCheck, given, settings

from channel_lab.engine import Engine

from reference import StockAdversary
from test_reference import runs


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs(restrain=False))
def test_every_station_conserves_its_packets(case):
    doc, _ = case
    eng = Engine(doc)
    config = eng.config
    reports = []
    eng.advance(config.rounds, reports)
    result = eng.run()
    injected = [0] * config.n
    adversary = StockAdversary(config)
    for round_no in range(1, config.rounds + 1):
        for sid, count in adversary.inject(round_no).items():
            injected[sid - 1] += count
    delivered = [0] * config.n
    for report in reports:
        if report.delivered:
            delivered[report.observation.sender - 1] += 1
    initial = config.initial_queues
    assert sum(injected) + sum(initial) == result.injected
    assert list(result.final_queues) == [
        q0 + inj - out for q0, inj, out in zip(initial, injected, delivered)]
