"""The backoff calendar against the polling backoff driver.

The whole-round model in `reference.py` polls every backoff station each
round and draws its slot with `randrange`. The engine books stations in a
calendar and draws with `core.randbelow`. This test spends its examples on
the three backoff laws; `test_reference.compare` checks reports, attempts,
results and each station's attempts, slot and RNG state at every stop.
"""

from hypothesis import HealthCheck, given, settings

from test_reference import BACKOFF, compare, runs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs(kinds=BACKOFF))
def test_calendar_matches_polling_driver(case):
    compare(*case)
