"""The token protocols' active-list driver against the observer-list driver.

The whole-round model in `reference.py` drives the token stations with an
observer list: every switched-on station is polled each round and told the
feedback. The engine keeps only the active stations and a wake calendar.
This test spends its examples on adaptive, full-sensing and full-sensing
mod-k runs; `test_reference.compare` checks reports, sorted attempts, results
and each station's (state, wake_round, order) and pos at every stop.
"""

from hypothesis import HealthCheck, given, settings

from test_reference import TOKEN, compare, runs


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs(kinds=TOKEN))
def test_active_list_matches_observer_list_driver(case):
    compare(*case)
