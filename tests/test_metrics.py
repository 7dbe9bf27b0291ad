from hypothesis import given, settings
from hypothesis import strategies as st

from channel_lab.metrics import MetricsAccumulator, metrics_update


def fold(traces, n):
    acc = MetricsAccumulator(n)
    for queues in traces:
        metrics_update(acc, queues, on_mode=1)
    return acc


class TestMetricsUpdate:
    def test_all_zero_queues(self):
        acc = fold([[0, 0, 0]] * 10, 3)
        assert acc.max_max == acc.sum_max == 0
        assert acc.avg_max == acc.avg_avg == acc.max_avg == 0.0

    def test_constant_single_queue(self):
        acc = fold([[5]] * 10, 1)
        assert acc.max_max == 5
        assert acc.avg_max == 5.0
        assert acc.max_avg == 5.0
        assert acc.avg_avg == 5.0

    def test_three_round_trace_arithmetic(self):
        acc = fold([[1, 0], [3, 0], [2, 0]], 2)
        assert acc.avg_max == 2.0
        assert acc.max_max == 3

    def test_collision_and_access_counters(self):
        acc = MetricsAccumulator(2)
        metrics_update(acc, [1, 1], on_mode=2, collision=True)
        metrics_update(acc, [1, 0], on_mode=1)
        assert acc.collisions == 1
        assert acc.avg_access == 1.5

    def test_precomputed_total_matches(self):
        a = MetricsAccumulator(3)
        b = MetricsAccumulator(3)
        metrics_update(a, [1, 2, 3], on_mode=1)
        metrics_update(b, [1, 2, 3], on_mode=1, total=6)
        assert a.snapshot() == b.snapshot()

    @given(st.lists(st.lists(st.integers(0, 50), min_size=3, max_size=3),
                    min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_pointwise_orderings(self, traces):
        acc = fold(traces, 3)
        assert acc.avg_avg <= acc.avg_max + 1e-9
        assert acc.max_avg <= acc.max_max + 1e-9
        assert acc.avg_max <= acc.max_max + 1e-9

    def test_running_maxima_never_decrease(self):
        acc = MetricsAccumulator(2)
        seen = []
        for queues in ([5, 1], [0, 0], [2, 2], [9, 0], [1, 1]):
            metrics_update(acc, queues, on_mode=1)
            seen.append((acc.max_max, acc.max_avg))
        assert seen == sorted(seen)
