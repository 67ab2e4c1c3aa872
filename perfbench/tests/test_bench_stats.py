"""The benchmark's own statistics: percentile support, open-loop accounting,
generator lag and failure counting.

    python -m pytest perfbench/tests -q
"""
import math
import statistics
import threading
import time

import pytest

from stats import (
    Arrival,
    UnsupportedPercentile,
    percentile,
    run_open_loop,
    samples_beyond,
    summary,
    supported_percentile,
)


class VirtualClock:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += max(seconds, 0.0)


# --------------------------------------------------------------- percentiles


def test_p95_is_refused_with_fewer_than_ten_samples_beyond_it():
    assert samples_beyond(199, 0.95) == 10  # ranks above floor(0.95 * 198) = 188
    assert samples_beyond(180, 0.95) < 10
    with pytest.raises(UnsupportedPercentile):
        supported_percentile(range(180), 0.95)
    with pytest.raises(UnsupportedPercentile):
        supported_percentile(range(19), 0.5)  # 9 samples beyond the median


def test_p95_is_reported_once_ten_samples_lie_beyond_it():
    values = list(range(200))
    beyond = samples_beyond(len(values), 0.95)
    assert beyond >= 10
    p95 = supported_percentile(values, 0.95)
    assert sum(v > p95 for v in values) >= 10
    assert p95 == pytest.approx(percentile(values, 0.95))


def test_percentile_interpolates_and_treats_failures_as_infinite():
    assert percentile([1, 2, 3, 4], 0.5) == 2.5
    assert percentile([5], 0.95) == 5
    assert percentile([1.0] * 19 + [math.inf], 0.5) == 1.0
    assert percentile([1.0] * 18 + [math.inf] * 2, 0.99) == math.inf


def test_spreads_use_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    out = summary(values)
    assert out["median"] == 14.5
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert out["iqr_share"] == pytest.approx((q3 - q1) / q2)
    assert out["range_share"] == pytest.approx(9 / 14.5)


# --------------------------------------------------------- open-loop accounting


def test_a_stalled_server_inflates_the_latency_of_later_requests():
    clock = VirtualClock()
    schedule = [Arrival(0.01 * i, i) for i in range(10)]

    def send(i):
        clock.sleep(0.5 if i == 2 else 0.001)  # request 2 hits a 0.5 s stall
        return True, i

    result = run_open_loop(schedule, send, senders=1, clock=clock, sleep=clock.sleep)
    latencies = result.latencies()
    assert latencies[0] == pytest.approx(0.001)
    assert latencies[2] == pytest.approx(0.5)
    # Every later request was due during the stall: timed from its due time it
    # waited for the stall to clear, which closed-loop timing would hide.
    for i in range(3, 10):
        assert latencies[i] > 0.4, (i, latencies[i])
        assert latencies[i] == pytest.approx(result.outcomes[i].done - 0.01 * i)


def test_generator_lag_is_reported_per_request():
    clock = VirtualClock()
    schedule = [Arrival(0.01 * i, i) for i in range(5)]

    def send(_):
        clock.sleep(0.025)  # slower than the arrival spacing: a backlog grows
        return True, None

    result = run_open_loop(schedule, send, senders=1, clock=clock, sleep=clock.sleep)
    lags = result.lags()
    assert lags[0] == pytest.approx(0.0)
    assert lags == sorted(lags)
    assert lags[-1] == pytest.approx(4 * 0.025 - 0.04)
    for o in result.outcomes:
        assert o.latency == pytest.approx(o.lag + 0.025)


def test_on_time_requests_have_no_lag_with_two_real_senders():
    schedule = [Arrival(0.005 * i, i) for i in range(20)]
    result = run_open_loop(schedule, lambda i: (True, i), senders=2)
    assert result.attempted == 20 and result.failed == 0
    assert max(result.lags()) < 0.05
    assert [o.reply for o in result.outcomes] == list(range(20))


def test_failures_are_counted_and_have_no_latency():
    clock = VirtualClock()
    schedule = [Arrival(0.01 * i, i) for i in range(20)]

    def send(i):
        clock.sleep(0.002)
        if i % 5 == 0:
            raise ConnectionRefusedError("refused")
        return i % 7 != 3, i  # a reply the caller judged wrong

    result = run_open_loop(schedule, send, senders=1, clock=clock, sleep=clock.sleep)
    refused = {0, 5, 10, 15}
    wrong = {3, 17}
    assert result.attempted == 20
    assert result.failed == len(refused | wrong)
    for o in result.outcomes:
        if o.index in refused:
            assert "refused" in o.error
        if o.index in refused | wrong:
            assert o.latency == math.inf
    # 30 % failed: the median is still finite, the p95 is not.
    assert percentile(result.latencies(), 0.5) < 1
    assert percentile(result.latencies(), 0.95) == math.inf


def test_senders_share_the_schedule_without_losing_requests():
    schedule = [Arrival(0.0, i) for i in range(200)]
    seen, lock = [], threading.Lock()

    def send(i):
        time.sleep(0.0005)
        with lock:
            seen.append(i)
        return True, i

    result = run_open_loop(schedule, send, senders=2)
    assert sorted(seen) == list(range(200))
    assert [o.index for o in result.outcomes] == list(range(200))



def test_service_schedule_is_seeded_with_fixed_counts_per_kind(tmp_path):
    from common import Context
    from service import MIX, build_schedule

    def schedule(seed):
        ctx = Context("service-mix", seed, 20.0, False, tmp_path, tmp_path)
        return build_schedule(ctx, 20.0)[0]

    a, b, c = schedule(1), schedule(1), schedule(2)
    assert [(x.due, x.payload) for x in a] == [(x.due, x.payload) for x in b]
    assert [x.payload for x in a] != [x.payload for x in c]
    for arrivals in (a, c):
        dues = [x.due for x in arrivals]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 20.0
        counts = {k: sum(x.payload["kind"] == k for x in arrivals) for k, _ in MIX}
        assert counts["quantile"] == 2 and counts["async"] == 4
        assert counts["pair"] == 2 * 8  # both requests of each pair


def test_closed_loop_counts_wrong_and_raising_queries_as_failed(tmp_path):
    from common import Context, closed_loop

    ctx = Context("voting-passage", 1, 0.05, False, tmp_path, tmp_path)
    calls = iter(range(1000))

    def run_query(query):
        time.sleep(0.002)
        if query % 4 == 1:
            raise RuntimeError("solver blew up")
        return query

    def check(query, outcome):
        return ["wrong answer"] if query % 4 == 2 else []

    samples = closed_loop(ctx, lambda rng: next(calls), run_query, check, warmup=0)
    assert ctx.attempted == len(samples) >= 4
    failed = [q for q, _, _ in samples if q % 4 in (1, 2)]
    assert ctx.failed == len(failed)
    for qid, seconds, _ in samples:
        assert (seconds == math.inf) == (qid % 4 in (1, 2))
    assert any("solver blew up" in e for e in ctx.errors)
