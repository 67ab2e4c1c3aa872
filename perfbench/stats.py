"""The benchmark's own statistics: percentiles with a support rule, spreads
and open-loop (due-time) latency accounting.

Everything here is plain Python over lists of floats so the rules can be
unit-tested without the program under test.
"""
from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples beyond the requested percentile to report it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q`` quantile.

    The quantile is interpolated between ranks ``floor(q (n-1))`` and the
    next one (the ``numpy``/``statistics`` "inclusive" convention), so the
    samples beyond it are those ranked above ``floor(q (n-1))``.
    """
    if n <= 0:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q`` quantile (0 <= q <= 1) of ``values``.

    Infinite values sort last, so a failed request (counted as +inf) can push
    a tail percentile to infinity but never lowers it.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    if frac == 0.0 or data[lo] == data[hi]:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * frac


def supported_percentile(values, q: float, *, min_beyond: int = MIN_BEYOND) -> float:
    """``percentile(values, q)``, refused unless ``min_beyond`` samples lie beyond it."""
    values = list(values)
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise UnsupportedPercentile(
            f"p{q * 100:g} needs {min_beyond} samples beyond it; "
            f"{len(values)} samples leave {beyond}"
        )
    return percentile(values, q)


def median(values) -> float:
    return percentile(values, 0.5)


def summary(values) -> dict:
    """Median, quartiles, range and the two spreads of a list of run values."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / med if med else math.inf)
    out["range_share"] = (max(values) - min(values)) / med if med else math.inf
    return out


# ---------------------------------------------------------------------------
# Open-loop accounting
# ---------------------------------------------------------------------------


@dataclass
class Arrival:
    """One request of an open-loop schedule: when it is due and what it is."""

    due: float  # seconds after the schedule starts
    payload: object = None


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    payload: object = None
    reply: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the reply; +inf when the request failed."""
        return self.done - self.due if self.ok else math.inf

    @property
    def lag(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


@dataclass
class OpenLoopResult:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def latencies(self) -> list[float]:
        """Per-request latency from due time; failures count as +inf (missing)."""
        return [o.latency for o in self.outcomes]

    def lags(self) -> list[float]:
        return [o.lag for o in self.outcomes]


def run_open_loop(
    schedule: list[Arrival],
    send,
    *,
    senders: int = 2,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> OpenLoopResult:
    """Send ``schedule`` on its due times from ``senders`` threads.

    ``send(payload)`` performs one request and returns ``(ok, reply)`` or
    raises.  A request is taken by the next free sender in schedule order; it
    is sent at its due time or, if every sender is still busy, as soon as one
    frees up.  Latency is measured from the *due* time, so a stalled server
    inflates the latency of every request queued behind the stall, and the
    lateness of each send is recorded as generator lag.
    """
    if senders < 1:
        raise ValueError("senders must be >= 1")
    outcomes: list[Outcome | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule):
                    return
                cursor[0] += 1
            item = schedule[index]
            wait = start + item.due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock() - start
            try:
                ok, reply = send(item.payload)
                error = None
            except Exception as exc:  # a refused/broken request is an outcome
                ok, reply, error = False, None, f"{type(exc).__name__}: {exc}"
            done = clock() - start
            outcomes[index] = Outcome(
                index, item.due, sent, done, bool(ok), item.payload, reply, error
            )

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return OpenLoopResult([o for o in outcomes if o is not None])

