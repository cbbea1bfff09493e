"""Arithmetic the benchmark reports with, kept apart so it can be tested.

The C++ binary prints raw samples; everything here turns them into
metrics. Tests: python3 -m unittest discover -s perfbench/tests
"""

import statistics

# Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples). Of n sorted samples, the one
    at 0-based rank n - beyond - 1 has `beyond` samples after it, and it
    sits at percentile 100 * (n - beyond) / n. Ties above it count as
    beyond only when strictly larger, so with ties the value is the
    largest one that still has `beyond` strictly larger samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    rank = n - beyond - 1
    while rank > 0 and ordered[rank] == ordered[rank + 1]:
        rank -= 1
    value = ordered[rank]
    if sum(1 for v in ordered if v > value) < beyond:
        raise ValueError("tail: too many tied samples at the top")
    return value, 100.0 * (rank + 1) / n, n


def harmonic_mean(rates):
    """Graph 500 averages TEPS harmonically: n / sum(1 / rate)."""
    if not rates:
        raise ValueError("harmonic mean of no samples")
    if any(r <= 0 for r in rates):
        raise ValueError("harmonic mean needs positive rates")
    return len(rates) / sum(1.0 / r for r in rates)


def open_loop(due_s, submit_s, service_s):
    """Latency of open-loop queries, timed from when each was due.

    A query due at d and submitted at s (s >= d when the generator ran
    late) that the engine answered `service` seconds after submission
    took (s - d) + service from its due time. Returns (latency_ms,
    lateness_ms), one entry per query.
    """
    if not len(due_s) == len(submit_s) == len(service_s):
        raise ValueError("open_loop: sample arrays differ in length")
    latency, late = [], []
    for d, s, svc in zip(due_s, submit_s, service_s):
        if svc < 0:
            raise ValueError("open_loop: negative service time")
        lag = max(0.0, s - d)
        late.append(lag * 1e3)
        latency.append((lag + svc) * 1e3)
    return latency, late


def failure_share(attempted, failed):
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
