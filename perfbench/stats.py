"""Arithmetic of the benchmark: percentiles, medians, means and ratios,
host-speed scales, and interval coverage for self times. Kept apart from
run.py so that test_stats.py can check every rule the metrics rely on."""

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it (p90 therefore needs at least 100 samples).
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """Linearly interpolated percentile, p in [0, 100] (numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile %r outside [0, 100]" % p)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(count, p):
    """How many of `count` samples lie beyond the p-th percentile."""
    return math.floor(count * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(values, p):
    """percentile(values, p) for a tail percentile, refusing to report one
    that fewer than MIN_TAIL_SAMPLES samples lie beyond."""
    if samples_beyond(len(values), p) < MIN_TAIL_SAMPLES:
        raise ValueError("p%g of %d samples has fewer than %d samples beyond it"
                         % (p, len(values), MIN_TAIL_SAMPLES))
    return percentile(values, p)


def median(values):
    return percentile(values, 50.0)


def geomean(values):
    if not values or any(v <= 0.0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(numerator, base):
    """numerator / base, with an empty base (0) reading as 0."""
    return numerator / base if base else 0.0


def window_rates(timestamps_ms, width):
    """Events per second over consecutive windows of `width` intervals of a
    sorted timestamp list; the median of these is a throughput that a
    transient stall of the machine does not drag down."""
    return [width * 1000.0 / (timestamps_ms[i + width] - timestamps_ms[i])
            for i in range(0, len(timestamps_ms) - width, width)]


def probe_scales(probe_ms, probe_at, reference_ms):
    """Host-speed scale of each item of a measured window (a chunk of
    frames or a round of launches). Probe i ran before item probe_at[i];
    the last probe ran after the last item. The items between probes i and
    i + 1 get the mean of the two over reference_ms: 2.0 means the host ran
    the fixed probe at half its reference speed at the time."""
    if len(probe_ms) != len(probe_at) or len(probe_ms) < 2:
        raise ValueError("need one position per probe and at least two")
    if probe_at[0] != 0 or any(b < a for a, b in zip(probe_at, probe_at[1:])):
        raise ValueError("probe positions must start at 0 and not decrease")
    scales = []
    for i in range(len(probe_ms) - 1):
        scale = (probe_ms[i] + probe_ms[i + 1]) / (2.0 * reference_ms)
        scales += [scale] * (probe_at[i + 1] - probe_at[i])
    return scales


def per_key_medians(samples):
    """{key: [samples]} -> {key: median}."""
    return {key: median(values) for key, values in samples.items()}


def coverage(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals` (start, end)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if min(e, hi) > max(s, lo))
    covered, reach = 0.0, lo
    for start, end in clipped:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_time(start, end, children):
    """A span's duration minus the part of it its child spans cover; never
    negative, however the children overlap."""
    return (end - start) - coverage(children, start, end)

