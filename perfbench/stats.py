"""Summary statistics and span arithmetic for the btpan benchmark.

Kept free of I/O so that `perfbench/tests` can check them directly.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median, with quartiles as `statistics.quantiles(values, n=4)` gives
    them. Needs at least two values; a zero median gives `inf`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return math.inf
    return (q3 - q1) / abs(mid)


def paired_ratios(values, refs):
    """Each value divided by the mean of the reference times taken just
    before and just after it: `values[i]` lies between `refs[i]` and
    `refs[i + 1]`, so `refs` has one more entry than `values`."""
    if len(refs) != len(values) + 1:
        raise ValueError(f"{len(values)} values need {len(values) + 1} reference times")
    return [v / ((refs[i] + refs[i + 1]) / 2) for i, v in enumerate(values)]


def tail_percentile(values, beyond=10):
    """The highest whole percentile with at least `beyond` samples above
    it, as `(percentile, value)`, or `None` when there are too few
    samples (fewer than `beyond + 1`).

    The value is the nearest-rank percentile of the sorted samples: the
    sample at rank `ceil(p/100 * n)`, so exactly `n - rank` samples lie
    beyond it."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def union_length(intervals):
    """Total length covered by a set of `(start, end)` intervals, counting
    overlaps once. Empty or inverted intervals cover nothing."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if start >= reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans):
    """Self time of every span: its duration minus the part of its own
    interval that its direct children cover. Children may overlap each
    other (they count once) and may start before or end after their
    parent (only the part inside the parent counts).

    `spans` is a list of dicts with `start`, `end` and `parent` (the
    index of the parent span, or -1 for a root)."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    result = []
    for span, kids in zip(spans, children):
        lo, hi = span["start"], span["end"]
        clipped = [(max(k["start"], lo), min(k["end"], hi)) for k in kids]
        result.append(max(0.0, (hi - lo) - union_length(clipped)))
    return result


def descendants(spans, root):
    """Indices of every span below `root` (not including it)."""
    below = set()
    changed = True
    while changed:
        changed = False
        for i, span in enumerate(spans):
            if i not in below and (span["parent"] == root or span["parent"] in below):
                below.add(i)
                changed = True
    return sorted(below)
