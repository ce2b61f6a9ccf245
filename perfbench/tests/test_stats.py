"""Self-tests of the benchmark's statistics and span arithmetic.

Run from the root of the checkout:

    python3 -m unittest discover -s perfbench/tests
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import stats  # noqa: E402


def span(start, end, parent=-1):
    return {"start": start, "end": end, "parent": parent}


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 10.2, 11.8]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / statistics.median(values))

    def test_known_values(self):
        # quantiles([1,2,3,4,5], n=4) with the default 'exclusive' method
        # is [1.5, 3.0, 4.5].
        self.assertAlmostEqual(stats.quartile_spread([1, 2, 3, 4, 5]), 3.0 / 3.0)

    def test_constant_series_has_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0, 2.0, 2.0, 2.0]), 0.0)

    def test_zero_median_is_infinite(self):
        self.assertTrue(math.isinf(stats.quartile_spread([0.0, 0.0, 0.0])))

    def test_median_even_count(self):
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)


class TailPercentile(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(10))))

    def test_eleven_samples_give_a_low_percentile_with_ten_beyond(self):
        p, value = stats.tail_percentile([float(i) for i in range(11)])
        # p9: rank ceil(0.99) = 1, the smallest sample, with 10 beyond.
        self.assertEqual((p, value), (9, 0.0))

    def test_hundred_samples_give_p90(self):
        values = [float(i) for i in range(1, 101)]
        p, value = stats.tail_percentile(values)
        self.assertEqual(p, 90)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_does_not_matter(self):
        values = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(stats.tail_percentile(values), stats.tail_percentile(sorted(values)))

    def test_at_least_ten_beyond_for_every_size(self):
        for n in range(11, 300):
            values = [float(i) for i in range(n)]
            p, value = stats.tail_percentile(values)
            self.assertGreaterEqual(sum(1 for v in values if v > value), 10, n)
            # One percentile higher would leave fewer than ten beyond.
            if p < 99:
                rank = math.ceil((p + 1) / 100 * n)
                self.assertLess(n - rank, 10, n)


class PairedRatios(unittest.TestCase):
    def test_each_value_over_its_neighbouring_references(self):
        self.assertEqual(stats.paired_ratios([3.0, 6.0], [1.0, 2.0, 4.0]), [2.0, 2.0])

    def test_a_host_slowdown_cancels(self):
        # The host slows by 1.5x from the third op on; op and reference
        # slow alike, so those ops' ratios equal the first op's.
        ratios = stats.paired_ratios([4.0, 5.0, 6.0], [1.0, 1.0, 1.5, 1.5])
        self.assertEqual(ratios[0], ratios[2])
        self.assertEqual(ratios[0], 4.0)

    def test_needs_one_more_reference_than_values(self):
        with self.assertRaises(ValueError):
            stats.paired_ratios([1.0, 2.0], [1.0, 1.0])


class UnionLength(unittest.TestCase):
    def test_disjoint(self):
        self.assertAlmostEqual(stats.union_length([(0, 1), (2, 4)]), 3.0)

    def test_overlapping_and_nested(self):
        self.assertAlmostEqual(stats.union_length([(0, 3), (1, 2), (2, 5)]), 5.0)

    def test_unsorted_and_touching(self):
        self.assertAlmostEqual(stats.union_length([(3, 4), (0, 1), (1, 3)]), 4.0)

    def test_empty_and_inverted(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertEqual(stats.union_length([(2, 2), (5, 3)]), 0.0)


class SelfTimes(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(1.0, 3.5)]), [2.5])

    def test_sequential_children(self):
        spans = [span(0, 10), span(1, 3, 0), span(4, 8, 0)]
        self.assertEqual(stats.self_times(spans), [4, 2, 4])

    def test_overlapping_children_count_once(self):
        # Two children on other threads overlap on [3, 5].
        spans = [span(0, 10), span(2, 5, 0), span(3, 7, 0)]
        self.assertEqual(stats.self_times(spans)[0], 10 - 5)

    def test_child_outliving_parent_is_clipped(self):
        # The child ends after its parent (a worker still running when
        # the caller's span closed); only [6, 8] lies inside the parent.
        spans = [span(0, 8), span(6, 12, 0)]
        self.assertEqual(stats.self_times(spans), [6, 6])

    def test_child_starting_before_parent_is_clipped(self):
        spans = [span(5, 10), span(2, 7, 0)]
        self.assertEqual(stats.self_times(spans)[0], 3)

    def test_grandchildren_do_not_reduce_the_root(self):
        spans = [span(0, 10), span(1, 9, 0), span(2, 4, 1)]
        self.assertEqual(stats.self_times(spans), [2, 6, 2])

    def test_child_covering_parent_leaves_zero(self):
        spans = [span(2, 4), span(1, 5, 0)]
        self.assertEqual(stats.self_times(spans)[0], 0)

    def test_self_times_sum_to_root_duration_for_a_proper_tree(self):
        spans = [span(0, 20), span(1, 9, 0), span(2, 4, 1), span(5, 8, 1), span(10, 19, 0)]
        self.assertAlmostEqual(sum(stats.self_times(spans)), 20)

    def test_descendants(self):
        spans = [span(0, 20), span(1, 9, 0), span(2, 4, 1), span(21, 22)]
        self.assertEqual(stats.descendants(spans, 0), [1, 2])
        self.assertEqual(stats.descendants(spans, 3), [])


if __name__ == "__main__":
    unittest.main()
