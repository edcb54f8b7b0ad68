"""Tests for traffic meters."""

import numpy as np
import pytest

from repro.network import TrafficMeter


@pytest.fixture
def meter():
    m = TrafficMeter("t")
    # 3 LUs in second 0, 1 in second 1, none in second 2
    m.count(0.1, "R1", size_bytes=10)
    m.count(0.5, "R1", size_bytes=10)
    m.count(0.9, "B1", size_bytes=10)
    m.count(1.5, "B1", size_bytes=10)
    return m


class TestCounting:
    def test_total(self, meter):
        assert meter.total == 4

    def test_total_bytes(self, meter):
        assert meter.total_bytes == 40

    def test_per_region(self, meter):
        assert meter.per_region() == {"R1": 2, "B1": 2}

    def test_region_total(self, meter):
        assert meter.region_total("R1") == 2
        assert meter.region_total("R9") == 0

    def test_total_for_regions(self, meter):
        assert meter.total_for_regions(["R1", "B1"]) == 4
        assert meter.total_for_regions(["R1"]) == 2


class TestSeries:
    def test_per_second(self, meter):
        series = meter.per_second(3.0)
        assert list(series.values) == [3.0, 1.0, 0.0]

    def test_accumulated(self, meter):
        series = meter.accumulated(3.0)
        assert list(series.values) == [3.0, 4.0, 4.0]

    def test_custom_bin_width(self, meter):
        # Bins are right-closed: (0, 1.5] holds all four events at
        # 0.1 / 0.5 / 0.9 / 1.5; (1.5, 3.0] is empty.
        series = meter.per_second(3.0, bin_width=1.5)
        assert list(series.values) == [4.0, 0.0]

    def test_mean_rate(self, meter):
        assert meter.mean_rate(2.0) == 2.0

    def test_mean_rate_excludes_out_of_window(self, meter):
        meter.count(100.0, "R1")
        assert meter.mean_rate(2.0) == 2.0

    def test_mean_rate_invalid_duration(self, meter):
        with pytest.raises(ValueError):
            meter.mean_rate(0.0)

    def test_unsorted_events_binned_correctly(self):
        m = TrafficMeter()
        m.count(2.5, "R1")
        m.count(0.5, "R1")
        series = m.per_second(3.0)
        assert list(series.values) == [1.0, 0.0, 1.0]

    def test_empty_meter(self):
        m = TrafficMeter()
        assert m.total == 0
        assert m.per_second(2.0).total() == 0.0


class TestBinnedRetention:
    """bin_width mode: bounded memory, identical series where resolvable."""

    @pytest.fixture
    def binned(self):
        m = TrafficMeter("b", bin_width=1.0)
        m.count(0.1, "R1", size_bytes=10)
        m.count(0.5, "R1", size_bytes=10)
        m.count(0.9, "B1", size_bytes=10)
        m.count(1.5, "B1", size_bytes=10)
        return m

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            TrafficMeter("b", bin_width=0.0)

    def test_totals_preserved(self, binned):
        assert binned.total == 4
        assert binned.total_bytes == 40
        assert binned.per_region() == {"R1": 2, "B1": 2}

    def test_per_second_matches_exact_mode(self, binned, meter):
        assert list(binned.per_second(3.0).values) == list(
            meter.per_second(3.0).values
        )

    def test_accumulated_matches_exact_mode(self, binned, meter):
        assert list(binned.accumulated(3.0).values) == list(
            meter.accumulated(3.0).values
        )

    def test_rebin_to_integer_multiple(self, binned):
        series = binned.per_second(4.0, bin_width=2.0)
        assert [t for t, _ in series] == [0.0, 2.0]
        assert list(series.values) == [4.0, 0.0]

    def test_non_multiple_width_raises(self, binned):
        with pytest.raises(ValueError, match="integer multiple"):
            binned.per_second(3.0, bin_width=1.5)

    def test_finer_width_raises(self, binned):
        with pytest.raises(ValueError, match="integer multiple"):
            binned.per_second(3.0, bin_width=0.5)

    def test_mean_rate(self, binned):
        assert binned.mean_rate(2.0) == 2.0

    def test_mean_rate_excludes_later_bins(self, binned):
        binned.count(100.0, "R1")
        assert binned.mean_rate(2.0) == 2.0

    def test_events_past_duration_excluded(self):
        m = TrafficMeter("b", bin_width=1.0)
        m.count(0.5, "R1")
        m.count(9.5, "R1")
        assert list(m.per_second(2.0).values) == [1.0, 0.0]

    def test_memory_bounded(self):
        m = TrafficMeter("b", bin_width=1.0)
        for i in range(10_000):
            m.count(i * 0.001, "R1")  # all within (0, 10]
        assert m.total == 10_000
        assert len(m._bins) <= 11


def _eager(node_ids, counts):
    """The per-node dict the columnar engine used to build eagerly."""
    return {
        nid: int(count)
        for nid, count in zip(node_ids, np.asarray(counts).tolist())
        if count
    }


class TestArrayNodeCounts:
    """add_counts(node_counts=(ids, counts)): folded in on first read."""

    IDS = [f"n{i:03d}" for i in range(12)]
    COUNTS = np.array([3, 0, 1, 0, 0, 7, 2, 0, 1, 1, 0, 4], dtype=np.int64)

    def _meter(self, ids=None, counts=None):
        m = TrafficMeter("c", bin_width=1.0)
        m.add_counts(
            messages=int(self.COUNTS.sum()),
            node_counts=(
                self.IDS if ids is None else ids,
                self.COUNTS if counts is None else counts,
            ),
        )
        return m

    def test_per_node_equals_the_eager_dict_in_order(self):
        got = self._meter().per_node()
        want = _eager(self.IDS, self.COUNTS)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is int for v in got.values())

    def test_zero_rows_omitted(self):
        got = self._meter().per_node()
        assert "n001" not in got and "n010" not in got
        assert len(got) == int(np.count_nonzero(self.COUNTS))

    def test_node_total_including_unknown_ids(self):
        m = self._meter()
        assert m.node_total("n005") == 7
        assert m.node_total("n001") == 0  # zero row
        assert m.node_total("nobody") == 0
        assert m.per_node() == _eager(self.IDS, self.COUNTS)

    def test_all_zero_counts(self):
        m = self._meter(counts=np.zeros(len(self.IDS), dtype=np.int64))
        assert m.per_node() == {}

    def test_second_add_counts_merges(self):
        m = self._meter()
        more_ids = ["n011", "n001", "z000", "n000"]
        more = np.array([1, 2, 5, 0], dtype=np.int64)
        m.add_counts(messages=8, node_counts=(more_ids, more))
        want = dict(_eager(self.IDS, self.COUNTS))
        for nid, count in _eager(more_ids, more).items():
            want[nid] = want.get(nid, 0) + count
        assert list(m.per_node().items()) == list(want.items())
        assert m.node_total("n011") == 5
        assert m.node_total("z000") == 5
        assert m.total == int(self.COUNTS.sum()) + 8

    def test_count_after_arrays_keeps_order(self):
        m = self._meter()
        m.count(0.5, "R1", node_id="new")
        m.count(0.6, "R1", node_id="n000")
        want = dict(_eager(self.IDS, self.COUNTS))
        want["new"] = 1
        want["n000"] += 1
        assert list(m.per_node().items()) == list(want.items())

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="node ids"):
            self._meter(ids=self.IDS[:-1])

    def test_repeated_reads_are_stable(self):
        m = self._meter()
        first = m.per_node()
        assert m.per_node() == first
        assert m.node_total("n000") == 3
