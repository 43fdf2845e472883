"""Prefetch engines: next-line, streamer, stride."""

import pytest

from repro.errors import ConfigurationError, MemoryError_
from repro.prefetch import (
    NextLinePrefetcher,
    StreamPrefetcher,
    StridePrefetcher,
)
from repro.prefetch.arraystate import (
    ArrayStreamPrefetcher,
    ArrayStridePrefetcher,
)


class TestNextLine:
    def test_prefetches_next_on_miss(self):
        engine = NextLinePrefetcher()
        assert engine.observe(10, was_miss=True) == [11]
        assert engine.stats.issued == 1

    def test_no_prefetch_on_hit(self):
        engine = NextLinePrefetcher()
        assert engine.observe(10, was_miss=False) == []

    def test_stops_at_page_boundary(self):
        engine = NextLinePrefetcher(lines_per_page=64)
        assert engine.observe(63, was_miss=True) == []
        assert engine.observe(64, was_miss=True) == [65]

    def test_reset_clears_stats(self):
        engine = NextLinePrefetcher()
        engine.observe(10, True)
        engine.reset()
        assert engine.stats.issued == 0


class TestStreamer:
    def test_trains_then_runs_ahead(self):
        engine = StreamPrefetcher(degree=2, distance=8,
                                  confidence_threshold=2)
        issued = []
        for line in range(10):
            issued.extend(engine.observe(line, was_miss=True))
        assert issued  # prefetches happened
        assert all(candidate > 0 for candidate in issued)
        # never prefetch behind the ascending stream start
        assert min(issued) >= 2

    def test_frontier_never_repeats(self):
        engine = StreamPrefetcher(degree=2, distance=8)
        issued = []
        for line in range(32):
            issued.extend(engine.observe(line, was_miss=True))
        assert len(issued) == len(set(issued))

    def test_descending_stream(self):
        engine = StreamPrefetcher(degree=2, distance=4)
        issued = []
        for line in range(40, 20, -1):
            issued.extend(engine.observe(line, was_miss=True))
        assert issued
        assert all(candidate < 40 for candidate in issued)

    def test_never_crosses_page(self):
        engine = StreamPrefetcher(degree=4, distance=16, lines_per_page=64)
        issued = []
        for line in range(50, 64):
            issued.extend(engine.observe(line, was_miss=True))
        assert all(candidate <= 63 for candidate in issued)

    def test_random_pattern_stays_quiet(self):
        engine = StreamPrefetcher(confidence_threshold=3)
        issued = []
        for line in (5, 500, 17, 9000, 3, 720):
            issued.extend(engine.observe(line, was_miss=True))
        assert issued == []

    def test_tracker_eviction_is_lru(self):
        engine = StreamPrefetcher(trackers=2)
        engine.observe(0, True)      # page 0
        engine.observe(64, True)     # page 1
        engine.observe(128, True)    # page 2 evicts page 0 tracker
        assert len(engine._table) == 2
        assert 0 not in engine._table

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            StreamPrefetcher(degree=0)
        with pytest.raises(ConfigurationError):
            StreamPrefetcher(confidence_threshold=0)

    def test_reset(self):
        engine = StreamPrefetcher()
        for line in range(8):
            engine.observe(line, True)
        engine.reset()
        assert engine._table == {}
        assert engine.stats.issued == 0


class TestStride:
    def test_detects_constant_stride(self):
        engine = StridePrefetcher(degree=2, confidence_threshold=2)
        issued = []
        for k in range(6):
            issued.extend(engine.observe(100 + 7 * k, True, stream_id=1))
        assert issued
        assert all((candidate - 100) % 7 == 0 for candidate in issued)

    def test_streams_tracked_per_site(self):
        engine = StridePrefetcher(confidence_threshold=2)
        # two interleaved sites with different strides both train
        issued_a, issued_b = [], []
        for k in range(6):
            issued_a.extend(engine.observe(7 * k, True, stream_id=1))
            issued_b.extend(engine.observe(1000 + 3 * k, True, stream_id=2))
        assert issued_a and issued_b

    def test_zero_stride_ignored(self):
        engine = StridePrefetcher()
        for _ in range(10):
            assert engine.observe(42, True, stream_id=1) == []

    def test_huge_stride_ignored(self):
        engine = StridePrefetcher(max_stride=64)
        issued = []
        for k in range(6):
            issued.extend(engine.observe(10_000 * k, True, stream_id=1))
        assert issued == []

    def test_stride_change_resets_confidence(self):
        engine = StridePrefetcher(confidence_threshold=3)
        lines = [0, 7, 14, 20, 23, 25]  # stride breaks at 20
        issued = []
        for line in lines:
            issued.extend(engine.observe(line, True, stream_id=1))
        assert issued == []

    def test_negative_candidates_dropped(self):
        engine = StridePrefetcher(degree=4, confidence_threshold=1)
        issued = []
        for line in (20, 10, 0):
            issued.extend(engine.observe(line, True, stream_id=1))
        assert all(candidate >= 0 for candidate in issued)

    def test_site_table_bounded(self):
        engine = StridePrefetcher(sites=4)
        for site in range(20):
            engine.observe(site * 100, True, stream_id=site)
        assert len(engine._table) <= 4


@pytest.mark.parametrize("cls", [ArrayStreamPrefetcher,
                                 ArrayStridePrefetcher])
def test_array_engines_train_only_in_the_kernel(cls):
    # the dict-table parent's observe would train a table the kernel
    # never reads, so the array variant refuses instead
    engine = cls()
    with pytest.raises(MemoryError_, match="compiled datapath"):
        engine.observe(10, True, stream_id=1)
    assert engine._table == {}
    assert engine.stats.issued == 0
