"""Memory hierarchy: demand paths, writeback chains, NT stores,
prefetch integration, and traffic-conservation properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memory.cache import CacheConfig
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.numa import NumaConfig, Topology
from repro.prefetch import PrefetchControl


def make_hierarchy(prefetch=False, sockets=1, cores=2):
    config = HierarchyConfig(
        l1=CacheConfig("L1", 512, assoc=2, latency_cycles=4),
        l2=CacheConfig("L2", 2048, assoc=4, latency_cycles=12),
        l3=CacheConfig("L3", 8192, assoc=8, latency_cycles=30),
        dram=DramConfig(channels=1, bytes_per_cycle_total=8.0,
                        per_core_bytes_per_cycle=4.0, latency_cycles=100),
        numa=NumaConfig(),
    )
    factory = None if prefetch else list
    return MemoryHierarchy(config, Topology(sockets, cores),
                           prefetch_factory=factory)


class TestConfigValidation:
    def test_mismatched_line_size_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(
                l1=CacheConfig("L1", 512, line_bytes=32, assoc=2),
                l2=CacheConfig("L2", 2048, assoc=4),
                l3=CacheConfig("L3", 8192, assoc=8),
                dram=DramConfig(),
            )

    def test_array_state_without_kernel_rejected(self, monkeypatch):
        from repro.engine import ckernel

        monkeypatch.setattr(ckernel, "available", lambda: False)
        config = make_hierarchy().config
        with pytest.raises(ConfigurationError, match="kernel"):
            MemoryHierarchy(config, Topology(1, 1), array=True)
        # per-line state needs no kernel
        assert not MemoryHierarchy(config, Topology(1, 1)).array_mode

    def test_shrinking_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(
                l1=CacheConfig("L1", 4096, assoc=2),
                l2=CacheConfig("L2", 2048, assoc=4),
                l3=CacheConfig("L3", 8192, assoc=8),
                dram=DramConfig(),
            )


class TestDemandPath:
    def test_cold_miss_counts_dram_read_and_fills_all_levels(self):
        hier = make_hierarchy()
        port = hier.port(0)
        stats = port.access_lines([100], is_write=False)
        assert stats.dram_reads == 1
        assert hier.l1[0].contains(100)
        assert hier.l2[0].contains(100)
        assert hier.l3[0].contains(100)
        assert hier.dram[0].counters.cas_reads == 1

    def test_l1_hit_after_fill(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([100], is_write=False)
        stats = port.access_lines([100], is_write=False)
        assert stats.l1_hits == 1
        assert stats.dram_reads == 0

    def test_l2_hit_path(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([100], is_write=False)
        hier.l1[0].invalidate(100)
        stats = port.access_lines([100], is_write=False)
        assert stats.l2_hits == 1
        assert hier.l1[0].contains(100)

    def test_l3_hit_path(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([100], is_write=False)
        hier.l1[0].invalidate(100)
        hier.l2[0].invalidate(100)
        stats = port.access_lines([100], is_write=False)
        assert stats.l3_hits == 1

    def test_write_marks_l1_dirty(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([100], is_write=True)
        assert 100 in set(hier.l1[0].dirty_lines())

    def test_write_miss_causes_rfo_read(self):
        hier = make_hierarchy()
        port = hier.port(0)
        stats = port.access_lines([100], is_write=True)
        assert stats.dram_reads == 1  # write-allocate reads the line

    def test_private_caches_are_private(self):
        hier = make_hierarchy()
        hier.port(0).access_lines([100], is_write=False)
        assert not hier.l1[1].contains(100)
        # but the shared L3 serves core 1
        stats = hier.port(1).access_lines([100], is_write=False)
        assert stats.l3_hits == 1


class TestWritebacks:
    def test_dirty_eviction_chain_reaches_dram(self):
        hier = make_hierarchy()
        port = hier.port(0)
        # dirty a line, then stream enough lines through to evict it
        # from every level (footprint > L3's 128 lines)
        port.access_lines([0], is_write=True)
        stats = port.access_lines(list(range(1, 300)), is_write=False)
        total_wb = stats.writebacks
        assert total_wb >= 1
        assert hier.dram[0].counters.cas_writes == total_wb

    def test_clean_evictions_cost_no_dram_writes(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines(list(range(300)), is_write=False)
        assert hier.dram[0].counters.cas_writes == 0


class TestNtStores:
    def test_nt_store_bypasses_caches(self):
        hier = make_hierarchy()
        port = hier.port(0)
        stats = port.access_lines([50], is_write=True, nt=True)
        assert stats.nt_lines == 1
        assert stats.dram_reads == 0           # no RFO
        assert hier.dram[0].counters.cas_writes == 1
        assert not hier.l1[0].contains(50)

    def test_nt_store_invalidates_stale_copies(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([50], is_write=False)
        port.access_lines([50], is_write=True, nt=True)
        assert not hier.l1[0].contains(50)
        assert not hier.l3[0].contains(50)


class TestFlushAndPrefetchOps:
    def test_flush_writes_dirty_line(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([7], is_write=True)
        stats = port.flush_lines([7])
        assert stats.writebacks == 1
        assert not hier.l1[0].contains(7)

    def test_flush_clean_line_no_write(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([7], is_write=False)
        stats = port.flush_lines([7])
        assert stats.writebacks == 0

    def test_software_prefetch_fills_and_next_access_hits(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.software_prefetch([9])
        stats = port.access_lines([9], is_write=False)
        assert stats.l1_hits == 1


class TestHardwarePrefetchIntegration:
    def test_stream_triggers_prefetch_traffic(self):
        hier = make_hierarchy(prefetch=True)
        port = hier.port(0)
        stats = port.access_lines(list(range(64)), is_write=False)
        assert stats.hw_prefetch_issued > 0
        assert stats.prefetch_useful > 0
        # covered lines hit L2 instead of missing to DRAM
        assert stats.l2_hits > 0

    def test_disabled_control_stops_engines(self):
        hier = make_hierarchy(prefetch=True)
        hier.prefetch_control.disable_all()
        stats = hier.port(0).access_lines(list(range(64)), is_write=False)
        assert stats.hw_prefetch_issued == 0
        assert stats.dram_reads == 64

    def test_total_dram_reads_conserved_for_streams(self):
        """Prefetch must not change total line fetches for a fully
        consumed contiguous stream (useful prefetches replace demand)."""
        on = make_hierarchy(prefetch=True)
        on.port(0).access_lines(list(range(64)), is_write=False)
        off = make_hierarchy(prefetch=False)
        off.port(0).access_lines(list(range(64)), is_write=False)
        reads_on = on.dram[0].counters.cas_reads
        reads_off = off.dram[0].counters.cas_reads
        assert reads_off == 64
        assert reads_on >= 64
        assert reads_on <= 64 + 16  # bounded run-ahead overfetch


class TestBust:
    def test_bust_clears_everything(self):
        hier = make_hierarchy(prefetch=True)
        port = hier.port(0)
        port.access_lines(list(range(32)), is_write=True)
        hier.bust()
        assert hier.l1[0].occupancy() == 0
        assert hier.l3[0].occupancy() == 0
        stats = port.access_lines([0], is_write=False)
        assert stats.dram_reads == 1

    def test_writeback_all_counts_dirty_lines(self):
        hier = make_hierarchy()
        port = hier.port(0)
        port.access_lines([1, 2, 3], is_write=True)
        written = hier.writeback_all()
        assert written == 3
        assert hier.dram[0].counters.cas_writes == 3


class TestNuma:
    def test_remote_access_counted_on_home_node(self):
        hier = make_hierarchy(sockets=2, cores=2)
        port = hier.port(0)  # socket 0
        stats = port.access_lines([10], is_write=False, node=1)
        assert stats.remote_dram_lines == 1
        assert hier.dram[1].counters.cas_reads == 1
        assert hier.dram[0].counters.cas_reads == 0

    def test_local_access_not_remote(self):
        hier = make_hierarchy(sockets=2, cores=2)
        port = hier.port(2)  # socket 1
        stats = port.access_lines([10], is_write=False, node=1)
        assert stats.remote_dram_lines == 0
        assert hier.dram[1].counters.cas_reads == 1

    def test_unknown_core_rejected(self):
        hier = make_hierarchy()
        with pytest.raises(ConfigurationError):
            hier.port(99)


class TestTrafficConservation:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                              st.booleans()),
                    min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_reads_bounded_by_accesses_and_cover_unique_lines(self, stream):
        """Without prefetchers: every unique line is read exactly once
        unless evicted and re-touched; total reads never exceed total
        accesses; writes never exceed reads (write-allocate)."""
        hier = make_hierarchy(prefetch=False)
        port = hier.port(0)
        for line, is_write in stream:
            port.access_lines([line], is_write=is_write)
        reads = hier.dram[0].counters.cas_reads
        writes = hier.dram[0].counters.cas_writes
        unique = len({line for line, _ in stream})
        assert reads >= unique
        assert reads <= len(stream)
        assert writes <= reads

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_small_working_set_reads_exactly_unique(self, lines):
        """A working set that fits L1 is read once per unique line."""
        hier = make_hierarchy(prefetch=False)
        small = [line % 8 for line in lines]  # 8 lines << L1 capacity
        port = hier.port(0)
        for line in small:
            port.access_lines([line], is_write=False)
        assert hier.dram[0].counters.cas_reads == len(set(small))
