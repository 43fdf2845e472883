"""The compiled datapath under every replacement policy, state for state.

The C kernel is the only code that changes array state, for LRU, FIFO,
tree-PLRU and random victims alike.  It is reached three ways: plans,
single-line demand accesses, and :class:`~repro.memory.hierarchy.CorePort`
calls (multi-line accesses, flushes, software prefetches, NT stores),
which the port runs as one-run plans.  The property below interleaves
all three on one array hierarchy and requires the result to match a
second hierarchy driven through the per-line port path on the ``ways``
backend: per level the tags, dirty bits, resident and dirty line sets,
recency order (LRU/FIFO stamps), PLRU tree bits, random-generator
state, :class:`~repro.memory.cache.CacheStats` and an occupancy counter
that agrees with a recount, plus the port's batch totals, prefetched
lines, TLB pages and statistics, per-engine prefetch statistics, and
the DRAM counters.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import AccessPlan, ckernel
from repro.machine.presets import tiny_test_machine
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.numa import Topology
from repro.memory.replacement import policy_names

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

needs_kernel = pytest.mark.skipif(not ckernel.available(),
                                  reason="C kernel unavailable")

_LEVELS = ("l1", "l2", "l3")
_KINDS = ("load", "store", "ntstore", "prefetch", "flush")


def _config(policy: str, level: str) -> HierarchyConfig:
    # four sets per level, so short fuzzed streams conflict often
    caches = {
        "l1": CacheConfig("L1d", 512, assoc=2),
        "l2": CacheConfig("L2", 1024, assoc=4),
        "l3": CacheConfig("L3", 2048, assoc=8),
    }
    caches[level] = CacheConfig(caches[level].name,
                                caches[level].size_bytes,
                                assoc=caches[level].assoc, policy=policy)
    dram = DramConfig(channels=1, bytes_per_cycle_total=8.0,
                      per_core_bytes_per_cycle=6.0, latency_cycles=100)
    return HierarchyConfig(dram=dram, **caches)


def _array_side(config: HierarchyConfig, mask: int):
    hier = MemoryHierarchy(config, Topology(1, 1), array=True)
    assert hier.array_mode
    hier.prefetch_control.write_msr(mask)
    port = hier.port(0)
    return hier, port, port.datapath


def _ways_side(config: HierarchyConfig, mask: int):
    hier = MemoryHierarchy(config, Topology(1, 1))
    # the generic policy path for every level, LRU included (swapped
    # before the port captures the caches)
    hier.l1 = [Cache(config.l1, backend="ways")]
    hier.l2 = [Cache(config.l2, backend="ways")]
    hier.l3 = [Cache(config.l3, backend="ways")]
    hier.prefetch_control.write_msr(mask)
    return hier, hier.port(0)


def _emissions(runs):
    for kind, site_id, lines in runs:
        yield SimpleNamespace(kind=kind, site_id=site_id), lines, None


def _port_call(port, kind, site_id, lines):
    if kind == "prefetch":
        port.software_prefetch(lines)
    elif kind == "flush":
        port.flush_lines(lines)
    else:
        port.access_lines(lines, is_write=kind in ("store", "ntstore"),
                          nt=kind == "ntstore", stream_id=site_id)


def _policy_state(cache: Cache) -> list:
    """Per-set replacement state in the ways backend's terms."""
    if cache._backend == "ways":
        kind = cache._policy.name
        if kind == "random":
            return [int(cache._policy.rng[0])]
        return [list(state) for state in cache._pstate]
    kind = cache._akind
    if kind == "random":
        return [int(cache._rng[0])]
    if kind == "plru":
        return [row.tolist() for row in cache._plru]
    # LRU/FIFO: the ways that ever received a stamp, most recent first
    # (the recency list of LruPolicy/FifoPolicy)
    return [[int(w) for w in np.argsort(-row, kind="stable") if row[w]]
            for row in cache._stamp]


def _cache_state(cache: Cache) -> tuple:
    if cache._backend == "ways":
        tags = [[-1 if t is None else t for t in row] for row in cache._lines]
        dirty = [[bool(d) and t is not None for d, t in zip(drow, trow)]
                 for drow, trow in zip(cache._dirty, cache._lines)]
    else:
        tags = cache._tags.tolist()
        dirty = (cache._adirty & (cache._tags != -1)).tolist()
    resident = sorted(cache.resident_lines())
    assert cache.occupancy() == len(resident), cache
    return (tags, dirty, resident, sorted(cache.dirty_lines()),
            _policy_state(cache), vars(cache.stats).copy(),
            cache.occupancy())


_RUN = st.tuples(
    st.sampled_from(_KINDS),
    st.integers(min_value=0, max_value=3),        # site id
    st.lists(st.integers(min_value=0, max_value=160), min_size=1,
             max_size=12),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("plan"), st.lists(_RUN, min_size=1, max_size=5)),
        st.tuples(st.just("single"),
                  st.tuples(st.integers(min_value=0, max_value=160),
                            st.booleans())),
        st.tuples(st.just("port"), _RUN),
    ),
    min_size=1, max_size=25,
)


@needs_kernel
@pytest.mark.parametrize("level", _LEVELS)
@pytest.mark.parametrize("policy", policy_names())
@given(ops=_OPS, mask=st.integers(min_value=0, max_value=15))
@settings(max_examples=25, deadline=None)
def test_c_calls_interleaved_with_port_calls_match_ways_backend(
        policy, level, ops, mask):
    config = _config(policy, level)
    fast_hier, fast_port, datapath = _array_side(config, mask)
    ref_hier, ref_port = _ways_side(config, mask)
    for step, (op, arg) in enumerate(ops):
        if op == "plan":
            plan = AccessPlan.from_emissions(_emissions(arg), own_node=0)
            datapath.execute_plan(plan)
            for run in arg:
                _port_call(ref_port, *run)
        elif op == "single":
            line, is_write = arg
            datapath.execute_single(line, is_write, None)
            ref_port.access_lines([line], is_write=is_write)
        else:
            _port_call(fast_port, *arg)
            _port_call(ref_port, *arg)
        for name in _LEVELS:
            got = _cache_state(getattr(fast_hier, name)[0])
            want = _cache_state(getattr(ref_hier, name)[0])
            assert got == want, f"step {step} {op}: {name} diverged"
        assert fast_port.totals == ref_port.totals, f"step {step} {op}"
        assert sorted(fast_port._prefetched) == sorted(ref_port._prefetched)
        assert fast_port.tlb.page_sets() == ref_port.tlb.page_sets()
        assert fast_port.tlb.stats == ref_port.tlb.stats
        assert ([e.stats for e in fast_port.engines]
                == [e.stats for e in ref_port.engines])
    counters = [(d.counters.cas_reads, d.counters.cas_writes)
                for d in fast_hier.dram]
    assert counters == [(d.counters.cas_reads, d.counters.cas_writes)
                        for d in ref_hier.dram]


@needs_kernel
def test_port_opened_before_core_still_runs_the_c_kernel():
    machine = tiny_test_machine()
    port = machine.hierarchy.port(0)
    port.access_lines(list(range(32)), is_write=False)
    assert port.datapath._ctx is not None  # the port call ran in C
    assert port.l1.occupancy() == len(list(port.l1.resident_lines())) > 0
    core = machine.core(0)
    # the representation was chosen when the machine was built, not by
    # whichever of port() and core() came first; the core shares the
    # port's datapath
    assert core.port is port
    assert port.l1._backend == "array"
    assert core._datapath is port.datapath
    from repro.kernels import Daxpy
    from repro.measure import measure_kernel
    measure_kernel(machine, Daxpy(), 256, reps=1)


def test_machine_engine_is_fixed_at_construction():
    machine = tiny_test_machine(engine="reference")
    assert machine.engine == "reference"
    assert not machine.hierarchy.array_mode
    with pytest.raises(AttributeError):
        machine.engine = "fast"
