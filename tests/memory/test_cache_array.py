"""The array cache backend: construction, reset and inspection.

Array state changes only in the compiled datapath kernel, reached
through a :class:`~repro.memory.hierarchy.CorePort`.  Here, under every
policy: hypothesis drives an array L1 and a ``ways`` L1 through
identical port calls and requires every answer, statistic and piece of
final state to match, and the array occupancy counter to agree with a
recount at every step.  Also: the Python-side transition methods refuse
array state, :meth:`Cache.clear` resets kernel-filled state in place,
and the dict and backend-selection rules.  The full interleaving of
plans, single-line calls and port calls on every level is checked by
``tests/engine/test_policy_datapath.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import ckernel
from repro.errors import ConfigurationError, MemoryError_
from repro.memory.cache import Cache, CacheConfig, CacheStats
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memory.numa import Topology
from repro.memory.replacement import policy_names
from repro.prefetch.control import ALL_DISABLED_MASK

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


def _config(policy: str) -> CacheConfig:
    # 4 sets x 4 ways: small enough that fuzzed streams conflict often
    return CacheConfig("test", 1024, line_bytes=64, assoc=4, policy=policy)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "lookup_w", "fill", "fill_d",
                         "invalidate", "mark_dirty", "contains"]),
        st.integers(min_value=0, max_value=23),
    ),
    max_size=120,
)


def _apply(cache: Cache, op: str, line: int):
    if op == "lookup":
        return cache.lookup_update(line)
    if op == "lookup_w":
        return cache.lookup_update(line, mark_dirty=True)
    if op == "fill":
        return cache.fill(line)
    if op == "fill_d":
        return cache.fill(line, dirty=True)
    if op == "invalidate":
        return cache.invalidate(line)
    if op == "mark_dirty":
        return cache.mark_dirty(line)
    return cache.contains(line)


needs_kernel = pytest.mark.skipif(not ckernel.available(),
                                  reason="C kernel unavailable")


def _hierarchy_config(policy: str) -> HierarchyConfig:
    return HierarchyConfig(
        l1=_config(policy),
        l2=CacheConfig("L2", 2048, assoc=4),
        l3=CacheConfig("L3", 8192, assoc=8),
        dram=DramConfig(),
    )


def _port(policy: str, backend: str):
    """Port 0 of a hierarchy whose caches all use ``backend``.

    Hardware prefetchers are off, so only the ops touch the caches.
    """
    config = _hierarchy_config(policy)
    hier = MemoryHierarchy(config, Topology(1, 1),
                           array=backend == "array")
    if backend == "ways":
        # swapped before the port captures the caches
        hier.l1 = [Cache(config.l1, backend="ways")]
        hier.l2 = [Cache(config.l2, backend="ways")]
        hier.l3 = [Cache(config.l3, backend="ways")]
    hier.prefetch_control.write_msr(ALL_DISABLED_MASK)
    port = hier.port(0)
    assert port.l1._backend == backend
    return port


_PORT_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "ntstore", "prefetch", "flush",
                         "contains"]),
        st.integers(min_value=0, max_value=23),
    ),
    max_size=120,
)


def _apply_port(port, op: str, line: int):
    if op == "prefetch":
        return vars(port.software_prefetch([line])).copy()
    if op == "flush":
        return vars(port.flush_lines([line])).copy()
    if op == "contains":
        return port.l1.contains(line)
    return vars(port.access_lines([line], is_write=op != "load",
                                  nt=op == "ntstore")).copy()


def _state(cache: Cache):
    return (
        sorted(cache.resident_lines()),
        sorted(cache.dirty_lines()),
        cache.occupancy(),
        vars(cache.stats).copy(),
    )


@needs_kernel
@pytest.mark.parametrize("policy", policy_names())
@given(ops=_PORT_OPS)
@settings(max_examples=120, deadline=None)
def test_array_backend_matches_ways_backend(policy, ops):
    ways, array = _port(policy, "ways"), _port(policy, "array")
    for step, (op, line) in enumerate(ops):
        expected = _apply_port(ways, op, line)
        got = _apply_port(array, op, line)
        assert got == expected, (
            f"step {step}: {op}({line}) -> {got!r}, ways gave {expected!r}"
        )
    assert _state(array.l1) == _state(ways.l1)
    assert _state(array.l2) == _state(ways.l2)
    assert _state(array.l3) == _state(ways.l3)


@needs_kernel
@pytest.mark.parametrize("policy", policy_names())
@given(ops=_PORT_OPS)
@settings(max_examples=60, deadline=None)
def test_occupancy_counter_matches_recount(policy, ops):
    port = _port(policy, "array")
    for op, line in ops:
        _apply_port(port, op, line)
        for cache in (port.l1, port.l2, port.l3):
            assert cache.occupancy() == sum(1 for _ in cache.resident_lines())


@pytest.mark.parametrize("op", ["lookup", "fill", "invalidate",
                                "mark_dirty"])
def test_python_transitions_refuse_array_state(op):
    cache = Cache(_config("lru"), backend="array")
    with pytest.raises(MemoryError_, match="compiled datapath"):
        _apply(cache, op, 3)
    # nothing was half-applied before the refusal
    assert cache.stats == CacheStats()
    assert list(cache.resident_lines()) == []


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_dict_backend_occupancy_counter_matches_recount(ops):
    cache = Cache(_config("lru"))  # default: dict fast path
    assert cache._fast
    for op, line in ops:
        _apply(cache, op, line)
        assert cache.occupancy() == sum(1 for _ in cache.resident_lines())


@needs_kernel
@pytest.mark.parametrize("policy", policy_names())
def test_clear_resets_array_state(policy):
    hier = MemoryHierarchy(_hierarchy_config(policy), Topology(1, 1),
                           array=True)
    port = hier.port(0)
    cache = port.l1
    assert cache._backend == "array"
    for line in range(12):
        port.access_lines([line], is_write=line % 2 == 0)
    assert cache.occupancy() > 0
    assert list(cache.dirty_lines())
    cache.clear()
    assert cache.occupancy() == 0
    assert list(cache.resident_lines()) == []
    assert list(cache.dirty_lines()) == []
    # and it is immediately usable again: the kernel's view of the
    # arrays survived the in-place reset
    port.access_lines([5], is_write=False)
    assert cache.contains(5)
    assert cache.occupancy() == 1


def test_dict_backend_requires_lru():
    with pytest.raises(ConfigurationError):
        Cache(_config("fifo"), backend="dict")


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        Cache(_config("lru"), backend="hash")
