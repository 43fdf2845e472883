"""Replacement policies for set-associative caches.

Policies operate on one cache set at a time.  Each policy owns a small
per-set state object created by :meth:`new_state`; the cache calls
:meth:`on_hit` / :meth:`on_fill` to record use and :meth:`victim` to pick
the way to evict.  LRU is the reference policy (and what the paper's
machines approximate); tree-PLRU, FIFO and a deterministic pseudo-random
policy exist for the replacement-policy ablation (experiment A1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError


class ReplacementPolicy(ABC):
    """Strategy interface; implementations must be deterministic."""

    name = "abstract"

    @abstractmethod
    def new_state(self, assoc: int):
        """Fresh per-set metadata for a set with ``assoc`` ways."""

    @abstractmethod
    def on_hit(self, state, way: int) -> None:
        """Record a hit in ``way``."""

    @abstractmethod
    def on_fill(self, state, way: int) -> None:
        """Record a fill into ``way``."""

    @abstractmethod
    def victim(self, state, assoc: int) -> int:
        """Way to evict from a full set."""


class LruPolicy(ReplacementPolicy):
    """True least-recently-used via a recency list (most recent first)."""

    name = "lru"

    def new_state(self, assoc: int):
        return []

    def on_hit(self, state, way: int) -> None:
        state.remove(way)
        state.insert(0, way)

    def on_fill(self, state, way: int) -> None:
        if way in state:
            state.remove(way)
        state.insert(0, way)

    def victim(self, state, assoc: int) -> int:
        return state[-1]


class FifoPolicy(ReplacementPolicy):
    """First-in first-out: hits do not refresh recency."""

    name = "fifo"

    def new_state(self, assoc: int):
        return []

    def on_hit(self, state, way: int) -> None:
        pass

    def on_fill(self, state, way: int) -> None:
        if way in state:
            state.remove(way)
        state.insert(0, way)

    def victim(self, state, assoc: int) -> int:
        return state[-1]


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU as used by real L1/L2 designs.

    The state is a list of tree bits; bit value 0 means "go left to find
    the pseudo-LRU way".  Requires power-of-two associativity.
    """

    name = "plru"

    def new_state(self, assoc: int):
        if assoc & (assoc - 1):
            raise ConfigurationError("tree-PLRU requires power-of-two associativity")
        return [0] * max(assoc - 1, 1)

    def _touch(self, bits, way: int, assoc: int) -> None:
        node = 0
        span = assoc
        offset = 0
        while span > 1:
            half = span // 2
            go_right = way >= offset + half
            # point the bit *away* from the touched way
            bits[node] = 0 if go_right else 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                offset += half
            span = half

    def on_hit(self, state, way: int) -> None:
        self._touch(state, way, len(state) + 1)

    def on_fill(self, state, way: int) -> None:
        self._touch(state, way, len(state) + 1)

    def victim(self, state, assoc: int) -> int:
        node = 0
        span = assoc
        offset = 0
        while span > 1:
            half = span // 2
            go_right = state[node] == 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                offset += half
            span = half
        return offset


class RandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random victim selection (xorshift LCG).

    Deterministic so experiments are reproducible run to run, which the
    measurement protocols rely on.  The generator state lives in the
    one-slot int64 array :attr:`rng`, which the array cache backend
    shares with the compiled datapath kernel, so victims drawn in C and
    in Python come from one stream in call order.
    """

    name = "random"

    def __init__(self, seed: int = 0x9E3779B9) -> None:
        self.rng = np.array([seed & 0xFFFFFFFF], dtype=np.int64)

    def new_state(self, assoc: int):
        return None

    def on_hit(self, state, way: int) -> None:
        pass

    def on_fill(self, state, way: int) -> None:
        pass

    def victim(self, state, assoc: int) -> int:
        x = int(self.rng[0])
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.rng[0] = x
        return x % assoc


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "plru": TreePlruPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name (``lru``/``fifo``/``plru``/``random``)."""
    try:
        return _POLICIES[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from exc


def policy_names() -> list:
    """Names of all registered replacement policies."""
    return sorted(_POLICIES)
