"""Seeded inputs for the three workloads.

Every input is a function of the seed alone.  Seed 0 reproduces the
experiments' own points exactly; other seeds move sizes only inside the
cache-residency band a point was chosen to probe, so a seed changes the
inputs but not the regime, nor (much) the amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

PRESET = "snb-ep"
#: the paper platform: Sandy Bridge-EP with caches at 1/8 size
FIGURES_SCALE = 0.125
#: irregular points keep their regime relative to the caches at any
#: scale; 1/64 keeps E2's narrow gather band inside the (1/256) L2
IRREGULAR_SCALE = 1 / 64
SERVICE_SCALE = 0.125
#: sizes of a seeded point stay within this factor of the grid's
BAND = 0.05
#: Spmv's default pattern seed, which E2 uses
SPMV_SEED = 0xC0FFEE


def figures_plan(seed: int):
    """F4 daxpy cold/warm, F5 dgemv row/col, F6 dgemm warm, F7 fft
    warm/cold: the grids of ``repro.sweep.grids`` at 1/8 scale, 32
    points.  F4, F5 and F7 are the full grids, so every residency
    regime is measured; F6 is the quick grid (orders 32 and 64), since
    its orders 96 and 128 alone cost more than the other 32 points
    together and two passes of all 38 points do not fit in a run.

    Other seeds redraw the capacity-probing sizes (daxpy working sets,
    dgemv footprints) within +-BAND of the grid's.  dgemm orders and FFT
    lengths are not capacity probes (orders must be multiples of 32 and
    lengths powers of two), so they stay as the grid has them."""
    from repro.machine.ref import MachineRef
    from repro.sweep.grids import make_grid
    from repro.sweep.plan import SweepPlan
    from repro.units import round_to

    ref = MachineRef.of(PRESET, scale=FIGURES_SCALE)
    plan = SweepPlan()
    for grid in ("f4", "f5", "f6", "f7"):
        plan.extend(make_grid(grid, ref, quick=grid == "f6"))
    if seed == 0:
        return plan
    rng = random.Random(seed)
    points = []
    for point in plan:
        factor = 1 + rng.uniform(-BAND, BAND)
        if point.kernel == "daxpy":
            point = replace(point, n=round_to(int(point.n * factor), 32))
        elif point.kernel.startswith("dgemv"):
            point = replace(point, n=round_to(
                int(point.n * math.sqrt(factor)), 8))
        points.append(point)
    return SweepPlan(points)


def irregular_plan(seed: int):
    """E2's two SpMV points and A1's four dgemv-row points.

    E2 (``SpmvRoofline``): 4 nnz/row on a machine shrunk a further 4x,
    x spanning 2x L3, a narrow gather band inside L2 and a matrix-wide
    one, cold.  The seed picks the sparsity pattern.
    A1 (``ReplacementAblation``): dgemv-row with a footprint of about
    1.25x L3, warm, one rep, under every L3 replacement policy."""
    from repro.machine.ref import MachineRef
    from repro.memory.replacement import policy_names
    from repro.sweep.plan import SweepPlan
    from repro.units import round_to

    plan = SweepPlan()
    spmv_ref = MachineRef.of(PRESET, scale=IRREGULAR_SCALE / 4)
    hier = spmv_ref.build().spec.hierarchy
    n = round_to(2 * hier.l3.size_bytes // 8, 64)
    for band in (max(hier.l2.size_bytes // 16, 64), 1 << 30):
        plan.add_sweep(spmv_ref, "spmv", [n], protocol="cold", reps=2,
                       kernel_args={"row_nnz": 4, "bandwidth": band,
                                    "seed": SPMV_SEED + seed})
    ref = MachineRef.of(PRESET, scale=IRREGULAR_SCALE)
    l3 = ref.build().spec.hierarchy.l3.size_bytes
    n = round_to(int(math.sqrt(1.25 * l3 / 8)), 8)
    for policy in policy_names():
        plan.add_sweep(ref.with_overrides(l3_policy=policy), "dgemv-row",
                       [n], protocol="warm", reps=1)
    return plan


PLANS = {"figures": figures_plan, "irregular": irregular_plan}
SCALES = {"figures": FIGURES_SCALE, "irregular": IRREGULAR_SCALE,
          "service": SERVICE_SCALE}


class RequestSequence:
    """The service's seeded request streams, each shared by every client.

    A stream opens with its :meth:`primer`: :attr:`PRIMER` writes of
    each kind, served one at a time before the clock starts.  After it,
    each request is a ``/measure`` or an ``/analyze``, at even odds.
    One request in every block of :attr:`BLOCK`, at a seeded place in
    the block, is a *write*: a point of its kind never requested
    before, which simulates and then stores.  Every other request is a
    *read*: a repeat of a key of its kind drawn uniformly from those
    issued so far, which is either finished (a replay from the sweep
    cache) or still in flight (coalesced onto the running job).

    The write points are one fixed list per kind, set by the seed
    alone, so every stream of a seed has the same primer; the stream
    number sets the rest of the draws, so the servers of a run see
    differently drawn traffic of the same make-up.
    """

    #: writes and reads take equal server time at a write share of
    #: 1/BLOCK.  A read costs about 3.2 ms (2.1 ms for /measure, 4.2 ms
    #: for /analyze) and a write about 99 ms, measured serially on a
    #: 2-vCPU Xeon, so w * 99 = (1 - w) * 3.2 gives w = 1/32.  Being
    #: above 1/100, it also puts the p99 among writes and the reads
    #: queued behind them, while the p50 stays among reads.  One write
    #: per block, rather than a coin per request, keeps the number of
    #: writes in a run the same for every seed.
    BLOCK = 32
    #: keys of each kind issued before the clock starts.  Without them
    #: the first reads of a kind draw among one or two keys, one of them
    #: in flight, and mostly coalesce: of the same 31 writes, a server's
    #: first 1,000 requests had 45-56 slower than 50 ms and its next
    #: 1,000 only 34-43, the first stretch's count varying with the
    #: seed.  Eight keys a kind cap a read's chance of coalescing at 1/8
    #: from the start.
    PRIMER = 8
    #: write sizes: working sets between L2 and L3 of snb-ep at 1/8
    #: scale (16 or 24 bytes per element against 32 KiB and 2.5 MiB), so
    #: every write simulates the same regime at a like cost
    WRITE_SIZES = range(8192, 65536, 32)

    def __init__(self, seed: int, stream: int = 0) -> None:
        points = random.Random(seed)
        self._unused = {}
        for kind in ("measure", "analyze"):
            self._unused[kind] = list(self.WRITE_SIZES)
            points.shuffle(self._unused[kind])
        self._rng = random.Random(f"{seed}/{stream}")
        self.issued = {"measure": [], "analyze": [self.warmup()]}
        self._count = 0
        self._write_at = 0

    @staticmethod
    def _request(kind: str, n: int):
        # /analyze writes use another kernel than /measure writes: the
        # two share the sweep cache, so the same point would replay
        if kind == "measure":
            return ("measure", {"kernel": "daxpy", "n": n,
                                "machine": PRESET, "scale": SERVICE_SCALE,
                                "protocol": "cold", "reps": 1})
        return ("analyze", {"kernel": "triad", "sizes": [n],
                            "machine": PRESET, "scale": SERVICE_SCALE,
                            "reps": 1})

    @classmethod
    def warmup(cls):
        """The request that discovers (and caches) the ERT ceilings."""
        return cls._request("analyze", 1024)

    def _write(self, kind: str):
        if not self._unused[kind]:
            raise RuntimeError("service workload ran out of new points")
        request = self._request(kind, self._unused[kind].pop())
        self.issued[kind].append(request)
        return request

    def primer(self):
        """The stream's first writes, ``PRIMER`` of each kind, in
        alternation: the same requests for every stream of a seed."""
        return [self._write(kind) for _ in range(self.PRIMER)
                for kind in ("measure", "analyze")]

    def next(self):
        """``(kind, params)`` of the next request."""
        rng = self._rng
        if self._count % self.BLOCK == 0:
            self._write_at = rng.randrange(self.BLOCK)
        is_write = self._count % self.BLOCK == self._write_at
        self._count += 1
        kind = rng.choice(("measure", "analyze"))
        if is_write:
            return self._write(kind)
        return rng.choice(self.issued[kind])
