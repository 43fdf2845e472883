"""Execute tier: access plans and single accesses through the C kernel.

:class:`BatchDatapath` runs an :class:`~repro.engine.plan.AccessPlan`
(or one straight-line access) through the compiled datapath kernel
(:mod:`repro.engine.ckernel`), on the functional state a
:class:`~repro.memory.hierarchy.CorePort` owns: the numpy array state
of L1/L2/L3 under any replacement policy, the TLB, the stock
prefetch engines' tables and the prefetched-line set.  The kernel
accumulates every counter in one block, applied here once per call.

There is one dispatch, and the kernel is the only code that changes
array state.  A fast-engine machine whose kernel loaded builds that
state at construction, and each port builds its datapath: the
interpreter's plans and single-line demand accesses enter here
directly, and every other port call (multi-line accesses, software
prefetches, flushes, NT stores) runs as a one-run plan
(:meth:`BatchDatapath.execute_run`).  Without a kernel (no compiler,
``REPRO_CKERNEL=0``) or with a custom prefetcher factory there is no
array state and no datapath, and the fast engine runs the reference
per-line port path.

Equivalence contract (gated by ``repro conformance --diff engine`` and
``tests/engine``): for any plan, the final cache/TLB/prefetcher state,
every :class:`~repro.memory.hierarchy.BatchStats` counter, every
per-level :class:`~repro.memory.cache.CacheStats` field, and every IMC
CAS counter are identical to dispatching the plan's emissions one call
at a time through a port on per-line state (the reference engine's
dispatch).

Trace emission is plan-granular: one ``cache`` event, one ``dram``
event per touched home node, and one ``prefetch`` event per executed
plan, stamped at the interpreter's phase cursor.  Consumers already
aggregate batch events (windowing reads ``phase`` events only), so
only the granularity changes, never the sums.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..memory.hierarchy import BatchStats
from ..obs.spans import SPANS
from ..prefetch.arraystate import ArrayStreamPrefetcher, ArrayStridePrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from . import ckernel
from .plan import AccessPlan, PackedPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.hierarchy import CorePort


class BatchDatapath:
    """Executes access plans against one core's array port state.

    The port owns its datapath, so the datapath refers back to the port
    weakly: a reference cycle would leave a dropped machine's arrays to
    the cyclic collector.
    """

    def __init__(self, port: "CorePort") -> None:
        self._port = weakref.ref(port)
        self._ctx = None  # built on first use (see _build_ctx)

    def execute_plan(self, plan: "AccessPlan") -> BatchStats:
        with SPANS("engine.execute"):
            port = self._port()
            # worst case inserts per demand line: degree prefetch
            # candidates per engine (2+2+1) plus the line itself
            self._pre_call(port, 6 * plan.total_lines + 8)
            packed = plan.packed
            meta_p, lines_p, sids_p = packed.ptrs
            self._fn_plan(self._ctx_ref, packed.nruns, meta_p, lines_p,
                          sids_p, self._out_ptr)
            self._post_call(port)
            return self._apply_out(port, self._out.tolist())

    def execute_run(self, op: int, lines, home: int,
                    stream_id: int = 0) -> BatchStats:
        """One port call — a single emission of ``lines`` with opcode
        ``op`` (``OP_*`` of :mod:`repro.engine.plan`) homed on ``home``
        — as a one-run plan."""
        lines = np.array(lines, dtype=np.int64)
        n = len(lines)
        meta = np.array([[op, home, int(home != self._port().node), 0, n,
                          stream_id]], dtype=np.int64)
        # a uniform-stream run never reads per-line ids, so ``lines``
        # stands in for them
        return self.execute_plan(AccessPlan(
            packed=PackedPlan(meta, lines, lines), total_lines=n,
            run_count=1,
        ))

    def _build_ctx(self, port: "CorePort") -> "ckernel.Ctx":
        """Materialise the C context over the port's array state.

        Every pointer references numpy storage that Python resets
        strictly in place (cache ``clear``, TLB ``flush``, prefetcher
        ``reset``), so the context stays valid across busts.  The one
        reallocating structure — the prefetched-line hash set, grown
        only by ``ensure_room`` — is re-pointed before every kernel
        call (:meth:`_pre_call`).
        """
        ctx = ckernel.Ctx()
        for i, cache in enumerate((port.l1, port.l2, port.l3)):
            ctx.tags[i] = cache._tags.ctypes.data
            ctx.dirty[i] = cache._adirty.ctypes.data
            ctx.set_mask[i] = cache._set_mask
            ctx.assoc[i] = cache._assoc
            kind = cache._akind
            ctx.policy[i] = ckernel.POLICY_CODES[kind]
            if kind in ("lru", "fifo"):
                ctx.stamp[i] = cache._stamp.ctypes.data
            elif kind == "plru":
                ctx.plru[i] = cache._plru.ctypes.data
            else:
                ctx.rng[i] = cache._rng.ctypes.data
        tlb = port.tlb
        ctx.tlb1_pages = tlb.l1_pages.ctypes.data
        ctx.tlb1_stamp = tlb.l1_stamp.ctypes.data
        ctx.tlb2_pages = tlb.l2_pages.ctypes.data
        ctx.tlb2_stamp = tlb.l2_stamp.ctypes.data
        ctx.tlb_regs = tlb.regs.ctypes.data
        ctx.tlb1_entries = tlb.config.l1_entries
        ctx.tlb2_entries = tlb.config.l2_entries
        ctx.walk_latency = tlb.config.walk_latency_cycles
        pf = port._prefetched
        ctx.pf_slots = pf.slots.ctypes.data
        ctx.pf_regs = pf.regs.ctypes.data
        ctx.pf_mask = pf._mask
        self._pf_ref = pf.slots
        nl = sm = st = None
        for engine in port.engines:
            if isinstance(engine, ArrayStridePrefetcher):
                st = engine
            elif isinstance(engine, ArrayStreamPrefetcher):
                sm = engine
            elif isinstance(engine, NextLinePrefetcher):
                nl = engine
        self._c_nl, self._c_sm, self._c_st = nl, sm, st
        ctx.st_keys = st.keys.ctypes.data
        ctx.st_last = st.last.ctypes.data
        ctx.st_strd = st.strd.ctypes.data
        ctx.st_conf = st.conf.ctypes.data
        ctx.st_lruv = st.lruv.ctypes.data
        ctx.st_regs = st.regs.ctypes.data
        ctx.st_sites = st._sites_max
        ctx.st_deg = st.degree
        ctx.st_thr = st._threshold
        ctx.st_maxs = st._max_stride
        ctx.sm_keys = sm.keys.ctypes.data
        ctx.sm_last = sm.last.ctypes.data
        ctx.sm_dirn = sm.dirn.ctypes.data
        ctx.sm_conf = sm.conf.ctypes.data
        ctx.sm_front = sm.front.ctypes.data
        ctx.sm_lruv = sm.lruv.ctypes.data
        ctx.sm_regs = sm.regs.ctypes.data
        ctx.sm_trackers = sm._trackers_max
        ctx.sm_deg = sm.degree
        ctx.sm_dist = sm.distance
        ctx.sm_thr = sm._threshold
        ctx.sm_lpp = sm._lines_per_page
        ctx.nl_lpp = nl._lines_per_page
        ctx.page_shift = port._page_shift
        self._regs = np.zeros(4, dtype=np.int64)
        self._homes = np.zeros((len(port.dram), 4), dtype=np.int64)
        self._out = np.zeros(ckernel.OUT_COUNT, dtype=np.int64)
        ctx.regs = self._regs.ctypes.data
        ctx.homes = self._homes.ctypes.data
        lib = ckernel.lib()
        # per-call invariants hoisted: the bound C functions, the byref
        # wrapper, and the out-array pointer (ndarray.ctypes costs a
        # wrapper object per access, visible at single-access rates)
        self._fn_plan = lib.repro_execute_plan
        self._fn_single = lib.repro_execute_single
        self._ctx_ref = ctypes.byref(ctx)
        self._out_ptr = self._out.ctypes.data
        self._cmask = None  # force a flag sync on first use
        self._hit_stats = {}
        self._ctx = ctx
        return ctx

    def _sync_flags(self, port: "CorePort") -> None:
        """Refresh the per-call enable flags from the simulated MSR."""
        control = port.prefetch_control
        mask = control.mask
        if mask == self._cmask:
            return
        self._cmask = mask
        ctx = self._ctx
        ctx.nl_on = 1 if control.is_enabled(self._c_nl.kind) else 0
        ctx.sm_on = 1 if control.is_enabled(self._c_sm.kind) else 0
        ctx.st_on = 1 if control.is_enabled(self._c_st.kind) else 0
        # useful-hit attribution goes to every *enabled* engine, in the
        # per-core list order, exactly like the reference observe loop
        self._c_engines = [
            engine for engine in port.engines
            if control.is_enabled(engine.kind)
        ]

    def _pre_call(self, port: "CorePort", room: int) -> "ckernel.Ctx":
        """Shared setup before a kernel entry: context, flags, pf-set
        capacity, and register sync (cache ticks + TLB page cursor)."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._build_ctx(port)
        self._sync_flags(port)
        pf = port._prefetched
        pf.ensure_room(room)
        slots = pf.slots
        if slots is not self._pf_ref:
            # reallocated by ensure_room
            self._pf_ref = slots
            ctx.pf_slots = slots.ctypes.data
            ctx.pf_mask = pf._mask
        regs = self._regs
        regs[0] = port.l1._tick
        regs[1] = port.l2._tick
        regs[2] = port.l3._tick
        regs[3] = port._last_page
        return ctx

    def _post_call(self, port: "CorePort") -> None:
        regs = self._regs
        port.l1._tick = int(regs[0])
        port.l2._tick = int(regs[1])
        port.l3._tick = int(regs[2])
        port._last_page = int(regs[3])

    def execute_single(self, line: int, is_write: bool, node) -> BatchStats:
        """One single-line demand access through the compiled kernel."""
        port = self._port()
        rhome = port.node if node is None else node
        self._pre_call(port, 8)
        self._fn_single(self._ctx_ref, line, 1 if is_write else 0, rhome,
                        1 if rhome != port.node else 0, self._out_ptr)
        self._post_call(port)
        o = self._out.tolist()
        if o[1] == 1 and o[11] == 0:
            # pure L1 hit with no hardware prefetch fill: nothing was
            # filled or evicted anywhere, and the only engine that can
            # have observed is the stride table (train-on-hits), whose
            # candidates — if any — were all resident (issued-only)
            port.l1.stats.hits += 1
            tacc = o[37]
            if tacc:
                ts = port.tlb.stats
                ts.accesses += tacc
                ts.l1_hits += o[38]
                ts.l2_hits += o[39]
                ts.walks += o[40]
            sti = o[35]
            if sti:
                self._c_st.stats.issued += sti
            tlbm = o[16]
            tlbw = o[17]
            key = (tlbm, tlbw)
            stats = self._hit_stats.get(key)
            if stats is None:
                stats = self._hit_stats[key] = BatchStats(
                    accesses=1, l1_hits=1, tlb_misses=tlbm,
                    tlb_walk_cycles=tlbw,
                )
            tot = port.totals
            tot.accesses += 1
            tot.l1_hits += 1
            tot.tlb_misses += tlbm
            tot.tlb_walk_cycles += tlbw
            if port.bus.enabled:
                port._emit_batch(stats, rhome)
            return stats
        return self._apply_out(port, o)

    #: earlier name of :meth:`execute_single`; perfbench/tracer.py
    #: wraps both names
    execute_single_c = execute_single

    def _apply_out(self, port: "CorePort", o: list) -> BatchStats:
        """Apply one kernel invocation's counter block to Python state:
        derived demand-path CacheStats (every demand miss at a level is
        a fill there), occupancy deltas, TLB stats, per-engine
        issue/useful attribution, IMC CAS counters, and the
        plan-granular trace emission.
        """
        (acc, l1h, l2h, l3h, drd, wbk, ntl,
         e1, e2, e3, swp, hwi, pfr, pfu, rem, fls,
         tlbm, tlbw, dacc,
         c1f, c1d, c1i, c2f, c2d, c2i,
         c3h, c3m, c3f, c3d, c3i,
         occ1, occ2, occ3,
         nli, smi, sti, useful,
         tacc, t1h, t2h, twalk) = o
        stats = BatchStats(
            accesses=acc, l1_hits=l1h, l2_hits=l2h, l3_hits=l3h,
            dram_reads=drd, writebacks=wbk, nt_lines=ntl,
            l1_evictions=e1, l2_evictions=e2, l3_evictions=e3,
            sw_prefetches=swp, hw_prefetch_issued=hwi,
            hw_prefetch_dram_reads=pfr, prefetch_useful=pfu,
            remote_dram_lines=rem, flushes=fls,
            tlb_misses=tlbm, tlb_walk_cycles=tlbw,
        )
        dm1 = dacc - l1h
        dm2 = dm1 - l2h
        dm3 = dm2 - l3h
        cs = port.l1.stats
        cs.hits += l1h
        cs.misses += dm1
        cs.fills += dm1 + c1f
        cs.evictions += e1
        cs.dirty_evictions += c1d
        cs.invalidations += c1i
        cs = port.l2.stats
        cs.hits += l2h
        cs.misses += dm2
        cs.fills += dm2 + c2f
        cs.evictions += e2
        cs.dirty_evictions += c2d
        cs.invalidations += c2i
        cs = port.l3.stats
        cs.hits += l3h + c3h
        cs.misses += dm3 + c3m
        cs.fills += dm3 + c3f
        cs.evictions += e3
        cs.dirty_evictions += c3d
        cs.invalidations += c3i
        port.l1._resident += occ1
        port.l2._resident += occ2
        port.l3._resident += occ3
        ts = port.tlb.stats
        ts.accesses += tacc
        ts.l1_hits += t1h
        ts.l2_hits += t2h
        ts.walks += twalk
        if nli:
            self._c_nl.stats.issued += nli
        if smi:
            self._c_sm.stats.issued += smi
        if sti:
            self._c_st.stats.issued += sti
        if useful:
            for engine in self._c_engines:
                engine.stats.useful += useful
        homes = {}
        harr = self._homes
        drams = port.dram
        for node, rec in enumerate(harr.tolist()):
            dr, pf_rd, wr, rm = rec
            if dr or pf_rd or wr or rm:
                counters = drams[node].counters
                counters.cas_reads += dr + pf_rd
                counters.cas_writes += wr
                homes[node] = [dr, pf_rd, wr, rm]
        if homes:
            harr.fill(0)
        port.totals.merge(stats)
        if port.bus.enabled:
            port.emit_plan_batch(stats, homes)
        return stats

