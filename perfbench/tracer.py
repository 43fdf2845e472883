"""Outside-in layer tracer: wrappers around the program's entry points.

Nothing inside ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each layer's public entry point (at the name its caller looks
it up by) with a wrapper that records a span, and :meth:`Tracer.close`
puts the originals back.  A span's *self* time is its duration minus
the duration of the spans it encloses, so the self times of all spans
plus the time outside every span add up to the traced interval.

Each thread keeps its own span stack and tallies, so the hot path takes
no lock; :meth:`Tracer.totals` merges them.  The clock is a parameter:
serial passes use the wall clock, the multi-threaded server uses each
thread's CPU clock so that time a thread spends waiting for the
interpreter lock is not attributed to the span it waits in.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import defaultdict

#: (module, owner, attribute, span name); owner None patches a module
#: function.  Functions are patched where their caller looks them up.
SPANS = (
    ("repro.sweep.backends.serial", None, "simulate_point", "sweep.point"),
    ("repro.sweep.executor", None, "measure_kernel", "measure"),
    ("repro.machine.ref", "MachineRef", "build", "machine.build"),
    ("repro.machine.machine", "Machine", "bust_caches", "machine.bust"),
    ("repro.cpu.core", "Core", "execute", "cpu.core"),
    ("repro.engine.plan", "AccessPlan", "from_affine_sites",
     "engine.plan.affine"),
    ("repro.engine.plan", "AccessPlan", "from_emissions",
     "engine.plan.emission"),
    ("repro.engine.plan", "SymbolicPlan", "bind", "engine.plan.bind"),
    ("repro.engine.datapath", "BatchDatapath", "execute_plan",
     "engine.datapath.plan"),
    ("repro.engine.datapath", "BatchDatapath", "execute_single_c",
     "engine.datapath.single"),
    ("repro.engine.datapath", "BatchDatapath", "execute_single",
     "engine.datapath.single"),
    ("repro.memory.hierarchy", "CorePort", "access_lines", "memory.port"),
    ("repro.cpu.core", None, "phase_cycles", "cpu.timing.phase"),
    ("repro.pmu.perf", "PerfSession", "__enter__", "pmu.session"),
    ("repro.pmu.perf", "PerfSession", "__exit__", "pmu.session"),
    ("repro.sweep.cache", "SweepCache", "lookup", "sweep.cache.lookup"),
    ("repro.sweep.cache", "SweepCache", "store", "sweep.cache.store"),
    ("repro.roofline.hierarchical", None, "discover_ceilings",
     "roofline.ert"),
    ("repro.roofline.hierarchical", None, "analyze", "roofline.analyze"),
    ("repro.serve.server", "RooflineServer", "_execute", "serve.exec"),
)

#: the request a service connection submitted: (submit time, job)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


def _count_lines(tally, args, kwargs, result):
    tally["memory.port_lines"] += len(args[1] if len(args) > 1
                                      else kwargs["lines"])


def _count_plan_lines(tally, args, kwargs, result):
    tally["engine.datapath.lines"] += args[1].total_lines


def _count_single(tally, args, kwargs, result):
    tally["engine.datapath.lines"] += 1


def _count_phase(tally, args, kwargs, result):
    tally["sim.cycles"] += result.total


def _count_reps(tally, args, kwargs, result):
    tally["measure.reps"] += kwargs.get("reps", 3)


def _count_lookup(tally, args, kwargs, result):
    tally["sweep.cache.hits" if result[1] == "hit"
          else "sweep.cache.misses"] += 1


def _count_point(tally, args, kwargs, result):
    tally["sim.flops"] += result["work_flops"]
    tally["sim.dram_bytes"] += result["traffic_bytes"]
    plan_cache = result.get("plan_cache") or {}
    for key in ("hits", "misses", "built_lines"):
        tally["engine.plan." + key] += plan_cache.get(key, 0)


#: per-span tallies taken from a call's arguments or result
_COUNTERS = {
    "memory.port": _count_lines,
    "engine.datapath.plan": _count_plan_lines,
    "engine.datapath.single": _count_single,
    "cpu.timing.phase": _count_phase,
    "measure": _count_reps,
    "sweep.cache.lookup": _count_lookup,
    "sweep.point": _count_point,
}


class _ThreadState:
    __slots__ = ("stack", "spans", "tally", "top_ns", "ident")

    def __init__(self) -> None:
        self.stack = []
        #: span name -> [calls, total ns, self ns]
        self.spans = defaultdict(lambda: [0, 0, 0])
        self.tally = defaultdict(float)
        #: time inside outermost spans
        self.top_ns = 0
        self.ident = threading.get_ident()


class Tracer:
    """Span wrappers for the layers named in :data:`SPANS`."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._undo = []
        #: service request records: (request ns, submit ns, job or None)
        self.requests = []
        self.job_done_ns = {}
        self.job_submit_ns = {}
        self.coalesced = 0
        self.exec_wall_ns = 0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _span(self, name, fn):
        clock = self.clock
        state_of = self._state
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    state.top_ns += elapsed
                span = state.spans[name]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - child
            if counter is not None:
                counter(state.tally, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, make) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`SPANS`, plus the service's
        request, job and coalescing hooks."""
        import importlib

        for module_name, owner_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            self._patch(owner, attr, lambda fn, n=name: self._span(n, fn))
        self._install_service_hooks()
        return self

    def _install_service_hooks(self) -> None:
        from repro.serve.jobs import JobTable
        from repro.serve.server import RooflineServer

        def timed_submit(fn):
            def submit(table, kind, params):
                job, attached = fn(table, kind, params)
                now = time.perf_counter_ns()
                _REQUEST.set((now, job))
                if attached:
                    self.coalesced += 1
                else:
                    self.job_submit_ns[job.id] = now
                return job, attached
            return submit

        def timed_finish(fn):
            def finish(table, job):
                self.job_done_ns[job.id] = time.perf_counter_ns()
                return fn(table, job)
            return finish

        def timed_connection(fn):
            async def handle(server, reader, writer):
                start = time.perf_counter_ns()
                _REQUEST.set(None)
                try:
                    await fn(server, reader, writer)
                finally:
                    submitted = _REQUEST.get()
                    self.requests.append(
                        (time.perf_counter_ns() - start,) +
                        (submitted or (None, None)))
            return handle

        def timed_execute(fn):
            def execute(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter_ns() - start
                    with self._lock:
                        self.exec_wall_ns += elapsed
            return execute

        self._patch(JobTable, "submit", timed_submit)
        self._patch(JobTable, "finish", timed_finish)
        self._patch(RooflineServer, "_handle_connection", timed_connection)
        # outermost, so the wall time includes the span bookkeeping
        self._patch(RooflineServer, "_execute", timed_execute)

    def close(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def totals(self, exclude_thread=None):
        """Merged ``(spans, tally, top_ns)`` over every thread but
        ``exclude_thread``."""
        spans = defaultdict(lambda: [0, 0, 0])
        tally = defaultdict(float)
        top_ns = 0
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, total, own) in state.spans.items():
                merged = spans[name]
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for key, value in state.tally.items():
                tally[key] += value
            if state.ident != exclude_thread:
                top_ns += state.top_ns
        return spans, tally, top_ns

    def service_latencies(self) -> dict:
        """Mean per-request server overhead and per-job queue wait, ms.

        A request's overhead is its time in the server minus the time
        it waited for its job; a job's queue wait is its lifetime minus
        the wall time its execution took."""
        overhead = []
        for request_ns, submit_ns, job in self.requests:
            waited = 0
            if job is not None and job.id in self.job_done_ns:
                waited = self.job_done_ns[job.id] - submit_ns
            overhead.append(request_ns - waited)
        lifetimes = [self.job_done_ns[job_id] - submitted
                     for job_id, submitted in self.job_submit_ns.items()
                     if job_id in self.job_done_ns]
        queue_ns = (sum(lifetimes) - self.exec_wall_ns) / len(lifetimes) \
            if lifetimes else 0.0
        return {
            "serve.overhead_ms": (sum(overhead) / len(overhead) / 1e6
                                  if overhead else 0.0),
            "serve.queue_wait_ms": max(queue_ns, 0.0) / 1e6,
            "serve.coalesced": float(self.coalesced),
        }


#: every per-layer metric and its unit, in report order
LAYER_UNITS = {
    "setup.import_s": "s", "setup.ckernel_s": "s",
    "machine.build_s": "s", "machine.builds": "count",
    "sweep.point_s": "s", "sweep.points": "count",
    "sweep.cache.lookup_s": "s", "sweep.cache.store_s": "s",
    "sweep.cache.hits": "count", "sweep.cache.misses": "count",
    "sweep.cache.hit_ratio": "ratio",
    "measure.self_s": "s", "measure.reps": "count",
    "pmu.session_s": "s", "pmu.sessions": "count", "machine.bust_s": "s",
    "cpu.core.self_s": "s", "cpu.core.executes": "count",
    "engine.plan.affine_s": "s", "engine.plan.affine_builds": "count",
    "engine.plan.emission_s": "s", "engine.plan.emission_builds": "count",
    "engine.plan.bind_s": "s", "engine.plan.hit_rate": "ratio",
    "engine.plan.built_lines": "count",
    "engine.datapath.plan_s": "s", "engine.datapath.plans": "count",
    "engine.datapath.single_s": "s", "engine.datapath.singles": "count",
    "engine.datapath.lines": "count", "engine.datapath.lines_per_s": "lines/s",
    "memory.port_s": "s", "memory.port_lines": "count",
    "memory.port_lines_per_s": "lines/s",
    "cpu.timing.phase_s": "s", "cpu.timing.phases": "count",
    "roofline.ert_s": "s", "roofline.analyze_s": "s",
    "serve.exec_s": "s", "serve.queue_wait_ms": "ms",
    "serve.overhead_ms": "ms", "serve.coalesced": "count",
    "serve.loop_s": "s",
    "trace.unattributed_frac": "ratio", "trace.overhead": "ratio",
    "sim.cycles": "cycles", "sim.dram_bytes": "B", "sim.flops": "flop",
}


def layer_metrics(spans, tally, wall_ns, attributed_ns) -> dict:
    """The per-layer metrics of one traced interval.

    ``*_self_s`` metrics are self time; every other ``*_s`` metric is
    the inclusive time of the layer's spans.  ``wall_ns`` is the traced
    interval and ``attributed_ns`` the part of it inside some span."""
    def total(name):
        return spans[name][1] / 1e9 if name in spans else 0.0

    def own(name):
        return spans[name][2] / 1e9 if name in spans else 0.0

    def calls(name):
        return float(spans[name][0]) if name in spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = tally["sweep.cache.hits"], tally["sweep.cache.misses"]
    plan_hits = tally["engine.plan.hits"]
    plan_lookups = plan_hits + tally["engine.plan.misses"]
    datapath_s = total("engine.datapath.plan") + total(
        "engine.datapath.single")
    return {
        "machine.build_s": total("machine.build"),
        "machine.builds": calls("machine.build"),
        "sweep.point_s": total("sweep.point"),
        "sweep.points": calls("sweep.point"),
        "sweep.cache.lookup_s": total("sweep.cache.lookup"),
        "sweep.cache.store_s": total("sweep.cache.store"),
        "sweep.cache.hits": hits,
        "sweep.cache.misses": misses,
        "sweep.cache.hit_ratio": ratio(hits, hits + misses),
        "measure.self_s": own("measure"),
        "measure.reps": tally["measure.reps"],
        "pmu.session_s": total("pmu.session"),
        "pmu.sessions": calls("pmu.session") / 2,
        "machine.bust_s": total("machine.bust"),
        "cpu.core.self_s": own("cpu.core"),
        "cpu.core.executes": calls("cpu.core"),
        "engine.plan.affine_s": total("engine.plan.affine"),
        "engine.plan.affine_builds": calls("engine.plan.affine"),
        "engine.plan.emission_s": total("engine.plan.emission"),
        "engine.plan.emission_builds": calls("engine.plan.emission"),
        "engine.plan.bind_s": total("engine.plan.bind"),
        "engine.plan.hit_rate": ratio(plan_hits, plan_lookups),
        "engine.plan.built_lines": tally["engine.plan.built_lines"],
        "engine.datapath.plan_s": total("engine.datapath.plan"),
        "engine.datapath.plans": calls("engine.datapath.plan"),
        "engine.datapath.single_s": total("engine.datapath.single"),
        "engine.datapath.singles": calls("engine.datapath.single"),
        "engine.datapath.lines": tally["engine.datapath.lines"],
        "engine.datapath.lines_per_s": ratio(tally["engine.datapath.lines"],
                                             datapath_s),
        "memory.port_s": total("memory.port"),
        "memory.port_lines": tally["memory.port_lines"],
        "memory.port_lines_per_s": ratio(tally["memory.port_lines"],
                                         total("memory.port")),
        "cpu.timing.phase_s": total("cpu.timing.phase"),
        "cpu.timing.phases": calls("cpu.timing.phase"),
        "roofline.ert_s": total("roofline.ert"),
        "roofline.analyze_s": total("roofline.analyze"),
        "serve.exec_s": total("serve.exec"),
        "serve.queue_wait_ms": 0.0,
        "serve.overhead_ms": 0.0,
        "serve.coalesced": 0.0,
        "serve.loop_s": 0.0,
        "trace.unattributed_frac": ratio(max(wall_ns - attributed_ns, 0),
                                         wall_ns),
        "sim.cycles": tally["sim.cycles"],
        "sim.dram_bytes": tally["sim.dram_bytes"],
        "sim.flops": tally["sim.flops"],
    }


def self_time_ledger(spans, wall_ns, attributed_ns):
    """``(name, self seconds, share of wall)`` rows, largest first, with
    an ``(unattributed)`` row for the time outside every span."""
    rows = [(name, own / 1e9, own / wall_ns if wall_ns else 0.0)
            for name, (_, _, own) in spans.items()]
    rows.sort(key=lambda row: -row[1])
    rest = max(wall_ns - attributed_ns, 0)
    rows.append(("(unattributed)", rest / 1e9,
                 rest / wall_ns if wall_ns else 0.0))
    return rows
