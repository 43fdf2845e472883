"""Hierarchical host-time span profiler.

The machine-side trace bus stamps events in simulated cycles; this
profiler stamps them in **host nanoseconds** (``time.perf_counter_ns``),
answering the question the trace bus cannot: where does the *simulator
process* spend its wall-time?

Instrumentation sites use the module singleton :data:`SPANS` as a
callable context-manager factory::

    from repro.obs.spans import SPANS

    with SPANS("engine.compile"):
        plan = build_plan(...)

When the profiler is disabled (the default, and the state every normal
run is in) the call returns a shared no-op context manager: the whole
site costs one attribute load, one branch, and an empty ``with`` —
no span object is ever constructed.  ``benchmarks/
bench_s6_selfprofile.py`` pins this cost per call and bounds the
aggregate disabled overhead on the dgemm sweep benchmark; the committed
``BENCH_selfprofile.json`` keeps it gated below 5%.

When enabled, spans nest through an explicit stack, so every record
carries its depth and parent — enough to render a flame view.  Two
retention tiers keep memory bounded:

* every span folds into per-name **aggregates** (count, total time,
  child time — hence self time), unbounded only in distinct names;
* the first :attr:`SpanProfiler.max_records` spans are kept as
  individual :class:`SpanRecord` rows for the Chrome-trace flame
  export; beyond the cap only aggregates continue (``dropped`` counts
  the overflow, and the exports say so).

The profiler is deliberately single-threaded (the simulator is); sweep
worker processes inherit a fresh, disabled profiler.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SPANS", "SpanProfiler", "SpanRecord", "chrome_trace_doc"]


def chrome_trace_doc(process_name: str, tracks: Iterable[Tuple[int, str]],
                     events: List[dict]) -> dict:
    """The Trace Event Format document every Chrome-trace export builds.

    One process (pid 0) named ``process_name``; each ``(tid, name)``
    track gets a ``thread_name`` record and a ``thread_sort_index``
    equal to its tid, so viewers order tracks by tid.  The metadata
    records come first, then ``events`` in the given order.
    """
    meta = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": process_name}}]
    for tid, name in sorted(tracks):
        meta.append({"ph": "M", "name": "thread_name", "pid": 0,
                     "tid": tid, "args": {"name": name}})
        meta.append({"ph": "M", "name": "thread_sort_index", "pid": 0,
                     "tid": tid, "args": {"sort_index": tid}})
    return {"displayTimeUnit": "ms", "traceEvents": meta + events}


class SpanRecord:
    """One finished span: name, host-time interval, tree position.

    ``tid`` is the flame-view track the span renders on: 0 is the
    parent process's "host wall-time" track; spans absorbed from sweep
    workers carry the worker's pid (see
    :meth:`SpanProfiler.absorb_remote`).
    """

    __slots__ = ("name", "start_ns", "dur_ns", "depth", "parent", "attrs",
                 "tid")

    def __init__(self, name: str, start_ns: int, depth: int,
                 parent: int, attrs: Optional[dict], tid: int = 0) -> None:
        self.name = name
        self.start_ns = start_ns
        self.dur_ns = 0
        self.depth = depth
        self.parent = parent  # index into the record list, -1 for roots
        self.attrs = attrs
        self.tid = tid

    def as_dict(self) -> dict:
        doc = {
            "name": self.name,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "depth": self.depth,
            "parent": self.parent,
        }
        if self.tid:
            doc["tid"] = self.tid
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        return doc


class _NullSpan:
    """The shared disabled-path context manager (never records)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL = _NullSpan()


class _Span:
    """Enabled-path context manager; one per entered span."""

    __slots__ = ("_profiler", "_record", "_index")

    def __init__(self, profiler: "SpanProfiler", name: str,
                 attrs: Optional[dict]) -> None:
        self._profiler = profiler
        self._record = name if attrs is None else (name, attrs)
        self._index = -1

    def __enter__(self) -> "_Span":
        profiler = self._profiler
        rec = self._record
        name, attrs = (rec, None) if isinstance(rec, str) else rec
        self._index = profiler._open(name, attrs)
        return self

    def __exit__(self, *_exc) -> bool:
        self._profiler._close(self._index)
        return False


class SpanProfiler:
    """Collects hierarchical host-time spans; disabled by default."""

    def __init__(self, max_records: int = 1_000_000,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.enabled = False
        self.max_records = max_records
        self._clock = clock
        self.reset()

    # ------------------------------------------------------------------
    # site API
    # ------------------------------------------------------------------
    def __call__(self, name: str, **attrs) -> object:
        """The instrumentation-site entry point (see module docstring)."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, attrs or None)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected spans and aggregates (keeps enabled state)."""
        self.records: List[SpanRecord] = []
        self.dropped = 0
        #: name -> [count, total_ns, child_ns]
        self._agg: Dict[str, List[int]] = {}
        #: stack of (record_index, name, start_ns); record_index is -1
        #: for spans past the retention cap (aggregates still accrue)
        self._stack: List[tuple] = []
        #: child-time accumulator parallel to the stack (for self time)
        self._child_ns: List[int] = []
        #: flame-view track id -> display name for absorbed worker spans
        self._tracks: Dict[int, str] = {}
        #: causal links from parent dispatch to absorbed worker roots:
        #: dicts with id/track/submit_ns/start_ns
        self._links: List[dict] = []

    # ------------------------------------------------------------------
    # span bookkeeping (called by _Span)
    # ------------------------------------------------------------------
    def _open(self, name: str, attrs: Optional[dict]) -> int:
        start = self._clock()
        index = -1
        if len(self.records) < self.max_records:
            parent = self._stack[-1][0] if self._stack else -1
            record = SpanRecord(name, start, len(self._stack), parent, attrs)
            index = len(self.records)
            self.records.append(record)
        else:
            self.dropped += 1
        self._stack.append((index, name, start))
        self._child_ns.append(0)
        return index

    def _close(self, index: int) -> None:
        end = self._clock()
        _idx, name, start = self._stack.pop()
        child_ns = self._child_ns.pop()
        dur = end - start
        if index >= 0:
            self.records[index].dur_ns = dur
        agg = self._agg.get(name)
        if agg is None:
            self._agg[name] = [1, dur, child_ns]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] += child_ns
        if self._child_ns:
            self._child_ns[-1] += dur

    # ------------------------------------------------------------------
    # absorbing worker telemetry (distributed plane, repro.obs.remote)
    # ------------------------------------------------------------------
    def absorb_remote(self, spans: dict, track: int, track_name: str,
                      link: Optional[dict] = None) -> int:
        """Merge a worker's captured span section into this profiler.

        ``spans`` is the ``"spans"`` section of a telemetry payload:
        ``records`` (parent indices relative to the section, ``-1`` for
        roots), per-name ``aggregates`` and a ``dropped`` count.  The
        records land on flame-view track ``track`` (the worker pid) and
        the aggregates fold into the unified hotspot table.  ``link``
        (``{"id": ..., "submit_ns": ...}``) attaches a causal flow
        arrow from the parent's dispatch instant to the section's first
        root span in the Chrome export.

        Returns the number of records absorbed.  Sections that do not
        fit under the retention cap are counted in :attr:`dropped`
        whole (partial absorption would corrupt the parent remapping),
        but their aggregates still merge.
        """
        rows = spans.get("records") or []
        offset = len(self.records)
        absorbed = 0
        if rows and offset + len(rows) <= self.max_records:
            for row in rows:
                parent = row["parent"]
                record = SpanRecord(
                    row["name"], row["start_ns"], row["depth"],
                    parent + offset if parent >= 0 else -1,
                    row.get("attrs"), tid=track,
                )
                record.dur_ns = row["dur_ns"]
                self.records.append(record)
            absorbed = len(rows)
        else:
            self.dropped += len(rows)
        self.dropped += spans.get("dropped", 0)
        for name, (count, total_ns, child_ns) in (
                spans.get("aggregates") or {}).items():
            agg = self._agg.get(name)
            if agg is None:
                self._agg[name] = [count, total_ns, child_ns]
            else:
                agg[0] += count
                agg[1] += total_ns
                agg[2] += child_ns
        self._tracks.setdefault(track, track_name)
        if link is not None and absorbed:
            for row_index, row in enumerate(rows):
                if row["parent"] < 0:
                    self._links.append({
                        "id": str(link.get("id", offset)),
                        "track": track,
                        "submit_ns": link.get("submit_ns"),
                        "start_ns": rows[row_index]["start_ns"],
                    })
                    break
        return absorbed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _root_ns(self) -> int:
        """Root-span wall time (retained spans with no parent)."""
        return sum(r.dur_ns for r in self.records if r.parent == -1)

    def hotspots(self, top: Optional[int] = None) -> List[dict]:
        """Per-name aggregates sorted by *self* time, descending.

        Self time is total time minus time spent in child spans — the
        flame-graph notion of where the wall-clock actually burned.
        """
        rows = []
        for name, (count, total_ns, child_ns) in self._agg.items():
            self_ns = total_ns - child_ns
            rows.append({
                "name": name,
                "count": count,
                "total_s": total_ns / 1e9,
                "self_s": self_ns / 1e9,
                "mean_us": (total_ns / count) / 1e3 if count else 0.0,
            })
        rows.sort(key=lambda r: r["self_s"], reverse=True)
        if top is not None:
            rows = rows[:top]
        return rows

    def hotspot_table(self, top: int = 10) -> str:
        """Text table of the top-N hotspots (CLI output)."""
        rows = self.hotspots(top)
        header = (f"{'span':<28} {'count':>8} {'total [s]':>10} "
                  f"{'self [s]':>10} {'self %':>7} {'mean [us]':>10}")
        lines = [header, "-" * len(header)]
        wall = sum(r["self_s"] for r in self.hotspots(None)) or 1.0
        for r in rows:
            lines.append(
                f"{r['name']:<28} {r['count']:>8} {r['total_s']:>10.4f} "
                f"{r['self_s']:>10.4f} {100.0 * r['self_s'] / wall:>6.1f}% "
                f"{r['mean_us']:>10.2f}"
            )
        if self.dropped:
            lines.append(f"({self.dropped} span(s) past the retention cap "
                         f"are aggregated only)")
        return "\n".join(lines)

    def to_chrome_trace(self, process_name: str = "repro host") -> dict:
        """Chrome trace-event flame view of host wall-time.

        Every retained span becomes a complete (``X``) event;
        timestamps are microseconds relative to the earliest span, so
        the flame starts at t=0 in Perfetto.  Parent-process spans
        render on the "host wall-time" track (tid 0); spans absorbed
        from sweep workers land on one track per worker pid, with flow
        arrows from the parent's dispatch instant to each worker root.
        """
        events: List[dict] = []
        t0 = min((r.start_ns for r in self.records), default=0)
        for record in self.records:
            event = {
                "ph": "X",
                "name": record.name,
                "cat": "host",
                "pid": 0,
                "tid": record.tid,
                "ts": (record.start_ns - t0) / 1e3,
                "dur": record.dur_ns / 1e3,
            }
            if record.attrs:
                event["args"] = dict(record.attrs)
            events.append(event)
        for flow in self._links:
            submit_ns = flow.get("submit_ns")
            if submit_ns is None:
                submit_ns = flow["start_ns"]
            events.append({
                "ph": "s", "id": flow["id"], "name": "sweep.dispatch",
                "cat": "sweep", "pid": 0, "tid": 0,
                "ts": (submit_ns - t0) / 1e3,
            })
            events.append({
                "ph": "f", "bp": "e", "id": flow["id"],
                "name": "sweep.dispatch", "cat": "sweep", "pid": 0,
                "tid": flow["track"],
                "ts": (flow["start_ns"] - t0) / 1e3,
            })
        if self.dropped:
            events.append({
                "ph": "i", "name": f"retention cap: {self.dropped} "
                                   f"span(s) dropped",
                "cat": "host", "pid": 0, "tid": 0, "s": "g",
                "ts": (self.records[-1].start_ns + self.records[-1].dur_ns
                       - t0) / 1e3 if self.records else 0.0,
            })
        tracks = {0: "host wall-time", **self._tracks}
        return chrome_trace_doc(process_name, tracks.items(), events)

    def to_json_doc(self) -> dict:
        """Machine-readable summary (hotspots + retention counters)."""
        doc = {
            "spans": len(self.records),
            "dropped": self.dropped,
            "root_seconds": self._root_ns() / 1e9,
            "hotspots": self.hotspots(None),
        }
        if self._tracks:
            doc["tracks"] = {str(tid): name
                             for tid, name in sorted(self._tracks.items())}
        return doc


#: the process-wide profiler every instrumentation site reads
SPANS = SpanProfiler()
