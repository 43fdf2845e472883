"""Windowed timeline profiling: fixed-cycle-window time series.

The aggregate (I, P) point of a measurement hides *when* traffic
happens — the cold-start transient, the streaming steady state, the
cache-spill phase.  A :class:`TimelineSampler` is a trace-bus sink that
bins execution into fixed cycle windows and derives per-window series:
DRAM read/write bandwidth, per-level hit rates, IPC, issued flops,
prefetch accuracy/coverage, and the per-window operational intensity
I(t) and performance P(t) that make up a roofline *trajectory* (see
:mod:`repro.trace.trajectory`).

Binning rules (the invariants ``tests/trace`` pins down):

* windows are ``[t0 + k*w, t0 + (k+1)*w)`` on the TSC timeline, where
  ``t0`` is the start of the measured region and ``w`` the configured
  width; the final window is *partial* — it ends at the last phase's
  end, and rate denominators use its actual covered width;
* a phase straddling a boundary has its duration split exactly by
  overlap, and its integer counters split proportionally using
  cumulative (largest-remainder) rounding, so **per-window counter
  sums reconcile with the aggregate totals exactly** — the same totals
  the PMU/IMC counters and the conformance oracle validate;
* a zero-duration phase lands whole in the window containing its
  timestamp.

Counters come from ``phase`` events only (their ``args`` carry the
functional batch counts, retired instructions, and issued flops), never
from the separate ``cache``/``dram``/``prefetch`` batch events — those
are stamped at phase *start* and would double-count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TimelineError
from .events import MARK, PHASE, TraceEvent

#: integer counters carried per window, in reporting order.  The batch
#: keys mirror :meth:`repro.memory.hierarchy.BatchStats.as_dict`;
#: ``instructions``/``flops``/``counted_flops``/``reissue_slots`` come
#: from the interpreter's phase attribution (``counted_flops`` is what
#: the FP PMU events see: issued flops plus the reissue overcount).
COUNTER_KEYS: Tuple[str, ...] = (
    "accesses", "l1_hits", "l2_hits", "l3_hits",
    "dram_reads", "writebacks", "nt_lines",
    "l1_evictions", "l2_evictions", "l3_evictions",
    "sw_prefetches", "hw_prefetch_issued", "hw_prefetch_dram_reads",
    "prefetch_useful", "remote_dram_lines", "flushes",
    "tlb_misses", "tlb_walk_cycles",
    "instructions", "flops", "counted_flops", "reissue_slots",
)

#: derived per-window series, in reporting/CSV order
DERIVED_KEYS: Tuple[str, ...] = (
    "dram_read_bpc", "dram_write_bpc", "dram_bpc",
    "l1_hit_rate", "l2_hit_rate", "l3_hit_rate",
    "ipc", "flops_per_cycle",
    "prefetch_accuracy", "prefetch_coverage",
    "intensity", "performance",
)


@dataclass(frozen=True)
class TimelineConfig:
    """How to window a trace.

    ``window_cycles`` is the bin width on the TSC timeline;
    ``measured_only`` restricts the timeline to the region between the
    runner's ``measured:begin``/``measured:end`` marks when they are
    present (matching :class:`~repro.trace.collector.TraceCollector`).
    """

    window_cycles: float
    measured_only: bool = True

    def __post_init__(self) -> None:
        width = self.window_cycles
        if not isinstance(width, (int, float)) or not math.isfinite(width):
            raise TimelineError(
                f"window width must be a finite cycle count, got {width!r}"
            )
        if width <= 0:
            raise TimelineError(
                f"window width must be positive, got {width:g} cycles"
            )


@dataclass
class TimelineWindow:
    """One fixed-width (or partial final) window of the timeline."""

    index: int
    #: absolute TSC cycle bounds; ``end - start`` is the covered width
    #: (smaller than the configured width only for the final window)
    start: float
    end: float
    #: cycles of phase execution overlapping this window, summed over
    #: cores (can exceed the width on multi-core runs)
    busy_cycles: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    derived: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def width(self) -> float:
        return self.end - self.start

    @property
    def dram_read_lines(self) -> int:
        return (self.counters.get("dram_reads", 0)
                + self.counters.get("hw_prefetch_dram_reads", 0))

    @property
    def dram_write_lines(self) -> int:
        return (self.counters.get("writebacks", 0)
                + self.counters.get("nt_lines", 0))

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "busy_cycles": self.busy_cycles,
            "counters": dict(self.counters),
            "derived": dict(self.derived),
        }


@dataclass
class _PhaseEntry:
    """One phase event, reduced to what binning needs."""

    ts: float
    dur: float
    core: int
    counters: Dict[str, int]
    measured: bool = True


def _split_counter(total: int, fractions: Sequence[float]) -> List[int]:
    """Split ``total`` over bins proportionally to ``fractions``.

    Cumulative rounding: bin *k* receives ``round(total * cum_k) -
    round(total * cum_{k-1})`` and the final bin takes the remainder,
    so the parts always sum to ``total`` exactly regardless of
    floating-point error in the fractions.
    """
    parts: List[int] = []
    allocated = 0
    cum = 0.0
    last = len(fractions) - 1
    for k, fraction in enumerate(fractions):
        if k == last:
            parts.append(total - allocated)
            break
        cum += fraction
        target = int(round(total * cum))
        target = min(max(target, allocated), total)
        parts.append(target - allocated)
        allocated = target
    return parts


class Timeline:
    """Per-window series derived from one trace's phase stream."""

    def __init__(self, windows: List[TimelineWindow], window_cycles: float,
                 t0: float, t_end: float, line_bytes: int = 64,
                 frequency_hz: Optional[float] = None,
                 machine_name: Optional[str] = None) -> None:
        self.windows = windows
        self.window_cycles = window_cycles
        self.t0 = t0
        self.t_end = t_end
        self.line_bytes = line_bytes
        self.frequency_hz = frequency_hz
        self.machine_name = machine_name

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def span(self) -> float:
        return self.t_end - self.t0

    def __len__(self) -> int:
        return len(self.windows)

    def totals(self) -> Dict[str, int]:
        """Aggregate counters — by construction these equal the phase
        stream's (and therefore the PMU/IMC window's) totals exactly."""
        totals = {key: 0 for key in COUNTER_KEYS}
        for window in self.windows:
            for key, value in window.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def series(self, key: str) -> List[Optional[float]]:
        """One per-window column, counter or derived."""
        if key in COUNTER_KEYS:
            return [float(w.counters.get(key, 0)) for w in self.windows]
        if key in DERIVED_KEYS:
            return [w.derived.get(key) for w in self.windows]
        raise TimelineError(f"unknown timeline series {key!r}")

    # ------------------------------------------------------------------
    # rendering / export
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Per-window CSV: bounds, raw counters, derived series.

        The cycle columns are written losslessly (``repr`` of the float):
        absolute TSC bounds run to millions of cycles, where six
        significant digits would lose whole windows' worth of precision.
        """
        header = (["window", "start_cycle", "end_cycle", "busy_cycles"]
                  + list(COUNTER_KEYS) + list(DERIVED_KEYS))
        rows = [",".join(header)]
        for w in self.windows:
            cells: List[str] = [str(w.index), repr(float(w.start)),
                                repr(float(w.end)),
                                repr(float(w.busy_cycles))]
            cells += [str(w.counters.get(key, 0)) for key in COUNTER_KEYS]
            for key in DERIVED_KEYS:
                value = w.derived.get(key)
                cells.append("" if value is None else f"{value:.6g}")
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"

    def to_json_doc(self) -> dict:
        return {
            "machine": self.machine_name,
            "frequency_hz": self.frequency_hz,
            "window_cycles": self.window_cycles,
            "t0": self.t0,
            "t_end": self.t_end,
            "span_cycles": self.span,
            "window_count": len(self.windows),
            "line_bytes": self.line_bytes,
            "totals": self.totals(),
            "windows": [w.to_dict() for w in self.windows],
        }

    def window_table(self, max_rows: int = 16) -> str:
        """Compact per-window text table (CLI / docs rendering)."""
        header = (f"{'win':>4} {'cycles':>22} {'busy':>8} {'R bpc':>6} "
                  f"{'W bpc':>6} {'L1%':>4} {'L2%':>4} {'L3%':>4} "
                  f"{'IPC':>5} {'F/cyc':>6} {'I [F/B]':>8}")
        lines = [header, "-" * len(header)]
        shown = self.windows
        skipped = 0
        if len(shown) > max_rows:
            skipped = len(shown) - max_rows
            shown = shown[:max_rows]

        def pct(value: Optional[float]) -> str:
            return "-" if value is None else f"{100.0 * value:.0f}"

        def num(value: Optional[float], fmt: str = ".2f") -> str:
            return "-" if value is None else format(value, fmt)

        for w in shown:
            d = w.derived
            intensity = d.get("intensity")
            lines.append(
                f"{w.index:>4} [{w.start:>9.0f},{w.end:>10.0f}) "
                f"{w.busy_cycles:>8.0f} {num(d.get('dram_read_bpc')):>6} "
                f"{num(d.get('dram_write_bpc')):>6} "
                f"{pct(d.get('l1_hit_rate')):>4} "
                f"{pct(d.get('l2_hit_rate')):>4} "
                f"{pct(d.get('l3_hit_rate')):>4} "
                f"{num(d.get('ipc')):>5} "
                f"{num(d.get('flops_per_cycle')):>6} "
                f"{'-' if intensity is None else f'{intensity:8.4f}'}"
            )
        if skipped:
            lines.append(f"... {skipped} more window(s)")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Aggregate JSON-ready view (embedded by ``--json`` output)."""
        totals = self.totals()
        read_lines = totals["dram_reads"] + totals["hw_prefetch_dram_reads"]
        write_lines = totals["writebacks"] + totals["nt_lines"]
        peak_bpc = None
        peak_window = None
        for w in self.windows:
            bpc = w.derived.get("dram_bpc")
            if bpc is not None and (peak_bpc is None or bpc > peak_bpc):
                peak_bpc, peak_window = bpc, w.index
        return {
            "kind": "timeline",
            "machine": self.machine_name,
            "window_cycles": self.window_cycles,
            "window_count": len(self.windows),
            "span_cycles": self.span,
            "totals": totals,
            "dram": {
                "read_lines": read_lines,
                "write_lines": write_lines,
                "bytes": (read_lines + write_lines) * self.line_bytes,
            },
            "peak_dram_bpc": peak_bpc,
            "peak_dram_window": peak_window,
        }


def _derive(window: TimelineWindow, line_bytes: int,
            frequency_hz: Optional[float]) -> None:
    """Fill one window's derived series from its counters."""
    c = window.counters
    width = window.width
    derived: Dict[str, Optional[float]] = {}
    if width <= 0:
        window.derived = derived
        return
    read_bytes = window.dram_read_lines * line_bytes
    write_bytes = window.dram_write_lines * line_bytes
    derived["dram_read_bpc"] = read_bytes / width
    derived["dram_write_bpc"] = write_bytes / width
    derived["dram_bpc"] = (read_bytes + write_bytes) / width
    accesses = c.get("accesses", 0)
    l1_hits = c.get("l1_hits", 0)
    l1_misses = accesses - l1_hits
    l2_hits = c.get("l2_hits", 0)
    l2_misses = l1_misses - l2_hits
    # windowed rates are estimates (numerator and denominator are
    # rounded independently when a phase straddles a boundary) — clamp
    # to [0, 1] so a rounding artifact never reads as >100%
    def rate(num: int, den: int) -> Optional[float]:
        return min(max(num / den, 0.0), 1.0) if den > 0 else None

    derived["l1_hit_rate"] = rate(l1_hits, accesses)
    derived["l2_hit_rate"] = rate(l2_hits, l1_misses)
    derived["l3_hit_rate"] = rate(c.get("l3_hits", 0), l2_misses)
    derived["ipc"] = c.get("instructions", 0) / width
    flops = c.get("flops", 0)
    derived["flops_per_cycle"] = flops / width
    issued = c.get("hw_prefetch_issued", 0)
    derived["prefetch_accuracy"] = (
        c.get("prefetch_useful", 0) / issued if issued else None
    )
    derived["prefetch_coverage"] = (
        c.get("hw_prefetch_dram_reads", 0) / window.dram_read_lines
        if window.dram_read_lines else None
    )
    dram_bytes = read_bytes + write_bytes
    # the measured-intensity convention: traffic floored at one line so
    # cache-resident windows land far right instead of at infinity
    derived["intensity"] = (
        flops / max(dram_bytes, float(line_bytes)) if flops else None
    )
    derived["performance"] = (
        flops / width * frequency_hz if frequency_hz else None
    )
    window.derived = derived


def build_timeline(entries: Sequence[_PhaseEntry], config: TimelineConfig,
                   line_bytes: int = 64,
                   frequency_hz: Optional[float] = None,
                   machine_name: Optional[str] = None) -> Timeline:
    """Bin phase entries into a :class:`Timeline` (see module rules)."""
    if not entries:
        raise TimelineError(
            "trace contains no phase events to window — was the sampler "
            "attached while a program ran?"
        )
    t0 = min(e.ts for e in entries)
    t_end = max(e.ts + e.dur for e in entries)
    span = t_end - t0
    if span <= 0:
        raise TimelineError(
            "measured span is zero cycles; nothing to window"
        )
    width = float(config.window_cycles)
    if width > span:
        raise TimelineError(
            f"window of {width:g} cycles exceeds the measured execution "
            f"span of {span:g} cycles; choose a window <= the span"
        )
    count = int(math.ceil(span / width))
    # guard against float-edge spans like span == count*width exactly
    while t0 + (count - 1) * width >= t_end:
        count -= 1
    windows = [
        TimelineWindow(
            index=k,
            start=t0 + k * width,
            end=min(t0 + (k + 1) * width, t_end),
            counters={key: 0 for key in COUNTER_KEYS},
        )
        for k in range(count)
    ]

    def window_of(ts: float) -> int:
        return min(max(int((ts - t0) // width), 0), count - 1)

    for entry in entries:
        start, dur = entry.ts, entry.dur
        if dur <= 0:
            target = windows[window_of(start)]
            for key, value in entry.counters.items():
                target.counters[key] += value
            continue
        end = start + dur
        first = window_of(start)
        last = window_of(min(end, t_end) - 1e-9)
        if first == last:
            target = windows[first]
            target.busy_cycles += dur
            for key, value in entry.counters.items():
                target.counters[key] += value
            continue
        overlaps: List[float] = []
        for k in range(first, last + 1):
            w = windows[k]
            overlaps.append(min(end, w.end) - max(start, w.start))
            windows[k].busy_cycles += overlaps[-1]
        fractions = [o / dur for o in overlaps]
        for key, value in entry.counters.items():
            if not value:
                continue
            for k, part in enumerate(_split_counter(value, fractions)):
                if part:
                    windows[first + k].counters[key] += part

    for window in windows:
        _derive(window, line_bytes, frequency_hz)
    return Timeline(windows, width, t0, t_end, line_bytes=line_bytes,
                    frequency_hz=frequency_hz, machine_name=machine_name)


class TimelineSampler:
    """Trace-bus sink that collects phase entries for windowing.

    Leaner than :class:`~repro.trace.collector.TraceCollector`: it
    keeps one small record per phase event (no raw event retention, no
    derived per-phase metrics), so sampling overhead stays a small
    constant per phase — ``benchmarks/bench_s3_timeline.py`` pins the
    ratio against an untraced run.

    ``machine`` (optional) supplies line size, frequency, and name for
    the derived series; ``config`` is a :class:`TimelineConfig` or a
    bare window width in cycles.
    """

    def __init__(self, machine=None, config=None) -> None:
        if config is None:
            config = TimelineConfig(10_000.0)
        elif not isinstance(config, TimelineConfig):
            config = TimelineConfig(float(config))
        self.config = config
        self.entries: List[_PhaseEntry] = []
        self._in_measured = False
        self._saw_marks = False
        self.line_bytes = 64
        self.frequency_hz: Optional[float] = None
        self.machine_name: Optional[str] = None
        if machine is not None:
            self.line_bytes = machine.spec.hierarchy.line_bytes
            self.frequency_hz = machine.spec.base_hz
            self.machine_name = machine.spec.name

    # ------------------------------------------------------------------
    # sink interface
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == PHASE:
            args = event.args
            counters = dict(args.get("batch") or {})
            counters["instructions"] = int(args.get("instructions", 0))
            flops = int(args.get("flops", 0))
            reissue = int(args.get("reissue_flops", 0))
            counters["flops"] = flops
            counters["counted_flops"] = flops + reissue
            counters["reissue_slots"] = int(args.get("reissue_slots", 0))
            self.entries.append(_PhaseEntry(
                ts=event.ts, dur=event.dur, core=event.core,
                counters=counters,
                measured=self._in_measured or not self._saw_marks,
            ))
        elif kind == MARK:
            if event.name == "measured:begin":
                self._saw_marks = True
                self._in_measured = True
                for entry in self.entries:
                    entry.measured = False
            elif event.name == "measured:end":
                self._in_measured = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def measured_entries(self) -> List[_PhaseEntry]:
        if not self._saw_marks or not self.config.measured_only:
            return list(self.entries)
        return [e for e in self.entries if e.measured]

    def phase_span(self) -> Tuple[float, float]:
        """(t0, t_end) cycle bounds of the (measured) phase stream."""
        entries = self.measured_entries()
        if not entries:
            raise TimelineError(
                "trace contains no phase events to window — was the "
                "sampler attached while a program ran?"
            )
        return (min(e.ts for e in entries),
                max(e.ts + e.dur for e in entries))

    def timeline(self, config: Optional[TimelineConfig] = None) -> Timeline:
        """Window the collected phases (raises
        :class:`~repro.errors.TimelineError` on an empty trace or a
        window wider than the span)."""
        return build_timeline(
            self.measured_entries(), config or self.config,
            line_bytes=self.line_bytes, frequency_hz=self.frequency_hz,
            machine_name=self.machine_name,
        )

    def summary(self) -> dict:
        """JSON-ready aggregate (lets ``measurement_to_dict`` embed a
        timeline-sampled measurement like a collector-traced one)."""
        return self.timeline().summary()


def timeline_from_events(events, config,
                         machine=None) -> Timeline:
    """Build a :class:`Timeline` from an already-recorded event stream
    (e.g. a :class:`~repro.trace.collector.TraceCollector`'s
    ``events``): replays them through a fresh sampler."""
    sampler = TimelineSampler(machine, config)
    for event in events:
        sampler.emit(event)
    return sampler.timeline()
