"""Windowed timeline sampler: binning, derivation, trajectory, export."""

import json

import pytest

from repro.errors import TimelineError
from repro.roofline import ComputeCeiling, MemoryCeiling, RooflineModel
from repro.roofline.plot_ascii import ascii_plot
from repro.roofline.plot_svg import svg_plot
from repro.trace import (
    MARK,
    PHASE,
    RooflineTrajectory,
    TimelineConfig,
    TimelineSampler,
    TraceEvent,
    to_chrome_trace,
)
from repro.trace.timeline import _split_counter


def phase(ts, dur, batch=None, instructions=0, flops=0, core=0,
          reissue_flops=0, reissue_slots=0, name="loop:x"):
    return TraceEvent(PHASE, name, ts, core=core, dur=dur, args={
        "trips": 1, "dominant": "dram_bandwidth", "bounds": {},
        "batch": batch or {}, "dram_bpc": 4.0, "mlp": 8.0,
        "reissue_slots": reissue_slots, "reissue_flops": reissue_flops,
        "instructions": instructions, "flops": flops,
    })


def sample(events, window, **kwargs):
    sampler = TimelineSampler(config=TimelineConfig(window, **kwargs))
    for event in events:
        sampler.emit(event)
    return sampler


class TestConfig:
    def test_rejects_zero_window(self):
        with pytest.raises(TimelineError):
            TimelineConfig(0)

    def test_rejects_negative_window(self):
        with pytest.raises(TimelineError):
            TimelineConfig(-10.0)

    def test_rejects_non_finite_window(self):
        with pytest.raises(TimelineError):
            TimelineConfig(float("inf"))
        with pytest.raises(TimelineError):
            TimelineConfig(float("nan"))

    def test_accepts_integer_width(self):
        assert TimelineConfig(100).window_cycles == 100


class TestSplitCounter:
    def test_parts_always_sum_to_total(self):
        for total in (1, 2, 7, 63, 1000, 12345):
            for fractions in ([0.5, 0.5], [0.1, 0.2, 0.7],
                              [1 / 3, 1 / 3, 1 / 3], [0.999, 0.001],
                              [0.2] * 5):
                parts = _split_counter(total, fractions)
                assert sum(parts) == total
                assert all(p >= 0 for p in parts)

    def test_split_is_proportional(self):
        parts = _split_counter(100, [0.25, 0.75])
        assert parts == [25, 75]


class TestBinning:
    def test_window_count_and_bounds(self):
        tl = sample([phase(0, 100, instructions=10)], 30).timeline()
        # span 100, window 30 -> 4 windows, last partial [90, 100)
        assert len(tl) == 4
        assert tl.windows[0].start == 0 and tl.windows[0].end == 30
        assert tl.windows[-1].start == 90 and tl.windows[-1].end == 100
        assert tl.windows[-1].width == pytest.approx(10)

    def test_straddling_event_counters_reconcile_exactly(self):
        events = [phase(0, 100, batch={"dram_reads": 7, "accesses": 13},
                        instructions=997, flops=1001)]
        tl = sample(events, 30).timeline()
        totals = tl.totals()
        assert totals["dram_reads"] == 7
        assert totals["accesses"] == 13
        assert totals["instructions"] == 997
        assert totals["flops"] == 1001

    def test_straddling_event_split_is_proportional(self):
        tl = sample([phase(0, 100, instructions=100)], 25).timeline()
        assert [w.counters["instructions"] for w in tl.windows] == [25] * 4

    def test_busy_cycles_track_overlap(self):
        tl = sample([phase(10, 40, instructions=4)], 25).timeline()
        # phase [10, 50) over windows [10, 35) and [35, 50)
        assert tl.windows[0].busy_cycles == pytest.approx(25)
        assert tl.windows[1].busy_cycles == pytest.approx(15)

    def test_zero_duration_event_lands_in_its_window(self):
        events = [phase(0, 90, instructions=9),
                  phase(65, 0, batch={"flushes": 3})]
        tl = sample(events, 30).timeline()
        assert tl.windows[2].counters["flushes"] == 3
        assert tl.totals()["flushes"] == 3

    def test_multiple_events_accumulate(self):
        events = [phase(0, 30, instructions=3),
                  phase(30, 30, instructions=5),
                  phase(60, 30, instructions=7)]
        tl = sample(events, 45).timeline()
        assert len(tl) == 2
        assert tl.totals()["instructions"] == 15

    def test_counted_flops_include_reissue(self):
        events = [phase(0, 60, flops=100, reissue_flops=40,
                        reissue_slots=5)]
        totals = sample(events, 30).timeline().totals()
        assert totals["flops"] == 100
        assert totals["counted_flops"] == 140
        assert totals["reissue_slots"] == 5

    def test_exact_multiple_span_has_no_empty_tail_window(self):
        tl = sample([phase(0, 90, instructions=9)], 30).timeline()
        assert len(tl) == 3
        assert tl.windows[-1].end == 90


class TestMeasuredRegion:
    def test_marks_scope_the_timeline(self):
        events = [
            phase(0, 50, instructions=1, name="setup"),
            TraceEvent(MARK, "measured:begin", 50.0),
            phase(50, 100, instructions=42),
            TraceEvent(MARK, "measured:end", 150.0),
            phase(150, 50, instructions=1, name="teardown"),
        ]
        tl = sample(events, 25).timeline()
        assert tl.t0 == 50 and tl.t_end == 150
        assert tl.totals()["instructions"] == 42

    def test_no_marks_means_everything_counts(self):
        events = [phase(0, 50, instructions=1),
                  phase(50, 50, instructions=2)]
        tl = sample(events, 20).timeline()
        assert tl.totals()["instructions"] == 3

    def test_measured_only_false_keeps_all(self):
        events = [
            phase(0, 50, instructions=7, name="setup"),
            TraceEvent(MARK, "measured:begin", 50.0),
            phase(50, 50, instructions=2),
            TraceEvent(MARK, "measured:end", 100.0),
        ]
        tl = sample(events, 25, measured_only=False).timeline()
        assert tl.totals()["instructions"] == 9


class TestDerived:
    def test_dram_bandwidth_uses_line_bytes(self):
        events = [phase(0, 64, batch={"dram_reads": 4, "writebacks": 2})]
        sampler = sample(events, 32)
        tl = sampler.timeline()
        w = tl.windows[0]
        # 2 read lines x 64B over 32 cycles
        assert w.derived["dram_read_bpc"] == pytest.approx(2 * 64 / 32)
        assert w.derived["dram_write_bpc"] == pytest.approx(1 * 64 / 32)

    def test_hit_rates_none_without_denominator(self):
        events = [phase(0, 60, instructions=6)]
        w = sample(events, 30).timeline().windows[0]
        assert w.derived["l1_hit_rate"] is None
        assert w.derived["l2_hit_rate"] is None
        assert w.derived["prefetch_accuracy"] is None

    def test_hit_rates_clamped_to_one(self):
        # rounding can split hits/misses inconsistently; rate must not
        # exceed 100%
        events = [phase(0, 60, batch={"accesses": 10, "l1_hits": 10})]
        w = sample(events, 30).timeline().windows[0]
        assert w.derived["l1_hit_rate"] == 1.0

    def test_intensity_floors_traffic_at_one_line(self):
        events = [phase(0, 60, flops=640)]  # zero DRAM traffic
        w = sample(events, 30).timeline().windows[0]
        assert w.derived["intensity"] == pytest.approx(
            w.counters["flops"] / 64.0)

    def test_ipc_and_flops_per_cycle(self):
        events = [phase(0, 50, instructions=100, flops=200)]
        w = sample(events, 25).timeline().windows[0]
        assert w.derived["ipc"] == pytest.approx(2.0)
        assert w.derived["flops_per_cycle"] == pytest.approx(4.0)


class TestSerialization:
    EVENTS = [phase(0, 100, batch={"dram_reads": 6, "accesses": 20,
                                   "l1_hits": 14},
                    instructions=50, flops=80)]

    def test_csv_has_header_and_one_row_per_window(self):
        tl = sample(self.EVENTS, 25).timeline()
        lines = tl.to_csv().strip().splitlines()
        assert lines[0].startswith("window,start_cycle,end_cycle")
        assert "intensity" in lines[0]
        assert len(lines) == 1 + len(tl)

    def test_csv_cycle_bounds_are_lossless(self):
        # absolute TSC bounds in the millions: six significant digits
        # would round 7466111.338 to 7.46611e+06
        t0 = 7466111.338125
        sampler = sample([phase(t0, 25000.25, instructions=10, flops=10,
                                batch={"dram_reads": 3})], 10000)
        sampler.frequency_hz = 1e9
        tl = sampler.timeline()
        rows = [line.split(",") for line in
                tl.to_csv().strip().splitlines()[1:]]
        assert len(rows) == len(tl) == 3
        for row, window in zip(rows, tl.windows):
            assert float(row[1]) == window.start
            assert float(row[2]) == window.end
            assert float(row[3]) == window.busy_cycles
        assert float(rows[0][1]) == t0
        traj = RooflineTrajectory.from_timeline(tl)
        traj_rows = [line.split(",") for line in
                     traj.to_csv().strip().splitlines()[1:]]
        assert traj_rows
        for row, point in zip(traj_rows, traj.points):
            window = tl.windows[point.index]
            assert float(row[1]) == window.start
            assert float(row[2]) == window.end

    def test_json_doc_roundtrips(self):
        tl = sample(self.EVENTS, 25).timeline()
        doc = json.loads(json.dumps(tl.to_json_doc()))
        assert doc["window_count"] == len(tl)
        assert doc["totals"]["instructions"] == 50
        assert len(doc["windows"]) == len(tl)

    def test_window_table_renders(self):
        text = sample(self.EVENTS, 25).timeline().window_table()
        assert "win" in text and "IPC" in text

    def test_summary_is_json_ready(self):
        summary = sample(self.EVENTS, 25).timeline().summary()
        json.dumps(summary)
        assert summary["kind"] == "timeline"
        assert summary["dram"]["read_lines"] == 6


class TestTrajectory:
    def make_timeline(self):
        sampler = TimelineSampler(config=TimelineConfig(25))
        sampler.frequency_hz = 1e9
        for event in [
            phase(0, 25, flops=100, batch={"dram_reads": 10}),
            phase(25, 25, flops=0, batch={"dram_reads": 5}),
            phase(50, 25, flops=400, batch={"dram_reads": 1}),
        ]:
            sampler.emit(event)
        return sampler.timeline()

    def test_zero_flop_windows_are_skipped(self):
        traj = RooflineTrajectory.from_timeline(self.make_timeline())
        assert [p.index for p in traj.points] == [0, 2]

    def test_coordinates(self):
        traj = RooflineTrajectory.from_timeline(self.make_timeline())
        first = traj.points[0]
        assert first.intensity == pytest.approx(100 / (10 * 64))
        assert first.performance == pytest.approx(100 / 25 * 1e9)

    def test_needs_frequency(self):
        sampler = sample([phase(0, 50, flops=10)], 25)
        with pytest.raises(TimelineError):
            RooflineTrajectory.from_timeline(sampler.timeline())

    def test_csv(self):
        traj = RooflineTrajectory.from_timeline(self.make_timeline())
        lines = traj.to_csv().strip().splitlines()
        assert lines[0].startswith("window,start_cycle")
        assert len(lines) == 1 + len(traj)


def tiny_model():
    return RooflineModel(
        "m",
        [ComputeCeiling("scalar", 2.7e9), ComputeCeiling("avx", 21.6e9)],
        [MemoryCeiling("DRAM", 11e9)],
    )


def tiny_trajectory(n=12):
    sampler = TimelineSampler(config=TimelineConfig(10))
    sampler.frequency_hz = 1e9
    for k in range(n):
        sampler.emit(phase(k * 10, 10, flops=100 + 10 * k,
                           batch={"dram_reads": max(10 - k, 1)}))
    return RooflineTrajectory.from_timeline(sampler.timeline(),
                                            label="walk")


class TestPlotOverlays:
    def test_svg_polyline_markers_and_legend(self):
        svg = svg_plot(tiny_model(), timeline=tiny_trajectory())
        assert 'stroke-width="1.8"' in svg        # gradient segments
        assert 'stroke="white"' in svg            # start/end markers
        assert "trajectory: walk" in svg

    def test_svg_single_point_trajectory(self):
        svg = svg_plot(tiny_model(), timeline=tiny_trajectory(n=1))
        assert "trajectory: walk" in svg

    def test_svg_without_timeline_unchanged(self):
        assert "trajectory" not in svg_plot(tiny_model())

    def test_ascii_breadcrumbs_and_legend(self):
        text = ascii_plot(tiny_model(), timeline=tiny_trajectory())
        assert "trajectory: walk" in text
        # nine sampled breadcrumbs at most, numbered from 1
        assert "1.." in text
        assert "9" in text.split("trajectory")[0]

    def test_ascii_few_points(self):
        text = ascii_plot(tiny_model(), timeline=tiny_trajectory(n=3))
        assert "1..3 trajectory" in text


class TestChromeTimelineTracks:
    def test_counter_tracks_and_metadata(self):
        sampler = sample([phase(0, 100, instructions=50, flops=80,
                                batch={"accesses": 20, "l1_hits": 14,
                                       "dram_reads": 6})], 25)
        tl = sampler.timeline()
        doc = to_chrome_trace([], frequency_hz=1e9, timeline=tl)
        events = doc["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert "timeline.dram_bw_bpc" in tracks
        assert "timeline.ipc" in tracks
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"] == "timeline" for e in meta)
        assert any(e["name"] == "thread_sort_index" for e in meta)
        json.dumps(doc)

    def test_closing_sample_at_t_end(self):
        tl = sample([phase(0, 100, instructions=10)], 25).timeline()
        doc = to_chrome_trace([], frequency_hz=1e9, timeline=tl)
        ipc = [e for e in doc["traceEvents"]
               if e["ph"] == "C" and e["name"] == "timeline.ipc"]
        # one sample per window plus the closing sample
        assert len(ipc) == len(tl) + 1
        assert ipc[-1]["ts"] == pytest.approx(
            tl.t_end / 1e9 * 1e6)

    def test_machine_scope_events_get_their_own_track(self):
        events = [TraceEvent(MARK, "measured:begin", 0.0)]
        doc = to_chrome_trace(events, frequency_hz=1e9)
        mark = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert mark["tid"] == 10_000
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["args"].get("name") == "machine" for e in meta)

    def test_core_events_keep_core_tid(self):
        doc = to_chrome_trace([phase(0, 10, core=1)], frequency_hz=1e9)
        x = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert x["tid"] == 1
