"""Prometheus text-exposition conformance.

:class:`~repro.obs.metrics.MetricsRegistry` is the only Prometheus
writer; one checker covers every family it renders, including the
machine-plane families absorbed from a trace summary.  Sample values
must parse back to exactly the value the registry holds.
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    escape_help,
    escape_label_value,
    format_labels,
    format_value,
)

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def check_exposition(text: str) -> None:
    """Assert the structural rules of the text exposition format."""
    seen_help, seen_type = set(), set()
    for line in text.splitlines():
        assert line == line.rstrip(), f"trailing whitespace: {line!r}"
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in seen_help, f"duplicate HELP for {name}"
            seen_help.add(name)
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert name not in seen_type, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram", "untyped")
            assert name in seen_help, f"TYPE before HELP for {name}"
            seen_type.add(name)
        elif line:
            assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
            value = line.rsplit(" ", 1)[1]
            assert value not in ("nan", "inf", "-inf"), \
                f"python float spelling leaked: {line!r}"
    if text:
        assert text.endswith("\n"), "non-empty exposition must end in \\n"


class TestEscaping:
    def test_label_value_escapes(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_help_escapes_backslash_and_newline(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_format_labels_round_trip(self):
        rendered = format_labels({"kernel": 'say "hi"\n'})
        assert rendered == '{kernel="say \\"hi\\"\\n"}'

    def test_format_value_nonfinite(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestRegistryExposition:
    def test_full_registry_conforms(self):
        reg = MetricsRegistry()
        reg.counter("repro_lookups_total", "lookups",
                    labelnames=("outcome",)).inc(3, outcome='we"ird')
        reg.gauge("repro_depth", "with \\ and \n in help").set(2)
        h = reg.histogram("repro_lat_seconds", "latency",
                          buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = reg.to_prometheus()
        check_exposition(text)
        assert 'outcome="we\\"ird"' in text

    def test_histogram_buckets_cumulative_ascending_end_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency",
                          buckets=(1.0, 0.1, 10.0))  # unsorted on purpose
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        text = reg.to_prometheus()
        buckets = re.findall(
            r'repro_lat_seconds_bucket\{le="([^"]+)"\} (\d+)', text)
        assert [b[0] for b in buckets] == ["0.1", "1", "10", "+Inf"]
        counts = [int(b[1]) for b in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 4
        assert "repro_lat_seconds_sum" in text
        assert text.count("repro_lat_seconds_count 4") == 1

    def test_one_help_and_type_per_family(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x", labelnames=("k",))
        c.inc(1, k="a")
        c.inc(1, k="b")
        text = reg.to_prometheus()
        assert text.count("# HELP repro_x_total") == 1
        assert text.count("# TYPE repro_x_total") == 1

    def test_nonfinite_gauge_uses_prometheus_spelling(self):
        reg = MetricsRegistry()
        reg.gauge("repro_ratio", "ratio").set(math.inf)
        text = reg.to_prometheus()
        assert "repro_ratio +Inf" in text
        check_exposition(text)

    def test_empty_registry_is_empty_exposition(self):
        assert MetricsRegistry().to_prometheus() == ""


def trace_exposition(summary: dict) -> str:
    """Exposition of a fresh registry holding one trace summary."""
    reg = MetricsRegistry()
    reg.absorb_trace_summary(summary)
    return reg.to_prometheus()


def parse_samples(text: str) -> dict:
    """``name{labels}`` -> float for every sample line."""
    return {line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line and not line.startswith("#")}


class TestLosslessValues:
    def test_large_counter_renders_as_integer(self):
        assert format_value(1_234_567.0) == "1234567"
        assert format_value(1_234_567) == "1234567"

    def test_fractions_keep_every_digit(self):
        assert format_value(7466111.338) == "7466111.338"
        assert format_value(1 / 3) == repr(1 / 3)

    def test_bool_renders_as_number(self):
        assert format_value(True) == "1"

    @given(st.integers(min_value=-(2 ** 53), max_value=2 ** 53))
    def test_integers_parse_back_exactly(self, n):
        reg = MetricsRegistry()
        reg.gauge("repro_g", "g").set(n)
        reg.counter("repro_c_total", "c").inc(abs(n))
        samples = parse_samples(reg.to_prometheus())
        assert samples["repro_g"] == n
        assert samples["repro_c_total"] == abs(n)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_floats_parse_back_exactly(self, value):
        reg = MetricsRegistry()
        reg.gauge("repro_g", "g", labelnames=("k",)).set(value, k="v")
        text = reg.to_prometheus()
        check_exposition(text)
        assert parse_samples(text)['repro_g{k="v"}'] == value

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=0.0, max_value=1e6))
    def test_histogram_sum_and_bounds_parse_back_exactly(self, value):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h", "h", buckets=(value / 3 or 1.0,))
        h.observe(value)
        samples = parse_samples(reg.to_prometheus())
        assert samples["repro_h_sum"] == value
        le = format_value(value / 3 or 1.0)
        assert f'repro_h_bucket{{le="{le}"}}' in samples
        assert float(le) == (value / 3 or 1.0)


class TestTraceExportExposition:
    """The trace summary's families, absorbed into a registry."""

    def _summary(self):
        return {
            "phase_count": 2,
            "total_cycles": 1234.0,
            "bound_cycles": {'odd"bound': 10.0, "dram_bw": 90.0},
            "cache": {"l1_hits": 100, "l2_hits": 10},
            "dram": {"read_lines": 64, "write_lines": 32},
            "prefetch_engines": {"stride": {"issued": 5, "useful": 4}},
            "reissue": {"slots": 1, "overcounted_flops": 8},
            "bandwidth_utilization": {"dram": 0.5, "l3": None},
        }

    def test_summary_exposition_conforms(self):
        check_exposition(trace_exposition(self._summary()))

    def test_label_values_escaped(self):
        text = trace_exposition(self._summary())
        assert 'bound="odd\\"bound"' in text

    def test_unmeasured_utilization_is_omitted(self):
        text = trace_exposition(self._summary())
        assert 'repro_bandwidth_utilization{level="dram"} 0.5' in text
        assert 'level="l3"' not in text

    def test_plan_cache_section_present(self):
        # plan-cache and sweep families share the registry with the
        # trace families
        reg = MetricsRegistry()
        reg.absorb_trace_summary(self._summary())
        reg.absorb_sweep_stats({"hits": 1, "misses": 2, "corrupt": 0,
                                "hit_rate": 1 / 3, "elapsed_seconds": 0.2})
        reg.absorb_plan_cache({"hits": 6, "misses": 2, "hit_rate": 0.75,
                               "built_segments": 2, "built_lines": 40,
                               "flushes": 0})
        text = reg.to_prometheus()
        check_exposition(text)
        assert 'repro_plan_cache_lookups_total{outcome="hit"} 6' in text
        assert "repro_plan_cache_hit_rate 0.75" in text
        assert f"repro_sweep_cache_hit_rate {1 / 3!r}" in text
        assert "repro_phase_count 2" in text

    def test_empty_summary_is_valid_zero_exposition(self):
        # an empty trace summary still renders the always-present
        # families with zero values — valid text, no bare newline
        text = trace_exposition({})
        check_exposition(text)
        assert text != "\n"
        assert "repro_phase_count 0" in text
        assert 'repro_dram_lines_total{dir="read"} 0' in text
        # labelled families with no series are not registered at all
        assert "repro_prefetch_total" not in text
        assert "repro_avg_outstanding_misses" not in text

    def test_nonfinite_value_spelling(self):
        text = trace_exposition({"total_cycles": float("nan"),
                                 "phase_count": 1})
        assert "repro_cycles_total NaN" in text
        check_exposition(text)
