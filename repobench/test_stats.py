"""Tests for the benchmark's statistics helpers, tracer, speed monitor
and catalog.

Run with ``python3 -m pytest repobench/test_stats.py -q`` from the
repository root (they are not part of the tier-1 suite under tests/).
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path

import pytest

import catalog
from stats import geomean, median, percentile, self_time, union_length
from tracing import Tracer


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="need at least 10"):
        percentile(range(99), 90.0)
    assert percentile(range(100), 90.0) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(range(19), 50.0)
    assert percentile(range(20), 50.0) == 9.5


def test_percentile_is_inclusive_interpolation():
    values = [float(v * v % 37) for v in range(200)]
    expected = statistics.quantiles(values, n=10, method="inclusive")[8]
    assert percentile(values, 90.0) == pytest.approx(expected)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile(range(1000), 101.0)


def test_median_is_inclusive_and_ordered():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0
    values = [5.0, -1.0, 9.5, 3.25, 3.25, 0.0]
    assert median(values) == statistics.median(values) == median(sorted(values))


def test_geomean_rejects_non_positive_values():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    for bad in ([], [1.0, 0.0], [2.0, -3.0], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError):
            geomean(bad)


def test_union_length_counts_overlaps_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_union_of_children():
    # Two overlapping children (threads under one batch span) cover
    # [1, 5]; a third covers [7, 8]; one runs past the parent's end and
    # is clipped to [9, 10].
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_tracer_layers_and_uninstall():
    class Layer:
        def outer(self, inner):
            return inner()

        def inner(self):
            return 7

    tracer = Tracer(lambda name: name.split(".")[0])
    original = Layer.__dict__["outer"]
    tracer.install([(Layer, "outer", "a.outer"), (Layer, "inner", "b.inner")])
    layer = Layer()
    assert layer.outer(layer.inner) == 7
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    totals = tracer.layer_totals()
    assert totals["a"]["calls"] == totals["b"]["calls"] == 1
    outer = next(span for span in tracer.spans if span[1] == "a.outer")
    inner = next(span for span in tracer.spans if span[1] == "b.inner")
    assert inner[5] == outer[0]
    assert totals["a"]["self_s"] == pytest.approx(
        (outer[4] - outer[3]) - (inner[4] - inner[3])
    )


def test_catalog_names_the_benchmark_json_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    assert per_layer == list(catalog.PER_LAYER)
    assert set(catalog.DETERMINISTIC) <= set(per_layer) | set(end_to_end)
    assert all(len(entry["why"]) <= 200 for entry in spec["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in spec["end_to_end"])


def test_speed_monitor_brackets_each_interval():
    from harness import Interval, SpeedMonitor

    with SpeedMonitor() as monitor:
        monitor.calibrate()
        monitor.calibrate()
    assert monitor.process.poll() is not None
    assert len(monitor.readings) == 2
    assert set(monitor.readings[0][1]) == set(os.sched_getaffinity(0))
    reference = SpeedMonitor.REFERENCE_LOOP_S
    monitor.readings = [
        (10.0, {0: reference, 1: 3 * reference}),
        (11.0, {0: 2 * reference, 1: 2 * reference}),
        (12.0, {0: 4 * reference, 1: 4 * reference}),
        (20.0, {0: 5 * reference, 1: 5 * reference}),
    ]
    # The calibrations before and after a sample that lies between two,
    # each at its fastest CPU.
    assert monitor.slowdown(Interval(10.1, 10.9)) == pytest.approx(1.5)
    assert monitor.seconds(Interval(10.1, 10.9)) == pytest.approx(0.8 / 1.5)
    # Every calibration from the last before to the first after.
    assert monitor.slowdown(Interval(10.5, 12.5)) == pytest.approx((1 + 2 + 4 + 5) / 4)
    # Outside the readings, the nearest one stands in.
    assert monitor.slowdown(Interval(25.0, 26.0)) == pytest.approx(5.0)
    # A sample longer than SHORT_S also takes every calibration within
    # its own length before and after it.
    assert monitor.slowdown(Interval(12.2, 13.7)) == pytest.approx((4 + 5) / 2)
    assert monitor.slowdown(Interval(12.2, 14.7)) == pytest.approx((1 + 2 + 4 + 5) / 4)
    # Time spent calibrating inside an interval is not the program's.
    monitor.pauses = [(9.9, 10.0), (10.9, 11.0), (11.9, 12.0), (19.9, 20.0)]
    assert monitor.raw_seconds(Interval(10.5, 12.5)) == pytest.approx(2.0 - 0.2)
    assert monitor.raw_seconds(Interval(11.95, 12.5)) == pytest.approx(0.5)
