"""Tests for the metrics registry: instruments and exposition."""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    JsonlExporter,
    MetricsRegistry,
    NULL_REGISTRY,
    default_registry,
    histogram_percentile,
    render_prometheus,
    resolve_registry,
    summarize_snapshot,
)

pytestmark = pytest.mark.obs


class TestInstruments:
    def test_counter_accumulates(self):
        c = MetricsRegistry().counter("x_total", "help")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_holds_last_value(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(17.5)
        assert g.value == 17.5

    def test_histogram_observe_and_percentile(self):
        h = MetricsRegistry().histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert math.isclose(h.sum, 5.6)
        assert h.percentile(50) == 0.1
        assert h.percentile(99) == 10.0

    def test_histogram_observe_many_matches_loop(self):
        values = np.random.default_rng(0).exponential(0.01, size=500)
        bulk = MetricsRegistry().histogram("a_seconds")
        loop = MetricsRegistry().histogram("b_seconds")
        bulk.observe_many(values)
        for v in values:
            loop.observe(v)
        assert bulk.count == loop.count == 500
        assert math.isclose(bulk.sum, loop.sum)
        np.testing.assert_array_equal(bulk._counts, loop._counts)

    def test_histogram_overflow_bucket(self):
        h = MetricsRegistry().histogram("x_seconds", buckets=(1.0,))
        h.observe(100.0)
        assert h.count == 1
        assert h.percentile(50) == 1.0  # overflow reports the last bound

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("empty", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h_seconds") is registry.histogram("h_seconds")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")
        with pytest.raises(ValueError):
            registry.histogram("name")

    def test_snapshot_round_trips_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(7)
        registry.gauge("g").set(2.5)
        registry.histogram("h_seconds").observe(0.003)
        snap = registry.snapshot()
        assert snap["counters"] == {"c_total": 7}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h_seconds"]["count"] == 1
        assert list(snap["histograms"]["h_seconds"]["buckets"]) == list(
            DEFAULT_BUCKETS
        )
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestDisabledRegistry:
    def test_noop_instruments_are_shared_and_inert(self):
        disabled = MetricsRegistry(enabled=False)
        c = disabled.counter("x_total")
        assert c is disabled.counter("y_total")  # one shared null object
        c.inc(100)
        assert c.value == 0
        g = disabled.gauge("g")
        g.set(5)
        assert g.value == 0.0
        h = disabled.histogram("h_seconds")
        h.observe(1.0)
        h.observe_many([1.0, 2.0])
        assert h.count == 0
        assert h.percentile(99) == 0.0

    def test_snapshot_is_empty(self):
        assert MetricsRegistry(enabled=False).snapshot() == {}
        assert NULL_REGISTRY.snapshot() == {}

    def test_resolve_registry_semantics(self):
        assert resolve_registry(None) is NULL_REGISTRY
        assert resolve_registry(False) is NULL_REGISTRY
        fresh = resolve_registry(True)
        assert fresh.enabled and fresh is not resolve_registry(True)
        mine = MetricsRegistry()
        assert resolve_registry(mine) is mine


class TestHistogramPercentile:
    def test_empty_histogram_is_zero(self):
        assert histogram_percentile(
            {"buckets": [1.0], "counts": [0, 0], "sum": 0.0, "count": 0}, 50
        ) == 0.0

    def test_matches_bucket_upper_bound(self):
        hist = {"buckets": [0.1, 1.0], "counts": [9, 1, 0], "sum": 1.0,
                "count": 10}
        assert histogram_percentile(hist, 50) == 0.1
        assert histogram_percentile(hist, 99) == 1.0


class TestExposition:
    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("fleet_x_total", "things").inc(3)
        registry.gauge("fleet_depth").set(2)
        registry.histogram("fleet_lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE fleet_x_total counter" in text
        assert "fleet_x_total 3" in text
        assert "# TYPE fleet_depth gauge" in text
        assert 'fleet_lat_seconds_bucket{le="0.1"} 0' in text
        assert 'fleet_lat_seconds_bucket{le="1.0"} 1' in text
        assert 'fleet_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "fleet_lat_seconds_count 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_summarize_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("fleet_x_total").inc(3)
        registry.histogram("fleet_lat_seconds").observe(0.005)
        text = summarize_snapshot(registry.snapshot())
        assert "fleet_x_total" in text
        assert "fleet_lat_seconds" in text
        assert "p95_ms" in text

    def test_summarize_disabled(self):
        assert "disabled" in summarize_snapshot({})


class TestJsonlExporter:
    def test_export_appends_records(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        path = tmp_path / "telemetry.jsonl"
        with JsonlExporter(path, registry) as exporter:
            exporter.export()
            registry.counter("c_total").inc(1)
            exporter.export()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["telemetry"]["counters"]["c_total"] == 2
        assert records[1]["telemetry"]["counters"]["c_total"] == 3
        assert records[0]["t"] <= records[1]["t"]

    def test_maybe_export_paces_itself(self, tmp_path):
        registry = MetricsRegistry()
        exporter = JsonlExporter(
            tmp_path / "t.jsonl", registry, interval=3600.0
        )
        assert exporter.maybe_export() is True
        assert exporter.maybe_export() is False  # within the interval
        assert exporter.n_exports == 1
        exporter.close()

    def test_export_without_registry_or_snapshot_raises(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlExporter(tmp_path / "t.jsonl").export()

    def test_export_explicit_snapshot(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlExporter(path) as exporter:
            exporter.export({"counters": {"x_total": 1}})
        assert json.loads(path.read_text())["telemetry"]["counters"] == {
            "x_total": 1
        }
