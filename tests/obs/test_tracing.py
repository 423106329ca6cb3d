"""Tests for sampled window-lifecycle tracing.

The load-bearing guarantees: sampling is deterministic per
``(device_id, seq)`` (same windows sampled at every batch size
and every replay), spans cover every pipeline stage the traffic
actually visits, and the summary's transition percentiles are
computed over completed spans only.
"""

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor
from repro.ml import RandomForestClassifier
from repro.obs import STAGES, TraceContext, TraceSampler, TraceSpan
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs

pytestmark = pytest.mark.obs


class TestTraceSampler:
    def test_deterministic_across_instances(self):
        a = TraceSampler(rate=8, seed=3)
        b = TraceSampler(rate=8, seed=3)
        picks_a = [a.sample(f"dev-{i % 5}", i) for i in range(400)]
        picks_b = [b.sample(f"dev-{i % 5}", i) for i in range(400)]
        assert picks_a == picks_b
        assert any(picks_a) and not all(picks_a)

    def test_block_mask_matches_scalar_path(self):
        sampler = TraceSampler(rate=16, seed=1)
        seqs = np.arange(256)
        mask = sampler.sample_block("dev-0", seqs)
        assert mask.tolist() == [sampler.sample("dev-0", int(s)) for s in seqs]

    def test_mixed_batch_mask_matches_scalar_path(self):
        sampler = TraceSampler(rate=4, seed=2)
        device_ids = np.array([f"dev-{i % 3}" for i in range(90)])
        seqs = np.arange(90)
        mask = sampler.sample_rows(device_ids, seqs)
        assert mask.tolist() == [
            sampler.sample(str(d), int(s)) for d, s in zip(device_ids, seqs)
        ]

    def test_indexed_mask_matches_scalar_path(self):
        """The mask from dense indices is the per-window one, as the
        registry grows and when a different registry list is passed."""
        sampler = TraceSampler(rate=4, seed=2)
        rng = np.random.default_rng(0)
        names = ["dev-a", "dev-b"]
        for registry in (names, names, ["dev-z", "dev-y", "dev-x"]):
            for grow in range(3):
                if registry is names:
                    names.append(f"dev-{grow}")
                index = rng.integers(len(registry), size=60)
                seqs = rng.integers(1000, size=60)
                mask = sampler.sample_indexed(index, seqs, registry)
                assert mask.tolist() == [
                    sampler.sample(registry[i], int(s)) for i, s in zip(index, seqs)
                ]

    def test_rate_one_samples_everything(self):
        sampler = TraceSampler(rate=1)
        assert sampler.sample_block("dev", np.arange(32)).all()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TraceSampler(rate=0)


class TestTraceContext:
    def test_span_lifecycle_with_explicit_timestamps(self):
        tracer = TraceContext(TraceSampler(rate=1))
        assert tracer.begin("dev-0", 7, ts=1.0)
        tracer.stamp_rows(["dev-0"], [7], "queue", ts=2.0)
        tracer.stamp_rows(["dev-0"], [7], "verdict", ts=4.0)
        assert tracer.complete_rows(["dev-0"], [7], ts=7.0) == 1
        assert tracer.n_completed == 1 and tracer.n_pending == 0
        (span,) = tracer.spans
        assert span.stamps == {
            "ingest": 1.0, "queue": 2.0, "verdict": 4.0, "scatter": 7.0
        }
        assert span.duration() == 6.0
        assert span.transitions() == [
            ("ingest", "queue", 1.0),
            ("queue", "verdict", 2.0),
            ("verdict", "scatter", 3.0),
        ]

    def test_unsampled_windows_cost_nothing(self):
        tracer = TraceContext(TraceSampler(rate=10**9, seed=5))
        assert tracer.begin_block("dev-0", np.arange(100)) == 0
        tracer.stamp_rows(["dev-0"] * 3, [1, 2, 3], "queue")
        assert tracer.complete_rows(["dev-0"] * 3, [1, 2, 3]) == 0
        assert tracer.n_sampled == 0 and len(tracer.spans) == 0

    def test_stamp_on_untraced_window_is_noop(self):
        tracer = TraceContext(TraceSampler(rate=1))
        tracer.begin("dev-0", 1, ts=1.0)
        tracer.stamp_rows(["dev-9", "dev-0"], [3, 2], "queue")  # never began
        assert tracer.n_pending == 1
        assert tracer.complete_rows(["dev-9", "dev-0"], [3, 2]) == 0

    def test_summary_shape(self):
        tracer = TraceContext(TraceSampler(rate=1))
        for seq in range(4):
            tracer.begin("dev-0", seq, ts=float(seq))
            tracer.stamp_rows(["dev-0"], [seq], "queue", ts=float(seq) + 0.5)
        tracer.complete_rows(["dev-0"] * 4, list(range(4)), ts=10.0)
        summary = tracer.summary()
        assert summary["n_completed"] == 4
        assert summary["stages"] == ["ingest", "queue", "scatter"]
        assert set(summary["transitions"]) == {"ingest→queue", "queue→scatter"}
        assert summary["transitions"]["ingest→queue"]["p50"] == 0.5
        assert summary["transitions"]["ingest→queue"]["n"] == 4
        assert summary["total"]["n"] == 4

    def test_summary_empty(self):
        summary = TraceContext().summary()
        assert summary["total"] is None
        assert summary["transitions"] == {}

    def test_span_cap_bounds_memory(self):
        tracer = TraceContext(TraceSampler(rate=1), max_spans=8)
        for seq in range(32):
            tracer.begin("dev-0", seq, ts=0.0)
            tracer.complete_rows(["dev-0"], [seq], ts=1.0)
        assert len(tracer.spans) == 8
        assert tracer.n_completed == 32


@pytest.fixture(scope="module")
def fitted_hmd():
    X, y = make_blobs(n_per_class=120, separation=4.0, seed=70)
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=20, random_state=0),
        threshold=0.4,
    ).fit(X, y)
    return X, hmd


def _arrivals(X, n_devices=6, rounds=20, seed=1):
    rng = np.random.default_rng(seed)
    return [
        (f"dev-{d:03d}", X[rng.integers(len(X))])
        for _ in range(rounds)
        for d in range(n_devices)
    ]


def _drive(monitor, arrivals):
    for device_id, _ in arrivals:
        monitor.register(device_id)
    for device_id, window in arrivals:
        monitor.submit(device_id, window)
    return monitor.drain()


class TestMonitorSpans:
    def test_inprocess_spans_cover_all_stages(self, fitted_hmd):
        X, hmd = fitted_hmd
        tracer = TraceContext(TraceSampler(rate=4, seed=0))
        monitor = FleetMonitor(hmd, batch_size=32, tracer=tracer)
        _drive(monitor, _arrivals(X))
        assert tracer.n_completed > 0
        assert tracer.n_pending == 0  # every begun span finished
        assert tracer.stages_covered() == set(STAGES)
        for span in tracer.spans:
            stamps = [span.stamps[s] for s in STAGES if s in span.stamps]
            assert stamps == sorted(stamps)  # monotone through the stages

    def test_same_windows_sampled_at_every_batch_size(self, fitted_hmd):
        X, hmd = fitted_hmd
        arrivals = _arrivals(X)
        keys = []
        for batch_size in (32, 96):
            tracer = TraceContext(TraceSampler(rate=4, seed=0))
            monitor = FleetMonitor(hmd, batch_size=batch_size, tracer=tracer)
            _drive(monitor, arrivals)
            keys.append(sorted((s.device_id, s.seq) for s in tracer.spans))
        assert keys[0] == keys[1]

    @pytest.mark.parametrize("shed", ["drop_oldest", "drop_newest"])
    def test_shed_windows_keep_pending_spans_bounded(self, fitted_hmd, shed):
        """A shed window never reaches scatter; its open span must not
        accumulate for the life of the process."""
        X, hmd = fitted_hmd
        max_spans = 16
        tracer = TraceContext(TraceSampler(rate=1), max_spans=max_spans)
        monitor = FleetMonitor(
            hmd,
            batch_size=16,
            policy=BackpressurePolicy(max_pending=8, shed=shed),
            tracer=tracer,
        )
        for seed in range(5):
            for device_id, window in _arrivals(X, n_devices=4, rounds=10, seed=seed):
                monitor.submit(device_id, window)
            monitor.drain()
        assert monitor.pending == 0
        assert monitor.report().n_shed >= 5 * max_spans
        assert tracer.n_pending <= max_spans

    def test_trace_span_duration_missing_stage(self):
        span = TraceSpan("dev-0", 1, {"ingest": 1.0})
        assert span.duration() is None
        assert span.transitions() == []
