"""``FleetMonitor.drain`` against a ``process_batch`` loop.

A drain verdicts its backlog in sweeps: one ``take`` of as many whole
rounds as fit the sweep's byte budget, one vote count over the finite
rows of all of them, then a fold per round.  A ``process_batch`` loop
verdicts the same backlog one round at a time.  The two must be
indistinguishable, bit for bit: the round results (how many, where each
starts and ends, every array), the device report rows, the counters
(``mean_entropy``'s bits included), the forensic stream, the round
count, the quarantine, the drift detector and the traced spans.

Backlogs cross the sweep bound: at batch size 256 under the module's
own budget, and at every batch size under a budget of three rounds.
Non-finite rows sit on round edges, and one round is all non-finite.
"""

import numpy as np
import pytest

from repro.fleet import BackpressurePolicy, FleetMonitor
from repro.fleet import engine
from repro.fleet.report import device_report_key
from repro.ml import RandomForestClassifier
from repro.obs import TraceContext, TraceSampler
from repro.uncertainty import TrustedHMD
from tests.conftest import make_blobs

N_DEVICES = 11


@pytest.fixture(scope="module")
def fitted_hmd():
    X, y = make_blobs(n_per_class=120, separation=2.0, seed=31)
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=15, random_state=0),
        threshold=0.4,
    ).fit(X, y)
    return X, hmd


def rounds_per_sweep(batch_size: int, n_features: int) -> int:
    """Rounds one sweep takes under the module's byte budget."""
    return max(1, engine._SWEEP_BYTES // (batch_size * 8 * n_features))


def backlog(X, batch_size: int, n_rounds: int, seed: int):
    """``(device_ids, rows)`` of ``n_rounds`` rounds plus a partial one.

    Rows are drawn from ``X`` with noise (so some are uncertain and get
    withheld).  Non-finite rows sit on the last and first row of rounds
    2 and 3, and round 1 is non-finite throughout.
    """
    rng = np.random.default_rng(seed)
    n = n_rounds * batch_size + max(1, batch_size // 2)
    rows = X[rng.integers(len(X), size=n)]
    rows = rows + rng.normal(scale=0.8, size=rows.shape)
    bad = [np.nan, np.inf, -np.inf]
    for k, row in enumerate(
        [2 * batch_size, 3 * batch_size - 1, 3 * batch_size, 4 * batch_size - 1]
    ):
        rows[row, k % X.shape[1]] = bad[k % 3]
    rows[batch_size : 2 * batch_size, 0] = np.nan
    devices = np.array([f"dev-{d:02d}" for d in rng.integers(N_DEVICES, size=n)])
    return devices, rows


def monitor(hmd, X, batch_size, telemetry, n_rows):
    observe = (
        {"telemetry": True, "tracer": TraceContext(TraceSampler(rate=3))}
        if telemetry
        else {}
    )
    fleet = FleetMonitor(
        hmd,
        batch_size=batch_size,
        policy=BackpressurePolicy(max_pending=n_rows + 1),
        drift_reference=hmd.analyze(X).entropy,
        **observe,
    )
    for d in range(N_DEVICES):
        fleet.register(f"dev-{d:02d}")
    return fleet


def submit(fleet, devices, rows):
    for device_id, row in zip(devices, rows):
        assert fleet.submit(str(device_id), row)


def loop(fleet, max_batches=None):
    results = []
    while max_batches is None or len(results) < max_batches:
        result = fleet.process_batch()
        if result is None:
            break
        results.append(result)
    return results


def bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def assert_results_equal(swept, looped):
    assert len(swept) == len(looped)
    for a, b in zip(swept, looped):
        assert a.threshold == b.threshold
        for field in ("device_ids", "seqs", "predictions", "entropy", "accepted"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert bits(x) == bits(y), field


def assert_monitors_equal(swept, looped):
    assert device_report_key(swept.report()) == device_report_key(looped.report())
    for name in ("n_seen", "n_accepted", "n_flagged", "n_malware_alerts"):
        assert getattr(swept.stats, name) == getattr(looped.stats, name)
    for name in ("entropy_sum", "mean_entropy"):
        assert bits(np.float64(getattr(swept.stats, name))) == bits(
            np.float64(getattr(looped.stats, name))
        )
    assert swept.n_batches == looped.n_batches
    assert swept.pending == looped.pending

    def stream(fleet):
        return [
            (s.device_id, s.seq, s.prediction, s.step)
            + (bits(s.entropy), bits(s.features))
            for s in fleet.forensics.snapshot()
        ]

    assert stream(swept) == stream(looped)
    assert swept.forensics.total_flagged == looped.forensics.total_flagged

    def quarantine(fleet):
        return [
            (w.device_id, w.seq, bits(w.features), w.reason)
            for w in fleet.quarantine.snapshot()
        ]

    assert quarantine(swept) == quarantine(looped)
    assert swept.quarantine.total_quarantined == looped.quarantine.total_quarantined

    assert vars(swept.drift.detector) == vars(looped.drift.detector)
    assert swept.drift._buffer == looped.drift._buffer
    assert swept.drift.n_observed == looped.drift.n_observed

    assert (swept.tracer is None) == (looped.tracer is None)
    if swept.tracer is not None:
        def spans(fleet):
            return sorted(
                (s.device_id, s.seq, tuple(s.stamps)) for s in fleet.tracer.spans
            )

        assert spans(swept) == spans(looped)
        assert swept.tracer.n_completed == looped.tracer.n_completed > 0
        swept_metrics = swept.metrics.snapshot()["counters"]
        assert swept_metrics == looped.metrics.snapshot()["counters"]


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
@pytest.mark.parametrize(
    "batch_size,budget_rounds",
    [(1, 3), (7, 3), (256, 3), (256, None)],
    ids=["b1-small-budget", "b7-small-budget", "b256-small-budget", "b256-budget"],
)
def test_drain_is_a_process_batch_loop(
    fitted_hmd, monkeypatch, batch_size, budget_rounds, telemetry
):
    """Bitwise: results, report rows, counters, forensics, round count,
    quarantine, drift and spans, over a backlog of more than one sweep."""
    X, hmd = fitted_hmd
    if budget_rounds is not None:
        monkeypatch.setattr(
            engine, "_SWEEP_BYTES", budget_rounds * batch_size * 8 * X.shape[1]
        )
    per_sweep = rounds_per_sweep(batch_size, X.shape[1])
    if budget_rounds is not None:
        assert per_sweep == budget_rounds
    n_rounds = max(per_sweep + per_sweep // 2, 5)
    devices, rows = backlog(X, batch_size, n_rounds, seed=batch_size)

    swept = monitor(hmd, X, batch_size, telemetry, len(rows))
    looped = monitor(hmd, X, batch_size, telemetry, len(rows))
    submit(swept, devices, rows)
    submit(looped, devices, rows)
    swept_results = swept.drain()
    looped_results = loop(looped)

    # A round of only non-finite rows (round 1, and at batch size 1
    # rounds 2 and 3 too) gives no result; every other round gives one.
    finite = np.isfinite(rows).all(axis=1)
    n_live = sum(
        finite[i : i + batch_size].any() for i in range(0, len(rows), batch_size)
    )
    assert len(looped_results) == n_live < -(-len(rows) // batch_size)
    assert swept.quarantine.total_quarantined == np.count_nonzero(~finite)
    assert_results_equal(swept_results, looped_results)
    assert_monitors_equal(swept, looped)
    assert swept.drain() == [] and swept.process_batch() is None


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_capped_drain_takes_exactly_k_rounds(fitted_hmd, monkeypatch, batch_size):
    """``drain(max_batches=k)`` returns k rounds and leaves the rest
    queued, across sweeps and across the all-non-finite round."""
    X, hmd = fitted_hmd
    monkeypatch.setattr(engine, "_SWEEP_BYTES", 3 * batch_size * 8 * X.shape[1])
    devices, rows = backlog(X, batch_size, 12, seed=5)
    swept = monitor(hmd, X, batch_size, False, len(rows))
    looped = monitor(hmd, X, batch_size, False, len(rows))
    submit(swept, devices, rows)
    submit(looped, devices, rows)
    for k in (1, 4, 2):
        capped = swept.drain(max_batches=k)
        assert len(capped) == k
        assert_results_equal(capped, loop(looped, k))
        assert swept.pending == looped.pending > 0
        assert_monitors_equal(swept, looped)
    assert_results_equal(swept.drain(), loop(looped))
    assert swept.pending == 0
    assert_monitors_equal(swept, looped)
