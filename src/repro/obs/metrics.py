"""Low-overhead fleet metrics: counters, gauges, latency histograms.

The telemetry plane the ROADMAP's "operable system" needs, kept cheap
enough to leave on in production:

* instruments are plain Python objects bound **once** at component
  construction, and a disabled registry hands out shared no-op
  instruments.  The batch paths (a block submit, a take, a verdict
  round) pay one instrument call per hook per *batch*.  The per-row
  admission (``FleetMonitor.submit``) is the one hook per *window*:
  with telemetry on it pays three calls per row (the admitted counter,
  the depth and arena gauges), so the gauges read the queue after every
  call; with telemetry off it tests the registry's ``enabled`` flag
  once and calls nothing;
* histograms are fixed-bucket numpy count arrays updated lock-free
  (``np.add.at`` for bulk observations); only instrument *creation*
  takes a lock;
* :meth:`MetricsRegistry.snapshot` is plain data.

Exposition: :func:`render_prometheus` (text format),
:func:`summarize_snapshot` (terminal tables) and :class:`JsonlExporter`
(periodic JSONL append).  No dependencies beyond numpy.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from ..formatting import format_table

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "default_registry",
    "histogram_percentile",
    "render_prometheus",
    "resolve_registry",
    "summarize_snapshot",
]

# Latency buckets: log-ish upper bounds from 10 µs to 10 s, wide enough
# for a single-row verdict pass and a full-batch round alike.
DEFAULT_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing count (windows admitted, restarts, ...)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, n: int = 1) -> None:
        self._value += n

    @property
    def value(self):
        return self._value


class Gauge:
    """Point-in-time level (queue depth, arena occupancy)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value) -> None:
        self._value = value

    @property
    def value(self):
        return self._value


class Histogram:
    """Fixed-bucket distribution with lock-free numpy bucket counts.

    ``buckets`` are inclusive upper bounds; one overflow bucket catches
    everything beyond the last bound.  :meth:`observe` is a single
    ``searchsorted`` + increment, :meth:`observe_many` folds a whole
    array in one ``np.add.at`` pass.
    """

    __slots__ = ("name", "help", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self._bounds = np.asarray(buckets, dtype=float)
        if len(self._bounds) == 0 or np.any(np.diff(self._bounds) <= 0):
            raise ValueError("buckets must be strictly increasing and non-empty.")
        self._counts = np.zeros(len(self._bounds) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[np.searchsorted(self._bounds, value, side="left")] += 1
        self._sum += float(value)
        self._count += 1

    def observe_many(self, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        np.add.at(
            self._counts, np.searchsorted(self._bounds, values, side="left"), 1
        )
        self._sum += float(values.sum())
        self._count += len(values)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, q: float) -> float:
        """Bucket-resolution percentile estimate (upper-bound convention)."""
        return histogram_percentile(
            {
                "buckets": self._bounds.tolist(),
                "counts": self._counts.tolist(),
                "sum": self._sum,
                "count": self._count,
            },
            q,
        )


def histogram_percentile(hist: dict, q: float) -> float:
    """Percentile estimate from a histogram *snapshot* dict.

    Returns the upper bound of the bucket containing the ``q``-th
    percentile observation (the Prometheus convention, biased at most
    one bucket high); the overflow bucket reports the last bound.
    Empty histograms report 0.0.
    """
    counts = np.asarray(hist["counts"], dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return 0.0
    rank = max(1, int(np.ceil(q / 100.0 * total)))
    bucket = int(np.searchsorted(np.cumsum(counts), rank, side="left"))
    bounds = hist["buckets"]
    return float(bounds[min(bucket, len(bounds) - 1)])


class _NullCounter:
    """Shared no-op counter handed out by a disabled registry."""

    __slots__ = ()
    name = "null"
    help = ""
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    help = ""
    value = 0.0

    def set(self, value) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    help = ""
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instrument namespace with get-or-create semantics.

    One process-global :func:`default_registry` exists for ad-hoc use;
    fleet monitors create (or are handed) their own instance so the
    registries of separate monitors stay independent and merge
    explicitly.  A
    registry built with ``enabled=False`` returns the shared no-op
    instruments from every factory and snapshots to ``{}`` — the
    zero-cost off switch.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = bool(enabled)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, table: dict, name: str, factory):
        with self._lock:
            instrument = table.get(name)
            if instrument is None:
                for other in (self._counters, self._gauges, self._histograms):
                    if other is not table and name in other:
                        raise ValueError(
                            f"metric {name!r} already registered as a "
                            "different instrument kind."
                        )
                instrument = table[name] = factory()
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get_or_create(
            self._counters, name, lambda: Counter(name, help)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get_or_create(self._gauges, name, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get_or_create(
            self._histograms, name, lambda: Histogram(name, help, buckets)
        )

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (``{}`` when disabled)."""
        if not self.enabled:
            return {}
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in self._counters.items()
                },
                "gauges": {name: g.value for name, g in self._gauges.items()},
                "histograms": {
                    name: {
                        "buckets": h._bounds.tolist(),
                        "counts": h._counts.tolist(),
                        "sum": h._sum,
                        "count": h._count,
                    }
                    for name, h in self._histograms.items()
                },
            }


NULL_REGISTRY = MetricsRegistry(enabled=False)

_DEFAULT_REGISTRY: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The lazily created process-global registry."""
    global _DEFAULT_REGISTRY
    with _DEFAULT_LOCK:
        if _DEFAULT_REGISTRY is None:
            _DEFAULT_REGISTRY = MetricsRegistry()
        return _DEFAULT_REGISTRY


def resolve_registry(telemetry) -> MetricsRegistry:
    """Normalise a monitor's ``telemetry=`` argument to a registry.

    ``None``/``False`` → the shared no-op registry, ``True`` → a fresh
    per-monitor registry, a :class:`MetricsRegistry` → itself.
    """
    if telemetry is None or telemetry is False:
        return NULL_REGISTRY
    if telemetry is True:
        return MetricsRegistry()
    return telemetry


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text exposition of one snapshot."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += hist["counts"][-1] if len(hist["counts"]) > len(
            hist["buckets"]
        ) else 0
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {hist['sum']}")
        lines.append(f"{name}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def summarize_snapshot(snapshot: dict) -> str:
    """Terminal-friendly tables of one snapshot (``--telemetry`` output)."""
    if not snapshot:
        return "telemetry disabled (no snapshot)"
    parts: list[str] = []
    scalars = [
        [name, value]
        for name, value in sorted(snapshot.get("counters", {}).items())
    ] + [
        [name, value]
        for name, value in sorted(snapshot.get("gauges", {}).items())
    ]
    if scalars:
        parts.append(format_table(["metric", "value"], scalars))
    hist_rows = [
        [
            name,
            hist["count"],
            f"{histogram_percentile(hist, 50) * 1e3:.2f}",
            f"{histogram_percentile(hist, 95) * 1e3:.2f}",
            f"{histogram_percentile(hist, 99) * 1e3:.2f}",
        ]
        for name, hist in sorted(snapshot.get("histograms", {}).items())
    ]
    if hist_rows:
        parts.append(
            format_table(
                ["histogram", "count", "p50_ms", "p95_ms", "p99_ms"], hist_rows
            )
        )
    return "\n".join(parts) if parts else "no instruments registered"


class JsonlExporter:
    """Append registry snapshots to a JSONL file, optionally on a cadence.

    :meth:`export` writes one line now; :meth:`maybe_export` writes only
    when ``interval`` seconds have passed since the last write — call it
    from the drain loop and exports pace themselves.
    """

    def __init__(
        self,
        path,
        registry: MetricsRegistry | None = None,
        *,
        interval: float = 5.0,
    ):
        self.path = path
        self.registry = registry
        self.interval = float(interval)
        self._last = None
        self._file = None
        self.n_exports = 0

    def export(self, snapshot: dict | None = None) -> dict:
        if snapshot is None:
            if self.registry is None:
                raise ValueError("no snapshot given and no registry bound.")
            snapshot = self.registry.snapshot()
        record = {"t": time.time(), "telemetry": snapshot}
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()
        self._last = time.monotonic()
        self.n_exports += 1
        return record

    def maybe_export(self) -> bool:
        now = time.monotonic()
        if self._last is not None and now - self._last < self.interval:
            return False
        self.export()
        return True

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
