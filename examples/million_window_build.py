"""Build a million-window DVFS training corpus on the batched backend.

Chains the vectorized simulator stages end to end — batched workload
generation (`WorkloadGenerator.generate_batch`), whole-tensor DVFS
simulation (`SocSimulator.run_batch`), and batched feature extraction
(`DvfsFeatureExtractor.extract_windows`) — in fixed-size chunks, so the
peak memory stays at one chunk of traces while the finished corpus
accumulates as float32 feature rows.

Every chunk is bitwise identical to what the per-window reference path
(`generate` → `run` → `extract`) would produce from the same
seeds; `benchmarks/test_bench_sim.py` gates exactly that while timing
the same build at full scale.

    python examples/million_window_build.py            # 1M windows
    python examples/million_window_build.py 50000      # smaller demo
"""

import sys
import time

import numpy as np

from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE
from repro.hmd.features import DvfsFeatureExtractor
from repro.sim import SocSimulator, WorkloadGenerator

WINDOW_STEPS = 40
CHUNK_WINDOWS = 25_000


def build(n_windows: int, *, seed: int = 0):
    """Chunked corpus build; returns (X float32, y int8, elapsed_sec)."""
    # Alternate the pools so even small builds contain both classes.
    benign, malware = list(DVFS_KNOWN_BENIGN), list(DVFS_KNOWN_MALWARE)
    specs = [
        pool[(i // 2) % len(pool)]
        for i, pool in enumerate([benign, malware] * max(len(benign), len(malware)))
    ]
    generator = WorkloadGenerator(random_state=seed)
    soc = SocSimulator(random_state=seed + 1)
    extractor = DvfsFeatureExtractor()

    X = None
    y = np.empty(n_windows, dtype=np.int8)
    done = 0
    t0 = time.perf_counter()
    for chunk in range(-(-n_windows // CHUNK_WINDOWS)):
        spec = specs[chunk % len(specs)]
        take = min(CHUNK_WINDOWS, n_windows - done)
        activity = generator.generate_batch(spec, take, WINDOW_STEPS)
        dvfs = soc.run_batch(activity)
        rows = extractor.extract_windows(dvfs.as_trace(), WINDOW_STEPS)
        if X is None:
            X = np.empty((n_windows, rows.shape[1]), dtype=np.float32)
        X[done : done + take] = rows
        y[done : done + take] = spec.label
        done += take
        if chunk % 5 == 4:
            rate = done / (time.perf_counter() - t0)
            print(f"  {done:>9,} / {n_windows:,} windows ({rate:,.0f}/sec)")
    return X, y, time.perf_counter() - t0


def main() -> None:
    n_windows = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    print(
        f"building {n_windows:,} windows of {WINDOW_STEPS} steps "
        f"in chunks of {CHUNK_WINDOWS:,} ..."
    )
    X, y, elapsed = build(n_windows)
    print(
        f"done: X {X.shape} {X.dtype} ({X.nbytes / 1e6:.0f} MB), "
        f"{int(y.sum()):,} malware rows, {elapsed:.1f} s "
        f"({n_windows / elapsed:,.0f} windows/sec)"
    )


if __name__ == "__main__":
    main()
