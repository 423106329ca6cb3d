"""Feature extraction (S9): sensor traces → classifier feature vectors.

This is the "Feature Extraction" box of the paper's HMD pipeline
(Figs. 1-2):

* :class:`DvfsFeatureExtractor` — one feature vector per *window* of the
  DVFS state time-series: per-channel state residency histograms,
  transition statistics and temperature telemetry.  Matches the style of
  Chawla et al., where a signature summarises several seconds of DVFS
  activity.
* :class:`HpcFeatureExtractor` — one feature vector per *sampling
  interval*: derived per-instruction/per-cycle rates (IPC, MPKI, ...)
  plus log-scaled raw counts.  Matches Zhou et al., where every counter
  sample is a data point (hence the much larger HPC dataset in Table I).

:meth:`DvfsFeatureExtractor.extract_windows` turns a long trace into
one row per window.  Three implementations of it are kept, all
**bitwise identical**:

* the **native kernel** (``_features.c``, built and loaded by
  :mod:`repro.ml._native`) serves whenever the library is built and the
  operands fit it (a state dtype with an entry point, a contiguous
  float64 temperature).  One C sweep per (window, channel) writes every
  column except the spectral bands straight into the output matrix,
  plus the centred normalised series; numpy's ``rfft`` of that series
  and the band sums give the bands.  The normalised series comes from
  a per-channel lookup table of ``s / denom``, and every float sum is a
  C copy of numpy's pairwise summation, built with
  ``-ffp-contract=off`` so no multiply-add is fused.
* the **numpy kernel** (:meth:`DvfsFeatureExtractor._extract_windows_numpy`)
  is the fallback and the reference the native kernel is tested
  against.  The trace is reshaped to ``(n_windows, n_channels,
  window_steps)`` and every feature of every channel of every window
  comes out of whole-tensor numpy ops, with no per-channel loop.
* the **per-window specification** (:meth:`DvfsFeatureExtractor.extract`,
  :meth:`DvfsFeatureExtractor.extract_windows_reference`) takes one
  window and one channel at a time: the readable definition of every
  feature.

The whole-tensor numpy kernel equals the per-window specification
bitwise.  That is not automatic for floating point — it holds for three
reasons.  Every float accumulation reduces a *contiguous* innermost
axis (numpy applies the same pairwise summation to a 1-D contiguous
array and to each line of a C-contiguous 3-D array).  Dot products are
spelled multiply-then-sum on both paths (BLAS ``ddot`` accumulates in a
different order and is avoided).  The counting features — state
fractions, transition and jump rates, mean dwell — are exact integer
counts divided by the same denominator the reference's float mean
divides by, and ``std`` is ``sqrt(var / n)``, the same operations as
numpy's own.  ``tests/hmd/test_features_batched.py`` and
``tests/hmd/test_property_features.py`` enforce the equivalence on both
kernels, and ``tests/hmd/test_native_features.py`` holds the native
kernel to the numpy kernel's bits.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ..ml import _native
from ..sim.trace import DvfsTrace, HpcTrace

__all__ = ["DvfsFeatureExtractor", "HpcFeatureExtractor"]


class DvfsFeatureExtractor:
    """Summarise a DVFS window into a fixed-length feature vector.

    Features per channel: state-residency histogram, normalised
    frequency statistics, transition dynamics (rates, jump sizes, dwell
    lengths), temporal structure (lag-1 autocorrelation, spectral band
    energies) — the kind of time-series summary Chawla et al. derive
    from DVFS state sequences.  Cross-channel correlations and
    temperature telemetry complete the signature.
    """

    #: Number of spectral bands of the normalised frequency signal.
    N_SPECTRAL_BANDS = 4

    _CHANNEL_STATS = (
        "mean_norm_freq",
        "std_norm_freq",
        "transition_rate",
        "up_transition_rate",
        "mean_abs_jump",
        "max_jump",
        "frac_max_state",
        "frac_min_state",
        "frac_low_half",
        "mean_dwell",
        "max_dwell_frac",
        "lag1_autocorr",
    )

    def feature_names(self, trace: DvfsTrace) -> list[str]:
        """Names matching :meth:`extract` output order."""
        names: list[str] = []
        for c, channel in enumerate(trace.channel_names):
            for s in range(trace.n_states(c)):
                names.append(f"{channel}_residency_{s}")
            names.extend(f"{channel}_{stat}" for stat in self._CHANNEL_STATS)
            names.extend(
                f"{channel}_spectral_band_{b}" for b in range(self.N_SPECTRAL_BANDS)
            )
        for a in range(trace.n_channels):
            for b in range(a + 1, trace.n_channels):
                names.append(
                    f"xcorr_{trace.channel_names[a]}_{trace.channel_names[b]}"
                )
        names.extend(["temp_mean", "temp_std", "temp_slope"])
        return names

    # -- per-window reference path -------------------------------------

    @staticmethod
    def _dwell_stats(states: np.ndarray) -> tuple[float, float]:
        """Mean run length and longest-run fraction of the state series."""
        change_points = np.flatnonzero(np.diff(states) != 0)
        boundaries = np.concatenate([[-1], change_points, [len(states) - 1]])
        run_lengths = np.diff(boundaries).astype(float)
        return float(run_lengths.mean()), float(run_lengths.max() / len(states))

    def _spectral_bands(self, norm: np.ndarray) -> list[float]:
        """Energy in N equal-width frequency bands of the signal."""
        spectrum = np.abs(np.fft.rfft(norm - norm.mean())) ** 2
        if len(spectrum) <= 1:
            return [0.0] * self.N_SPECTRAL_BANDS
        spectrum = spectrum[1:]  # drop DC
        total = spectrum.sum()
        if total <= 0:
            return [0.0] * self.N_SPECTRAL_BANDS
        bands = np.array_split(spectrum, self.N_SPECTRAL_BANDS)
        return [float(band.sum() / total) for band in bands]

    def extract(self, trace: DvfsTrace) -> np.ndarray:
        """Feature vector for one DVFS window (reference path)."""
        feats: list[float] = []
        norms = []
        for c in range(trace.n_channels):
            # int64, so unsigned diffs do not wrap and uint64 bincounts.
            states = trace.states[:, c].astype(np.int64, copy=False)
            n_states = trace.n_states(c)
            hist = np.bincount(states, minlength=n_states).astype(float)
            hist /= len(states)
            feats.extend(hist.tolist())

            norm = states / max(n_states - 1, 1)
            norms.append(norm)
            diffs = np.diff(states)
            transition_rate = float(np.mean(diffs != 0)) if len(diffs) else 0.0
            up_rate = float(np.mean(diffs > 0)) if len(diffs) else 0.0
            mean_jump = float(np.mean(np.abs(diffs))) if len(diffs) else 0.0
            max_jump = float(np.max(np.abs(diffs))) if len(diffs) else 0.0
            mean_dwell, max_dwell_frac = self._dwell_stats(states)
            centered = norm - norm.mean()
            # Multiply-then-sum, not ``centered @ centered``: the batched
            # path must reproduce this bitwise, and BLAS ddot accumulates
            # in a different order than numpy's pairwise reduction.
            var = float((centered * centered).sum())
            if var > 1e-12 and len(norm) > 1:
                autocorr = float((centered[:-1] * centered[1:]).sum()) / var
            else:
                autocorr = 0.0
            feats.extend(
                [
                    float(norm.mean()),
                    float(norm.std()),
                    transition_rate,
                    up_rate,
                    mean_jump,
                    max_jump,
                    float(np.mean(states == n_states - 1)),
                    float(np.mean(states == 0)),
                    float(np.mean(norm < 0.5)),
                    mean_dwell,
                    max_dwell_frac,
                    autocorr,
                ]
            )
            feats.extend(self._spectral_bands(norm))

        for a in range(trace.n_channels):
            for b in range(a + 1, trace.n_channels):
                sa, sb = norms[a], norms[b]
                if sa.std() > 1e-9 and sb.std() > 1e-9:
                    ca = sa - sa.mean()
                    cb = sb - sb.mean()
                    denom = np.sqrt((ca * ca).sum() * (cb * cb).sum())
                    corr = float(np.clip((ca * cb).sum() / denom, -1.0, 1.0))
                    feats.append(corr)
                else:
                    feats.append(0.0)

        temp = trace.temperature_c
        slope = float((temp[-1] - temp[0]) / max(len(temp) - 1, 1))
        feats.extend([float(temp.mean()), float(temp.std()), slope])
        return np.asarray(feats)

    def _check_windowing(self, trace: DvfsTrace, window_steps: int) -> int:
        trace.validate()
        if window_steps < 2:
            raise ValueError("window_steps must be >= 2.")
        n_windows = trace.n_steps // window_steps
        if n_windows == 0:
            raise ValueError(
                f"Trace of {trace.n_steps} steps shorter than one window "
                f"({window_steps})."
            )
        return n_windows

    def extract_windows_reference(
        self, trace: DvfsTrace, window_steps: int
    ) -> np.ndarray:
        """Per-window loop over :meth:`extract` (reference path).

        Kept as the readable specification the batched
        :meth:`extract_windows` is tested bitwise against, and as the
        baseline the ingest benchmark measures the speedup over.
        """
        n_windows = self._check_windowing(trace, window_steps)
        rows = []
        for w in range(n_windows):
            sub = DvfsTrace(
                states=trace.states[w * window_steps : (w + 1) * window_steps],
                frequencies_mhz=trace.frequencies_mhz,
                channel_names=trace.channel_names,
                temperature_c=trace.temperature_c[w * window_steps : (w + 1) * window_steps],
                dt=trace.dt,
                name=trace.name,
            )
            rows.append(self.extract(sub))
        return np.stack(rows)

    # -- batched path --------------------------------------------------

    class _Layout(NamedTuple):
        """Indices of :meth:`extract_windows` for one trace shape."""

        k: np.ndarray  # states per channel
        bin_start: np.ndarray  # first residency bin of each channel
        denom: np.ndarray  # (n_channels, 1) float normaliser
        low_half: np.ndarray  # residency bins below half scale
        hist_cols: np.ndarray  # output column of each residency bin
        stat_cols: np.ndarray  # (n_channels, n_stats) statistic columns
        edges: np.ndarray  # spectral band edges into the full rfft
        a: np.ndarray  # first channel of each cross-correlation pair
        b: np.ndarray  # second channel of each pair
        plan: np.ndarray  # int64 layout of the native kernel
        lut: np.ndarray  # s / denom of every (channel, state)
        addresses: tuple[int, int]  # of plan and lut, for ctypes

    @classmethod
    @functools.lru_cache(maxsize=64)
    def _layout(cls, cardinalities: tuple[int, ...], window_steps: int):
        """The :class:`_Layout` of one trace shape, built once.

        The spectral band edges start at 1 because the reference splits
        the spectrum after its DC bin.  The native kernel reads the
        ``plan`` (channel count, window length, output width, first
        cross-correlation column, then each channel's state count,
        first residency and statistic columns and table offset) and the
        ``lut`` of normalised states.
        """
        k = np.array(cardinalities, dtype=np.int64)
        n_stats = len(cls._CHANNEL_STATS) + cls.N_SPECTRAL_BANDS
        bin_start = np.cumsum(k) - k
        col_start = bin_start + np.arange(len(k)) * n_stats
        channel = np.repeat(np.arange(len(k)), k)
        state = np.arange(k.sum()) - bin_start[channel]
        denom = np.maximum(k - 1, 1)
        lut = state / denom[channel]
        bands = np.array_split(np.arange(window_steps // 2), cls.N_SPECTRAL_BANDS)
        a, b = np.triu_indices(len(k), k=1)
        n_channel_cols = len(lut) + len(k) * n_stats
        plan = np.concatenate(
            [
                [len(k), window_steps, n_channel_cols + len(a) + 3, n_channel_cols],
                np.column_stack([k, col_start, col_start + k, bin_start]).ravel(),
            ]
        ).astype(np.int64)
        layout = cls._Layout(
            k,
            bin_start,
            denom[:, None].astype(float),
            lut < 0.5,
            col_start[channel] + state,
            (col_start + k)[:, None] + np.arange(n_stats),
            np.cumsum([1] + [len(band) for band in bands]),
            a,
            b,
            plan,
            lut,
            (plan.ctypes.data, lut.ctypes.data),
        )
        for array in layout[:-1]:  # shared by every call through the cache
            array.flags.writeable = False
        return layout

    def extract_windows(self, trace: DvfsTrace, window_steps: int) -> np.ndarray:
        """Split a long trace into windows and extract all of them at once.

        Trailing steps that do not fill a whole window are dropped.
        Returns the same ``(n_windows, n_features)`` matrix as
        :meth:`extract_windows_reference`, bitwise.  The native kernel
        (``_features.c``) writes every column but the spectral bands in
        one sweep per (window, channel), together with the centred
        normalised series; numpy's ``rfft`` of that series gives the
        bands.  The numpy kernel (:meth:`_extract_windows_numpy`) serves
        when the native one cannot (:meth:`_native_kernel`), and it is
        the reference the native kernel is tested against.
        """
        n_windows = self._check_windowing(trace, window_steps)
        layout = self._layout(
            tuple(trace.n_states(c) for c in range(trace.n_channels)), window_steps
        )
        kernel = self._native_kernel(trace, n_windows * window_steps)
        if kernel is None:
            return self._extract_windows_numpy(trace, window_steps, n_windows, layout)
        states = trace.states
        out = np.empty((n_windows, layout.plan[2]))
        centered = np.empty((n_windows, trace.n_channels, window_steps))
        if kernel(
            *layout.addresses,
            states.ctypes.data,
            *states.strides,
            trace.temperature_c.ctypes.data,
            n_windows,
            centered.ctypes.data,
            out.ctypes.data,
        ):
            # The sweep stopped at a state outside [0, k): the numpy
            # kernel's range check raises, naming the lowest-index
            # channel that holds one.
            return self._extract_windows_numpy(trace, window_steps, n_windows, layout)
        out[:, layout.stat_cols[:, len(self._CHANNEL_STATS) :]] = self._band_energies(
            centered, layout.edges
        )
        return out

    @staticmethod
    def _native_kernel(trace: DvfsTrace, used: int):
        """The C entry point for ``trace``, or ``None`` when numpy serves:
        no library, a states dtype without an entry, unaligned states,
        no channels (the numpy kernel's range check raises), or a
        temperature that is not a contiguous float64 vector of at least
        ``used`` steps."""
        lib = _native.library()
        name = _native.FEATURE_ENTRIES.get(trace.states.dtype)
        temperature = trace.temperature_c
        if (
            lib is None
            or name is None
            or not trace.states.flags.aligned
            or trace.n_channels == 0
            or temperature.dtype != np.float64
            or temperature.ndim != 1
            or not temperature.flags.c_contiguous
            or len(temperature) < used
        ):
            return None
        return getattr(lib, name)

    def _band_energies(self, centered: np.ndarray, edges) -> np.ndarray:
        """Spectral band shares of every centred series, shape
        ``centered.shape[:-1] + (N_SPECTRAL_BANDS,)``; 0 where the
        spectrum past DC is empty."""
        spectrum = np.abs(np.fft.rfft(centered, axis=-1)) ** 2
        total = spectrum[..., 1:].sum(axis=-1)
        bands = np.zeros(centered.shape[:-1] + (self.N_SPECTRAL_BANDS,))
        for band in range(self.N_SPECTRAL_BANDS):
            np.divide(
                spectrum[..., edges[band] : edges[band + 1]].sum(axis=-1),
                total,
                out=bands[..., band],
                where=total > 0,
            )
        return bands

    def _extract_windows_numpy(
        self, trace: DvfsTrace, window_steps: int, n_windows: int, layout: _Layout
    ) -> np.ndarray:
        """The numpy kernel of :meth:`extract_windows`: one pass over
        the ``(n_windows, n_channels, window_steps)`` state tensor with
        no per-channel loop.  One offset-``bincount`` counts the
        residency of every (window, channel) pair, and one ``diff``, one
        ``rfft`` and one run-length pass cover all channels.  The state
        fractions, transition and jump rates and the mean dwell are
        integer counts divided by the same denominator the reference's
        float mean divides by, so they are exact.
        """
        n_channels = trace.n_channels
        T = window_steps
        used = n_windows * T
        k, bin_start, denom, low_half, hist_cols, stat_cols, edges, a, b = layout[:9]
        # Each per-(window, channel) series contiguous: the layout every
        # float reduction below needs for bitwise identity with the 1-D
        # reference path.
        S = np.ascontiguousarray(
            trace.states[:used].reshape(n_windows, T, n_channels).transpose(0, 2, 1)
        )
        lowest, highest = S.min(axis=(0, 2)), S.max(axis=(0, 2))
        bad = np.flatnonzero((lowest < 0) | (highest >= k))
        if bad.size:
            # The offset bincount below would silently bleed an
            # out-of-range state into a neighbouring bin block; fail
            # loudly instead (the reference path errors too).
            c = int(bad[0])
            state = int(lowest[c]) if lowest[c] < 0 else int(highest[c])
            raise ValueError(
                f"channel {trace.channel_names[c]!r} contains state {state} "
                f"but only {k[c]} frequency states are defined."
            )

        if S.dtype.kind == "u":
            # Unsigned diffs wrap (a step down reads as a huge jump up)
            # and uint64 + int64 offsets promote to float: work in int64,
            # which holds every state the check above let through.
            S = S.astype(np.int64)
        n_bins = len(hist_cols)
        offsets = np.arange(n_windows)[:, None] * n_bins + bin_start
        counts = np.bincount(
            (S + offsets[:, :, None]).ravel(), minlength=n_windows * n_bins
        ).reshape(n_windows, n_bins)
        hist = counts / T

        centered = S / denom
        mean = centered.mean(axis=-1)
        centered -= mean[..., None]
        var = (centered * centered).sum(axis=-1)

        feats = np.zeros((n_windows,) + stat_cols.shape)
        feats[..., 0] = mean
        feats[..., 1] = np.sqrt(var / T)  # numpy's std, reusing var

        diffs = S[..., 1:] - S[..., :-1]
        moved = diffs != 0
        n_runs = moved.sum(axis=-1) + 1
        jumps = np.abs(diffs)
        feats[..., 2] = (n_runs - 1) / (T - 1)
        feats[..., 3] = (diffs > 0).sum(axis=-1) / (T - 1)
        feats[..., 4] = jumps.sum(axis=-1) / (T - 1)
        feats[..., 5] = jumps.max(axis=-1)
        feats[..., 6] = hist[:, bin_start + k - 1]
        feats[..., 7] = hist[:, bin_start]
        feats[..., 8] = np.add.reduceat(counts * low_half, bin_start, axis=1) / T
        feats[..., 9] = T / n_runs  # run lengths sum to exactly T
        # Run lengths of every (window, channel) row in one pass: each
        # row's first step starts a run, so no run spans two rows.
        starts = np.ones((n_windows * n_channels, T), dtype=bool)
        starts[:, 1:] = moved.reshape(-1, T - 1)
        run_length = np.diff(np.flatnonzero(starts), append=starts.size)
        first_run = np.cumsum(n_runs) - n_runs.ravel()
        max_run = np.maximum.reduceat(run_length, first_run)
        feats[..., 10] = max_run.reshape(n_windows, n_channels) / T
        # Free the integer tensors before the float tensors below are
        # made; they are as large, so this bounds peak memory.
        del S, diffs, moved, jumps, starts, run_length

        lag1 = (centered[..., :-1] * centered[..., 1:]).sum(axis=-1)
        np.divide(lag1, var, out=feats[..., 11], where=var > 1e-12)
        feats[..., len(self._CHANNEL_STATS) :] = self._band_energies(centered, edges)

        n_channel_cols = n_bins + stat_cols.size
        out = np.empty((n_windows, n_channel_cols + len(a) + 3))
        out[:, hist_cols] = hist
        out[:, stat_cols] = feats
        # Fancy indexing copies → contiguous lines → the per-pair
        # multiply-sum reduces exactly like the 1-D reference.
        pair = centered[:, a, :]
        pair *= centered[:, b, :]
        numer = pair.sum(axis=-1)
        std = feats[..., 1]
        xcorr = np.zeros_like(numer)
        np.divide(
            numer,
            np.sqrt(var[:, a] * var[:, b]),
            out=xcorr,
            where=(std[:, a] > 1e-9) & (std[:, b] > 1e-9),
        )
        np.clip(xcorr, -1.0, 1.0, out=out[:, n_channel_cols:-3])

        temp = trace.temperature_c[:used].reshape(n_windows, T)
        out[:, -3] = temp_mean = temp.mean(axis=-1)
        temp_centered = temp - temp_mean[:, None]
        out[:, -2] = np.sqrt((temp_centered * temp_centered).sum(axis=-1) / T)
        out[:, -1] = (temp[:, -1] - temp[:, 0]) / (T - 1)
        return out


class HpcFeatureExtractor:
    """Convert HPC counter intervals into per-sample feature vectors.

    Every sampling interval becomes one sample (matching the HPC
    dataset's per-interval granularity).  Features combine derived
    architecture-independent rates with log-scaled raw counts.
    """

    #: Derived-rate feature names (computed from counter ratios).
    RATE_FEATURES = (
        "ipc",
        "branch_miss_per_kinst",
        "l1d_mpki",
        "l2_mpki",
        "llc_mpki",
        "dtlb_mpki",
        "itlb_mpki",
        "branch_frac",
        "load_frac",
        "store_frac",
        "frontend_stall_frac",
        "backend_stall_frac",
        "page_fault_rate",
        "context_switch_rate",
    )

    def feature_names(self, trace: HpcTrace) -> list[str]:
        """Names matching :meth:`extract` output order."""
        return list(self.RATE_FEATURES) + [
            f"log_{name}" for name in trace.counter_names
        ]

    @staticmethod
    def _features(counters: np.ndarray, counter_names, dt) -> np.ndarray:
        """Shared feature kernel over a counter matrix.

        ``dt`` is a scalar (one trace) or a per-row vector (bulk path);
        every op is elementwise per row, so stacking traces first and
        extracting once is bitwise identical to extracting per trace.
        """
        idx = {name: i for i, name in enumerate(counter_names)}

        def col(name: str) -> np.ndarray:
            return counters[:, idx[name]]

        instructions = np.maximum(col("instructions"), 1.0)
        cycles = np.maximum(col("cycles"), 1.0)
        kinst = instructions / 1e3

        rates = np.column_stack(
            [
                instructions / cycles,
                col("branch_misses") / kinst,
                col("l1d_misses") / kinst,
                col("l2_misses") / kinst,
                col("llc_misses") / kinst,
                col("dtlb_misses") / kinst,
                col("itlb_misses") / kinst,
                col("branch_instructions") / instructions,
                col("loads") / instructions,
                col("stores") / instructions,
                col("stalled_cycles_frontend") / cycles,
                col("stalled_cycles_backend") / cycles,
                col("page_faults") / dt,
                col("context_switches") / dt,
            ]
        )
        logs = np.log1p(counters)
        return np.hstack([rates, logs])

    def extract(self, trace: HpcTrace) -> np.ndarray:
        """Feature matrix ``(n_intervals, n_features)`` for the trace."""
        return self._features(trace.counters, trace.counter_names, trace.dt)

    def extract_many(self, traces: list[HpcTrace]) -> np.ndarray:
        """Feature matrix for several traces in one whole-tensor pass.

        Counter matrices are stacked once and the feature kernel runs a
        single time over all intervals of all traces — bitwise identical
        to ``np.vstack([self.extract(t) for t in traces])`` because every
        HPC feature is elementwise per interval.  Per-trace sampling
        periods are honoured via a per-row ``dt`` vector.
        """
        if not traces:
            raise ValueError("At least one trace is required.")
        counter_names = traces[0].counter_names
        for trace in traces[1:]:
            if trace.counter_names != counter_names:
                raise ValueError(
                    "All traces must share the same counter layout; got "
                    f"{trace.counter_names} vs {counter_names}."
                )
        counters = (
            traces[0].counters
            if len(traces) == 1
            else np.vstack([t.counters for t in traces])
        )
        dts = np.repeat(
            np.array([t.dt for t in traces]),
            np.array([t.n_intervals for t in traces]),
        )
        return self._features(counters, counter_names, dts)
