"""Shared infrastructure for the per-figure experiment runners.

An :class:`ExperimentContext` lazily builds the two datasets and the
fitted ensembles, memoising everything so that e.g. Fig. 4, Fig. 7a and
Fig. 9a all reuse the same fitted DVFS Random Forest (as in the paper's
single evaluation pipeline).

Ensemble kinds follow the paper:

* ``"rf"``  — Random Forest (bagged CART trees, feature subsampling);
* ``"lr"``  — bagging over Logistic Regression base classifiers;
* ``"svm"`` — bagging over linear SVMs.  Being a convex problem, the
  bootstrap replicas land on nearly identical hyperplanes, which is why
  the paper finds its uncertainty estimates poor (Section V.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import build_dvfs_dataset, build_hpc_dataset
from ..formatting import format_table
from ..data.dataset import HmdDataset
from ..fleet import BackpressurePolicy, FleetWindowSampler
from ..hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from ..ml.base import BaseEstimator
from ..ml.ensemble import BaggingClassifier, RandomForestClassifier
from ..ml.linear import LogisticRegression
from ..ml.preprocessing import StandardScaler
from ..ml.svm import LinearSVC
from ..sim.workloads import FleetPopulation
from ..uncertainty.estimator import EnsembleUncertaintyEstimator
from ..uncertainty.trust import TrustedHMD

__all__ = [
    "ExperimentConfig",
    "ExperimentContext",
    "FleetScenario",
    "fleet_scenario",
    "make_ensemble",
    "boxplot_stats",
    "format_table",
    "ENSEMBLE_KINDS",
]


#: Ensemble kinds evaluated per dataset, as in the paper's figures.
ENSEMBLE_KINDS = {
    "dvfs": ("rf", "lr", "svm"),
    # SVM fails to converge on the (bootstrapped) HPC dataset (Sec. V.B).
    "hpc": ("rf", "lr"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner.

    ``dvfs_scale`` / ``hpc_scale`` shrink the Table I sample counts for
    quick runs; 1.0 reproduces the full paper-sized datasets.
    """

    seed: int = 7
    dvfs_scale: float = 1.0
    hpc_scale: float = 0.25
    n_estimators: int = 100
    # Figure threshold axes (paper x-axis ranges).
    fig7a_thresholds: tuple[float, ...] = tuple(np.round(np.arange(0.0, 0.76, 0.05), 2))
    fig7b_thresholds: tuple[float, ...] = tuple(np.round(np.arange(0.0, 1.01, 0.05), 2))
    fig9b_thresholds: tuple[float, ...] = tuple(np.round(np.arange(0.0, 0.81, 0.05), 2))

    def smaller(self, factor: float) -> "ExperimentConfig":
        """A proportionally scaled-down copy (for tests/bench smoke runs)."""
        return ExperimentConfig(
            seed=self.seed,
            dvfs_scale=self.dvfs_scale * factor,
            hpc_scale=self.hpc_scale * factor,
            n_estimators=max(10, int(self.n_estimators * factor)),
        )


def make_ensemble(
    kind: str, *, n_estimators: int = 100, random_state: int = 0
) -> BaseEstimator:
    """Construct an unfitted ensemble of the given kind."""
    if kind == "rf":
        return RandomForestClassifier(
            n_estimators=n_estimators,
            random_state=random_state,
        )
    if kind == "lr":
        return BaggingClassifier(
            LogisticRegression(max_iter=100),
            n_estimators=n_estimators,
            random_state=random_state,
        )
    if kind == "svm":
        return BaggingClassifier(
            LinearSVC(max_iter=200),
            n_estimators=n_estimators,
            random_state=random_state,
        )
    raise ValueError(f"Unknown ensemble kind {kind!r}; use 'rf', 'lr' or 'svm'.")


@dataclass
class _FittedEnsemble:
    """A fitted ensemble plus its uncertainty estimator and data views."""

    ensemble: BaseEstimator
    estimator: EnsembleUncertaintyEstimator
    entropy_test: np.ndarray
    entropy_unknown: np.ndarray
    predictions_test: np.ndarray
    predictions_unknown: np.ndarray


class ExperimentContext:
    """Lazily-built, memoised datasets and fitted ensembles."""

    def __init__(self, config: ExperimentConfig | None = None):
        self.config = config if config is not None else ExperimentConfig()
        self._datasets: dict[str, HmdDataset] = {}
        self._scaled: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._fitted: dict[tuple[str, str], _FittedEnsemble] = {}

    # -- datasets ------------------------------------------------------

    def dataset(self, domain: str) -> HmdDataset:
        """The (cached) dataset for ``"dvfs"`` or ``"hpc"``."""
        if domain not in self._datasets:
            if domain == "dvfs":
                self._datasets[domain] = build_dvfs_dataset(
                    seed=self.config.seed, scale=self.config.dvfs_scale
                )
            elif domain == "hpc":
                self._datasets[domain] = build_hpc_dataset(
                    seed=self.config.seed, scale=self.config.hpc_scale
                )
            else:
                raise ValueError(f"Unknown domain {domain!r}.")
        return self._datasets[domain]

    def scaled_splits(self, domain: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardised (train, test, unknown) feature matrices."""
        if domain not in self._scaled:
            ds = self.dataset(domain)
            scaler = StandardScaler().fit(ds.train.X)
            self._scaled[domain] = (
                scaler.transform(ds.train.X),
                scaler.transform(ds.test.X),
                scaler.transform(ds.unknown.X),
            )
        return self._scaled[domain]

    # -- ensembles -----------------------------------------------------

    def fitted(self, domain: str, kind: str) -> _FittedEnsemble:
        """Fit (once) and return the ensemble of ``kind`` on ``domain``."""
        key = (domain, kind)
        if key not in self._fitted:
            ds = self.dataset(domain)
            X_train, X_test, X_unknown = self.scaled_splits(domain)
            ensemble = make_ensemble(
                kind,
                n_estimators=self.config.n_estimators,
                random_state=self.config.seed,
            )
            ensemble.fit(X_train, ds.train.y)
            estimator = EnsembleUncertaintyEstimator(ensemble)
            pred_test, ent_test = estimator.predict_with_uncertainty(X_test)
            pred_unknown, ent_unknown = estimator.predict_with_uncertainty(X_unknown)
            self._fitted[key] = _FittedEnsemble(
                ensemble=ensemble,
                estimator=estimator,
                entropy_test=ent_test,
                entropy_unknown=ent_unknown,
                predictions_test=pred_test,
                predictions_unknown=pred_unknown,
            )
        return self._fitted[key]


@dataclass(frozen=True)
class FleetScenario:
    """The deployment the fleet runners drive: one model, one fleet."""

    hmd: TrustedHMD
    dataset: HmdDataset
    devices: list
    windows_per_device: int
    seed: int

    @property
    def n_windows(self) -> int:
        """Windows one drive offers (every device, every round)."""
        return len(self.devices) * self.windows_per_device

    @property
    def policy(self) -> BackpressurePolicy:
        """Room for a whole drive, so a closed loop never sheds."""
        return BackpressurePolicy(max_pending=self.n_windows + 1)

    def arrivals(self) -> list:
        """Round-robin ``(device_id, window)`` traffic from the dataset."""
        sampler = FleetWindowSampler(self.dataset, self.devices, random_state=self.seed)
        return list(sampler.rounds(self.windows_per_device))


def fleet_scenario(
    ctx: ExperimentContext,
    *,
    n_devices: int,
    windows_per_device: int,
    mode: str = "float64",
) -> FleetScenario:
    """Fit the fleet's shared HMD on DVFS and sample its device population.

    No PCA: with the scaler-only front every per-window computation is
    row-independent, so batched verdicts stay bitwise reproducible
    whatever the batching.  The quantized mode needs a hist-grown
    forest; every mode runs on the model compiled for it.
    """
    cfg = ctx.config
    dataset = ctx.dataset("dvfs")
    hmd = TrustedHMD(
        RandomForestClassifier(
            n_estimators=cfg.n_estimators,
            random_state=cfg.seed,
            grower="hist" if mode == "quantized" else "exact",
        ),
        threshold=0.40,
    ).fit(dataset.train.X, dataset.train.y)
    hmd.compile(mode=mode)
    devices = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=cfg.seed,
    ).sample(n_devices)
    return FleetScenario(hmd, dataset, devices, windows_per_device, cfg.seed)


def boxplot_stats(values: np.ndarray) -> dict[str, float]:
    """Five-number summary used to report the paper's boxplot figures."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values is empty.")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo_whisker = float(values[values >= q1 - 1.5 * iqr].min())
    hi_whisker = float(values[values <= q3 + 1.5 * iqr].max())
    return {
        "min": float(values.min()),
        "whisker_low": lo_whisker,
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "whisker_high": hi_whisker,
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


# format_table is re-exported from repro.formatting (see import above)
# so existing `from .common import format_table` call sites keep working.
