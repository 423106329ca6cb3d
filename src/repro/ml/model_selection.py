"""Dataset splitting.

The paper splits the *known* signatures into train/test (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from .validation import check_random_state, column_or_1d

__all__ = ["train_test_split"]


def _resolve_test_size(n_samples: int, test_size: float | int) -> int:
    if isinstance(test_size, float):
        if not 0.0 < test_size < 1.0:
            raise ValueError(f"test_size fraction must be in (0, 1); got {test_size}.")
        n_test = int(round(n_samples * test_size))
    else:
        n_test = int(test_size)
    if not 0 < n_test < n_samples:
        raise ValueError(
            f"test_size={test_size} leaves no samples for train or test "
            f"(n_samples={n_samples})."
        )
    return n_test


def train_test_split(
    *arrays,
    test_size: float | int = 0.25,
    random_state: int | np.random.Generator | None = None,
    stratify=None,
    shuffle: bool = True,
):
    """Split any number of same-length arrays into train/test partitions.

    With ``stratify`` given, class proportions are preserved in both
    partitions (the paper's known-data split keeps benign/malware ratios).
    """
    if not arrays:
        raise ValueError("At least one array is required.")
    n_samples = len(arrays[0])
    for a in arrays:
        if len(a) != n_samples:
            raise ValueError("All arrays must share the same length.")
    n_test = _resolve_test_size(n_samples, test_size)
    rng = check_random_state(random_state)

    if stratify is not None:
        if not shuffle:
            raise ValueError("Stratified splitting requires shuffle=True.")
        strat = column_or_1d(stratify, name="stratify")
        if len(strat) != n_samples:
            raise ValueError("stratify must match the array length.")
        test_idx_parts = []
        for label in np.unique(strat):
            members = np.flatnonzero(strat == label)
            rng.shuffle(members)
            # Proportional allocation, at least one test sample per class
            # when the class is large enough.
            n_label_test = int(round(len(members) * n_test / n_samples))
            n_label_test = min(max(n_label_test, 1 if len(members) > 1 else 0),
                               len(members) - 1 if len(members) > 1 else 0)
            test_idx_parts.append(members[:n_label_test])
        test_idx = np.concatenate(test_idx_parts) if test_idx_parts else np.array([], dtype=int)
        test_mask = np.zeros(n_samples, dtype=bool)
        test_mask[test_idx] = True
        train_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
    else:
        indices = np.arange(n_samples)
        if shuffle:
            rng.shuffle(indices)
        test_idx = indices[:n_test]
        train_idx = indices[n_test:]

    result = []
    for a in arrays:
        a = np.asarray(a)
        result.append(a[train_idx])
        result.append(a[test_idx])
    return result

