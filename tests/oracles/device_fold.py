"""The per-device verdict fold, one device at a time.

This is the loop the fleet partition ran before its device table went
columnar: group the batch's rows by dense device index with a stable
argsort, then for each present device bump its :class:`MonitorStats`
counters, add ``np.sum`` of its ordered entropy segment and
:meth:`RingBuffer.extend` its ring.  The columnar fold in
``repro.fleet.engine`` must reproduce it bit for bit.
"""

import numpy as np


def fold_per_device(states, device_index, predictions, entropy, accepted, base_step):
    """Fold one verdict batch into ``states`` (DeviceStates by dense index)."""
    accepted = np.asarray(accepted, dtype=bool)
    group_sizes = np.bincount(device_index)
    accepted_per = np.bincount(
        device_index, weights=accepted, minlength=len(group_sizes)
    )
    alerts_per = np.bincount(
        device_index,
        weights=accepted & (predictions == 1),
        minlength=len(group_sizes),
    )
    order = np.argsort(device_index, kind="stable")
    entropy_ordered = entropy[order]
    present = np.flatnonzero(group_sizes)
    stops = np.cumsum(group_sizes[present])
    start = 0
    for g, index in enumerate(present):
        stop = stops[g]
        state = states[index]
        device_entropy = entropy_ordered[start:stop]
        stats = state.stats
        n_device = int(group_sizes[index])
        n_accepted = int(accepted_per[index])
        stats.n_seen += n_device
        stats.n_accepted += n_accepted
        stats.n_flagged += n_device - n_accepted
        stats.n_malware_alerts += int(alerts_per[index])
        stats.entropy_sum += float(np.sum(device_entropy))
        state.entropy_recent.extend(device_entropy)
        state.last_step = max(state.last_step, base_step + int(order[stop - 1]) + 1)
        start = stop
