"""Horizontally sharded fleet: K partition cores, one monitor.

Extends examples/fleet_monitor.py from one partition to a sharded
deployment, the way large DAQ systems fan out their readout:

* ``FleetMonitor(hmd, n_shards=4)``: a device-hash router pins each of
  96 devices to one of 4 partitions;
* every partition keeps its own queue and device table, but all of
  them verdict through ONE read-only compiled HMD in one fused round —
  a warm retrain republishes it at the next round;
* the submit/drain/report calls below are exactly the ones
  fleet_monitor.py makes, and the verdicts are bitwise identical to
  the one-partition path;
* mid-stream the whole fleet is checkpointed with snapshot(), restored
  from the pickled bytes, and resumes with identical verdicts;
* finally the fleet is rebalanced from 4 to 6 partitions live — device
  states and queued backlogs migrate, verdicts don't change.

    python examples/fleet_sharding.py
"""

import pickle

from repro.data import build_dvfs_dataset
from repro.fleet import FleetMonitor, FleetWindowSampler
from repro.fleet.engine import batch_verdict_key
from repro.hmd.apps import DVFS_KNOWN_BENIGN, DVFS_KNOWN_MALWARE, DVFS_UNKNOWN
from repro.ml import RandomForestClassifier
from repro.sim import FleetPopulation
from repro.uncertainty import TrustedHMD

SCALE = 0.25
N_DEVICES = 96
N_SHARDS = 4
ROUNDS = 20


def main() -> None:
    dataset = build_dvfs_dataset(seed=7, scale=SCALE)
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=60, random_state=7),
        threshold=0.40,
    ).fit(dataset.train.X, dataset.train.y)

    population = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.10,
        zero_day_fraction=0.05,
        random_state=7,
    )
    devices = population.sample(N_DEVICES)
    sampler = FleetWindowSampler(dataset, devices, random_state=7)
    arrivals = list(sampler.rounds(ROUNDS))

    # -- K partitions vs. one: same calls, same verdicts ---------------
    fleet = FleetMonitor(hmd, n_shards=N_SHARDS, batch_size=256)
    fleet.register_fleet(devices)
    for device_id, window in arrivals[: len(arrivals) // 2]:
        fleet.submit(device_id, window)
    first_half = fleet.drain()

    per_shard = {
        shard_id: len(shard.devices) for shard_id, shard in enumerate(fleet.shards)
    }
    print(f"{N_DEVICES} devices routed across {N_SHARDS} shards: {per_shard}")
    print(
        f"first half drained: {sum(len(b) for b in first_half)} windows in "
        f"{len(first_half)} fused rounds, {len(fleet.forensics)} flagged\n"
    )

    # -- checkpoint the live fleet, restore it, keep going -------------
    blob = pickle.dumps(fleet.snapshot())
    print(f"snapshot: {len(blob)} bytes (queues, device states, forensics)")
    restored = FleetMonitor.restore(hmd, pickle.loads(blob))

    for monitor in (fleet, restored):
        for device_id, window in arrivals[len(arrivals) // 2 :]:
            monitor.submit(device_id, window)
    tail = fleet.drain()
    tail_restored = restored.drain()
    print(
        "restored fleet resumes identically: "
        f"{batch_verdict_key(tail_restored) == batch_verdict_key(tail)}\n"
    )

    # -- the sharded path never changes a verdict ----------------------
    single = FleetMonitor(hmd, batch_size=256)  # n_shards=1
    single.register_fleet(devices)
    for device_id, window in arrivals:
        single.submit(device_id, window)
    reference = single.drain()
    print(
        "sharded verdicts bitwise-identical to one partition: "
        f"{batch_verdict_key(first_half + tail) == batch_verdict_key(reference)}\n"
    )

    # -- live rebalance: 4 -> 6 shards ---------------------------------
    plan = restored.rebalance(6)
    print(
        f"rebalanced to 6 shards: {len(plan)} of {N_DEVICES} devices moved "
        "(deterministic hash map)"
    )

    print("\n" + fleet.report().as_text(max_rows=8))


if __name__ == "__main__":
    main()
