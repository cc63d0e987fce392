#!/usr/bin/env python
"""A device fleet multiplexed through one engine, with LRU eviction.

The paper's pipeline watches one device; a backend watches thousands.
This example registers a small fleet of drift-monitoring devices (a few
of which experience the same correlated drift event), streams their
samples in an interleaved arrival order through a `FleetManager` whose
LRU capacity is far below the fleet size — so sessions constantly spill
to spool checkpoints and restore — and then proves the multiplexing was
invisible: a sampled device's records are byte-identical to running its
spec alone. Per-device telemetry is printed at the end.

Run:
    python examples/fleet_simulation.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.datasets import interleave_schedule
from repro.engine import build_experiment, build_streams
from repro.fleet import FleetManager, make_fleet_specs
from repro.metrics import format_table
from repro.telemetry import Telemetry

N_DEVICES = 30
CAPACITY = 6        # resident sessions; the other 24 live as spool files
SAMPLES = 600       # per-device stream length
ARRIVAL = 100       # samples per batch a device "uploads"
SHIFT = 2.0         # drift magnitude on the drifting devices


def main() -> None:
    specs = make_fleet_specs(
        N_DEVICES, seed=0, drift_fraction=0.3, n_test=SAMPLES, shift=SHIFT,
        guard_policy="clip",
    )
    streams = {dev: build_streams(spec)[1] for dev, spec in specs.items()}
    devices = list(specs)

    tel = Telemetry(enabled=True)
    with tempfile.TemporaryDirectory(prefix="fleet-spool-") as spool:
        fm = FleetManager(capacity=CAPACITY, spool_dir=spool, telemetry=tel)
        for dev, spec in specs.items():
            fm.add_device(dev, spec)

        lengths = [len(streams[d].X) for d in devices]
        for i, start, stop in interleave_schedule(lengths, ARRIVAL, seed=0):
            dev = devices[i]
            fm.submit(dev, streams[dev].X[start:stop], streams[dev].y[start:stop])

        per_device = fm.finish_all()
        stats = fm.stats
        fm.close()

    drifted = {d for d, s in specs.items() if s.dataset_kwargs["shift"] > 0}
    rows = []
    for dev in devices[:10]:
        detections = [r.index for r in per_device[dev] if r.drift_detected]
        rows.append([
            dev,
            "drift" if dev in drifted else "steady",
            stats.device_samples[dev],
            len(detections),
            detections[0] if detections else "-",
        ])
    print(format_table(
        ["device", "stream", "samples", "detections", "first @"],
        rows,
        title=f"First 10 of {N_DEVICES} devices (capacity {CAPACITY})",
    ))

    print(
        f"\nLRU churn: {stats.evictions} evictions, {stats.restores} restores, "
        f"max {stats.max_resident} resident "
        f"(mean restore {1000 * stats.restore_seconds / max(1, stats.restores):.1f} ms)"
    )

    # The punchline: multiplexing + evict/restore never changed a byte.
    probe = devices[0]
    solo = build_experiment(specs[probe]).run()
    fleet_scores = np.array([r.anomaly_score for r in per_device[probe]])
    solo_scores = np.array([r.anomaly_score for r in solo])
    identical = (
        per_device[probe] == solo
        and fleet_scores.tobytes() == solo_scores.tobytes()
    )
    print(f"{probe} fleet records == standalone run, bit for bit: {identical}")

    print("\nPer-device telemetry (first lines):")
    lines = tel.registry.to_prometheus().splitlines()
    for line in [l for l in lines if "fleet" in l][:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
