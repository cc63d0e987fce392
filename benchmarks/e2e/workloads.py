"""The benchmark's two workloads and the inputs they are built from.

Every input is a pure function of the workload and ``--seed``: device
specs from :func:`repro.fleet.make_fleet_specs`, each device's test
stream from ``build_experiment(spec).test``, the arrival order from
:func:`repro.datasets.interleave_schedule`, and (for ``serve-paced``)
Poisson due times and hold-back reordering from their own seeded RNG
streams. Inputs are generated in the driver process before any timed
interval starts.

Sizes were chosen so that one repetition measures 3–5 s on a 2-core
x86-64 host, so a run with ``--seconds 45`` takes ten to fifteen and its
medians outlast a short slow stretch of the host.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.datasets import interleave_schedule
from repro.engine import build_experiment
from repro.fleet import make_fleet_specs

#: Seed-sequence domains for the driver's own random streams.
ARRIVAL_DOMAIN = 0xA77
REORDER_DOMAIN = 0x0DD5


@dataclass(frozen=True)
class Workload:
    """One traffic shape (why each exists: ``BENCHMARK.json``)."""

    name: str
    kind: str                   # "fleet" | "paced": the driver loop
    devices: int
    n_test: int
    drift_fraction: float = 0.25
    drift_at: Optional[int] = None
    capacity: int = 64
    feed_chunk: int = 60
    window: int = 64            # chunks per submit_many call ("fleet")
    rate: float = 0.0           # offered samples/s ("paced")
    reorder: float = 0.0        # hold-back probability ("paced")
    queue_capacity: int = 64
    gap_window: int = 32


# Two workloads, not more, so each run can measure 45 s: the host's speed
# drifts by up to 1.5x over minutes, and shorter runs spread more. The
# spool path is measured by serve-paced (96 devices share 32 resident
# slots) and bypassed by fleet-resident. No sharded workload: two shard
# processes beside the system process and the driver outnumber a 2-core
# host's cores, so its numbers would time the scheduler, not the pool.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fleet-resident", "fleet", devices=64, n_test=1500,
                 drift_fraction=0.5, drift_at=800),
        Workload("serve-paced", "paced", devices=96, n_test=120, capacity=32,
                 rate=4000.0, reorder=0.2, queue_capacity=16, gap_window=8),
    )
}

#: ``--tiny`` sizes: same shapes, seconds per run (tests use these).
TINY = {
    "fleet-resident": dict(devices=4, n_test=1500, capacity=8, window=8),
    "serve-paced": dict(devices=12, n_test=120, rate=3000.0, capacity=8),
}


def get(name: str, *, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload


@dataclass
class Inputs:
    """Everything a run feeds the system, in send order."""

    specs: dict                 # device_id -> ExperimentSpec
    streams: dict               # device_id -> (X, y)
    chunks: List[tuple]         # (device_id, seq, X, y) in schedule order
    fingerprint: str

    @property
    def samples(self) -> int:
        return sum(len(c[2]) for c in self.chunks)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate (outside any timed interval) one run's inputs."""
    specs = make_fleet_specs(
        workload.devices,
        seed=seed,
        n_test=workload.n_test,
        drift_fraction=workload.drift_fraction,
        drift_at=workload.drift_at,
    )
    streams = {}
    for dev, spec in specs.items():
        test = build_experiment(spec).test
        streams[dev] = (np.ascontiguousarray(test.X, dtype=np.float64), np.asarray(test.y))
    ids = list(specs)
    lengths = [len(streams[d][0]) for d in ids]
    seqs = dict.fromkeys(ids, 0)
    chunks = []
    for i, start, stop in interleave_schedule(lengths, workload.feed_chunk, seed=seed):
        dev = ids[i]
        X, y = streams[dev]
        chunks.append((dev, seqs[dev], X[start:stop], y[start:stop]))
        seqs[dev] += 1
    return Inputs(specs, streams, chunks, fingerprint(specs, streams))


def fingerprint(specs: dict, streams: dict) -> str:
    """sha256 over the specs and every device's ``X``/``y`` bytes."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps([specs[d].to_json() for d in specs], sort_keys=True).encode()
    )
    for dev in specs:
        X, y = streams[dev]
        digest.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
        digest.update(np.asarray(y, dtype=np.int64).tobytes())
    return digest.hexdigest()


def paced_events(workload: Workload, inputs: Inputs, seed: int, rep: int) -> List[tuple]:
    """``(due_seconds, chunk)`` in send order for the open-loop driver.

    With probability ``reorder`` a chunk is held back and sent right
    after the same device's next chunk, so the lane must stash the later
    one. Due times are then drawn over the send order as a Poisson
    process at ``workload.rate`` samples/s: a held chunk is due when it
    is released (the hold is the client's choice, not a stall of the
    system).

    Each repetition ``rep`` of a run draws its own schedule. The tail
    latency of one schedule is set by its few tightest bursts, so a run
    that replayed a single schedule would report that schedule's p99,
    not the stack's.
    """
    arrivals = np.random.default_rng((int(seed), ARRIVAL_DOMAIN, int(rep)))
    holds = np.random.default_rng((int(seed), REORDER_DOMAIN, int(rep)))
    held: Dict[str, tuple] = {}
    order = []
    for chunk in inputs.chunks:
        dev = chunk[0]
        if dev not in held and workload.reorder and holds.random() < workload.reorder:
            held[dev] = chunk
            continue
        order.append(chunk)
        if dev in held:
            order.append(held.pop(dev))
    order.extend(held.values())     # streams that ended while a chunk was held
    gaps = arrivals.exponential(size=len(order))
    # Rescaled so the schedule offers exactly ``rate`` on average: the
    # offered load, and so the completion rate, is the same for every seed.
    gaps *= sum(len(c[2]) for c in order) / workload.rate / gaps.sum()
    return list(zip(np.cumsum(gaps).tolist(), order))


def verify_sample(specs: dict, seed: int, k: int = 4) -> List[str]:
    """``k`` devices to byte-compare: drifting and stationary alike."""
    rng = np.random.default_rng((int(seed), 0x5A3))
    drifting = [d for d, s in specs.items() if s.dataset_kwargs["shift"] > 0]
    stationary = [d for d, s in specs.items() if s.dataset_kwargs["shift"] == 0]
    half = k // 2
    pick = []
    for pool, n in ((drifting, half), (stationary, k - half)):
        if pool:
            idx = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
            pick.extend(pool[i] for i in sorted(idx))
    return pick


def tally(records: list, into: Optional[list] = None) -> list:
    """Add a record list to a device's ``[samples, correct, detection indices]``.

    The closed loop tallies each window's records as they arrive instead
    of keeping them, so the system process holds no records the stack
    itself would have dropped.
    """
    out = [0, 0, []] if into is None else into
    out[0] += len(records)
    out[1] += sum(1 for r in records if r.correct)
    out[2].extend(r.index for r in records if r.drift_detected)
    return out


def quality(specs: dict, tallies: Dict[str, list]) -> dict:
    """Exact detection-quality counts over every device's :func:`tally`.

    ``delay_sum`` adds, over drifting devices that detected, the first
    detection index at or after ``drift_at`` minus ``drift_at``;
    ``missed`` counts drifting devices with no such detection; ``false``
    counts detections on stationary devices or before ``drift_at``.
    """
    out = dict(samples=0, correct=0, detected=0, delay_sum=0, missed=0, false=0)
    for dev, spec in specs.items():
        samples, correct, hits = tallies.get(dev) or tally([])
        out["samples"] += samples
        out["correct"] += correct
        drift_at = int(spec.dataset_kwargs["drift_at"])
        if spec.dataset_kwargs["shift"] > 0:
            after = [i for i in hits if i >= drift_at]
            out["false"] += len(hits) - len(after)
            if after:
                out["detected"] += 1
                out["delay_sum"] += after[0] - drift_at
            else:
                out["missed"] += 1
        else:
            out["false"] += len(hits)
    return out
