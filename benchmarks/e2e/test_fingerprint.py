"""Input fingerprints pin each workload's generated inputs to its seed."""

from __future__ import annotations

import workloads


def test_fingerprint_is_stable_for_a_seed_and_differs_across_seeds():
    for name in ("fleet-resident", "serve-paced"):
        w = workloads.get(name, tiny=True)
        first = workloads.make_inputs(w, 3).fingerprint
        assert workloads.make_inputs(w, 3).fingerprint == first
        assert workloads.make_inputs(w, 4).fingerprint != first


def test_fingerprint_sees_a_single_changed_sample():
    w = workloads.get("serve-paced", tiny=True)
    inputs = workloads.make_inputs(w, 0)
    dev = next(iter(inputs.streams))
    X, y = inputs.streams[dev]
    X = X.copy()
    X[5, 0] = 0.5 * X[5, 0] + 1.0
    streams = {**inputs.streams, dev: (X, y)}
    assert workloads.fingerprint(inputs.specs, streams) != inputs.fingerprint


def test_paced_schedule_keeps_every_chunk_once_and_reorders_some():
    w = workloads.get("serve-paced", tiny=True)
    inputs = workloads.make_inputs(w, 0)
    events = workloads.paced_events(w, inputs, 0, rep=0)
    assert events == workloads.paced_events(w, inputs, 0, rep=0)
    # Each repetition draws its own schedule over the same chunks.
    other = workloads.paced_events(w, inputs, 0, rep=1)
    assert [due for due, _ in other] != [due for due, _ in events]
    assert sorted(c[:2] for _, c in other) == sorted(c[:2] for _, c in events)
    keys = [(dev, seq) for _, (dev, seq, _X, _y) in events]
    assert sorted(keys) == sorted((c[0], c[1]) for c in inputs.chunks)
    dues = [due for due, _ in events]
    assert dues == sorted(dues)
    last_seq = {}
    swapped = 0
    for dev, seq in keys:
        swapped += seq < last_seq.get(dev, -1)
        last_seq[dev] = max(seq, last_seq.get(dev, -1))
    assert swapped > 0
