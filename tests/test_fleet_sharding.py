"""ShardedFleetManager: stable device placement, cross-process identity."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.fleet import FleetStats, ShardedFleetManager, ShardError, ShardPool, shard_of
from repro.telemetry import RingBufferSink, configure, get_telemetry
from repro.utils.exceptions import ConfigurationError


def _spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"cell-{seed}",
        pipeline="proposed",
        dataset="blobs",
        seed=seed,
        model_seed=5,
        pipeline_kwargs={"window_size": 40},
        dataset_kwargs={"n_test": 120, "drift_at": 60},
    )


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 7):
            for dev in ("dev0", "dev1", "edge-gw-17", ""):
                s = shard_of(dev, n)
                assert 0 <= s < n
                assert s == shard_of(dev, n)

    def test_not_builtin_hash(self):
        # sha256-derived: pinned values survive PYTHONHASHSEED changes.
        assert shard_of("dev0", 4) == 3
        assert shard_of("dev1", 4) == 3
        assert shard_of("dev2", 4) == 0

    def test_spreads_devices(self):
        shards = {shard_of(f"dev{i:04d}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}


class TestShardedFleet:
    def test_matches_standalone_runs(self, tmp_path):
        specs = {f"dev{i}": _spec(60 + i) for i in range(4)}
        streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
        with ShardedFleetManager(
            2, capacity=1, spool_dir=tmp_path / "spool"
        ) as sfm:
            for dev, spec in specs.items():
                sfm.add_device(dev, spec)
            for start in range(0, 120, 40):
                for dev, s in streams.items():
                    sfm.submit(dev, s.X[start : start + 40], s.y[start : start + 40])
            per_device = sfm.finish_all()
            stats = sfm.stats()
        assert sum(s["devices"] for s in stats) == 4
        for dev, spec in specs.items():
            solo = build_experiment(spec).run()
            got = per_device[dev]
            assert solo == got
            a = np.array([r.anomaly_score for r in solo])
            b = np.array([r.anomaly_score for r in got])
            assert a.tobytes() == b.tobytes()

    def test_unknown_device_rejected_locally(self, tmp_path):
        with ShardedFleetManager(2, capacity=4) as sfm:
            with pytest.raises(ConfigurationError, match="unknown device"):
                sfm.submit("ghost", np.zeros((1, 6)), np.zeros(1, dtype=int))

    def test_worker_error_surfaces_on_drain(self):
        with ShardedFleetManager(1, capacity=4) as sfm:
            sfm.add_device("dev0", _spec(1))
            # Feed a chunk whose labels mismatch: the worker-side session
            # raises and the error must cross the pipe as a ShardError.
            sfm.submit("dev0", np.zeros((4, 6)), np.zeros(3, dtype=int))
            with pytest.raises(ShardError):
                sfm.drain()

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            ShardedFleetManager(0)


class TestShardedTelemetryAggregation:
    N_DEVICES = 4
    N_TEST = 120

    def run_sharded(self, tmp_path, *, telemetry_every):
        specs = {f"dev{i}": _spec(60 + i) for i in range(self.N_DEVICES)}
        streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
        with ShardedFleetManager(
            2,
            capacity=2,
            spool_dir=tmp_path / "spool",
            telemetry_every=telemetry_every,
        ) as sfm:
            for dev, spec in specs.items():
                sfm.add_device(dev, spec)
            for start in range(0, self.N_TEST, 40):
                for dev, s in streams.items():
                    sfm.submit(dev, s.X[start : start + 40], s.y[start : start + 40])
            sfm.flush_telemetry()
            stats = sfm.aggregate_stats()
        return specs, stats

    def test_parent_hub_counters_equal_summed_worker_counters(self, tmp_path):
        """The lossless-aggregation proof: nothing dropped, nothing doubled."""
        configure(enabled=True, sinks=[RingBufferSink()], reset=True)
        try:
            specs, stats = self.run_sharded(tmp_path, telemetry_every=1)
            samples = get_telemetry().registry.get("fleet.device.samples")
            assert samples is not None
            # Every sample processed inside a worker landed exactly once.
            assert samples.total == float(self.N_DEVICES * self.N_TEST)
            assert stats.samples == self.N_DEVICES * self.N_TEST
            # Worker series arrive labelled by their shard of origin.
            assert "shard" in samples.label_names
            expect = {str(shard_of(dev, 2)) for dev in specs}
            got = {s["labels"]["shard"] for s in samples.samples()}
            assert got == expect
            # Per-shard totals match the devices placed on that shard.
            for shard in expect:
                on_shard = [d for d in specs if str(shard_of(d, 2)) == shard]
                total = sum(
                    s["value"]
                    for s in samples.samples()
                    if s["labels"]["shard"] == shard
                )
                assert total == float(len(on_shard) * self.N_TEST)
        finally:
            configure(enabled=False, sinks=[], reset=True)

    def test_close_flushes_unsynced_deltas(self, tmp_path):
        # A large telemetry_every means no piggyback fired; close() must
        # still pull the outstanding worker deltas into the parent.
        configure(enabled=True, sinks=[RingBufferSink()], reset=True)
        try:
            specs = {f"dev{i}": _spec(60 + i) for i in range(2)}
            streams = {d: build_experiment(s).test for d, s in specs.items()}
            sfm = ShardedFleetManager(
                2, capacity=2, spool_dir=tmp_path / "spool", telemetry_every=10_000
            )
            for dev, spec in specs.items():
                sfm.add_device(dev, spec)
            for dev, s in streams.items():
                sfm.submit(dev, s.X, s.y)
            sfm.drain()
            sfm.close()
            samples = get_telemetry().registry.get("fleet.device.samples")
            assert samples is not None
            assert samples.total == float(2 * self.N_TEST)
        finally:
            configure(enabled=False, sinks=[], reset=True)

    def test_disabled_hub_stays_empty(self, tmp_path):
        configure(enabled=False, sinks=[], reset=True)
        self.run_sharded(tmp_path, telemetry_every=1)
        assert get_telemetry().registry.get("fleet.device.samples") is None


class TestAggregateStats:
    def test_sums_across_shards(self, tmp_path):
        specs = {f"dev{i}": _spec(60 + i) for i in range(4)}
        streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
        with ShardedFleetManager(
            2, capacity=1, spool_dir=tmp_path / "spool"
        ) as sfm:
            for dev, spec in specs.items():
                sfm.add_device(dev, spec)
            for start in range(0, 120, 40):
                for dev, s in streams.items():
                    sfm.submit(dev, s.X[start : start + 40], s.y[start : start + 40])
            sfm.finish_all()
            per_shard = sfm.stats()
            total = sfm.aggregate_stats()
        assert isinstance(total, FleetStats)
        assert total.devices == 4
        assert total.samples == 4 * 120
        assert total.evictions == sum(s["evictions"] for s in per_shard)
        assert total.restores == sum(s["restores"] for s in per_shard)
        assert total.evictions > 0  # capacity 1 forces churn inside workers
        assert total.max_resident == max(s["max_resident"] for s in per_shard)
        assert set(total.device_samples) == set(specs)


class TestShardPool:
    def test_broadcast_and_call(self):
        with ShardPool(2, _host_factory, factory_args=(10,)) as pool:
            assert pool.broadcast("whoami") == [(0, 10), (1, 10)]
            assert pool.call(1, "add", 4) == 14

    def test_submit_collect_out_of_order(self):
        with ShardPool(2, _host_factory, factory_args=(0,)) as pool:
            t0 = pool.submit(0, "add", 1)
            t1 = pool.submit(1, "add", 2)
            assert pool.collect(t1) == 2
            assert pool.collect(t0) == 1

    def test_worker_exception_is_shard_error(self):
        with ShardPool(1, _host_factory, factory_args=(0,)) as pool:
            with pytest.raises(ShardError, match="boom"):
                pool.call(0, "explode")


class TestCollectAny:
    def test_returns_whichever_shard_answers_first(self):
        # Head-of-line fix: shard 0 is busy napping, shard 1's reply must
        # come back without waiting on shard 0's FIFO.
        with ShardPool(2, _host_factory, factory_args=(0,)) as pool:
            slow = pool.submit(0, "nap", 0.8)
            fast = pool.submit(1, "add", 2)
            t0 = time.perf_counter()
            ticket, payload = pool.collect_any({slow, fast})
            first_wait = time.perf_counter() - t0
            assert (ticket, payload) == (fast, 2)
            assert first_wait < 0.6  # did not serialize behind the nap
            ticket, payload = pool.collect_any({slow})
            assert (ticket, payload) == (slow, 0.8)

    def test_serves_buffered_replies_without_waiting(self):
        with ShardPool(1, _host_factory, factory_args=(5,)) as pool:
            a = pool.submit(0, "add", 1)
            b = pool.submit(0, "add", 2)
            # Strict collect of b buffers a's reply; collect_any must
            # hand the buffered one back immediately.
            assert pool.collect(b) == 7
            ticket, payload = pool.collect_any({a}, timeout=0.5)
            assert (ticket, payload) == (a, 6)

    def test_failed_ticket_raises_with_attribution(self):
        with ShardPool(1, _host_factory, factory_args=(0,)) as pool:
            ok = pool.submit(0, "add", 3)
            bad = pool.submit(0, "explode")
            collected = {}
            wanted = {ok, bad}
            while wanted:
                try:
                    ticket, payload = pool.collect_any(wanted)
                except ShardError as exc:
                    assert exc.ticket == bad
                    wanted.discard(exc.ticket)
                else:
                    collected[ticket] = payload
                    wanted.discard(ticket)
            assert collected == {ok: 3}

    def test_unknown_and_empty_ticket_sets_rejected(self):
        with ShardPool(1, _host_factory, factory_args=(0,)) as pool:
            with pytest.raises(ConfigurationError, match="unknown"):
                pool.collect_any({999})
            with pytest.raises(ConfigurationError, match="empty ticket set"):
                pool.collect_any(set())


class TestLiveStats:
    def test_folds_shard_deltas_while_running(self, tmp_path):
        specs = {f"dev{i}": _spec(60 + i) for i in range(4)}
        streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
        with ShardedFleetManager(
            2, capacity=1, spool_dir=tmp_path / "spool"
        ) as sfm:
            for dev, spec in specs.items():
                sfm.add_device(dev, spec)
            assert sfm.live_stats() == {}
            for dev, s in streams.items():
                sfm.submit(dev, s.X[:40], s.y[:40])
            sfm.drain()
            mid = sfm.live_stats()
            assert mid["samples"] == 4 * 40  # mid-run, before finish_all
            for dev, s in streams.items():
                sfm.submit(dev, s.X[40:], s.y[40:])
            sfm.drain()
            assert sfm.live_stats()["samples"] == 4 * 120
            sfm.finish_all()
            per_shard = sfm.stats()
            # stats() re-anchors the live fold to the collected snapshots.
            assert sfm.live_stats()["samples"] == sum(
                s["samples"] for s in per_shard
            )


class _Host:
    def __init__(self, shard_index, base):
        self.shard_index = shard_index
        self.base = base

    def whoami(self):
        return (self.shard_index, self.base)

    def add(self, x):
        return self.base + x

    def nap(self, seconds):
        time.sleep(seconds)
        return seconds

    def explode(self):
        raise ValueError("boom")

    def close(self):
        pass


def _host_factory(shard_index, base):
    return _Host(shard_index, base)
