"""Self-healing fleet units: pool deadlines/escalation, supervisor policy,
and the FleetManager recovery surface (corrupt spools, replay, shedding).

The end-to-end chaos proofs live in ``test_fleet_chaos.py``; this module
pins each mechanism in isolation so a chaos failure bisects quickly.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.fleet import (
    SHARD_RESTARTED,
    FleetManager,
    FleetSupervisor,
    JournalEntry,
    ShardDiedError,
    ShardError,
    ShardPool,
    ShardTimeoutError,
    SupervisorConfig,
)
from repro.guard.ladder import GuardLevel
from repro.telemetry import configure
from repro.utils.exceptions import (
    ConfigurationError,
    DeviceQuarantinedError,
    FleetOverloadError,
)


# --------------------------------------------------------------------------
# ShardPool: per-request deadlines, death detection, restart escalation
# --------------------------------------------------------------------------


class _PoolHost:
    def __init__(self, shard_index):
        self.shard_index = shard_index

    def echo(self, x):
        return x

    def sleep(self, seconds):
        time.sleep(seconds)
        return seconds

    def wedge(self, seconds):
        """Ignore SIGTERM first, so only SIGKILL can stop the sleep."""
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(seconds)
        return seconds

    def close(self):
        pass


def _pool_host_factory(shard_index):
    return _PoolHost(shard_index)


class TestShardPoolDeadlines:
    def test_collect_timeout_raises_and_ticket_stays_outstanding(self):
        with ShardPool(1, _pool_host_factory) as pool:
            ticket = pool.submit(0, "sleep", 1.0)
            with pytest.raises(ShardTimeoutError, match="no reply"):
                pool.collect(ticket, timeout=0.1)
            # the worker finishes the sleep; the reply is still collectable
            assert pool.collect(ticket, timeout=5.0) == 1.0

    def test_default_request_timeout_applies_to_call(self):
        with ShardPool(1, _pool_host_factory, request_timeout=0.1) as pool:
            with pytest.raises(ShardTimeoutError):
                pool.call(0, "sleep", 1.0)
            pool.restart_shard(0)  # leave a responsive worker for close()

    def test_dead_worker_raises_shard_died(self):
        with ShardPool(1, _pool_host_factory) as pool:
            os.kill(pool.worker_pid(0), signal.SIGKILL)
            with pytest.raises(ShardDiedError):
                for _ in range(100):  # submit may buffer before EPIPE
                    pool.call(0, "echo", 1)
            # "terminated" can race SIGKILL reaping; both mean a fresh worker
            assert pool.restart_shard(0) in ("dead", "terminated")
            assert pool.call(0, "echo", 7) == 7


class TestShardPoolRestart:
    def test_restart_fails_outstanding_tickets_with_marker(self):
        with ShardPool(1, _pool_host_factory) as pool:
            slow = pool.submit(0, "sleep", 30.0)
            queued = pool.submit(0, "echo", 1)
            assert pool.restart_shard(0, grace=0.2) in ("terminated", "killed")
            for ticket in (slow, queued):
                with pytest.raises(ShardError, match=SHARD_RESTARTED):
                    pool.collect(ticket)
            assert pool.call(0, "echo", 2) == 2

    def test_sigterm_ignoring_worker_escalates_to_kill(self):
        with ShardPool(1, _pool_host_factory) as pool:
            pool.submit(0, "wedge", 30.0)
            time.sleep(0.3)  # let the worker install SIG_IGN and sleep
            assert pool.restart_shard(0, grace=0.2) == "killed"
            assert pool.call(0, "echo", 3) == 3

    def test_close_escalates_a_stuck_worker(self):
        pool = ShardPool(1, _pool_host_factory)
        pool.submit(0, "sleep", 30.0)
        t0 = time.perf_counter()
        pool.close(grace=0.2)
        assert time.perf_counter() - t0 < 10.0

    def test_close_with_hub_enabled_bounds_the_telemetry_flush(self):
        """No request_timeout: only close's own grace bounds the flush
        queued behind a stuck request (flush + join + terminate grace,
        then kill_grace)."""
        configure(enabled=True, sinks=[], reset=True)
        try:
            pool = ShardPool(1, _pool_host_factory)
            pool.submit(0, "sleep", 60.0)
            t0 = time.perf_counter()
            pool.close(grace=0.5)
            assert time.perf_counter() - t0 < 3 * 0.5 + 5.0
            assert not pool.shard_alive(0)
        finally:
            configure(enabled=False, sinks=[], reset=True)


# --------------------------------------------------------------------------
# FleetSupervisor: policy bookkeeping (no processes)
# --------------------------------------------------------------------------


def _supervisor(**overrides) -> FleetSupervisor:
    return FleetSupervisor(SupervisorConfig(**overrides), n_shards=2)


class TestDeterministicBackoff:
    def test_same_seed_same_jitter(self):
        a = _supervisor(seed=3)
        b = _supervisor(seed=3)
        a.open_incident(), b.open_incident()
        seq_a = [a.backoff_seconds(0, k) for k in range(5)]
        seq_b = [b.backoff_seconds(0, k) for k in range(5)]
        assert seq_a == seq_b

    def test_different_seed_different_jitter(self):
        a, b = _supervisor(seed=3), _supervisor(seed=4)
        a.open_incident(), b.open_incident()
        assert [a.backoff_seconds(0, k) for k in range(1, 5)] != [
            b.backoff_seconds(0, k) for k in range(1, 5)
        ]

    def test_attempt_zero_is_immediate_and_growth_is_capped(self):
        sup = _supervisor(backoff_base=0.1, backoff_max=0.4)
        sup.open_incident()
        assert sup.backoff_seconds(0, 0) == 0.0
        for attempt in range(1, 10):
            delay = sup.backoff_seconds(0, attempt)
            assert 0.0 < delay < 0.4 * 1.5

    def test_incident_index_varies_the_draw(self):
        sup = _supervisor(seed=3)
        sup.open_incident()
        first = sup.backoff_seconds(0, 1)
        sup.open_incident()
        assert sup.backoff_seconds(0, 1) != first


class TestStrikesAndQuarantine:
    def test_third_strike_quarantines(self):
        sup = _supervisor(strikes=3)
        assert sup.strike("dev0", "bad feed") is False
        assert sup.strike("dev0", "bad feed") is False
        assert sup.strike("dev0", "bad feed") is True
        assert "dev0" in sup.quarantined
        assert "3 strikes" in sup.quarantined["dev0"]

    def test_quarantined_device_is_gated(self):
        sup = _supervisor(strikes=1)
        sup.strike("dev0", "poison")
        with pytest.raises(DeviceQuarantinedError, match="dev0"):
            sup.gate("dev0")
        sup.gate("dev1")  # others unaffected

    def test_note_quarantined_is_idempotent(self):
        sup = _supervisor()
        sup.note_quarantined("dev0", "first reason")
        sup.note_quarantined("dev0", "second reason")
        assert sup.quarantined["dev0"] == "first reason"


class TestJournal:
    def _entry(self, dev="dev0", start=0):
        return JournalEntry(dev, np.zeros((4, 2)), np.zeros(4), start)

    def test_sync_due_at_checkpoint_every(self):
        sup = _supervisor(checkpoint_every=3)
        assert sup.journal(0, self._entry(start=0)) is False
        assert sup.journal(0, self._entry(start=4)) is False
        assert sup.journal(0, self._entry(start=8)) is True
        assert sup.journal_depth(0) == 3 and sup.journal_depth(1) == 0

    def test_truncate_drops_only_that_shard(self):
        sup = _supervisor()
        sup.journal(0, self._entry())
        sup.journal(1, self._entry("dev1"))
        sup.truncate(0)
        assert sup.journal_depth(0) == 0
        assert [e.device_id for e in sup.entries(1)] == ["dev1"]


class TestFleetLadder:
    def test_failed_recovery_trips_to_passthrough_and_rejects(self):
        sup = _supervisor()
        t = sup.note_recovery_failed(0, "unrecoverable")
        assert t is not None and t.to_level >= GuardLevel.PASSTHROUGH
        with pytest.raises(FleetOverloadError):
            sup.gate("dev0")
        assert sup.rejected_submits == 1

    def test_respawn_churn_escalates_to_sanitizing(self):
        sup = _supervisor(trip_faults=2, fault_window=100)
        sup.tick()
        assert sup.note_respawn(0, outcome="dead", attempt=0, replayed=0, seconds=0.1) is None
        t = sup.note_respawn(0, outcome="dead", attempt=0, replayed=5, seconds=0.1)
        assert t is not None and t.to_level == GuardLevel.SANITIZING
        assert sup.respawns == 2 and sup.replayed_samples == 5

    def test_queue_depth_breach_is_a_fault(self):
        sup = _supervisor(max_pending=10, trip_faults=1)
        assert sup.note_queue_depth(10) is None
        t = sup.note_queue_depth(11)
        assert t is not None and t.to_level == GuardLevel.SANITIZING

    def test_health_dict_reflects_state(self):
        sup = _supervisor()
        assert sup.health()["status"] == "ok"
        sup.note_recovery_failed(0, "gone")
        h = sup.health()
        assert h["status"] == "degraded"
        assert h["failed_recoveries"] == 1
        assert h["transitions"][0]["to"] in ("PASSTHROUGH", "FROZEN")

    def test_health_serves_ladder_health_provider(self):
        from repro.telemetry.httpd import ladder_health

        sup = _supervisor()
        body = ladder_health(sup)()
        assert body["status"] == "ok" and body["level_value"] == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"request_timeout": 0.0},
            {"max_respawns": 0},
            {"strikes": 0},
            {"checkpoint_every": 0},
            {"shed_fraction": 0.0},
            {"shed_fraction": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(**kwargs)


# --------------------------------------------------------------------------
# FleetManager recovery surface
# --------------------------------------------------------------------------


def _spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"cell-{seed}",
        pipeline="proposed",
        dataset="blobs",
        seed=seed,
        model_seed=5,
        pipeline_kwargs={"window_size": 60},
        dataset_kwargs={"n_test": 240, "drift_at": 150},
    )


@pytest.fixture
def recovery_fleet(tmp_path):
    specs = {f"dev{i}": _spec(70 + i) for i in range(3)}
    streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
    fm = FleetManager(capacity=1, spool_dir=tmp_path / "spool")
    for dev, spec in specs.items():
        fm.add_device(dev, spec)
    yield fm, specs, streams
    fm.close()


def _feed(fm, streams, dev, start, stop):
    s = streams[dev]
    return fm.submit(dev, s.X[start:stop], s.y[start:stop])


class TestCorruptSpool:
    def test_corrupt_restore_quarantines_and_keeps_serving(self, recovery_fleet):
        from repro.resilience import flip_bit

        fm, specs, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 60)
        _feed(fm, streams, "dev1", 0, 60)  # capacity 1: dev0 spooled
        spool = fm.spool_dir / "dev0.fleetck"
        flip_bit(spool, 64 * 8 + 3)  # payload bit, past the header
        with pytest.raises(DeviceQuarantinedError, match="dev0"):
            _feed(fm, streams, "dev0", 60, 120)
        assert fm.stats.corrupt_checkpoints == 1
        assert "dev0" in fm.quarantined
        assert fm.finish("dev0") == []
        # the rest of the fleet is untouched and still byte-identical
        _feed(fm, streams, "dev1", 60, 240)
        _assert_identical(build_experiment(specs["dev1"]).run(), fm.finish("dev1"))

    def test_quarantine_is_idempotent_and_counts_once(self, recovery_fleet):
        fm, _, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 60)
        fm.quarantine("dev0", "manual")
        fm.quarantine("dev0", "again")
        assert fm.quarantined["dev0"] == "manual"
        assert fm.stats.quarantined == 1
        with pytest.raises(DeviceQuarantinedError):
            _feed(fm, streams, "dev0", 60, 120)


class TestCheckpointAndReplay:
    def test_checkpoint_resident_spools_without_evicting(self, recovery_fleet):
        fm, _, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 60)
        assert fm.checkpoint_resident() == 1
        assert (fm.spool_dir / "dev0.fleetck").is_file()
        assert fm.resident == ["dev0"]  # still live, no restore needed
        restores = fm.stats.restores
        _feed(fm, streams, "dev0", 60, 120)
        assert fm.stats.restores == restores

    def test_replay_skips_what_the_checkpoint_covers(self, recovery_fleet):
        fm, _, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 60)
        # fully covered chunk: nothing to re-feed
        s = streams["dev0"]
        assert fm.replay("dev0", s.X[0:60], s.y[0:60], 0) == 0
        # half-covered chunk: only the tail past position 60 is fed
        assert fm.replay("dev0", s.X[30:90], s.y[30:90], 30) == 30

    def test_replay_gap_quarantines_loudly(self, recovery_fleet):
        fm, _, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 60)
        s = streams["dev0"]
        assert fm.replay("dev0", s.X[120:180], s.y[120:180], 120) == 0
        assert "replay gap" in fm.quarantined["dev0"]

    def test_replayed_device_stays_byte_identical(self, recovery_fleet):
        fm, specs, streams = recovery_fleet
        s = streams["dev0"]
        _feed(fm, streams, "dev0", 0, 60)
        fm.replay("dev0", s.X[30:120], s.y[30:120], 30)  # overlap replay
        _feed(fm, streams, "dev0", 120, 240)
        _assert_identical(build_experiment(specs["dev0"]).run(), fm.finish("dev0"))


class TestAttachSpoolAndShed:
    def test_fresh_manager_adopts_surviving_spools(self, recovery_fleet, tmp_path):
        fm, specs, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 120)
        _feed(fm, streams, "dev1", 0, 60)  # evicts dev0 to its spool
        # simulate the worker dying: a *new* manager over the same spool dir
        fm2 = FleetManager(capacity=1, spool_dir=fm.spool_dir)
        fm2.add_device("dev0", specs["dev0"])
        assert fm2.attach_spool("dev0") is True
        _feed(fm2, streams, "dev0", 120, 240)
        _assert_identical(build_experiment(specs["dev0"]).run(), fm2.finish("dev0"))
        fm2.close()

    def test_attach_spool_without_file_starts_cold(self, recovery_fleet):
        fm, specs, _ = recovery_fleet
        fm2 = FleetManager(capacity=1, spool_dir=fm.spool_dir / "elsewhere")
        fm2.add_device("dev0", specs["dev0"])
        assert fm2.attach_spool("dev0") is False
        fm2.close()

    def test_shed_evicts_coldest_first(self, tmp_path):
        specs = {f"dev{i}": _spec(80 + i) for i in range(3)}
        streams = {dev: build_experiment(spec).test for dev, spec in specs.items()}
        fm = FleetManager(capacity=3, spool_dir=tmp_path / "spool")
        for dev, spec in specs.items():
            fm.add_device(dev, spec)
        for dev in specs:
            _feed(fm, streams, dev, 0, 60)
        assert fm.shed(2) == 2
        assert fm.resident == ["dev2"]  # dev0/dev1 were coldest
        assert fm.stats.shed_sessions == 2
        fm.close()

    def test_evict_device_targets_one_resident(self, recovery_fleet):
        fm, _, streams = recovery_fleet
        _feed(fm, streams, "dev0", 0, 60)
        assert fm.evict_device("dev0") is True
        assert fm.resident == []
        assert (fm.spool_dir / "dev0.fleetck").is_file()
        assert fm.evict_device("dev0") is False  # already spooled


def _assert_identical(a, b):
    assert len(a) == len(b)
    assert a == b
    sa = np.array([r.anomaly_score for r in a], dtype=np.float64)
    sb = np.array([r.anomaly_score for r in b], dtype=np.float64)
    assert sa.tobytes() == sb.tobytes()
