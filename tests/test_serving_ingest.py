"""Serving ingestion core: sequencing, backpressure, admission control.

The backpressure staircase is pinned with a gate-controlled stub
manager: while the dispatcher is blocked inside ``submit_many``, lanes
fill deterministically and the admission ladder must walk
queue-full → throttle → shed → reject, with every *admitted* chunk still
producing a completion ticket once the gate opens (no record loss).
"""

from __future__ import annotations

import gc
import logging
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import ExperimentSpec, build_experiment
from repro.fleet import FleetManager
from repro.guard.ladder import DegradationLadder, GuardLevel
from repro.serving import (
    AdmissionController,
    IngestCore,
    OfferStatus,
    device_priority,
)
from repro.serving.server import IngestServer
from repro.utils.exceptions import ConfigurationError

N_TEST = 120


def _spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"serve-{seed}",
        pipeline="proposed",
        dataset="blobs",
        seed=seed,
        model_seed=5,
        pipeline_kwargs={"window_size": 40},
        dataset_kwargs={"n_test": N_TEST, "drift_at": 60},
    )


def _chunks(spec: ExperimentSpec, size: int = 40):
    stream = build_experiment(spec).test
    return [
        (stream.X[a : a + size], stream.y[a : a + size])
        for a in range(0, len(stream.X), size)
    ]


def _wait(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestSequencing:
    def _core(self, tmp_path, **kw) -> IngestCore:
        fm = FleetManager(capacity=2, spool_dir=tmp_path / "spool")
        return IngestCore(fm, **kw)

    def test_in_order_chunks_complete_with_record_counts(self, tmp_path):
        spec = _spec(1)
        core = self._core(tmp_path)
        core.register("dev0", spec)
        with core:
            for seq, (Xc, yc) in enumerate(_chunks(spec)):
                offer = core.offer("dev0", seq, Xc, yc)
                assert offer.status is OfferStatus.ACCEPTED
                assert offer.ticket is not None
            assert core.drain(timeout=30.0)
            results = core.results("dev0")
            per_device = core.finish_all()
        assert [r.seq for r in results] == [0, 1, 2]
        assert all(r.error is None for r in results)
        assert sum(r.records for r in results) == len(per_device["dev0"]) == N_TEST
        assert all(r.latency_seconds >= 0 for r in results)

    def test_out_of_order_buffers_then_drains_in_sequence(self, tmp_path):
        spec = _spec(2)
        chunks = _chunks(spec)
        core = self._core(tmp_path, gap_window=4)
        core.register("dev0", spec)
        with core:
            # 1 and 2 arrive before 0: both stash, nothing dispatches.
            assert core.offer("dev0", 1, *chunks[1]).status is OfferStatus.BUFFERED
            assert core.offer("dev0", 2, *chunks[2]).status is OfferStatus.BUFFERED
            assert core.gaps() == {"dev0": [1, 2]}
            assert core.offer("dev0", 0, *chunks[0]).status is OfferStatus.ACCEPTED
            assert core.gaps() == {}
            per_device = core.finish_all()
        # Released strictly in sequence -> byte-identical to a solo run.
        solo = build_experiment(spec).run()
        assert per_device["dev0"] == solo

    def test_duplicates_refused_for_seen_and_stashed_sequences(self, tmp_path):
        spec = _spec(3)
        chunks = _chunks(spec)
        core = self._core(tmp_path, gap_window=4)
        core.register("dev0", spec)
        with core:
            assert core.offer("dev0", 0, *chunks[0]).status is OfferStatus.ACCEPTED
            assert core.offer("dev0", 0, *chunks[0]).status is OfferStatus.DUPLICATE
            assert core.offer("dev0", 2, *chunks[2]).status is OfferStatus.BUFFERED
            dup = core.offer("dev0", 2, *chunks[2])
            assert dup.status is OfferStatus.DUPLICATE
            assert dup.ticket is None
            assert core.offer("dev0", 1, *chunks[1]).status is OfferStatus.ACCEPTED
            core.finish_all()

    def test_gap_overflow_and_unknown_device_and_malformed(self, tmp_path):
        spec = _spec(4)
        chunks = _chunks(spec)
        core = self._core(tmp_path, gap_window=2)
        core.register("dev0", spec)
        with core:
            far = core.offer("dev0", 3, *chunks[1])
            assert far.status is OfferStatus.GAP_OVERFLOW
            ghost = core.offer("ghost", 0, *chunks[0])
            assert ghost.status is OfferStatus.UNKNOWN_DEVICE
            bad = core.offer("dev0", 0, chunks[0][0], chunks[0][1][:-1])
            assert bad.status is OfferStatus.REJECTED
            assert "malformed" in bad.detail
            core.stop()

    def test_register_after_start_refused(self, tmp_path):
        core = self._core(tmp_path)
        core.register("dev0", _spec(5))
        with core:
            with pytest.raises(ConfigurationError, match="before start"):
                core.register("dev1", _spec(6))

    def test_finish_all_refuses_unfilled_gaps_unless_forced(self, tmp_path):
        spec = _spec(7)
        chunks = _chunks(spec)
        core = self._core(tmp_path, gap_window=4)
        core.register("dev0", spec)
        core.start()
        assert core.offer("dev0", 0, *chunks[0]).status is OfferStatus.ACCEPTED
        assert core.offer("dev0", 2, *chunks[2]).status is OfferStatus.BUFFERED
        with pytest.raises(ConfigurationError, match="gaps"):
            core.finish_all()
        core.start()  # the refused finish_all stopped the dispatcher
        per_device = core.finish_all(force_gaps=True)
        assert core.dispatch_failures == 1  # the discarded stash entry
        assert len(per_device["dev0"]) == 40  # only chunk 0 reached the engine

    def test_results_supports_seq_order_peek_and_limit(self, tmp_path):
        spec = _spec(8)
        chunks = _chunks(spec)
        core = self._core(tmp_path)
        core.register("dev0", spec)
        with core:
            for seq in range(3):
                core.offer("dev0", seq, *chunks[seq])
            assert core.drain(timeout=30.0)
            peek = core.results("dev0", order="seq", pop=False)
            assert [r.seq for r in peek] == [0, 1, 2]
            first = core.results("dev0", limit=1)
            assert len(first) == 1
            rest = core.results("dev0")
            assert {r.seq for r in rest} == {0, 1, 2} - {first[0].seq}
            assert core.results("dev0") == []
            with pytest.raises(ConfigurationError, match="order"):
                core.results("dev0", order="sideways")
            core.stop()


class _GateManager:
    """Stub manager whose submit_many blocks until the test opens a gate."""

    capacity = 8

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.shed_calls: list = []
        self.batches: list = []

    def add_device(self, device_id, spec):
        pass

    def submit_many(self, batch, *, contain_errors=False):
        self.entered.set()
        assert self.gate.wait(timeout=30.0)
        self.batches.append([dev for dev, _, _ in batch])
        return [[] for _ in batch]

    def shed(self, k):
        self.shed_calls.append(int(k))
        return int(k)

    def finish_all(self):
        return {}

    def close(self):
        pass


def _priority_split(prefix: str = "pdev", fraction: float = 0.25):
    """One device below the shed threshold and one above it."""
    low = high = None
    for i in range(200):
        name = f"{prefix}{i}"
        if device_priority(name) < fraction and low is None:
            low = name
        if device_priority(name) >= fraction and high is None:
            high = name
        if low and high:
            return low, high
    raise AssertionError("no priority split found")  # pragma: no cover


class TestBackpressureStaircase:
    def test_queue_full_throttle_shed_reject_without_record_loss(self):
        ladder = DegradationLadder(
            trip_faults=2, fault_window=64, freeze_trips=2,
            trip_window=256, cooldown=2,
        )
        admission = AdmissionController(ladder=ladder, retry_after=0.01)
        manager = _GateManager()
        low, high = _priority_split()
        X = np.zeros((4, 6))
        y = np.zeros(4, dtype=int)
        core = IngestCore(
            manager, queue_capacity=2, window_chunks=1, admission=admission
        )
        for dev in ("dev0", low, high):
            core.register(dev, _spec(9))
        admitted_tickets = []
        with core:
            # First chunk is grabbed by the dispatcher and blocks on the
            # gate; the next two fill dev0's lane to capacity.
            for seq in range(3):
                offer = core.offer("dev0", seq, X, y)
                assert offer.admitted
                admitted_tickets.append(offer.ticket)
                if seq == 0:
                    assert manager.entered.wait(timeout=10.0)
                    assert _wait(lambda: core.pending()["inflight"] == 1)
            # Lane full: two faults escalate HEALTHY -> SANITIZING.
            for seq in (3, 4):
                offer = core.offer("dev0", seq, X, y)
                assert offer.status is OfferStatus.QUEUE_FULL
                assert offer.retry_after is not None
            assert admission.level == GuardLevel.SANITIZING
            # Fresh-lane devices are throttled with a Retry-After hint.
            throttled = core.offer(high, 0, X, y)
            assert throttled.status is OfferStatus.THROTTLED
            assert throttled.retry_after is not None
            # A full lane *while throttling* is a trip -> PASSTHROUGH.
            assert core.offer("dev0", 5, X, y).status is OfferStatus.QUEUE_FULL
            assert admission.level == GuardLevel.PASSTHROUGH
            # PASSTHROUGH sheds the low-priority slice, keeps the rest.
            assert core.offer(low, 0, X, y).status is OfferStatus.SHED
            kept = core.offer(high, 0, X, y)
            assert kept.admitted
            admitted_tickets.append(kept.ticket)
            # Another full lane trips again -> FROZEN: reject everything.
            assert core.offer("dev0", 6, X, y).status is OfferStatus.QUEUE_FULL
            assert admission.level == GuardLevel.FROZEN
            assert core.offer(high, 1, X, y).status is OfferStatus.REJECTED
            # Open the gate: every admitted chunk must complete.
            manager.gate.set()
            assert core.drain(timeout=30.0)
            done = core.results("dev0") + core.results(low) + core.results(high)
            assert sorted(r.ticket for r in done) == sorted(admitted_tickets)
            assert all(r.error is None for r in done)
            # The PASSTHROUGH transition requested exactly one shed, and
            # the dispatcher (not the transition) executed it.
            assert manager.shed_calls == [
                max(1, int(manager.capacity * admission.shed_fraction))
            ]
            core.stop()

    def test_clean_dispatches_deescalate_the_ladder(self):
        ladder = DegradationLadder(
            trip_faults=1, fault_window=8, freeze_trips=4,
            trip_window=64, cooldown=1,
        )
        admission = AdmissionController(ladder=ladder, retry_after=0.01)
        manager = _GateManager()
        manager.gate.set()  # dispatch immediately
        core = IngestCore(manager, queue_capacity=4, admission=admission)
        core.register("dev0", _spec(10))
        with core:
            admission.note_queue_full()  # fault -> SANITIZING
            assert admission.level == GuardLevel.SANITIZING
            assert core.offer("dev0", 0, np.zeros((2, 6)), np.zeros(2)).status \
                is OfferStatus.THROTTLED
            # One clean dispatch satisfies cooldown=1 -> HEALTHY again.
            admission.note_dispatch(0.001, 4)
            assert admission.level == GuardLevel.HEALTHY
            offer = core.offer("dev0", 0, np.zeros((2, 6)), np.zeros(2))
            assert offer.admitted
            assert core.drain(timeout=10.0)
            core.stop()


class _FailingManager(_GateManager):
    def submit_many(self, batch, *, contain_errors=False):
        raise RuntimeError("engine exploded")


class _QuarantiningManager(_GateManager):
    def submit_many(self, batch, *, contain_errors=False):
        assert contain_errors
        return [None for _ in batch]  # every device quarantined


class TestDispatchFailures:
    def test_dispatch_error_trips_ladder_and_marks_results(self):
        admission = AdmissionController(retry_after=0.01)
        core = IngestCore(_FailingManager(), admission=admission)
        core.register("dev0", _spec(11))
        with core:
            offer = core.offer("dev0", 0, np.zeros((2, 6)), np.zeros(2))
            assert offer.admitted
            assert core.drain(timeout=10.0)
            (result,) = core.results("dev0")
            assert result.error is not None
            assert "engine exploded" in result.error
            assert result.records is None
            assert core.dispatch_failures == 1
            # A dispatch raise is a trip: straight past throttling.
            assert admission.level == GuardLevel.PASSTHROUGH
            core.stop()

    def test_contained_quarantine_reports_per_chunk_error(self):
        core = IngestCore(_QuarantiningManager())
        core.register("dev0", _spec(12))
        with core:
            core.offer("dev0", 0, np.zeros((2, 6)), np.zeros(2))
            assert core.drain(timeout=10.0)
            (result,) = core.results("dev0")
            assert result.error == "device quarantined"
            assert core.dispatch_failures == 0  # contained, not a failure
            core.stop()


class TestAdmissionController:
    def test_device_priority_stable_and_uniformish(self):
        values = [device_priority(f"dev{i:04d}") for i in range(256)]
        assert values == [device_priority(f"dev{i:04d}") for i in range(256)]
        assert all(0.0 <= v < 1.0 for v in values)
        below = sum(v < 0.25 for v in values)
        assert 32 <= below <= 96  # ~64 expected at fraction 0.25

    def test_retry_hint_scales_with_pressure(self):
        admission = AdmissionController(retry_after=0.5)
        base = admission.retry_hint()
        assert base == pytest.approx(0.5)
        admission.note_pressure(1.0)
        assert admission.retry_hint() == pytest.approx(4.0)  # 8x base
        admission.note_pressure(7.0)  # clamped
        assert admission.retry_hint() == pytest.approx(4.0)

    def test_decision_counters_accumulate(self):
        admission = AdmissionController()
        assert admission.admit("a").accepted
        admission.note_queue_full()
        assert admission.decisions["accept"] == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="shed_fraction"):
            AdmissionController(shed_fraction=0.0)
        with pytest.raises(ConfigurationError, match="retry_after"):
            AdmissionController(retry_after=-1.0)
        with pytest.raises(ConfigurationError, match="latency_slo"):
            AdmissionController(latency_slo=0.0)

    def test_latency_slo_violation_is_a_fault(self):
        ladder = DegradationLadder(
            trip_faults=1, fault_window=8, freeze_trips=4,
            trip_window=64, cooldown=4,
        )
        admission = AdmissionController(ladder=ladder, latency_slo=0.5)
        admission.note_dispatch(2.0, 100)
        assert admission.level == GuardLevel.SANITIZING

    def test_core_validation(self, tmp_path):
        fm = FleetManager(capacity=2)
        with pytest.raises(ConfigurationError, match="queue_capacity"):
            IngestCore(fm, queue_capacity=0)
        with pytest.raises(ConfigurationError, match="gap_window"):
            IngestCore(fm, gap_window=-1)
        with pytest.raises(ConfigurationError, match="window_chunks"):
            IngestCore(fm, window_chunks=0)
        core = IngestCore(fm)
        core.register("dev0", _spec(13))
        with pytest.raises(ConfigurationError, match="already registered"):
            core.register("dev0", _spec(13))
        fm.close()


class TestServerConnections:
    """HTTP-level robustness of :class:`IngestServer` itself."""

    @staticmethod
    def _exchange(server, raw: bytes) -> tuple:
        """Send ``raw`` on a fresh connection; return (reply, then-EOF?)."""
        with socket.create_connection((server.host, server.port), timeout=5) as s:
            s.sendall(raw)
            reply = b""
            while b"\r\n\r\n" not in reply:
                data = s.recv(4096)
                if not data:
                    break
                reply += data
            head, _, body = reply.partition(b"\r\n\r\n")
            length = int(
                [h for h in head.split(b"\r\n") if h.lower().startswith(b"content-length")][0]
                .split(b":")[1]
            )
            while len(body) < length:
                body += s.recv(4096)
            return head, s.recv(4096) == b""

    @pytest.mark.parametrize("value", [b"abc", b"-5", b"1e3"])
    def test_bad_content_length_answers_400_and_closes(self, value, caplog):
        fm = FleetManager(capacity=2)
        server = IngestServer(IngestCore(fm)).start()
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                head, closed = self._exchange(
                    server,
                    b"POST /v1/devices/a/chunks HTTP/1.1\r\nContent-Length: "
                    + value + b"\r\n\r\n{}",
                )
                # The server stays up for the next client.
                ok, _ = self._exchange(server, b"GET /metrics HTTP/1.0\r\n\r\n")
        finally:
            server.stop()
            fm.close()
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert closed
        assert ok.startswith(b"HTTP/1.1 200 ")
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_stop_with_keep_alive_client_connected_is_clean(self, caplog):
        fm = FleetManager(capacity=2)
        server = IngestServer(IngestCore(fm)).start()
        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                client = socket.create_connection((server.host, server.port), timeout=5)
                client.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
                assert client.recv(4096).startswith(b"HTTP/1.1 200 ")
                thread = server._thread
                server.stop()
                assert not thread.is_alive()
                # The server closed its end of the idle connection.
                assert client.recv(4096) == b""
                client.close()
                gc.collect()
        finally:
            sys.unraisablehook = previous_hook
            fm.close()
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert not unraisable
        assert not server._clients


class TestMalformedChunkBodies:
    """A chunk body the core cannot take is a client error: 400, and the
    keep-alive connection stays usable (503 is reserved for the ladder)."""

    @staticmethod
    def _post_then_get(server, body: bytes) -> tuple:
        """POST ``body`` then GET /metrics on one connection; both heads."""
        heads = []
        with socket.create_connection((server.host, server.port), timeout=5) as s:
            for raw in (
                b"POST /v1/devices/dev0/chunks HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body,
                b"GET /metrics HTTP/1.1\r\n\r\n",
            ):
                s.sendall(raw)
                reply = b""
                while b"\r\n\r\n" not in reply:
                    data = s.recv(4096)
                    assert data, "connection closed before a reply"
                    reply += data
                head, _, rest = reply.partition(b"\r\n\r\n")
                length = int(
                    [h for h in head.split(b"\r\n")
                     if h.lower().startswith(b"content-length")][0].split(b":")[1]
                )
                while len(rest) < length:
                    rest += s.recv(4096)
                heads.append((head, rest[:length]))
        return heads

    @pytest.mark.parametrize(
        "body",
        [
            b'{"seq": 0, "X": [[1.0, 2.0], [3.0]], "y": [0, 0]}',    # ragged
            b'{"seq": 0, "X": [["a", "b"]], "y": [0]}',               # non-numeric
            b'{"seq": 0, "X": 5, "y": [0]}',                          # not 2-D
            b'{"seq": 0, "X": [1.0, 2.0], "y": [0, 0]}',              # 1-D
            b'{"seq": 0, "X": [[1.0, 2.0], [3.0, 4.0]], "y": [0]}',   # length mismatch
            b'{"seq": 0, "X": [[1.0, 2.0]], "y": 0}',                 # scalar y
        ],
    )
    def test_malformed_chunk_answers_400_and_keeps_connection(self, body, tmp_path, caplog):
        fm = FleetManager(capacity=2, spool_dir=tmp_path)
        core = IngestCore(fm)
        core.register("dev0", _spec(7))
        server = IngestServer(core).start()
        try:
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                (post, reply), (metrics, _) = self._post_then_get(server, body)
        finally:
            server.stop()
            fm.close()
        assert post.startswith(b"HTTP/1.1 400 "), post
        assert b"malformed chunk body" in reply
        assert b"Connection: close" not in post
        assert metrics.startswith(b"HTTP/1.1 200 ")
        assert core.pending()["admitted"] == 0
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_core_offer_refuses_unparseable_chunks_without_raising(self, tmp_path):
        core = IngestCore(FleetManager(capacity=2, spool_dir=tmp_path))
        core.register("dev0", _spec(7))
        with core:
            for X, y in (([[1.0, 2.0], [3.0]], [0, 0]), ([["a"]], [0]), ([[1.0]], 0)):
                offer = core.offer("dev0", 0, X, y)
                assert offer.status is OfferStatus.REJECTED
                assert "malformed" in offer.detail
            core.stop()
