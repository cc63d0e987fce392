"""The async ingestion core: sequenced lanes in, arrival windows out.

This module refactors the fleet's *submit path* into two halves joined
by bounded queues:

* **offer side** (any thread, e.g. the HTTP front-end's loop): a chunk
  arrives as an envelope ``(device_id, seq, Xc, yc)``. Each device has a
  **lane** — a bounded in-order queue plus a small out-of-order *stash*.
  ``seq`` is the device's monotone chunk counter starting at 0; a chunk
  up to ``gap_window`` ahead of the expected sequence is admitted and
  stashed until the gap fills, a replayed or in-stash sequence is
  refused as a duplicate, and anything beyond the window is refused
  outright (the client must resync). Admission control
  (:class:`~repro.serving.admission.AdmissionController`) can refuse
  chunks *before* they take a lane slot — refused chunks were never
  admitted, so they owe no results.

* **dispatch side** (one internal thread, the only place the fleet
  manager is ever touched while serving): lanes release envelopes
  strictly in sequence; the dispatcher collects released chunks
  round-robin across lanes into an *arrival window* and feeds it to
  :meth:`~repro.fleet.manager.FleetManager.submit_many` — so PR 8's
  cross-session batched scoring keeps forming its windows under network
  arrivals exactly as it does under a soak loop. Completions are
  published as :class:`IngestResult` tickets per device.

Because every lane releases in sequence order and per-device order is
the *only* order the byte-identity contract needs (cross-device order
carries no meaning — see ``docs/fleet.md``), any arrival timing,
reordering within the gap window, and any window cutting yield records
byte-identical to the offline soak. ``tests/test_serving_golden.py``
pins this across all five pipelines.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from ..engine.spec import ExperimentSpec
from ..utils.exceptions import ConfigurationError, DataValidationError
from ..utils.hooks import default_telemetry
from .admission import AdmissionController

__all__ = ["ChunkEnvelope", "IngestCore", "IngestResult", "Offer", "OfferStatus"]

#: Ingest latency histogram edges (seconds): arrival -> records published.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


def _chunk_arrays(Xc, yc):
    """``(X, y)`` of a chunk as arrays: ``X`` 2-D float64, ``y`` 1-D, one
    label per row. Raises :class:`DataValidationError` for anything else
    (ragged or non-numeric ``X`` included)."""
    try:
        Xa = np.asarray(Xc, dtype=np.float64)
        ya = np.asarray(yc)
    except (ValueError, TypeError) as exc:
        raise DataValidationError(str(exc)) from None
    if Xa.ndim != 2 or ya.ndim != 1 or len(Xa) != len(ya):
        raise DataValidationError(f"X has shape {Xa.shape}, y has shape {ya.shape}")
    return Xa, ya


class OfferStatus(str, Enum):
    """Fate of one offered chunk (maps 1:1 onto front-end HTTP codes)."""

    ACCEPTED = "accepted"        # admitted, in sequence -> 202
    BUFFERED = "buffered"        # admitted, stashed inside the gap window -> 202
    DUPLICATE = "duplicate"      # seq already admitted -> 409
    GAP_OVERFLOW = "gap_overflow"  # seq beyond the gap window -> 422
    QUEUE_FULL = "queue_full"    # lane at capacity -> 429 + Retry-After
    THROTTLED = "throttled"      # ladder SANITIZING -> 429 + Retry-After
    SHED = "shed"                # ladder PASSTHROUGH, low priority -> 503
    REJECTED = "rejected"        # ladder FROZEN (or core stopping) -> 503
    UNKNOWN_DEVICE = "unknown_device"  # -> 404

    @property
    def admitted(self) -> bool:
        return self in (OfferStatus.ACCEPTED, OfferStatus.BUFFERED)


@dataclass(frozen=True)
class Offer:
    """Synchronous reply to :meth:`IngestCore.offer`."""

    status: OfferStatus
    ticket: Optional[int] = None
    retry_after: Optional[float] = None
    detail: str = ""

    @property
    def admitted(self) -> bool:
        return self.status.admitted


@dataclass
class ChunkEnvelope:
    """One admitted chunk riding a lane toward the dispatcher."""

    device_id: str
    seq: int
    Xc: np.ndarray
    yc: np.ndarray
    ticket: int
    arrived_at: float


@dataclass(frozen=True)
class IngestResult:
    """Completion ticket for one dispatched chunk.

    ``records``/``drifts`` are counts (``None`` when the engine ran in
    worker processes — a sharded fleet returns per-shard totals, not
    per-chunk records — or when the dispatch failed; ``error`` says
    which). ``latency_seconds`` spans admission to completion.
    """

    ticket: int
    device_id: str
    seq: int
    samples: int
    records: Optional[int]
    drifts: Optional[int]
    latency_seconds: float
    error: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "ticket": self.ticket,
            "device": self.device_id,
            "seq": self.seq,
            "samples": self.samples,
            "records": self.records,
            "drifts": self.drifts,
            "latency_seconds": self.latency_seconds,
            "error": self.error,
        }


class _Lane:
    """Per-device sequencing state (guarded by the core's lock)."""

    __slots__ = ("next_seq", "ready", "stash", "inflight", "results")

    def __init__(self) -> None:
        self.next_seq = 0
        self.ready: deque = deque()
        self.stash: Dict[int, ChunkEnvelope] = {}
        self.inflight = 0
        self.results: deque = deque()

    @property
    def pending(self) -> int:
        return len(self.ready) + len(self.stash)


class IngestCore:
    """Bounded, sequenced ingestion in front of a fleet manager.

    Parameters
    ----------
    manager:
        A :class:`~repro.fleet.manager.FleetManager` or
        :class:`~repro.fleet.sharding.ShardedFleetManager`. All manager
        access happens on the dispatcher thread while the core runs;
        after :meth:`stop` the caller may touch it again.
    queue_capacity:
        Per-device lane bound (ready + stashed). A full lane refuses
        chunks with ``QUEUE_FULL`` and feeds the admission ladder.
    gap_window:
        How far ahead of the expected sequence a chunk may arrive and
        still be admitted (stashed). 0 = strict in-order.
    window_chunks:
        Dispatch window cap — at most this many chunks are handed to one
        ``submit_many`` call.
    admission:
        The :class:`AdmissionController`; a default one is built when
        omitted.
    """

    def __init__(
        self,
        manager,
        *,
        queue_capacity: int = 64,
        gap_window: int = 32,
        window_chunks: int = 256,
        admission: Optional[AdmissionController] = None,
        telemetry=None,
    ) -> None:
        if int(queue_capacity) < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity!r}."
            )
        if int(gap_window) < 0:
            raise ConfigurationError(
                f"gap_window must be >= 0, got {gap_window!r}."
            )
        if int(window_chunks) < 1:
            raise ConfigurationError(
                f"window_chunks must be >= 1, got {window_chunks!r}."
            )
        self.manager = manager
        self.queue_capacity = int(queue_capacity)
        self.gap_window = int(gap_window)
        self.window_chunks = int(window_chunks)
        self.telemetry = telemetry if telemetry is not None else default_telemetry()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(telemetry=self.telemetry)
        )
        self._lanes: "OrderedDict[str, _Lane]" = OrderedDict()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._next_ticket = 0
        #: dispatch failures (windows that raised), for the soak report.
        self.dispatch_failures = 0
        self._completed = 0
        self._admitted = 0

    # -- registration / lifecycle ----------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None

    def register(self, device_id: str, spec: ExperimentSpec) -> None:
        """Add a device before serving starts (its lane begins at seq 0)."""
        if self.running:
            raise ConfigurationError(
                "register devices before start() — the dispatcher owns the "
                "manager while the core runs."
            )
        device_id = str(device_id)
        if device_id in self._lanes:
            raise ConfigurationError(f"device {device_id!r} already registered.")
        self.manager.add_device(device_id, spec)
        self._lanes[device_id] = _Lane()

    def start(self) -> "IngestCore":
        if self._thread is not None:
            return self
        self._stopping = False
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-ingest-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Dispatch what is already released, then stop the dispatcher.

        New offers are refused (``REJECTED``) once stopping. Stashed
        chunks whose gap never filled stay stashed — see
        :meth:`finish_all`.
        """
        thread = self._thread
        if thread is None:
            return
        with self._lock:
            self._stopping = True
            self._work.notify_all()
        thread.join(timeout=60.0)
        self._thread = None

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is released-but-undispatched; True on success.

        Stashed (gap-blocked) chunks do not count — they are waiting for
        the client, not for the engine.
        """
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        with self._lock:
            while True:
                busy = any(
                    lane.ready or lane.inflight for lane in self._lanes.values()
                )
                if not busy:
                    return True
                if self._thread is None and not busy:  # pragma: no cover
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)

    def close(self) -> None:
        self.stop()
        self.manager.close()

    def __enter__(self) -> "IngestCore":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- offer side ------------------------------------------------------------

    def offer(self, device_id: str, seq: int, Xc, yc) -> Offer:
        """Offer one sequenced chunk; never blocks, never raises for load."""
        device_id = str(device_id)
        seq = int(seq)
        try:
            Xa, ya = _chunk_arrays(Xc, yc)
        except DataValidationError as exc:
            return self._refused(OfferStatus.REJECTED, detail=f"malformed chunk: {exc}")
        with self._lock:
            lane = self._lanes.get(device_id)
            if lane is None:
                return self._refused(OfferStatus.UNKNOWN_DEVICE)
            if self._stopping or self._thread is None:
                return self._refused(
                    OfferStatus.REJECTED, detail="core is not serving"
                )
            if seq < lane.next_seq or seq in lane.stash:
                return self._refused(
                    OfferStatus.DUPLICATE,
                    detail=f"seq {seq} already admitted (expecting {lane.next_seq})",
                )
            if seq > lane.next_seq + self.gap_window:
                return self._refused(
                    OfferStatus.GAP_OVERFLOW,
                    detail=(
                        f"seq {seq} is beyond the gap window "
                        f"(expecting {lane.next_seq}, window {self.gap_window})"
                    ),
                )
            if lane.pending >= self.queue_capacity:
                # Checked before admission on purpose: a full lane while
                # the ladder is already throttling is the "clients are
                # not backing off" trip that escalates to shed/reject.
                self.admission.note_queue_full()
                return self._refused(
                    OfferStatus.QUEUE_FULL,
                    retry_after=self.admission.retry_hint(),
                )
            decision = self.admission.admit(device_id)
            if not decision.accepted:
                status = {
                    "throttle": OfferStatus.THROTTLED,
                    "shed": OfferStatus.SHED,
                    "reject": OfferStatus.REJECTED,
                }[decision.action]
                return self._refused(status, retry_after=decision.retry_after)
            ticket = self._next_ticket
            self._next_ticket += 1
            envelope = ChunkEnvelope(
                device_id, seq, Xa, ya, ticket, time.perf_counter()
            )
            if seq == lane.next_seq:
                lane.ready.append(envelope)
                lane.next_seq += 1
                # The stash may hold the directly following sequences.
                while lane.next_seq in lane.stash:
                    lane.ready.append(lane.stash.pop(lane.next_seq))
                    lane.next_seq += 1
                status = OfferStatus.ACCEPTED
            else:
                lane.stash[seq] = envelope
                status = OfferStatus.BUFFERED
            self._admitted += 1
            self._note_pressure_locked()
            self._count(status)
            self._work.notify_all()
            return Offer(status, ticket=ticket)

    def _refused(
        self,
        status: OfferStatus,
        *,
        retry_after: Optional[float] = None,
        detail: str = "",
    ) -> Offer:
        self._count(status)
        return Offer(status, retry_after=retry_after, detail=detail)

    def _count(self, status: OfferStatus) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "fleet.ingest.chunks",
                "offered chunks by outcome",
                labels=("status",),
            ).inc(status=status.value)

    def _note_pressure_locked(self) -> None:
        busy = [lane for lane in self._lanes.values() if lane.pending]
        fill = (
            max(lane.pending for lane in busy) / self.queue_capacity
            if busy
            else 0.0
        )
        self.admission.note_pressure(fill)
        tel = self.telemetry
        if tel.enabled:
            tel.gauge(
                "fleet.ingest.pending", "admitted chunks awaiting dispatch"
            ).set(sum(lane.pending for lane in self._lanes.values()))

    # -- results side ----------------------------------------------------------

    def results(
        self,
        device_id: str,
        *,
        order: str = "arrival",
        limit: Optional[int] = None,
        pop: bool = True,
    ) -> List[IngestResult]:
        """Completion tickets for one device, first-come or by sequence.

        ``order="arrival"`` returns completions as they happened;
        ``order="seq"`` sorts by sequence number. (Lanes release strictly
        in sequence, so for a single device the two agree whenever no
        dispatch failed; the knob mirrors the completion modes of
        ``ProcessingManager``-style servers.) ``pop`` consumes what it
        returns.
        """
        if order not in ("arrival", "seq"):
            raise ConfigurationError(f"order must be 'arrival' or 'seq', got {order!r}.")
        with self._lock:
            lane = self._lanes.get(str(device_id))
            if lane is None:
                raise ConfigurationError(f"unknown device {device_id!r}.")
            out = list(lane.results)
            if order == "seq":
                out.sort(key=lambda r: r.seq)
            if limit is not None:
                out = out[: int(limit)]
            if pop:
                taken = {r.ticket for r in out}
                lane.results = deque(
                    r for r in lane.results if r.ticket not in taken
                )
            return out

    def pending(self) -> dict:
        """Queue introspection: totals plus any sequence gaps."""
        with self._lock:
            ready = sum(len(lane.ready) for lane in self._lanes.values())
            stashed = sum(len(lane.stash) for lane in self._lanes.values())
            inflight = sum(lane.inflight for lane in self._lanes.values())
            return {
                "ready": ready,
                "stashed": stashed,
                "inflight": inflight,
                "admitted": self._admitted,
                "completed": self._completed,
                "dispatch_failures": self.dispatch_failures,
                "level": int(self.admission.level),
            }

    def gaps(self) -> Dict[str, List[int]]:
        """Stashed sequence numbers per device (waiting on missing chunks)."""
        with self._lock:
            return {
                dev: sorted(lane.stash)
                for dev, lane in self._lanes.items()
                if lane.stash
            }

    def finish_all(self, *, force_gaps: bool = False) -> Dict[str, list]:
        """Stop serving, close every session, return per-device records.

        Admitted-but-gap-blocked chunks would silently never produce
        records, so a non-empty stash raises unless ``force_gaps=True``
        (which discards them, counted as dispatch failures).
        """
        self.drain()
        self.stop()
        gaps = self.gaps()
        if gaps:
            if not force_gaps:
                raise ConfigurationError(
                    f"unfilled sequence gaps at finish: {gaps} "
                    "(force_gaps=True discards them)."
                )
            with self._lock:
                for lane in self._lanes.values():
                    self.dispatch_failures += len(lane.stash)
                    lane.stash.clear()
        return self.manager.finish_all()

    # -- dispatch side ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._stopping and not self._has_ready_locked():
                    self._work.wait(timeout=0.5)
                if not self._has_ready_locked():
                    if self._stopping:
                        return
                    continue
                window = self._cut_window_locked()
            self._execute_window(window)

    def _has_ready_locked(self) -> bool:
        return any(lane.ready for lane in self._lanes.values())

    def _cut_window_locked(self) -> List[ChunkEnvelope]:
        """Round-robin the lanes' released chunks into one arrival window."""
        window: List[ChunkEnvelope] = []
        live = [lane for lane in self._lanes.values() if lane.ready]
        while live and len(window) < self.window_chunks:
            for lane in live:
                if len(window) >= self.window_chunks:
                    break
                envelope = lane.ready.popleft()
                lane.inflight += 1
                window.append(envelope)
            live = [lane for lane in live if lane.ready]
        return window

    def _execute_window(self, window: List[ChunkEnvelope]) -> None:
        manager = self.manager
        admission = self.admission
        while admission.take_shed_request():
            k = max(1, int(manager.capacity * admission.shed_fraction))
            try:
                manager.shed(k)
            except Exception:  # pragma: no cover — shedding is best-effort
                pass
        batch = [(env.device_id, env.Xc, env.yc) for env in window]
        samples = sum(len(env.Xc) for env in window)
        counts: List[Optional[int]] = [None] * len(window)
        drifts: List[Optional[int]] = [None] * len(window)
        error: Optional[str] = None
        t0 = time.perf_counter()
        out: List = []
        try:
            out = manager.submit_many(batch, contain_errors=True)
            if self._sharded:
                manager.drain()
                out = []  # per-chunk records stay worker-side
            else:
                for i, records in enumerate(out):
                    if records is not None:
                        counts[i] = len(records)
                        drifts[i] = sum(1 for r in records if r.drift_detected)
        except Exception as exc:  # noqa: BLE001 — contain; the ladder decides
            error = f"{type(exc).__name__}: {exc}"
            admission.note_failure(error)
            self.dispatch_failures += 1
        seconds = time.perf_counter() - t0
        if error is None:
            admission.note_dispatch(seconds, samples)
        now = time.perf_counter()
        tel = self.telemetry
        with self._lock:
            for i, env in enumerate(window):
                lane = self._lanes[env.device_id]
                lane.inflight -= 1
                per_chunk_error = error
                if error is None and out and out[i] is None:
                    per_chunk_error = "device quarantined"
                latency = now - env.arrived_at
                lane.results.append(
                    IngestResult(
                        ticket=env.ticket,
                        device_id=env.device_id,
                        seq=env.seq,
                        samples=len(env.Xc),
                        records=counts[i] if per_chunk_error is None else None,
                        drifts=drifts[i] if per_chunk_error is None else None,
                        latency_seconds=latency,
                        error=per_chunk_error,
                    )
                )
                self._completed += 1
                if tel.enabled:
                    tel.histogram(
                        "fleet.ingest.latency.seconds",
                        "admission-to-completion latency per chunk",
                        buckets=LATENCY_BUCKETS,
                    ).observe(latency)
            self._note_pressure_locked()
            self._idle.notify_all()

    @property
    def _sharded(self) -> bool:
        # ShardedFleetManager completes asynchronously via drain();
        # FleetManager returns records inline. Duck-typed on `drain`.
        return hasattr(self.manager, "drain")
