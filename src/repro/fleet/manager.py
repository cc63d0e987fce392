"""Multi-tenant session host: thousands of device streams, one engine.

A :class:`FleetManager` owns one :class:`~repro.engine.session.StreamSession`
per registered device and multiplexes them through a single process.
Resident sessions are bounded by an LRU capacity; the coldest session is
evicted to a :mod:`repro.resilience` checkpoint container (pipeline +
guard state plus its column-encoded records) and lazily restored the
next time that device's samples arrive. The restore assembles the
pipeline from the spooled state alone
(:func:`~repro.engine.spec.restore_pipeline`): no dataset synthesis, no
training. Because that state holds everything the pipeline learned and
record streams are chunk-boundary invariant, an evicted-and-restored
device produces records **byte-identical** to one that ran alone — the
fleet golden suite pins this for every registered pipeline family.

Telemetry mirrors the per-flow labelling of edge NIDS exporters (one
time series per device, like per-``src_ip`` packet counters): with the
hub enabled, ``fleet.device.samples`` / ``fleet.device.drifts`` carry a
``device`` label, and the manager-level eviction/restore counters and
the ``fleet.resident_sessions`` gauge track cache behaviour.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..engine.interceptors import (
    ChunkScheduler,
    GuardInterceptor,
    TelemetryInterceptor,
)
from ..engine.session import StreamSession, drive_group
from ..engine.spec import ExperimentSpec, restore_pipeline
from ..utils.exceptions import (
    CheckpointError,
    ConfigurationError,
    DeviceQuarantinedError,
)
from ..utils.hooks import default_telemetry
from .batching import BatchPlanner

__all__ = ["FleetManager", "FleetStats"]

#: Histogram edges for batch-group sizes (devices sharing one GEMM).
BATCH_GROUP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Checkpoint container kind for evicted sessions (see repro.resilience).
SESSION_KIND = "fleet-session"


@dataclass
class FleetStats:
    """Counters the manager keeps regardless of telemetry state."""

    devices: int = 0
    samples: int = 0
    chunks: int = 0
    builds: int = 0
    evictions: int = 0
    restores: int = 0
    max_resident: int = 0
    evict_seconds: float = 0.0
    restore_seconds: float = 0.0
    batch_groups: int = 0
    batched_samples: int = 0
    fallback_samples: int = 0
    quarantined: int = 0
    corrupt_checkpoints: int = 0
    session_checkpoints: int = 0
    shed_sessions: int = 0
    device_samples: Dict[str, int] = field(default_factory=dict)
    device_drifts: Dict[str, int] = field(default_factory=dict)

    @property
    def drifts(self) -> int:
        """Total drift detections across every device."""
        return sum(self.device_drifts.values())

    def to_json(self, *, include_devices: bool = False) -> dict:
        out = {
            "devices": self.devices,
            "samples": self.samples,
            "chunks": self.chunks,
            "builds": self.builds,
            "evictions": self.evictions,
            "restores": self.restores,
            "drifts": self.drifts,
            "max_resident": self.max_resident,
            "evict_seconds": self.evict_seconds,
            "restore_seconds": self.restore_seconds,
            "batch_groups": self.batch_groups,
            "batched_samples": self.batched_samples,
            "fallback_samples": self.fallback_samples,
            "quarantined": self.quarantined,
            "corrupt_checkpoints": self.corrupt_checkpoints,
            "session_checkpoints": self.session_checkpoints,
            "shed_sessions": self.shed_sessions,
        }
        if include_devices:
            out["device_samples"] = dict(self.device_samples)
            out["device_drifts"] = dict(self.device_drifts)
        return out

    @classmethod
    def from_json(cls, data: Mapping) -> "FleetStats":
        return cls(
            devices=int(data.get("devices", 0)),
            samples=int(data.get("samples", 0)),
            chunks=int(data.get("chunks", 0)),
            builds=int(data.get("builds", 0)),
            evictions=int(data.get("evictions", 0)),
            restores=int(data.get("restores", 0)),
            max_resident=int(data.get("max_resident", 0)),
            evict_seconds=float(data.get("evict_seconds", 0.0)),
            restore_seconds=float(data.get("restore_seconds", 0.0)),
            batch_groups=int(data.get("batch_groups", 0)),
            batched_samples=int(data.get("batched_samples", 0)),
            fallback_samples=int(data.get("fallback_samples", 0)),
            quarantined=int(data.get("quarantined", 0)),
            corrupt_checkpoints=int(data.get("corrupt_checkpoints", 0)),
            session_checkpoints=int(data.get("session_checkpoints", 0)),
            shed_sessions=int(data.get("shed_sessions", 0)),
            device_samples=dict(data.get("device_samples", {})),
            device_drifts=dict(data.get("device_drifts", {})),
        )

    def merge(self, other: "FleetStats") -> "FleetStats":
        """Fold another manager's stats in (sharded fleets aggregate with
        this): counts sum, ``max_resident`` takes the max — each shard's
        LRU is independent, so residency never exceeds the largest shard's.
        """
        self.devices += other.devices
        self.samples += other.samples
        self.chunks += other.chunks
        self.builds += other.builds
        self.evictions += other.evictions
        self.restores += other.restores
        self.max_resident = max(self.max_resident, other.max_resident)
        self.evict_seconds += other.evict_seconds
        self.restore_seconds += other.restore_seconds
        self.batch_groups += other.batch_groups
        self.batched_samples += other.batched_samples
        self.fallback_samples += other.fallback_samples
        self.quarantined += other.quarantined
        self.corrupt_checkpoints += other.corrupt_checkpoints
        self.session_checkpoints += other.session_checkpoints
        self.shed_sessions += other.shed_sessions
        for dev, n in other.device_samples.items():
            self.device_samples[dev] = self.device_samples.get(dev, 0) + n
        for dev, n in other.device_drifts.items():
            self.device_drifts[dev] = self.device_drifts.get(dev, 0) + n
        return self


class FleetManager:
    """Drive many device pipelines through one process with bounded memory.

    Parameters
    ----------
    capacity:
        Maximum number of *resident* (live, in-memory) sessions. The
        least-recently-submitted device is evicted to its checkpoint
        file when a new session would exceed this.
    spool_dir:
        Directory for eviction checkpoints. Created on first eviction.
    chunk_size:
        Sub-chunk size for every device's :class:`ChunkScheduler`
        (``None`` = each pipeline's ``default_chunk_size``). A device
        spec's own ``chunk_size`` takes precedence.
    telemetry:
        Hub for the per-device metrics; defaults to the process hub.
    batch_scoring:
        Enable the cross-session batched scoring path for
        :meth:`submit_many` (see :mod:`repro.fleet.batching`). Off by
        default; plain :meth:`submit` is unaffected either way.

    Usage::

        fm = FleetManager(capacity=64, spool_dir=tmp)
        fm.add_device("dev0", spec)
        recs = fm.submit("dev0", Xc, yc)   # records for this chunk
        all_records = fm.finish("dev0")    # close + full record list
    """

    def __init__(
        self,
        capacity: int = 64,
        spool_dir: Optional[str | Path] = None,
        *,
        chunk_size: Optional[int] = None,
        telemetry=None,
        batch_scoring: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}.")
        self.capacity = int(capacity)
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.chunk_size = chunk_size
        self.telemetry = telemetry if telemetry is not None else default_telemetry()
        self.batch_scoring = bool(batch_scoring)
        self._planner = BatchPlanner()
        self.stats = FleetStats()
        self._specs: Dict[str, ExperimentSpec] = {}
        self._resident: "OrderedDict[str, StreamSession]" = OrderedDict()
        self._evicted: Dict[str, Path] = {}
        self._finished: Dict[str, List] = {}
        self._quarantined: Dict[str, str] = {}
        self._closed = False

    # -- registration ----------------------------------------------------------

    def add_device(self, device_id: str, spec: ExperimentSpec) -> None:
        """Register a device. Its pipeline is built lazily on first submit."""
        self._check_open()
        if device_id in self._specs:
            raise ConfigurationError(f"device {device_id!r} is already registered.")
        self._specs[str(device_id)] = spec
        self.stats.devices += 1

    @property
    def devices(self) -> List[str]:
        return list(self._specs)

    @property
    def resident(self) -> List[str]:
        """Device ids currently holding a live session (LRU order, coldest first)."""
        return list(self._resident)

    @property
    def quarantined(self) -> Dict[str, str]:
        """Benched devices: ``device_id -> reason`` (see :meth:`quarantine`)."""
        return dict(self._quarantined)

    # -- the hot path ----------------------------------------------------------

    def submit(self, device_id: str, Xc: np.ndarray, yc: np.ndarray) -> list:
        """Feed one arriving chunk to ``device_id``; returns its records.

        Touches the device in the LRU, restoring (or first-building) its
        session if it is not resident and evicting the coldest resident
        session when over capacity.
        """
        self._check_open()
        if device_id in self._quarantined:
            raise DeviceQuarantinedError(device_id, self._quarantined[device_id])
        records = self._touch(device_id).feed(Xc, yc)
        self._count_chunk(device_id, len(Xc), records)
        return records

    def _count_chunk(self, device_id: str, n: int, records: list) -> None:
        """Stats and per-device telemetry for one consumed chunk."""
        self.stats.samples += n
        self.stats.chunks += 1
        self.stats.device_samples[device_id] = (
            self.stats.device_samples.get(device_id, 0) + n
        )
        drifts = sum(1 for r in records if r.drift_detected)
        if drifts:
            self.stats.device_drifts[device_id] = (
                self.stats.device_drifts.get(device_id, 0) + drifts
            )
        tel = self.telemetry
        if tel.enabled:
            tel.counter(
                "fleet.device.samples", "samples consumed per device", labels=("device",)
            ).inc(n, device=device_id)
            if drifts:
                tel.counter(
                    "fleet.device.drifts", "drift detections per device", labels=("device",)
                ).inc(drifts, device=device_id)

    def submit_many(
        self, batch: List[tuple], *, contain_errors: bool = False
    ) -> List[list]:
        """Feed many arriving chunks, stepping same-model devices together.

        ``batch`` is a list of ``(device_id, Xc, yc)`` in arrival order;
        the return value is the per-submission record lists, parallel to
        the input. Per-device chunk order is preserved exactly (sessions
        are independent streams, so cross-device order carries no
        meaning). With ``batch_scoring`` off this is just a loop over
        :meth:`submit`.

        ``contain_errors=True`` turns a quarantined device (pre-benched
        or benched mid-batch by a corrupt spool restore) into a ``None``
        entry in the result list instead of aborting the whole batch —
        the serving dispatcher needs one poisoned device to cost exactly
        its own chunks, never the window's.

        With it on, the batch is cut into *windows* of at most
        ``capacity`` distinct devices (so the whole window can be
        resident at once — evictions happen while touching, before any
        step). Each window's sessions are grouped by
        :func:`~repro.fleet.batching.model_signature`. Every group scores
        its members' rows in one stacked GEMM (:meth:`BatchGroup.prime`)
        and then runs one group step per round
        (:func:`~repro.engine.drive_group` over :meth:`BatchGroup.step`),
        which steps the proposed pipelines' Algorithms 1–2 in lockstep.
        Sessions outside any group (guard attached, foreign model,
        per-sample trainers) feed one by one — and records stay
        byte-identical either way (the batched golden suite pins this).
        """
        self._check_open()
        if not self.batch_scoring:
            if not contain_errors:
                return [self.submit(dev, Xc, yc) for dev, Xc, yc in batch]
            return [self._submit_contained(dev, Xc, yc) for dev, Xc, yc in batch]
        out: List = [None] * len(batch)
        start = 0
        while start < len(batch):
            stop = start
            window_devices: Dict[str, List[int]] = {}
            while stop < len(batch):
                device_id = str(batch[stop][0])
                if contain_errors and device_id in self._quarantined:
                    # Not touched (that would resurrect its session); its
                    # submit below yields the contained None.
                    stop += 1
                    continue
                if (
                    device_id not in window_devices
                    and len(window_devices) >= self.capacity
                ):
                    break
                window_devices.setdefault(device_id, []).append(stop)
                stop += 1
            stepped = self._step_window(
                batch, window_devices, out, contain_errors=contain_errors
            )
            for pos in range(start, stop):
                if pos in stepped:
                    continue
                dev, Xc, yc = batch[pos]
                if contain_errors:
                    out[pos] = self._submit_contained(dev, Xc, yc)
                else:
                    out[pos] = self.submit(dev, Xc, yc)
            # Leave the LRU as one submit per chunk, in arrival order, would.
            for entry in batch[start:stop]:
                if str(entry[0]) in self._resident:
                    self._resident.move_to_end(str(entry[0]))
            start = stop
        return out

    def _submit_contained(self, device_id: str, Xc, yc):
        """One :meth:`submit` with quarantine contained to a ``None`` result."""
        try:
            return self.submit(device_id, Xc, yc)
        except DeviceQuarantinedError:
            return None

    def _step_window(
        self,
        batch: List[tuple],
        window_devices: Dict[str, List[int]],
        out: List,
        *,
        contain_errors: bool = False,
    ) -> set:
        """Group one window's sessions and run their group steps.

        Fills ``out`` for every chunk a group consumed and returns their
        positions in ``batch``; the caller feeds the rest one by one.
        """
        items = []
        for device_id, positions in window_devices.items():
            if device_id in self._quarantined:
                continue  # its submit raises (or yields the contained None)
            try:
                session = self._touch(device_id)
            except DeviceQuarantinedError:
                if not contain_errors:
                    raise
                continue  # benched by a corrupt restore; submit contains it
            chunks = [np.asarray(batch[pos][1], dtype=np.float64) for pos in positions]
            rows = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            items.append((device_id, session.pipeline, rows))
        groups, fallback = self._planner.plan(items)
        tel = self.telemetry
        stepped = set()
        for group in groups:
            t0 = time.perf_counter()
            n = group.prime()
            gemm_seconds = time.perf_counter() - t0
            self.stats.batch_groups += 1
            self.stats.batched_samples += n
            if tel.enabled:
                tel.histogram(
                    "fleet.batch.group.devices",
                    "sessions sharing one stacked forward pass",
                    buckets=BATCH_GROUP_BUCKETS,
                ).observe(group.n_devices)
                tel.histogram(
                    "fleet.batch.gemm.seconds",
                    "wall time of one grouped scoring GEMM",
                ).observe(gemm_seconds)
                tel.counter(
                    "fleet.batch.samples",
                    "samples scored via the batched vs sequential path",
                    labels=("path",),
                ).inc(n, path="batched")
            member_ids = [device_id for device_id, _ in group.members]
            results = drive_group(
                [self._resident[device_id] for device_id in member_ids],
                [
                    [(batch[pos][1], batch[pos][2]) for pos in window_devices[device_id]]
                    for device_id in member_ids
                ],
                group.step,
            )
            for device_id, per_chunk in zip(member_ids, results):
                for pos, records in zip(window_devices[device_id], per_chunk):
                    out[pos] = records
                    stepped.add(pos)
                    self._count_chunk(device_id, len(batch[pos][1]), records)
        fallback_samples = sum(n for _, n in fallback)
        if fallback_samples:
            self.stats.fallback_samples += fallback_samples
            if tel.enabled:
                tel.counter(
                    "fleet.batch.samples",
                    "samples scored via the batched vs sequential path",
                    labels=("path",),
                ).inc(fallback_samples, path="fallback")
        return stepped

    def finish(self, device_id: str) -> list:
        """Close ``device_id``'s session and return its full record list.

        A never-submitted device finishes with an empty record list; an
        evicted device is restored first so ``on_complete`` still fires.
        """
        self._check_open()
        if device_id in self._finished:
            return self._finished[device_id]
        if device_id not in self._specs:
            raise ConfigurationError(f"unknown device {device_id!r}.")
        if device_id in self._quarantined or (
            device_id not in self._resident and device_id not in self._evicted
        ):
            self._finished[device_id] = []
            return []
        session = self._touch(device_id)
        records = session.close()
        del self._resident[device_id]
        self._finished[device_id] = records
        self._set_resident_gauge()
        return records

    def finish_all(self) -> Dict[str, list]:
        """Finish every registered device; returns ``device_id -> records``."""
        return {dev: self.finish(dev) for dev in self._specs}

    # -- fault-tolerance surface (used by repro.fleet.supervisor) --------------

    def quarantine(self, device_id: str, reason: str) -> None:
        """Bench a device: drop its session/spool, refuse further samples.

        The quarantine policy turns one poisoned device into a contained,
        observable incident instead of a manager-killing exception: the
        device's live session is aborted, its spool entry is dropped,
        and every later :meth:`submit` for it raises
        :class:`DeviceQuarantinedError` while the rest of the fleet
        keeps serving. Emits a structured ``fleet_device_quarantined``
        event. Idempotent per device.
        """
        self._check_open()
        device_id = str(device_id)
        if device_id not in self._specs:
            raise ConfigurationError(f"unknown device {device_id!r}.")
        if device_id in self._quarantined:
            return
        session = self._resident.pop(device_id, None)
        if session is not None:
            session.abort()
            self._set_resident_gauge()
        self._evicted.pop(device_id, None)
        self._quarantined[device_id] = str(reason)
        self.stats.quarantined += 1
        tel = self.telemetry
        if tel.enabled:
            tel.counter("fleet.quarantines", "devices benched by the fleet").inc()
            tel.emit(
                "fleet_device_quarantined", device=device_id, reason=str(reason)
            )

    def checkpoint_resident(self) -> int:
        """Spool every resident session's state *without* evicting it.

        The supervisor calls this periodically so a worker that dies
        between checkpoints only needs the (bounded) journal of feeds
        since the last sync replayed on top of the restored state —
        recovery cost is O(journal), not O(stream). Returns the number
        of sessions checkpointed.
        """
        self._check_open()
        n = 0
        for device_id, session in list(self._resident.items()):
            self._spool_session(device_id, session)
            n += 1
        self.stats.session_checkpoints += n
        tel = self.telemetry
        if tel.enabled and n:
            tel.counter(
                "fleet.session_checkpoints",
                "resident sessions spooled by periodic supervision syncs",
            ).inc(n)
        return n

    def evict_device(self, device_id: str) -> bool:
        """Spool one named resident session and drop it from memory.

        The chaos harness uses this to stage a corrupt-checkpoint fault
        deterministically: evict the victim so its *next* feed must
        restore from the (about-to-be-damaged) spool file. Returns
        ``False`` when the device is not resident.
        """
        self._check_open()
        device_id = str(device_id)
        session = self._resident.pop(device_id, None)
        if session is None:
            return False
        self._evict(device_id, session)
        return True

    def attach_spool(self, device_id: str) -> bool:
        """Adopt an on-disk spool checkpoint for a registered device.

        Used when re-materializing a dead shard's fleet in a fresh
        worker: the new manager never evicted anything, but the old
        worker's spool files survived it. Returns ``True`` when a spool
        file was found (the next submit restores from it), ``False``
        when the device starts from scratch.
        """
        self._check_open()
        device_id = str(device_id)
        if device_id not in self._specs:
            raise ConfigurationError(f"unknown device {device_id!r}.")
        if (
            device_id in self._resident
            or device_id in self._finished
            or device_id in self._quarantined
        ):
            return False
        path = self._spool_path(device_id)
        if path.is_file():
            self._evicted[device_id] = path
            return True
        return False

    def replay(self, device_id: str, Xc: np.ndarray, yc: np.ndarray, start: int) -> int:
        """Position-aware re-feed of a journaled chunk after recovery.

        ``start`` is the stream-global index of ``Xc[0]`` when the chunk
        was originally submitted. The restored session may already
        contain a prefix of it (the periodic checkpoint landed mid-way
        through the journal), so only the samples past the session's
        current position are fed — chunk-boundary invariance keeps the
        partial slice byte-identical. Returns the number of samples
        actually fed. A quarantined device replays nothing.
        """
        self._check_open()
        if device_id in self._quarantined:
            return 0
        start = int(start)
        Xc = np.asarray(Xc)
        yc = np.asarray(yc)
        session = self._touch(device_id)
        position = session.position
        if position >= start + len(Xc):
            return 0  # checkpoint already covers this journal entry
        if position < start:
            # A gap would silently break byte-identity; bench the device
            # loudly instead of feeding it a stream with a hole.
            self.quarantine(
                device_id,
                f"replay gap: session at {position}, journal resumes at {start}",
            )
            return 0
        offset = position - start
        self.submit(device_id, Xc[offset:], yc[offset:])
        return len(Xc) - offset

    def shed(self, k: int) -> int:
        """Evict up to ``k`` coldest resident sessions (load shedding).

        The fleet ladder calls this when respawn churn or queue depth
        says memory/CPU must be given back; evicted sessions restore
        lazily as usual, so nothing is lost — only latency. Returns the
        number of sessions shed.
        """
        self._check_open()
        n = 0
        while self._resident and n < int(k):
            self._evict_coldest()
            n += 1
        self.stats.shed_sessions += n
        tel = self.telemetry
        if tel.enabled and n:
            tel.counter(
                "fleet.shed_sessions", "sessions evicted by ladder load shedding"
            ).inc(n)
        return n

    def close(self) -> None:
        """Abort any still-open sessions and drop all state. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for session in self._resident.values():
            session.abort()
        self._resident.clear()
        self._evicted.clear()

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- LRU / spool internals -------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("FleetManager is closed.")

    def _touch(self, device_id: str) -> StreamSession:
        """Return a live session for ``device_id``, making room if needed."""
        session = self._resident.get(device_id)
        if session is not None:
            self._resident.move_to_end(device_id)
            return session
        if device_id in self._finished:
            raise ConfigurationError(f"device {device_id!r} is already finished.")
        spec = self._specs.get(device_id)
        if spec is None:
            raise ConfigurationError(f"unknown device {device_id!r}.")
        while len(self._resident) >= self.capacity:
            self._evict_coldest()
        if device_id in self._evicted:
            session = self._restore(device_id, spec)
        else:
            session = self._build(device_id, spec)
        self._resident[device_id] = session
        self.stats.max_resident = max(self.stats.max_resident, len(self._resident))
        self._set_resident_gauge()
        return session

    def _stack(self, spec: ExperimentSpec, pipeline, device_id: str) -> list:
        chunk = spec.chunk_size if spec.chunk_size is not None else self.chunk_size
        if chunk is None:
            chunk = pipeline.default_chunk_size
        return [
            TelemetryInterceptor(pipeline.telemetry, device=device_id),
            GuardInterceptor(),
            ChunkScheduler(int(chunk)),
        ]

    def _build(self, device_id: str, spec: ExperimentSpec) -> StreamSession:
        # Looked up at call time, so a tracer that wraps the module
        # attribute sees every first-touch build.
        from ..engine.spec import build_pipeline

        pipeline = build_pipeline(spec)
        self.stats.builds += 1
        return StreamSession(pipeline, self._stack(spec, pipeline, device_id)).open()

    def _spool_path(self, device_id: str) -> Path:
        if self.spool_dir is None:
            raise ConfigurationError(
                "FleetManager needs a spool_dir to evict sessions; either pass "
                "one or raise capacity above the number of active devices."
            )
        return self.spool_dir / f"{device_id}.fleetck"

    def _spool_session(self, device_id: str, session: StreamSession) -> Path:
        """Write ``session``'s full state to the device's spool file."""
        from ..resilience import encode_records, save_checkpoint

        pipeline = session.pipeline
        guard = pipeline.guard
        state = {
            "position": session.position,
            "pipeline": pipeline.get_state(),
            "guard": None if guard is None else guard.get_state(),
            "records": encode_records(session.records),
        }
        path = self._spool_path(device_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Spool files are a cache of live state, not crash-recovery
        # artifacts — skip the fsync; a power cut loses the fleet run
        # anyway.
        save_checkpoint(
            path,
            state,
            kind=SESSION_KIND,
            meta={"device": device_id, "pipeline": type(pipeline).__name__},
            durable=False,
        )
        return path

    def _evict_coldest(self) -> None:
        self._evict(*self._resident.popitem(last=False))

    def _evict(self, device_id: str, session: StreamSession) -> None:
        """Spool a session already taken out of the LRU and close it."""
        t0 = time.perf_counter()
        path = self._spool_session(device_id, session)
        session.close()
        self._evicted[device_id] = path
        self.stats.evictions += 1
        self.stats.evict_seconds += time.perf_counter() - t0
        tel = self.telemetry
        if tel.enabled:
            tel.counter("fleet.evictions", "sessions evicted to spool").inc()
        self._set_resident_gauge()

    def _restore(self, device_id: str, spec: ExperimentSpec) -> StreamSession:
        from ..resilience import decode_records, load_checkpoint

        t0 = time.perf_counter()
        path = self._evicted.pop(device_id)
        try:
            ck = load_checkpoint(path, expected_kind=SESSION_KIND)
        except CheckpointError as exc:
            # Mirror ParallelRunner's corrupt-checkpoint policy: a damaged
            # spool file costs that one device, never the manager. Count
            # it, emit the structured event, bench the device, and keep
            # serving everything else.
            self.stats.corrupt_checkpoints += 1
            tel = self.telemetry
            if tel.enabled:
                tel.counter(
                    "fleet.checkpoint.corrupt",
                    "fleet-session spool loads refused as corrupt",
                ).inc()
                tel.emit(
                    "fleet_checkpoint_corrupt",
                    device=device_id,
                    path=str(path),
                    reason=f"{type(exc).__name__}: {exc}",
                )
            self.quarantine(
                device_id, f"corrupt spool checkpoint ({type(exc).__name__})"
            )
            raise DeviceQuarantinedError(
                device_id, f"corrupt spool checkpoint ({type(exc).__name__})"
            ) from exc
        if ck.meta.get("device") != device_id:
            raise ConfigurationError(
                f"spool file {path} belongs to device {ck.meta.get('device')!r}, "
                f"not {device_id!r}."
            )
        pipeline = restore_pipeline(spec, ck.state["pipeline"], ck.state["guard"])
        records = decode_records(ck.state["records"])
        session = StreamSession(
            pipeline,
            self._stack(spec, pipeline, device_id),
            start=int(ck.state["position"]),
            records=records,
        ).open()
        self.stats.restores += 1
        self.stats.restore_seconds += time.perf_counter() - t0
        tel = self.telemetry
        if tel.enabled:
            tel.counter("fleet.restores", "sessions restored from spool").inc()
        return session

    def _set_resident_gauge(self) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.gauge("fleet.resident_sessions", "live sessions in memory").set(
                len(self._resident)
            )
