"""Scale the fleet across worker processes with long-lived shards.

One :class:`~repro.fleet.manager.FleetManager` is single-threaded; a
:class:`ShardedFleetManager` partitions the device space over a
:class:`~repro.fleet.pool.ShardPool` of worker processes, each
hosting its own manager (own LRU, own spool subdirectory). Devices map
to shards by a *stable* hash of their id — ``hashlib`` based, because
Python's builtin ``hash`` is salted per process and would scatter a
device across shards between runs.

Submits are fire-and-forget by default (:meth:`ShardedFleetManager.submit`
returns a ticket); the pool's FIFO-per-shard protocol keeps each
device's chunks ordered, which is all the byte-identity contract needs.

Passing a :class:`~repro.fleet.supervisor.SupervisorConfig` turns on
**self-healing**: every feed is journaled parent-side until the shard's
next checkpoint sync, per-request deadlines catch hung workers
(terminate -> kill -> respawn escalation), a dead shard is respawned
with seeded backoff and its sessions re-materialized from spool
checkpoints plus a position-aware journal replay (byte-identical),
poison devices are quarantined after N strikes, and a fleet-level
degradation ladder sheds load when respawn churn or queue depth says
so. See :mod:`repro.fleet.supervisor` and ``docs/fleet.md``.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..engine.spec import ExperimentSpec
from ..guard.ladder import GuardLevel, Transition
from ..utils.exceptions import (
    ConfigurationError,
    DeviceQuarantinedError,
    FleetOverloadError,
)
from ..utils.hooks import default_telemetry
from .manager import FleetManager, FleetStats
from .pool import (
    SHARD_RESTARTED,
    ShardDiedError,
    ShardError,
    ShardPool,
    ShardTimeoutError,
)
from .supervisor import FleetSupervisor, JournalEntry, SupervisorConfig

__all__ = ["ShardedFleetManager", "shard_of"]


def shard_of(device_id: str, n_shards: int) -> int:
    """Deterministic device -> shard mapping (stable across processes)."""
    digest = hashlib.sha256(str(device_id).encode()).digest()
    return int.from_bytes(digest[:8], "big") % int(n_shards)


class _ShardHost:
    """Per-worker wrapper the :class:`ShardPool` factory builds.

    Lives in the worker process; its methods are what ``submit``/``call``
    invoke by name. Must be a module-level class so the factory pickles.

    When the parent's hub was live at pool construction, the worker's own
    default hub is enabled too — everything the shard's pipelines record
    then flows back to the parent as snapshot deltas on the pool's
    collect path (see :class:`~repro.fleet.pool.ShardPool`).
    """

    def __init__(
        self,
        shard_index: int,
        capacity: int,
        spool_root,
        chunk_size,
        telemetry_enabled: bool = False,
        batch_scoring: bool = False,
    ):
        if telemetry_enabled:
            from ..telemetry import configure

            configure(enabled=True)
        spool = None if spool_root is None else Path(spool_root) / f"shard{shard_index}"
        self.manager = FleetManager(
            capacity=capacity,
            spool_dir=spool,
            chunk_size=chunk_size,
            batch_scoring=batch_scoring,
        )
        self._last_stats: dict = {}

    def _stats_delta(self) -> dict:
        """Scalar stats moved since the last submit reply (piggybacked).

        ``max_resident`` ships absolute (the parent folds it with max);
        everything else is the increment, so the parent's running sum
        tracks this worker's true totals without a round trip.
        """
        cur = self.manager.stats.to_json()
        delta = {}
        for key, value in cur.items():
            if key == "max_resident":
                delta[key] = value
            else:
                moved = value - self._last_stats.get(key, 0)
                if moved:
                    delta[key] = moved
        self._last_stats = cur
        return delta

    def add_device(self, device_id: str, spec_json: dict) -> None:
        self.manager.add_device(device_id, ExperimentSpec.from_json(spec_json))

    def submit(self, device_id: str, Xc, yc) -> dict:
        records = self.manager.submit(device_id, np.asarray(Xc), np.asarray(yc))
        return {"records": len(records), "stats": self._stats_delta()}

    def submit_many(self, batch, contain_errors: bool = False) -> dict:
        records = self.manager.submit_many(
            [(dev, np.asarray(Xc), np.asarray(yc)) for dev, Xc, yc in batch],
            contain_errors=contain_errors,
        )
        return {
            "records": sum(len(recs) for recs in records if recs is not None),
            "dropped": sum(1 for recs in records if recs is None),
            "stats": self._stats_delta(),
        }

    def finish_all(self) -> Dict[str, list]:
        return self.manager.finish_all()

    def stats(self) -> dict:
        return self.manager.stats.to_json(include_devices=True)

    # -- supervision surface (fresh-worker recovery + ladder actions) ----------

    def recover_device(self, device_id: str, spec_json: dict) -> bool:
        """Re-register a device in a respawned worker and adopt its spool."""
        self.manager.add_device(device_id, ExperimentSpec.from_json(spec_json))
        return self.manager.attach_spool(device_id)

    def replay(self, device_id: str, Xc, yc, start: int) -> int:
        return self.manager.replay(
            device_id, np.asarray(Xc), np.asarray(yc), int(start)
        )

    def checkpoint_sessions(self) -> int:
        return self.manager.checkpoint_resident()

    def quarantine_device(self, device_id: str, reason: str) -> None:
        self.manager.quarantine(device_id, reason)

    def shed(self, k: int) -> int:
        return self.manager.shed(int(k))

    def ping(self) -> bool:
        """Cheap liveness round-trip (the chaos harness probes with it)."""
        return True

    def chaos_hang(self, seconds: float) -> float:
        """Chaos-harness hook: wedge this worker for ``seconds``."""
        time.sleep(float(seconds))
        return float(seconds)

    def evict_pick(self, pick: int) -> str:
        """Chaos-harness hook: evict the ``pick``-th resident session.

        Returns the evicted device id (empty string when nothing is
        resident) so the controller can damage that exact spool file.
        """
        resident = sorted(self.manager.resident)
        if not resident:
            return ""
        device_id = resident[int(pick) % len(resident)]
        self.manager.evict_device(device_id)
        return device_id

    def close(self) -> None:
        self.manager.close()


def _make_shard_host(
    shard_index: int,
    capacity,
    spool_root,
    chunk_size,
    telemetry_enabled=False,
    batch_scoring=False,
):
    return _ShardHost(
        shard_index, capacity, spool_root, chunk_size, telemetry_enabled,
        batch_scoring,
    )


class ShardedFleetManager:
    """A fleet partitioned over ``n_shards`` long-lived worker processes.

    The API mirrors :class:`FleetManager` where it can: ``add_device``,
    ``submit``, ``finish_all``, ``stats``, ``close``. ``submit`` is
    asynchronous — it enqueues the chunk on the owning shard and returns
    immediately; per-device ordering is preserved because a device lives
    on exactly one shard and each shard's queue is strict FIFO. Call
    :meth:`drain` (or ``finish_all``, which drains implicitly) to
    surface any worker-side errors.

    With ``supervisor`` set (a
    :class:`~repro.fleet.supervisor.SupervisorConfig`), the manager is
    self-healing: worker death, hangs, and corrupt spool state are
    contained and recovered instead of raised — see the module
    docstring. Supervision requires a ``spool_dir`` (recovery
    re-materializes sessions from spool checkpoints).
    """

    def __init__(
        self,
        n_shards: int,
        capacity: int = 64,
        spool_dir: Optional[str | Path] = None,
        *,
        chunk_size: Optional[int] = None,
        telemetry_every: Optional[int] = 64,
        batch_scoring: bool = False,
        supervisor: Optional[SupervisorConfig] = None,
        ladder=None,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}.")
        if supervisor is not None and spool_dir is None:
            raise ConfigurationError(
                "a supervised fleet needs a spool_dir: shard recovery "
                "re-materializes sessions from spool checkpoints."
            )
        self.n_shards = int(n_shards)
        self.capacity = int(capacity)
        self.batch_scoring = bool(batch_scoring)
        parent_tel = default_telemetry()
        self.supervisor = (
            FleetSupervisor(
                supervisor, self.n_shards, telemetry=parent_tel, ladder=ladder
            )
            if supervisor is not None
            else None
        )
        self._pool = ShardPool(
            self.n_shards,
            _make_shard_host,
            factory_args=(
                int(capacity),
                None if spool_dir is None else str(spool_dir),
                chunk_size,
                bool(parent_tel.enabled),
                bool(batch_scoring),
            ),
            telemetry_every=telemetry_every,
            request_timeout=(
                supervisor.request_timeout if supervisor is not None else None
            ),
        )
        self._pending: List[int] = []
        self._devices: Dict[str, int] = {}
        self._specs: Dict[str, ExperimentSpec] = {}
        self._fed: Dict[str, int] = {}
        #: ticket -> (shard, device_id or None) for incident attribution.
        self._entry_of: Dict[int, tuple] = {}
        #: devices whose records were already collected by finish_all —
        #: a later recovery must not resurrect them from stale spools.
        self._finished: set = set()
        #: running fleet-wide totals folded from the stats deltas each
        #: worker piggybacks on its submit replies (see :meth:`live_stats`).
        self._live: Dict[str, float] = {}
        self._closed = False

    def shard_for(self, device_id: str) -> int:
        return shard_of(device_id, self.n_shards)

    def worker_pid(self, shard: int) -> Optional[int]:
        """OS pid of a shard's worker (the chaos harness SIGKILLs this)."""
        return self._pool.worker_pid(shard)

    def inject_hang(self, shard: int, seconds: float) -> int:
        """Chaos-harness hook: queue a sleep on a shard so it stops
        answering; the next drain's deadline escalates it. Returns the
        ticket (tracked like any pending submit)."""
        if self.supervisor is not None:
            # A prior fault may have killed this worker with its recovery
            # still pending; a fire-and-forget submit into the dead pipe
            # would be silently failed as restart collateral and the hang
            # never observed. Round-trip first so the fault lands on a
            # live worker.
            self._call_supervised(int(shard), "ping")
        ticket = self._pool.submit(int(shard), "chaos_hang", float(seconds))
        self._entry_of[ticket] = (int(shard), None)
        self._pending.append(ticket)
        return ticket

    def force_evict(self, shard: int, pick: int) -> str:
        """Chaos-harness hook: evict one resident session on ``shard`` so
        its next feed must restore from its spool file. Returns the
        evicted device id ('' when the shard has no resident session)."""
        return self._call_supervised(int(shard), "evict_pick", int(pick))

    def health(self) -> dict:
        """Supervisor health dict (``/health`` provider); minimal when
        unsupervised."""
        if self.supervisor is None:
            return {"status": "ok", "level": 0, "supervised": False}
        return self.supervisor.health()

    def add_device(self, device_id: str, spec: ExperimentSpec) -> None:
        device_id = str(device_id)
        shard = self.shard_for(device_id)
        self._devices[device_id] = shard
        if self.supervisor is None:
            self._pool.call(shard, "add_device", device_id, spec.to_json())
            return
        self._specs[device_id] = spec
        try:
            self._pool.call(shard, "add_device", device_id, spec.to_json())
        except (ShardTimeoutError, ShardDiedError):
            self._recover(shard)  # the reseed registers this device too

    def submit(self, device_id: str, Xc: np.ndarray, yc: np.ndarray):
        """Enqueue a chunk on the device's shard; returns a ticket.

        Supervised, this also journals the feed for crash replay, runs
        admission control (quarantine + ladder gate — may raise
        :class:`~repro.utils.exceptions.DeviceQuarantinedError` or
        :class:`~repro.utils.exceptions.FleetOverloadError`), triggers
        the periodic checkpoint sync, and recovers the shard in-line if
        the enqueue itself finds the worker dead (returns ``None`` then:
        the journaled feed was applied during recovery replay).
        """
        device_id = str(device_id)
        shard = self._devices.get(device_id)
        if shard is None:
            raise ConfigurationError(f"unknown device {device_id!r}.")
        sup = self.supervisor
        if sup is None:
            ticket = self._pool.submit(
                shard, "submit", device_id, np.asarray(Xc), np.asarray(yc)
            )
            self._pending.append(ticket)
            return ticket
        sup.gate(device_id)
        sup.tick()
        Xa, ya = np.asarray(Xc), np.asarray(yc)
        start = self._fed.get(device_id, 0)
        needs_sync = sup.journal(shard, JournalEntry(device_id, Xa, ya, start))
        self._fed[device_id] = start + len(Xa)
        ticket = None
        try:
            ticket = self._pool.submit(shard, "submit", device_id, Xa, ya)
        except ShardDiedError:
            self._recover(shard)  # replay applies the journaled feed
        else:
            self._entry_of[ticket] = (shard, device_id)
            self._pending.append(ticket)
        if needs_sync:
            self._sync_shard(shard)
        self._on_transition(sup.note_queue_depth(len(self._pending)))
        return ticket

    def submit_many(self, batch, *, contain_errors: bool = False) -> List:
        """Partition a ``(device_id, Xc, yc)`` batch by shard and enqueue.

        Each shard receives its sub-batch (arrival order preserved) in a
        single message and runs its manager's
        :meth:`~repro.fleet.manager.FleetManager.submit_many` — so the
        batched-scoring windows form *inside* each worker, against that
        shard's own resident sessions. Returns one ticket per shard
        touched; like :meth:`submit`, errors surface on :meth:`drain`.

        Supervised, entries refused by admission control (quarantined
        device, ladder shedding) are *dropped* — counted in the
        supervisor's ``dropped_feeds`` — instead of aborting the whole
        batch. ``contain_errors`` is forwarded to each worker manager so
        a device quarantined *inside* the worker costs only its own
        entries (the serving dispatcher relies on this).
        """
        sup = self.supervisor
        per_shard: Dict[int, list] = {}
        need_sync: set = set()
        for device_id, Xc, yc in batch:
            device_id = str(device_id)
            shard = self._devices.get(device_id)
            if shard is None:
                raise ConfigurationError(f"unknown device {device_id!r}.")
            Xa, ya = np.asarray(Xc), np.asarray(yc)
            if sup is not None:
                try:
                    sup.gate(device_id)
                except (DeviceQuarantinedError, FleetOverloadError):
                    sup.dropped_feeds += 1
                    continue
                sup.tick()
                start = self._fed.get(device_id, 0)
                if sup.journal(shard, JournalEntry(device_id, Xa, ya, start)):
                    need_sync.add(shard)
                self._fed[device_id] = start + len(Xa)
            per_shard.setdefault(shard, []).append((device_id, Xa, ya))
        tickets = []
        for shard, sub_batch in per_shard.items():
            try:
                ticket = self._pool.submit(
                    shard, "submit_many", sub_batch, contain_errors
                )
            except ShardDiedError:
                if sup is None:
                    raise
                self._recover(shard)
                continue
            self._entry_of[ticket] = (shard, None)
            self._pending.append(ticket)
            tickets.append(ticket)
        for shard in need_sync:
            self._sync_shard(shard)
        if sup is not None:
            self._on_transition(sup.note_queue_depth(len(self._pending)))
        return tickets

    def drain(self) -> None:
        """Wait for every outstanding submit.

        Unsupervised this raises the first shard error; supervised it
        *contains* them — hung shards are escalated and respawned, dead
        shards recovered with journal replay, worker-side request
        failures struck against the offending device.

        The unsupervised path collects via
        :meth:`~repro.fleet.pool.ShardPool.collect_any`, so one
        slow shard no longer blocks folding the replies other shards
        already produced (supervised collection stays per-ticket FIFO —
        recovery attribution needs the oldest outstanding request
        first).
        """
        pending, self._pending = self._pending, []
        if self.supervisor is None:
            remaining = set(pending)
            while remaining:
                ticket, payload = self._pool.collect_any(remaining)
                remaining.discard(ticket)
                self._entry_of.pop(ticket, None)
                self._fold_stats(payload)
            return
        for ticket in pending:
            self._collect_supervised(ticket)

    def _fold_stats(self, payload) -> None:
        """Fold one submit reply's piggybacked stats delta into the
        running live totals."""
        if not isinstance(payload, dict):
            return
        delta = payload.get("stats")
        if not delta:
            return
        for key, value in delta.items():
            if key == "max_resident":
                self._live[key] = max(self._live.get(key, 0), value)
            else:
                self._live[key] = self._live.get(key, 0) + value

    def _collect_supervised(self, ticket: int) -> None:
        sup = self.supervisor
        shard, device_id = self._entry_of.pop(ticket, (None, None))
        try:
            payload = self._pool.collect(ticket)
        except ShardTimeoutError:
            if shard is not None:
                self._recover(shard)
        except ShardDiedError:
            if shard is None:
                raise
            # The oldest outstanding request is the likely killer (FIFO);
            # a chaos SIGKILL also lands here, so death alone is one
            # strike, never an instant quarantine.
            if device_id is not None:
                sup.strike(device_id, "feed killed its shard")
            self._recover(shard)
        except ShardError as exc:
            message = str(exc)
            if SHARD_RESTARTED in message:
                return  # collateral of a restart handled earlier this drain
            if shard is None:
                raise
            if "DeviceQuarantinedError" in message and device_id is not None:
                sup.note_quarantined(device_id, message)
                return
            # Worker alive, request failed: contain it. Strike the device
            # (a poisoned session fails every later feed too) and bench it
            # on the worker once it strikes out.
            if device_id is not None and sup.strike(device_id, message):
                self._call_supervised(
                    shard, "quarantine_device", device_id,
                    sup.quarantined[device_id],
                )
        else:
            self._fold_stats(payload)
            self._on_transition(sup.note_clean())

    # -- supervised recovery ---------------------------------------------------

    def _recover(self, shard: int) -> None:
        """Respawn ``shard`` and re-materialize its fleet; bounded retries."""
        sup = self.supervisor
        config = sup.config
        sup.open_incident()
        t0 = time.perf_counter()
        last_error: Optional[Exception] = None
        for attempt in range(config.max_respawns):
            delay = sup.backoff_seconds(shard, attempt)
            if delay > 0:
                time.sleep(delay)
            outcome = self._pool.restart_shard(shard, grace=config.terminate_grace)
            try:
                replayed = self._reseed_shard(shard)
            except ShardError as exc:
                last_error = exc
                continue
            self._on_transition(
                sup.note_respawn(
                    shard,
                    outcome=outcome,
                    attempt=attempt,
                    replayed=replayed,
                    seconds=time.perf_counter() - t0,
                )
            )
            return
        self._on_transition(
            sup.note_recovery_failed(shard, f"{last_error}")
        )
        raise ShardError(
            f"shard {shard} unrecoverable after {config.max_respawns} "
            f"respawn attempts: {last_error}"
        ) from last_error

    def _reseed_shard(self, shard: int) -> int:
        """Re-register a fresh worker's devices and replay the journal.

        Spool checkpoints (periodic syncs + LRU evictions) carry each
        session to its last durable position; the journal's
        position-aware replay carries it from there to the exact feed
        the fleet had acknowledged — so recovered records are
        byte-identical. Raises :class:`ShardError` when the fresh worker
        dies too (the caller's respawn loop retries with backoff).
        """
        sup = self.supervisor
        for device_id, home in self._devices.items():
            if (
                home != shard
                or device_id in sup.quarantined
                or device_id in self._finished
            ):
                continue
            try:
                self._pool.call(shard, "recover_device", device_id,
                                self._specs[device_id].to_json())
            except ShardTimeoutError:
                raise
            except ShardDiedError:
                sup.strike(device_id, "recovery re-registration killed shard")
                raise
            except ShardError as exc:
                sup.note_quarantined(device_id, f"re-registration failed: {exc}")
        replayed = 0
        for entry in sup.entries(shard):
            if entry.device_id in sup.quarantined:
                continue
            try:
                replayed += int(
                    self._pool.call(
                        shard, "replay", entry.device_id, entry.Xc, entry.yc,
                        entry.start,
                    )
                )
            except ShardTimeoutError:
                raise
            except ShardDiedError:
                sup.strike(entry.device_id, "replay killed its shard")
                raise
            except ShardError as exc:
                message = str(exc)
                if "DeviceQuarantinedError" in message:
                    sup.note_quarantined(entry.device_id, message)
                    continue
                sup.strike(entry.device_id, message)
        # Make the recovered state durable and drop the journal — a
        # second incident replays from here, not from the last pre-crash
        # sync.
        self._pool.call(shard, "checkpoint_sessions")
        sup.truncate(shard)
        return replayed

    def _sync_shard(self, shard: int) -> None:
        """Periodic checkpoint sync: spool the shard's resident sessions
        and truncate its journal (the replay bound)."""
        try:
            self._pool.call(shard, "checkpoint_sessions")
        except (ShardTimeoutError, ShardDiedError):
            self._recover(shard)
        else:
            self.supervisor.truncate(shard)

    def _call_supervised(self, shard: int, method: str, *args):
        """Synchronous shard call that survives one worker death/hang."""
        for retry in (False, True):
            try:
                return self._pool.call(shard, method, *args)
            except (ShardTimeoutError, ShardDiedError):
                if retry:
                    raise
                self._recover(shard)
            except ShardError as exc:
                if SHARD_RESTARTED in str(exc) and not retry:
                    continue
                raise

    def _on_transition(self, transition: Optional[Transition]) -> None:
        """Act on a fleet-ladder move: entering SANITIZING sheds load."""
        if transition is None:
            return
        if (
            transition.to_level == GuardLevel.SANITIZING
            and transition.to_level > transition.from_level
        ):
            k = max(1, int(self.capacity * self.supervisor.config.shed_fraction))
            for shard in range(self.n_shards):
                try:
                    self._call_supervised(shard, "shed", k)
                except ShardError:  # pragma: no cover — shedding is best-effort
                    pass

    # -- fan-out ---------------------------------------------------------------

    def finish_all(self) -> Dict[str, list]:
        """Drain, close every device session, and merge the record maps."""
        self.drain()
        merged: Dict[str, list] = {}
        if self.supervisor is None:
            for reply in self._pool.broadcast("finish_all"):
                merged.update(reply)
            return merged
        for shard in range(self.n_shards):
            reply = self._call_supervised(shard, "finish_all")
            merged.update(reply)
            self._finished.update(reply)
        for device_id in self._devices:
            merged.setdefault(device_id, [])
        return merged

    def shed(self, k: int) -> int:
        """Evict up to ``k`` coldest sessions on *every* shard.

        The serving admission controller calls this when the fleet
        ladder reaches PASSTHROUGH — memory is handed back now, sessions
        restore lazily later. Best-effort: a shard that fails to shed is
        skipped. Returns the total sessions shed.
        """
        total = 0
        for shard in range(self.n_shards):
            try:
                if self.supervisor is None:
                    shed = self._pool.call(shard, "shed", int(k))
                else:
                    shed = self._call_supervised(shard, "shed", int(k))
                total += int(shed or 0)
            except ShardError:  # pragma: no cover — shedding is best-effort
                pass
        return total

    def stats(self) -> List[dict]:
        """Per-shard stat snapshots (as plain dicts from the workers)."""
        self.drain()
        if self.supervisor is None:
            snapshots = self._pool.broadcast("stats")
        else:
            snapshots = [
                self._call_supervised(shard, "stats")
                for shard in range(self.n_shards)
            ]
        # Authoritative collect boundary: re-anchor the live totals so
        # they are exact here and monotone (delta-fed) in between.
        live: Dict[str, float] = {}
        for snap in snapshots:
            for key, value in FleetStats.from_json(snap).to_json().items():
                if key == "max_resident":
                    live[key] = max(live.get(key, 0), value)
                else:
                    live[key] = live.get(key, 0) + value
        self._live = live
        return snapshots

    def live_stats(self) -> dict:
        """Mid-run fleet totals without a collect round trip.

        Folded from the stats deltas every worker piggybacks on its
        submit replies, so a ``/fleet`` dashboard scraped *during* a
        soak sees true running totals instead of zeros-until-boundary.
        Exact at every :meth:`stats`/:meth:`aggregate_stats` boundary;
        between boundaries it trails the workers by at most the
        outstanding (not-yet-collected) submits.
        """
        return dict(self._live)

    def aggregate_stats(self) -> FleetStats:
        """Fleet-wide :class:`FleetStats` summed over every shard.

        This is what ``bench_fleet.py`` and the CLI report for sharded
        runs — evictions/restores/drifts happen inside worker processes,
        so the parent's own manager-less view would read all zeros.
        (After a recovery incident the dead worker's in-memory counters
        are gone; the replacement re-counts only the replayed tail, so
        post-incident totals are best-effort, not exact.)
        """
        total = FleetStats()
        for shard_stats in self.stats():
            total.merge(FleetStats.from_json(shard_stats))
        return total

    def flush_telemetry(self) -> None:
        """Pull every shard hub's outstanding metrics into the parent hub."""
        self.drain()
        self._pool.flush_telemetry()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.close()

    def __enter__(self) -> "ShardedFleetManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
