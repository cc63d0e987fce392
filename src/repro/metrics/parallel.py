"""Parallel experiment grid runner — (method × stream × seed) at scale.

The paper's tables are grids: every method configuration replayed over
every stream for one or more seeds. :func:`~repro.metrics.runner.compare_methods`
runs such a grid serially in-process; this module fans the cells across
the worker processes of a :class:`~repro.fleet.pool.ShardPool` instead,
with

* **declarative cells** — each cell is an
  :class:`~repro.engine.spec.ExperimentSpec` naming a registered
  pipeline builder and dataset factory (see :mod:`repro.engine.registry`)
  plus their kwargs — specs are picklable and JSON-canonical, so any
  cell can be shipped to a worker or hashed;
* **per-cell seeding** — the spec's ``seed`` goes to the pipeline builder
  (unless ``model_seed`` overrides it) and to the stream factory unless
  its kwargs pin one, so results are a pure function of the spec and
  identical for any ``max_workers``;
* **timeout/retry** — each worker runs one cell at a time, so
  ``timeout`` measures a cell from dispatch. A cell that raises, runs
  past its deadline (its worker is killed and respawned), or loses its
  worker fails on its own and is retried in a later wave, up to
  ``retries`` times; the other cells of the wave are unaffected;
* **an on-disk JSON result cache** keyed by
  :meth:`~repro.engine.spec.ExperimentSpec.config_hash` — re-running a
  grid only computes the cells that changed, and any cell is
  reproducible from its serialized spec alone.

Results come back as :class:`CellResult` — a JSON round-trippable summary
(accuracy, delays, phase tally, memory, wall-clock) that can optionally
carry the full per-sample records and rebuild a
:class:`~repro.metrics.runner.MethodResult` for downstream tooling.

Example
-------
>>> runner = ParallelRunner(cache_dir="results/", max_workers=4)
>>> cells = make_grid(
...     methods={"Proposed (W=100)": ("proposed", {"window_size": 100}),
...              "Baseline": ("baseline", {})},
...     streams={"nslkdd": ("nslkdd", {"seed": 0})},
...     seeds=[1, 2, 3],
... )
>>> results = runner.run(cells)   # doctest: +SKIP
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.pipeline import StepRecord
from ..device.timing import PhaseTally
from ..engine.spec import (
    ExperimentSpec,
    build_experiment,
    canonical_json,
    spec_hash,
)
from ..resilience.reclog import remove_run_checkpoint
from ..telemetry import Telemetry, get_telemetry
from ..utils.exceptions import ConfigurationError
from .delay import delay_report
from .runner import MethodResult, evaluate_method

__all__ = [
    "CellResult",
    "ParallelRunner",
    "ParallelExecutionError",
    "make_grid",
    "run_cell",
]

def _package_version() -> str:
    """The installed ``repro.__version__`` (imported lazily: the package
    ``__init__`` defines it *after* importing this module)."""
    from .. import __version__

    return __version__


class ParallelExecutionError(RuntimeError):
    """A grid cell kept failing after all retries."""


# --------------------------------------------------------------------------
# Cell result
# --------------------------------------------------------------------------

_RECORD_FIELDS = (
    "index", "predicted", "true_label", "correct",
    "anomaly_score", "drift_detected", "reconstructing", "phase",
)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars to builtins; JSON floats round-trip exactly."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _records_to_columns(records: Sequence[StepRecord]) -> Dict[str, list]:
    return {f: [_jsonable(getattr(r, f)) for r in records] for f in _RECORD_FIELDS}


def _columns_to_records(cols: Mapping[str, list]) -> List[StepRecord]:
    return [StepRecord(*vals) for vals in zip(*(cols[f] for f in _RECORD_FIELDS))]


@dataclass
class CellResult:
    """JSON round-trippable outcome of one grid cell."""

    name: str
    spec: dict
    accuracy: float
    delays: List[Optional[int]]
    false_positives: List[int]
    detections: List[int]
    drift_points: List[int]
    phase_counts: Dict[str, int]
    wall_seconds: float
    detector_nbytes: int
    n_records: int
    records: Optional[Dict[str, list]] = None
    from_cache: bool = False
    attempts: int = 1
    #: stream position this cell resumed from (None = ran start to finish)
    resumed_at: Optional[int] = None
    #: worker-hub telemetry delta (``TelemetrySnapshot.to_json()``) captured
    #: around this cell's run; merged into the parent hub, never cached.
    telemetry: Optional[dict] = None

    @property
    def first_delay(self) -> Optional[int]:
        return self.delays[0] if self.delays else None

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        out.pop("from_cache")
        out.pop("telemetry")
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any], *, from_cache: bool = False) -> "CellResult":
        return cls(**{**data, "from_cache": from_cache})

    def to_method_result(self) -> MethodResult:
        """Rebuild a full :class:`MethodResult` (needs stored records)."""
        if self.records is None:
            raise ConfigurationError(
                f"cell {self.name!r} was run without keep_records=True; "
                "per-sample records are not available."
            )
        records = _columns_to_records(self.records)
        return MethodResult(
            name=self.name,
            records=records,
            accuracy=self.accuracy,
            delay=delay_report(records, self.drift_points),
            phase_tally=PhaseTally.from_records(records),
            wall_seconds=self.wall_seconds,
            detector_nbytes=self.detector_nbytes,
        )


# --------------------------------------------------------------------------
# Worker entry points (module-level: workers re-import them by name)
# --------------------------------------------------------------------------

def run_cell(
    spec: ExperimentSpec,
    *,
    keep_records: bool = False,
    checkpoint_path: Optional[str | os.PathLike] = None,
    checkpoint_every: Optional[int] = None,
) -> CellResult:
    """Execute one grid cell in the current process.

    Deterministic in the spec alone: :func:`~repro.engine.spec.build_experiment`
    derives every RNG from the spec's seeds, so this returns identical
    numbers whether it runs inline, in any worker process, or on another
    host.

    With ``checkpoint_path`` the cell is crash-safe: the pipeline state is
    checkpointed every ``checkpoint_every`` samples, a retry after a crash
    resumes from the last checkpoint (numbers identical to an unbroken
    run), and the file is removed once the cell completes. A corrupt
    checkpoint is discarded and the cell restarts from sample 0.
    """
    experiment = build_experiment(spec)
    result = evaluate_method(
        experiment.pipeline,
        experiment.test,
        name=spec.name,
        chunk_size=spec.chunk_size,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )
    if checkpoint_path is not None:
        # The cell finished: its checkpoint is spent (a later re-run must
        # not "resume" past the end of a completed stream).
        remove_run_checkpoint(checkpoint_path)
    return CellResult(
        name=spec.name,
        spec=spec.canonical(),
        accuracy=float(result.accuracy),
        delays=list(result.delay.delays),
        false_positives=list(result.delay.false_positives),
        detections=list(result.delay.detections),
        drift_points=list(experiment.test.drift_points),
        phase_counts=dict(result.phase_tally.counts),
        wall_seconds=float(result.wall_seconds),
        detector_nbytes=int(result.detector_nbytes),
        n_records=len(result.records),
        records=_records_to_columns(result.records) if keep_records else None,
        resumed_at=result.resumed_at,
    )


class _CellHost:
    """Stateless :class:`~repro.fleet.pool.ShardPool` host: one grid cell per call."""

    def __init__(self, shard_index: int) -> None:
        # A forked worker inherits the parent's hub. Keep it off between
        # cells, so the pool's close-time flush ships nothing and only the
        # per-cell deltas on CellResult.telemetry reach the parent.
        get_telemetry().enabled = False

    def run_cell_job(
        self,
        spec: ExperimentSpec,
        keep_records: bool,
        checkpoint_path: Optional[Path],
        checkpoint_every: Optional[int],
        collect_telemetry: bool,
    ) -> CellResult:
        tel = get_telemetry()
        if collect_telemetry:
            # The parent hub is live: enable this worker's hub for the cell and
            # reset the delta baseline so a reused worker process ships only
            # what *this* cell recorded.
            tel.enabled = True
            tel.snapshot_delta()
        try:
            result = run_cell(
                spec,
                keep_records=keep_records,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
            )
            if collect_telemetry:
                delta = tel.snapshot_delta()
                if not delta.is_empty():
                    result.telemetry = delta.to_json()
            return result
        finally:
            tel.enabled = False


# --------------------------------------------------------------------------
# The runner
# --------------------------------------------------------------------------

class ParallelRunner:
    """Fan a list of :class:`ExperimentSpec` over worker processes, with caching.

    Parameters
    ----------
    cache_dir:
        Directory for per-cell JSON results (created on demand). ``None``
        disables caching. Cache keys are the specs' ``config_hash()``.
    max_workers:
        Pool width. ``0`` or ``1`` runs cells inline in this process (no
        pool) — handy for debugging and exact single-process semantics;
        ``None`` uses ``os.cpu_count()``.
    timeout:
        Per-cell wall-clock limit in seconds, counted from the moment the
        cell is handed to a worker (``None`` = unlimited). A timed-out
        cell's worker is killed and replaced; the cell counts as a failure
        and is retried in a later wave.
    retries:
        How many *extra* attempts a failing cell gets (one per later
        wave) before :class:`ParallelExecutionError` is raised.
    keep_records:
        Store per-sample records in results (and in the cache) so
        :meth:`CellResult.to_method_result` can rebuild full results.
    checkpoint_dir:
        Directory for per-cell crash-recovery checkpoints (created on
        demand; keyed by the spec hash like the cache). When set, a cell
        that dies mid-stream resumes from its last checkpoint on retry
        instead of starting over, with identical final numbers; the
        checkpoint is deleted once the cell completes. ``None`` disables
        crash recovery.
    checkpoint_every:
        Checkpoint cadence in samples (used only with ``checkpoint_dir``).
    """

    def __init__(
        self,
        cache_dir: Optional[str | os.PathLike] = None,
        *,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        keep_records: bool = False,
        checkpoint_dir: Optional[str | os.PathLike] = None,
        checkpoint_every: int = 256,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = int(retries)
        self.keep_records = bool(keep_records)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.checkpoint_every = int(checkpoint_every)
        #: telemetry hub (the process default; reassign for private capture).
        #: Counters/events are recorded in the *parent* process only —
        #: worker processes have their own (disabled) default hubs.
        self.telemetry: Telemetry = get_telemetry()

    # -- cache ------------------------------------------------------------------

    def _cache_path(self, spec: ExperimentSpec) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.config_hash()}.json"

    def _checkpoint_path(self, spec: ExperimentSpec) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / f"{spec.config_hash()}.ckpt"

    def _cache_load(self, spec: ExperimentSpec) -> Optional[CellResult]:
        path = self._cache_path(spec)
        if path is None or not path.is_file():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if data.pop("repro_version", None) != _package_version():
            # Written by a different library version: the algorithms may
            # have changed under the spec, so the entry is stale.
            return None
        # Compare JSON-normalised: the stored spec went through a JSON
        # round trip (tuples → lists), so a tuple-valued kwarg must not
        # read as a mismatch — and a genuine sha256-prefix collision or
        # stale layout still forces a recompute.
        if data.get("spec") != canonical_json(spec.canonical()):
            return None  # different spec behind the same hash — recompute
        if self.keep_records and data.get("records") is None:
            return None  # cached without records but records requested now
        data.setdefault("name", spec.name)
        result = CellResult.from_json(data, from_cache=True)
        result.name = spec.name  # display name may differ between runs
        return result

    def _cache_store(self, result: CellResult) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Same hash implementation as ExperimentSpec.config_hash — the
        # stored file must land exactly where _cache_path will look.
        path = self.cache_dir / f"{spec_hash(result.spec)}.json"
        tmp = path.with_suffix(".tmp")
        payload = result.to_json()
        payload["repro_version"] = _package_version()
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)  # atomic: parallel runners never see half files

    # -- execution --------------------------------------------------------------

    def run(self, cells: Sequence[ExperimentSpec]) -> List[CellResult]:
        """Run every cell; returns results aligned with the input order."""
        tel = self.telemetry
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        results: List[Optional[CellResult]] = [None] * len(cells)
        pending: List[int] = []
        for i, spec in enumerate(cells):
            cached = self._cache_load(spec)
            if cached is not None:
                results[i] = cached
                if tel.enabled:
                    tel.registry.counter(
                        "parallel.cache_hits", "grid cells served from cache"
                    ).inc()
                    tel.emit("cell_cache_hit", name=spec.name)
            else:
                pending.append(i)
                if tel.enabled and self.cache_dir is not None:
                    tel.registry.counter(
                        "parallel.cache_misses", "grid cells not found in cache"
                    ).inc()

        errors: Dict[int, str] = {}
        for attempt in range(1 + self.retries):
            if not pending:
                break
            if attempt and tel.enabled:
                tel.registry.counter(
                    "parallel.retry_waves", "extra attempts over failed cells"
                ).inc()
                tel.emit("retry_wave", attempt=attempt + 1, cells=len(pending))
            pending, errors = self._run_wave(cells, pending, results, attempt + 1)
        if pending:
            detail = "; ".join(
                f"{cells[i].name!r}: {errors.get(i, 'unknown error')}" for i in pending
            )
            raise ParallelExecutionError(
                f"{len(pending)} cell(s) failed after {1 + self.retries} attempt(s): {detail}"
            )
        return results  # type: ignore[return-value]

    def run_grid(
        self,
        methods: Mapping[str, Tuple[str, Mapping[str, Any]]],
        streams: Mapping[str, Tuple[str, Mapping[str, Any]]],
        seeds: Iterable[int],
        **cell_kwargs,
    ) -> Dict[Tuple[str, str, int], CellResult]:
        """Run the full cross product; returns ``(method, stream, seed) →`` result."""
        cells = make_grid(methods, streams, seeds, **cell_kwargs)
        keys = [
            (m, s, int(seed))
            for seed in seeds
            for s in streams
            for m in methods
        ]
        return dict(zip(keys, self.run(cells)))

    def _run_wave(
        self,
        cells: Sequence[ExperimentSpec],
        pending: List[int],
        results: List[Optional[CellResult]],
        attempt: int,
    ) -> Tuple[List[int], Dict[int, str]]:
        """One attempt over the still-missing cells; returns (failures, errors)."""
        tel = self.telemetry
        failures: List[int] = []
        errors: Dict[int, str] = {}

        def record(i: int, result: CellResult) -> None:
            result.attempts = attempt
            results[i] = result
            self._cache_store(result)
            if tel.enabled:
                if result.telemetry:
                    # Worker-hub metrics recorded while running this cell
                    # (counters sum, histograms add bucket-wise).
                    tel.merge(result.telemetry)
                tel.registry.counter(
                    "parallel.cells_run", "grid cells computed (not cached)"
                ).inc()
                if result.resumed_at is not None:
                    tel.registry.counter(
                        "parallel.resumes", "cells resumed from a crash checkpoint"
                    ).inc()
                    tel.emit(
                        "cell_resumed", name=result.name, position=result.resumed_at
                    )
                tel.emit(
                    "cell_finished",
                    name=result.name,
                    attempt=attempt,
                    wall_seconds=result.wall_seconds,
                )

        def failed(i: int, reason: str, *, timeout: bool = False) -> None:
            failures.append(i)
            errors[i] = reason
            if tel.enabled:
                tel.registry.counter(
                    "parallel.failures", "cell attempts that failed"
                ).inc()
                if timeout:
                    tel.registry.counter(
                        "parallel.timeouts", "cell attempts that timed out"
                    ).inc()
                tel.emit(
                    "cell_failed", name=cells[i].name, attempt=attempt, error=reason
                )

        ckpt_every = self.checkpoint_every if self.checkpoint_dir is not None else None
        workers = os.cpu_count() or 1 if self.max_workers is None else self.max_workers
        if workers <= 1:
            # Inline mode: exact single-process semantics, no pool. Timeouts
            # need a worker process to enforce, so they do not apply here.
            for i in pending:
                tel.emit("cell_started", name=cells[i].name, attempt=attempt)
                try:
                    result = run_cell(
                        cells[i],
                        keep_records=self.keep_records,
                        checkpoint_path=self._checkpoint_path(cells[i]),
                        checkpoint_every=ckpt_every,
                    )
                    record(i, result)
                except Exception as exc:  # noqa: BLE001 — isolate per cell
                    failed(i, f"{type(exc).__name__}: {exc}")
            return failures, errors

        from ..fleet.pool import ShardDiedError, ShardError, ShardPool, ShardTimeoutError

        queue = deque(pending)
        idle = deque(range(min(workers, len(pending))))
        running: Dict[int, Tuple[int, int, float]] = {}  # ticket -> (cell, shard, deadline)

        def free(ticket: int) -> int:
            i, shard, _ = running.pop(ticket)
            idle.append(shard)
            return i

        # telemetry_every=None: a cell's worker metrics come back once, on
        # CellResult.telemetry, and record() merges them — never twice.
        pool = ShardPool(
            len(idle), _CellHost, telemetry_every=None, request_timeout=self.timeout
        )
        try:
            while queue or running:
                while queue and idle:  # one cell per worker: timeouts start here
                    i, shard = queue.popleft(), idle.popleft()
                    ticket = pool.submit(
                        shard, "run_cell_job", cells[i], self.keep_records,
                        self._checkpoint_path(cells[i]), ckpt_every, tel.enabled,
                    )
                    tel.emit("cell_started", name=cells[i].name, attempt=attempt)
                    running[ticket] = (i, shard, time.monotonic() + (self.timeout or 0))
                wait = None
                if self.timeout is not None:
                    first = min(deadline for _, _, deadline in running.values())
                    wait = max(0.0, first - time.monotonic())
                try:
                    ticket, result = pool.collect_any(running, timeout=wait)
                except ShardTimeoutError:
                    now = time.monotonic()
                    for ticket, (_, shard, deadline) in list(running.items()):
                        if deadline <= now:  # kill the worker; a fresh one replaces it
                            pool.restart_shard(shard)
                            reason = f"timed out after {self.timeout}s"
                            failed(free(ticket), reason, timeout=True)
                except ShardDiedError as exc:
                    (ticket,) = [t for t, (_, s, _) in running.items() if s == exc.shard]
                    pool.restart_shard(exc.shard)
                    failed(free(ticket), f"{type(exc).__name__}: {exc}")
                except ShardError as exc:  # the cell raised; its worker is fine
                    failed(free(exc.ticket), str(exc))
                else:
                    record(free(ticket), result)
        finally:
            pool.close()
        return failures, errors


def make_grid(
    methods: Mapping[str, Tuple[str, Mapping[str, Any]]],
    streams: Mapping[str, Tuple[str, Mapping[str, Any]]],
    seeds: Iterable[int],
    **cell_kwargs,
) -> List[ExperimentSpec]:
    """Cross ``methods × streams × seeds`` into a flat list of specs.

    ``methods`` maps a display name to ``(builder_key, builder_kwargs)``;
    ``streams`` maps a stream label to ``(factory_key, factory_kwargs)``.
    Extra ``cell_kwargs`` (``n_test``, ``chunk_size``, ``model_seed``,
    ``guard_policy``) apply to every cell.
    """
    cells: List[ExperimentSpec] = []
    for seed in seeds:
        for stream_label, (stream_key, stream_kwargs) in streams.items():
            for method_label, (method_key, method_kwargs) in methods.items():
                cells.append(
                    ExperimentSpec(
                        name=method_label if len(streams) == 1 else f"{method_label} @ {stream_label}",
                        pipeline=method_key,
                        dataset=stream_key,
                        seed=int(seed),
                        pipeline_kwargs=dict(method_kwargs),
                        dataset_kwargs=dict(stream_kwargs),
                        **cell_kwargs,
                    )
                )
    return cells
