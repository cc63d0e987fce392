"""The guard runtime: sanitizer + sentinels + ladder wired to a pipeline.

:class:`RuntimeGuard` is the object users actually touch. Attach one to
any :class:`~repro.core.pipeline.StreamPipeline` via
``pipeline.attach_guard(guard)`` and every sample the pipeline consumes
flows through the guard first:

* while the ladder is ``HEALTHY`` and a whole chunk screens clean, the
  guard delegates to the pipeline's own vectorized chunk path verbatim —
  guarded no-fault runs are **byte-identical** to unguarded ones, and
  the only cost is the vectorized cleanliness screen (<5 % on
  pure-predict streams, enforced by ``bench_guard_overhead``);
* faulty samples are repaired, quarantined, or rejected per the
  sanitizer policy, and bursts of them climb the degradation ladder;
* after state-mutating steps the numeric-health sentinel probes the
  model; a trip rolls the model (and the pipeline's extra state) back to
  the last healthy in-memory snapshot — taken with
  :func:`repro.resilience.state.snapshot_state` on a fixed cadence — or
  re-initializes the diverged instances when no snapshot can help;
* every intervention and every ladder transition is emitted on the
  pipeline's telemetry hub with the exact stream index, so a month-long
  run leaves an auditable recovery trail.

The guard holds **in-memory** snapshots only; it composes with (and does
not replace) the on-disk checkpointing in :mod:`repro.resilience`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.records import RecordBlock
from ..resilience.state import snapshot_state
from ..telemetry import Telemetry, get_telemetry
from ..utils.exceptions import ConfigurationError, GuardError
from .ladder import DegradationLadder, GuardLevel, Transition
from .sanitizer import FeatureBounds, InputSanitizer
from .sentinels import NumericHealthSentinel

__all__ = ["RuntimeGuard"]

class RuntimeGuard:
    """Self-healing wrapper around one stream pipeline.

    Parameters
    ----------
    sanitizer:
        The input rung. Build via :meth:`from_init_data` to get bounds
        learned from the initial-training set.
    sentinel:
        Numeric-health probe; ``None`` disables model-state sentinels
        (input guarding still works).
    ladder:
        Level controller; defaults to a :class:`DegradationLadder` with
        stock hysteresis.
    snapshot_every:
        In-memory rollback snapshots are refreshed at most once per this
        many processed samples (and only when the sentinel passes), so a
        trip never restores state older than one cadence.
    """

    def __init__(
        self,
        sanitizer: InputSanitizer,
        *,
        sentinel: Optional[NumericHealthSentinel] = None,
        ladder: Optional[DegradationLadder] = None,
        snapshot_every: int = 256,
    ) -> None:
        if int(snapshot_every) < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {snapshot_every!r}."
            )
        self.sanitizer = sanitizer
        self.sentinel = sentinel
        self.ladder = ladder if ladder is not None else DegradationLadder()
        self.snapshot_every = int(snapshot_every)
        self.pipeline = None
        self.telemetry: Telemetry = get_telemetry()
        #: full transition history (report currency)
        self.transitions: List[Transition] = []
        self.n_rollbacks = 0
        self.n_reinits = 0
        self._snapshot: Optional[dict] = None
        self._snapshot_index = 0
        self._since_snapshot = 0
        self._last_pred = -1
        self._last_score = float("nan")

    @classmethod
    def from_init_data(
        cls,
        X: np.ndarray,
        *,
        policy: str = "impute_last_good",
        margin: float = 3.0,
        sentinel: Optional[NumericHealthSentinel] = None,
        ladder: Optional[DegradationLadder] = None,
        snapshot_every: int = 256,
    ) -> "RuntimeGuard":
        """Build a guard whose bounds are learned from the init set.

        This is the intended construction path: the same data that fits
        the model's initial state defines what "plausible input" means.
        The sentinel defaults to a stock :class:`NumericHealthSentinel`.
        """
        X = np.asarray(X, dtype=np.float64)
        bounds = FeatureBounds.from_data(X, margin=margin)
        return cls.for_features(
            bounds.n_features,
            bounds=bounds,
            policy=policy,
            sentinel=sentinel,
            ladder=ladder,
            snapshot_every=snapshot_every,
        )

    @classmethod
    def for_features(
        cls,
        n_features: int,
        *,
        bounds: Optional[FeatureBounds] = None,
        policy: str = "impute_last_good",
        sentinel: Optional[NumericHealthSentinel] = None,
        ladder: Optional[DegradationLadder] = None,
        snapshot_every: int = 256,
    ) -> "RuntimeGuard":
        """The guard's wiring over ``n_features``-wide samples.

        :meth:`from_init_data` passes the bounds it learned; a restore
        passes none and lets :meth:`set_state` install the checkpointed
        ones. The sentinel defaults to a stock
        :class:`NumericHealthSentinel`.
        """
        sanitizer = InputSanitizer(n_features, policy=policy, bounds=bounds)
        return cls(
            sanitizer,
            sentinel=sentinel if sentinel is not None else NumericHealthSentinel(),
            ladder=ladder,
            snapshot_every=snapshot_every,
        )

    # -- attachment ------------------------------------------------------------

    def bind(self, pipeline) -> None:
        """Adopt ``pipeline`` (called by ``StreamPipeline.attach_guard``)."""
        if self.pipeline is not None and self.pipeline is not pipeline:
            raise ConfigurationError("guard is already attached to another pipeline.")
        self.pipeline = pipeline
        self.telemetry = pipeline.telemetry
        self._take_snapshot()

    @property
    def level(self) -> GuardLevel:
        return self.ladder.level

    # -- snapshots & recovery --------------------------------------------------

    def _take_snapshot(self) -> None:
        pipe = self.pipeline
        self._snapshot = {
            "model": snapshot_state(pipe.model.get_state()),
            "extra": snapshot_state(pipe._extra_state()),
        }
        self._snapshot_index = pipe._index
        self._since_snapshot = 0

    def _maybe_snapshot(self) -> None:
        """Refresh the rollback snapshot on cadence, sentinel permitting."""
        if self._since_snapshot < self.snapshot_every:
            return
        if self.sentinel is not None and not self.sentinel.check(self.pipeline.model):
            self._take_snapshot()
        elif self.sentinel is None:
            self._take_snapshot()
        # A tripping model is never snapshotted — the trip handler runs
        # from the mutation path before this cadence comes around again.

    def _check_sentinel(self) -> None:
        """Probe model health after a mutating step; recover on a trip."""
        if self.sentinel is None:
            return
        trips = self.sentinel.check(self.pipeline.model)
        if trips:
            self._handle_trips(trips)

    def _handle_trips(self, trips) -> None:
        pipe = self.pipeline
        index = pipe._index
        tel = self.telemetry
        reason = "; ".join(f"instance {t.instance}: {t.reason}" for t in trips)
        if tel.enabled:
            tel.registry.counter(
                "guard.trips", "numeric-health sentinel trips", labels=("pipeline",)
            ).inc(pipeline=pipe.name)
            tel.emit(
                "sentinel_tripped",
                pipeline=pipe.name,
                index=index,
                instances=[t.instance for t in trips],
                reason=reason,
            )
        self._recover(index, trips)
        self._apply(self.ladder.record_trip(index, reason))

    def _recover(self, index: int, trips) -> None:
        """Roll back to the last healthy snapshot; re-initialize if that fails."""
        pipe = self.pipeline
        tel = self.telemetry
        if self._snapshot is not None:
            pipe.model.set_state(snapshot_state(self._snapshot["model"]))
            pipe._set_extra_state(snapshot_state(self._snapshot["extra"]))
            if self.sentinel is None or not self.sentinel.check(pipe.model):
                self.n_rollbacks += 1
                if tel.enabled:
                    tel.registry.counter(
                        "guard.rollbacks", "snapshot rollbacks", labels=("pipeline",)
                    ).inc(pipeline=pipe.name)
                    tel.emit(
                        "model_rolled_back",
                        pipeline=pipe.name,
                        index=index,
                        snapshot_index=self._snapshot_index,
                    )
                return
        # No snapshot, or the snapshot itself is poisoned: rebuild the
        # diverged instances' recursion state in place. Predictions keep
        # whatever finite weights survive; the RLS restarts from scratch.
        self._reinitialize(index, trips)

    def _reinitialize(self, index: int, trips) -> None:
        pipe = self.pipeline
        tel = self.telemetry
        instances = sorted({t.instance for t in trips})
        for c in instances:
            core = getattr(pipe.model.instances[c], "core", pipe.model.instances[c])
            if core.P is not None:
                core.P = np.eye(core.n_hidden) / core.reg
            if core.beta is not None:
                core.beta = np.nan_to_num(
                    core.beta, nan=0.0, posinf=0.0, neginf=0.0
                )
        self.n_reinits += 1
        if tel.enabled:
            tel.registry.counter(
                "guard.reinits", "instance re-initializations", labels=("pipeline",)
            ).inc(pipeline=pipe.name)
            tel.emit(
                "model_reinitialized",
                pipeline=pipe.name,
                index=index,
                instances=instances,
            )
        self._take_snapshot()

    # -- ladder plumbing -------------------------------------------------------

    def _apply(self, transition: Optional[Transition]) -> None:
        if transition is None:
            return
        self.transitions.append(transition)
        pipe = self.pipeline
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "guard.level_changes", "degradation-ladder moves", labels=("pipeline",)
            ).inc(pipeline=pipe.name)
            tel.emit(
                "guard_level_changed",
                pipeline=pipe.name,
                index=transition.index,
                from_level=transition.from_level.name,
                to_level=transition.to_level.name,
                reason=transition.reason,
            )
        if (
            transition.to_level >= GuardLevel.PASSTHROUGH
            and transition.from_level < GuardLevel.PASSTHROUGH
        ):
            # Entering bypass: abort any half-done reconstruction and
            # clear detector state so adaptation resumes cleanly if the
            # ladder ever steps back down.
            pipe._guard_bypass()

    def _note_fault(self, action: str, bad) -> None:
        pipe = self.pipeline
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "guard.faults", "input faults handled", labels=("pipeline", "action")
            ).inc(pipeline=pipe.name, action=action)
            tel.emit(
                "guard_fault",
                pipeline=pipe.name,
                index=pipe._index,
                action=action,
                bad_features=list(bad),
            )
        self._apply(self.ladder.record_fault(pipe._index))

    # -- the streaming surface -------------------------------------------------

    def process_chunk(self, Xc: np.ndarray, yc: np.ndarray) -> RecordBlock:
        """Consume a non-empty prefix of the chunk through the guard.

        Mirrors the contract of ``StreamPipeline._process_chunk`` (its
        records as one :class:`~repro.core.records.RecordBlock`) so the
        run loops need no special casing.
        """
        pipe = self.pipeline
        if (
            self.level == GuardLevel.HEALTHY
            and len(Xc) > 0
            and self.sanitizer.all_clean(np.asarray(Xc, dtype=np.float64))
        ):
            # Fast path: delegate verbatim — records byte-identical to an
            # unguarded run. Bookkeeping only touches tallies.
            mutations = pipe.n_mutations
            block = pipe._process_chunk(Xc, yc)
            n = len(block)
            self.sanitizer.counts["ok"] += n
            self.sanitizer._last_good = np.array(Xc[n - 1], dtype=np.float64)
            self._last_pred = int(block.predicted[-1])
            self._last_score = float(block.score[-1])
            if pipe.checkpoint_volatility == "always" or pipe.n_mutations != mutations:
                # Only steps that can change learned state advance the
                # snapshot cadence — a pure-predict chunk costs nothing.
                self._since_snapshot += n
                self._check_sentinel()
                self._maybe_snapshot()
            return block
        # Slow path: per-sample sanitation.
        return RecordBlock.from_records(
            [self._step(Xc[j], int(yc[j])) for j in range(len(Xc))]
        )

    def _step(self, x: np.ndarray, y_true: int):
        """Guarded equivalent of ``pipeline.process_one`` for one sample."""
        pipe = self.pipeline
        result = self.sanitizer.sanitize(x)
        if result.action == "ok":
            self._apply(self.ladder.record_clean(pipe._index))
        else:
            self._note_fault(result.action, result.bad_features)
            if result.action == "rejected":
                raise GuardError(
                    f"guard policy 'reject': sample {pipe._index} has faulty "
                    f"features {list(result.bad_features)}."
                )
            if result.action == "quarantined":
                # The pipeline never sees the sample; emit a placeholder
                # record carrying the last known prediction so the record
                # stream stays index-aligned with the input stream.
                return pipe._record(
                    self._last_pred, self._last_score, y_true, phase="quarantine"
                )
        xs = result.x
        level = self.level
        if level >= GuardLevel.PASSTHROUGH:
            # Detector and training bypassed: score-and-record only.
            c, err = pipe.model.predict_with_score(xs)
            self._last_pred, self._last_score = int(c), float(err)
            phase = "frozen" if level == GuardLevel.FROZEN else "passthrough"
            return pipe._record(c, err, y_true, phase=phase)
        mutations = pipe.n_mutations
        rec = pipe.process_one(xs, y_true)
        self._last_pred, self._last_score = rec.predicted, rec.anomaly_score
        if pipe.n_mutations != mutations or pipe.checkpoint_volatility == "always":
            self._since_snapshot += 1
            self._check_sentinel()
            self._maybe_snapshot()
        return rec

    # -- checkpoint protocol ---------------------------------------------------

    def get_state(self) -> dict:
        """Isolated snapshot of the sanitizer's bounds learned from the
        init set and of everything mutable: ladder position, sanitizer
        tallies and imputation source, sentinel trip count, the
        in-memory rollback snapshot, and the intervention history.

        Mirrors ``StreamPipeline.get_state`` so a guarded session can be
        evicted to a checkpoint container and restored with its
        degradation state — not just its model — intact.
        """
        bounds = self.sanitizer.bounds
        state = {
            "ladder": self.ladder.get_state(),
            "bounds": None if bounds is None else {"lo": bounds.lo, "hi": bounds.hi},
            "sanitizer": {
                "counts": dict(self.sanitizer.counts),
                "last_good": self.sanitizer._last_good,
                "quarantined": list(self.sanitizer.quarantined),
            },
            "sentinel_trips": (
                0 if self.sentinel is None else int(self.sentinel.n_trips)
            ),
            "transitions": [
                {
                    "index": int(t.index),
                    "from": int(t.from_level),
                    "to": int(t.to_level),
                    "reason": t.reason,
                }
                for t in self.transitions
            ],
            "n_rollbacks": int(self.n_rollbacks),
            "n_reinits": int(self.n_reinits),
            "snapshot": self._snapshot,
            "snapshot_index": int(self._snapshot_index),
            "since_snapshot": int(self._since_snapshot),
            "last_pred": int(self._last_pred),
            "last_score": float(self._last_score),
        }
        return snapshot_state(state)

    def set_state(self, state: dict) -> None:
        """Restore :meth:`get_state` output (after ``bind``)."""
        self.ladder.set_state(state["ladder"])
        bounds = state["bounds"]
        if bounds is not None:
            bounds = FeatureBounds(bounds["lo"], bounds["hi"])
            if bounds.n_features != self.sanitizer.n_features:
                raise ConfigurationError(
                    f"checkpointed bounds cover {bounds.n_features} features, "
                    f"this guard's sanitizer {self.sanitizer.n_features}."
                )
        self.sanitizer.bounds = bounds
        san = state["sanitizer"]
        self.sanitizer.counts = {k: int(v) for k, v in san["counts"].items()}
        last_good = san["last_good"]
        self.sanitizer._last_good = (
            None if last_good is None else np.array(last_good, dtype=np.float64)
        )
        self.sanitizer.quarantined.clear()
        self.sanitizer.quarantined.extend(
            np.array(a, dtype=np.float64) for a in san["quarantined"]
        )
        if self.sentinel is not None:
            self.sentinel.n_trips = int(state["sentinel_trips"])
        self.transitions = [
            Transition(
                index=int(t["index"]),
                from_level=GuardLevel(int(t["from"])),
                to_level=GuardLevel(int(t["to"])),
                reason=str(t["reason"]),
            )
            for t in state["transitions"]
        ]
        self.n_rollbacks = int(state["n_rollbacks"])
        self.n_reinits = int(state["n_reinits"])
        snap = state["snapshot"]
        self._snapshot = None if snap is None else snapshot_state(snap)
        self._snapshot_index = int(state["snapshot_index"])
        self._since_snapshot = int(state["since_snapshot"])
        self._last_pred = int(state["last_pred"])
        self._last_score = float(state["last_score"])

    # -- reporting -------------------------------------------------------------

    def report(self) -> dict:
        """Machine-readable summary of everything the guard did."""
        return {
            "policy": self.sanitizer.policy,
            "level": self.level.name,
            "counts": dict(self.sanitizer.counts),
            "n_faults": self.sanitizer.n_faults,
            "sentinel_trips": 0 if self.sentinel is None else self.sentinel.n_trips,
            "rollbacks": self.n_rollbacks,
            "reinitializations": self.n_reinits,
            "transitions": [
                {
                    "index": t.index,
                    "from": t.from_level.name,
                    "to": t.to_level.name,
                    "reason": t.reason,
                }
                for t in self.transitions
            ],
        }

    def report_text(self) -> str:
        """Human-readable guard report (the CLI's ``--guard-report``)."""
        r = self.report()
        lines = [
            f"guard policy      : {r['policy']}",
            f"final level       : {r['level']}",
            f"clean samples     : {r['counts']['ok']}",
            f"faults handled    : {r['n_faults']} "
            f"(clipped={r['counts']['clipped']}, imputed={r['counts']['imputed']}, "
            f"quarantined={r['counts']['quarantined']}, rejected={r['counts']['rejected']})",
            f"sentinel trips    : {r['sentinel_trips']}",
            f"rollbacks         : {r['rollbacks']}",
            f"reinitializations : {r['reinitializations']}",
        ]
        if r["transitions"]:
            lines.append("transitions       :")
            lines.extend(
                f"  @{t['index']:>6} {t['from']} -> {t['to']}  ({t['reason']})"
                for t in r["transitions"]
            )
        else:
            lines.append("transitions       : none")
        return "\n".join(lines)
