"""Drift-adaptive streaming pipelines — the full Figure-2 loop.

The paper evaluates five method combinations (§4.2). Each is a *pipeline*
here, sharing one streaming interface so the evaluation harness, memory
model, and benchmarks treat them uniformly:

1. :class:`ProposedPipeline` — proposed sequential detector + OS-ELM
   (active approach; Algorithms 1-4 end to end);
2. :class:`NoDetectionPipeline` — OS-ELM frozen after initial training
   (the paper's "Baseline (no concept drift detection)");
3./4. :class:`BatchDetectorPipeline` — Quant Tree or SPLL + OS-ELM
   (active approach with batch detection; reconstruction on detection);
5. :class:`ONLADPipeline` — ONLAD (forgetting OS-ELM), retrained on every
   sample (passive approach, no detector).

Plus :class:`ErrorRatePipeline` (DDM/ADWIN + OS-ELM) for the error-rate
family the paper discusses but does not benchmark — useful for ablations.

Every ``process_one`` returns a :class:`StepRecord`; every chunk step
returns its records as one :class:`~repro.core.records.RecordBlock`;
``run`` maps a :class:`~repro.datasets.stream.DataStream` to the list of
records the metrics layer consumes.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..datasets.stream import DataStream
from ..detectors.base import BatchDriftDetector, DriftState, ErrorRateDriftDetector
from ..oselm.ensemble import MultiInstanceModel
from ..utils.hooks import default_telemetry
from ..utils.exceptions import ConfigurationError
from ..utils.validation import as_matrix, validate_checkpoint_config
from .detector import ROW_CHECK, ROW_CLOSED, ROW_IDLE, SequentialDriftDetector
from .reconstruction import ModelReconstructor
from .records import RecordBlock, StepRecord, phase_code

__all__ = [
    "StepRecord",
    "StreamPipeline",
    "ProposedPipeline",
    "NoDetectionPipeline",
    "ONLADPipeline",
    "BatchDetectorPipeline",
    "ErrorRatePipeline",
]


_PREDICT = phase_code("predict")
_REFIT = phase_code("refit")
_FINISH = phase_code("finish")

#: record phase code of each :meth:`SequentialDriftDetector.update_chunk` row code
_ROW_PHASES = np.empty(3, dtype=np.uint8)
_ROW_PHASES[[ROW_IDLE, ROW_CHECK, ROW_CLOSED]] = [_PREDICT, phase_code("check"), _PREDICT]


def _label_list(yc, n: int) -> List[Optional[int]]:
    """The first ``n`` true labels of a chunk as Python ints (or None)."""
    if isinstance(yc, np.ndarray) and yc.dtype.kind in "iu":
        return yc[:n].tolist()
    return [None if y is None else int(y) for y in yc[:n]]


def _label_columns(yc, n: int):
    """The first ``n`` true labels of a chunk as a :class:`RecordBlock`'s
    ``(true_label, missing)`` columns."""
    if isinstance(yc, np.ndarray) and yc.dtype.kind in "iu":
        return yc[:n].astype(np.int64), None
    labels = _label_list(yc, n)
    missing = [y is None for y in labels]
    truth = np.array([-1 if y is None else y for y in labels], dtype=np.int64)
    return truth, (np.array(missing) if any(missing) else None)


class StreamPipeline(abc.ABC):
    """Common streaming interface for the five evaluated methods."""

    #: Human-readable method name used in reports and tables.
    name: str = "pipeline"

    #: Chunk length used by :meth:`run` when ``chunk_size`` is not given.
    default_chunk_size: int = 256

    #: How the pipeline's adaptive state evolves while streaming:
    #: ``"static"`` — never after construction (frozen baseline);
    #: ``"quiet"`` — only on the samples counted by :attr:`n_mutations`
    #: (drift checks, reconstruction);
    #: ``"always"`` — potentially on every sample (per-sample training,
    #: detector buffers/statistics). Checkpointed runs rewrite the state
    #: container only for intervals that may have mutated state; the
    #: record log is appended either way.
    checkpoint_volatility: str = "always"

    #: ``True`` — fsync the record log and state container so
    #: checkpoints survive power cuts; ``False`` (default) — atomic
    #: rename only, which survives any *process* crash (the tested
    #: threat model) but may lose the newest checkpoint to a power cut.
    #: On edge flash storage an fsync costs milliseconds of wall time
    #: and real kernel CPU, so durability is opt-in.
    checkpoint_durable: bool = False

    #: append accumulated clean (state-unchanged) records to the record
    #: log and push them to the OS after this many clean checkpoint
    #: intervals (fsync'd too under :attr:`checkpoint_durable`). A plain
    #: crash loses nothing regardless — the unwind path persists the
    #: clean tail — so this only bounds how much pure-predict progress a
    #: SIGKILL or power cut can cost.
    checkpoint_sync_blocks: int = 8

    def __init__(self, model: MultiInstanceModel) -> None:
        if not isinstance(model, MultiInstanceModel):
            raise ConfigurationError("model must be a MultiInstanceModel.")
        self.model = model
        self._index = 0
        #: stream indices at which this pipeline reported a drift
        self.detections: List[int] = []
        #: telemetry hub (the process default; reassign for private capture)
        self.telemetry = default_telemetry()
        self._in_recon = False
        #: position of the checkpoint the last :meth:`resume` continued from
        self.last_resumed_at: Optional[int] = None
        #: attached :class:`~repro.guard.runtime.RuntimeGuard` (or None)
        self.guard = None
        #: monotone count of samples whose step may have changed adaptive
        #: state. Checkpointing and the guard compare it across a chunk
        #: to tell whether the chunk mutated anything; it is not part of
        #: the checkpointed state.
        self.n_mutations = 0

    def attach_guard(self, guard) -> "StreamPipeline":
        """Route every sample through ``guard`` (see :mod:`repro.guard`).

        Must be called after the guard's telemetry-relevant configuration
        is final and before :meth:`run`; the guard adopts this pipeline's
        telemetry hub and takes its initial rollback snapshot here.
        Returns ``self`` for chaining.
        """
        guard.bind(self)
        self.guard = guard
        return self

    @abc.abstractmethod
    def process_one(self, x: np.ndarray, y_true: Optional[int] = None) -> StepRecord:
        """Consume one sample; returns the per-sample record."""

    def run(
        self,
        stream: DataStream,
        *,
        chunk_size: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> List[StepRecord]:
        """Replay ``stream``; returns one :class:`StepRecord` per sample.

        ``chunk_size`` controls the vectorized fast path: samples are
        consumed in chunks of up to that many. Outside reconstruction a
        chunk is scored with matrix ops at once and the detector then
        runs over the scored rows, up to the sample that raises a drift;
        a reconstruction chunk maps every instance's random layer once
        and trains sample by sample on those rows, up to the sample that
        completes it. Records are **bit-identical** to the per-sample
        path (the golden-equivalence tests assert this), so the default
        is chunked; pass ``chunk_size=1`` to force the reference
        per-sample loop.

        With ``checkpoint_every=N`` and ``checkpoint_path`` given (both
        or neither), the run is checkpointed every ``N`` processed
        samples as two files: ``checkpoint_path`` — an atomic state
        container, rewritten only when the interval may have changed
        adaptive state (see :attr:`checkpoint_volatility`) — and a
        ``checkpoint_path.log`` sidecar to which each interval's records
        are appended incrementally (:mod:`repro.resilience.reclog`). A
        later :meth:`resume` on a freshly built pipeline continues from
        the last checkpoint with byte-identical records. Because chunked
        and per-sample scoring agree bit-for-bit, a checkpoint taken at
        any whole number of samples resumes exactly, wherever chunk
        boundaries fell.

        The run itself is driven by :mod:`repro.engine`: this method
        validates the options and assembles the default interceptor
        stack (telemetry → guard → chunk scheduler → checkpoint).
        """
        every, path = validate_checkpoint_config(checkpoint_every, checkpoint_path)
        from ..engine import run_stream

        return run_stream(
            self,
            stream,
            chunk_size=chunk_size,
            checkpoint_every=every,
            checkpoint_path=path,
        )

    def resume(
        self,
        stream: DataStream,
        checkpoint_path: Union[str, Path],
        *,
        chunk_size: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
    ) -> List[StepRecord]:
        """Continue an interrupted checkpointed :meth:`run`.

        Call on a *freshly constructed* pipeline (same configuration as
        the interrupted one); the checkpoint restores every mutable
        field. Returns the **full** record list — the records produced
        before the checkpoint plus the remainder of the stream — and the
        result is byte-identical to an uninterrupted run. Checkpointing
        continues to the same files (cadence from the checkpoint unless
        ``checkpoint_every`` overrides it).

        The resume position is the end of the record log's trusted
        prefix (see :mod:`repro.resilience.reclog`): at least the state
        container's position, and further when clean intervals were
        logged after the last state rewrite.

        Raises :class:`~repro.utils.exceptions.CheckpointCorruptError`
        for damaged files — including a record log that cannot cover the
        state container's position — with in-memory state left untouched,
        and :class:`~repro.utils.exceptions.ConfigurationError` when the
        checkpoint belongs to a different pipeline class or stream.

        Like :meth:`run`, the actual loop is :mod:`repro.engine`'s; the
        engine restores the state snapshot, fast-forwards to the trusted
        log prefix, and continues checkpointing to the same files.
        """
        from ..engine import resume_stream

        return resume_stream(
            self,
            stream,
            checkpoint_path,
            chunk_size=chunk_size,
            checkpoint_every=checkpoint_every,
        )

    def _process_chunk(
        self, Xc: np.ndarray, yc: np.ndarray, scored=None
    ) -> RecordBlock:
        """Consume a non-empty prefix of the chunk; returns its records.

        ``scored`` is ``(labels, scores)`` for the chunk's rows against
        the model as it stands (a fleet group scores its members' rows in
        one stacked pass), or ``None`` to score them here. The base
        implementation has no fast path and simply streams the whole
        chunk through :meth:`process_one` (ONLAD trains on every sample,
        so nothing can be batched there). The other pipelines override
        this to score the chunk in one pass, run their detector over the
        scored rows up to a detection, and reconstruct through
        :meth:`_reconstruct_chunk`.
        """
        return RecordBlock.from_records(
            [self.process_one(Xc[j], int(yc[j])) for j in range(len(Xc))]
        )

    def _score_chunk(self, Xc: np.ndarray, scored):
        """``scored``, or the model's ``(labels, scores)`` for ``Xc``
        (predictions not yet counted)."""
        if scored is None:
            return self.model.predict_with_score_batch(Xc, count=False)
        return scored

    def _reconstruct_chunk(
        self, Xc: np.ndarray, yc, *, drift_detected: bool = False
    ) -> RecordBlock:
        """Algorithm 2 over a prefix of the chunk; returns its records.

        Shared by the pipelines that answer a detection with
        ``self.reconstructor``. Each instance's hidden rows for the chunk
        are computed once (the random layers are frozen); every sample is
        then scored against the model as it stands (``h @ β``, bit-identical
        to the per-sample path) and handed to the reconstructor together
        with those rows and its argmin label. The chunk ends with the
        sample that completes the reconstruction, after
        :meth:`_end_reconstruction` has run for it. ``drift_detected``
        marks the first record as the detection sample.
        """
        model = self.model
        reconstructor = self.reconstructor
        X = as_matrix(Xc, name="X", n_features=model.n_features)
        H = np.array(model.hidden_rows(X))  # (instances, rows, hidden)
        labels, scores, phases = [], [], []
        for j in range(len(X)):
            x = X[j]
            hidden = H[:, j : j + 1]
            row = model.scores_hidden(hidden, x)
            c = int(row.argmin())
            step = reconstructor.process(x, hidden=hidden, predicted=c)
            labels.append(c)
            scores.append(row[c])
            phases.append(phase_code(step.phase))
            if not step.still_reconstructing:
                self._end_reconstruction()
                break
        model.count_predictions(len(labels))
        self.n_mutations += len(labels)
        return self._record_rows(
            labels, scores, yc, phases,
            drift_first=drift_detected, reconstructing=True,
        )

    def _then_reconstruct(self, block: RecordBlock, Xc, yc) -> RecordBlock:
        """``block`` followed by the record of the row after it — the row
        that raised a detection, which is also Algorithm 2's first."""
        n = len(block)
        return RecordBlock.concat([
            block,
            self._reconstruct_chunk(Xc[n : n + 1], yc[n : n + 1], drift_detected=True),
        ])

    def _end_reconstruction(self) -> None:
        """Hook: the reconstructor reported completion for this sample."""

    def _guard_bypass(self) -> None:
        """Guard hook: drop adaptive in-flight state on entering bypass.

        Called once when the degradation ladder escalates to
        ``PASSTHROUGH`` or beyond. Subclasses with detectors or an
        in-flight reconstruction override this to abort/reset them so
        adaptation restarts cleanly if the ladder later steps back down.
        The frozen baseline has nothing to drop.
        """

    def prefers_batched_scoring(self) -> bool:
        """Can a fleet group score this pipeline's pending rows up front?

        The fleet's :class:`~repro.fleet.batching.BatchGroup` asks this
        before stacking a session's pending rows into the group's shared
        forward pass. ``True`` means the model will not change before
        the next row is scored, so the stacked ``(labels, scores)`` are
        handed to :meth:`_process_chunk` as its ``scored`` argument. The
        group stops passing a member's scores once a step of it has
        reconstructed, and an in-flight reconstruction answers ``False``;
        the member then scores its rows itself. The base answer is
        ``False``: unknown pipelines, and ONLAD — which trains on every
        sample — stay off the group step.
        """
        return False

    # -- shared helpers --------------------------------------------------------------

    def _record(
        self,
        predicted: int,
        score: float,
        y_true: Optional[int],
        *,
        drift_detected: bool = False,
        reconstructing: bool = False,
        phase: str = "predict",
    ) -> StepRecord:
        rec = StepRecord(
            self._index,
            int(predicted),
            None if y_true is None else int(y_true),
            None if y_true is None else bool(predicted == y_true),
            float(score),
            bool(drift_detected),
            bool(reconstructing),
            phase,
        )
        if drift_detected:
            self.detections.append(self._index)
        self._index += 1
        tel = self.telemetry
        if tel.enabled:
            self._telemetry_step(tel, rec)
        elif reconstructing or self._in_recon:
            # Edge state stays consistent even while telemetry is off, so
            # enabling it mid-stream never fabricates a started event.
            self._in_recon = reconstructing and phase != "finish"
        return rec

    def _record_rows(
        self,
        labels,
        scores,
        yc,
        phases: Union[int, Sequence[int]],
        *,
        drift_first: bool = False,
        reconstructing: bool = False,
    ) -> RecordBlock:
        """The block of records for the next ``len(labels)`` rows.

        ``labels``/``scores`` hold one predicted label and anomaly score
        per row, ``yc`` the chunk's true labels (its first rows are
        used) and ``phases`` one phase code for every row or one per
        row. ``drift_first`` marks the first row as the detection
        sample, ``reconstructing`` every row as a reconstruction step.
        The block equals one :meth:`_record` call per row, and so do the
        side effects: the index advances, a detection is noted, the
        reconstruction edge state follows the last row and, with
        telemetry on, every record counts as a processed sample.
        """
        n = len(labels)
        start = self._index
        truth, missing = _label_columns(yc, n)
        drift = np.zeros(n, dtype=np.bool_)
        if drift_first and n:
            drift[0] = True
            self.detections.append(start)
        block = RecordBlock(
            start,
            np.array(labels, dtype=np.int64),
            truth,
            missing,
            np.array(scores, dtype=np.float64),
            np.array(phases, dtype=np.uint8)
            if np.ndim(phases)
            else np.full(n, phases, dtype=np.uint8),
            drift,
            np.full(n, reconstructing, dtype=np.bool_),
        )
        self._index = start + n
        tel = self.telemetry
        if tel.enabled:
            for rec in block.records():
                self._telemetry_step(tel, rec)
        elif n:
            self._in_recon = reconstructing and int(block.phase[-1]) != _FINISH
        return block

    def _telemetry_step(self, tel: Telemetry, rec: StepRecord) -> None:
        """Per-sample metrics + the drift/reconstruction event edges."""
        reg = tel.registry
        reg.counter(
            "pipeline.samples", "processed samples", labels=("pipeline", "phase")
        ).inc(pipeline=self.name, phase=rec.phase)
        if rec.drift_detected:
            reg.counter(
                "pipeline.drifts", "drifts reported", labels=("pipeline",)
            ).inc(pipeline=self.name)
            tel.emit(
                "drift_detected",
                pipeline=self.name,
                index=rec.index,
                score=rec.anomaly_score,
            )
        if rec.reconstructing:
            if not self._in_recon:
                tel.emit(
                    "reconstruction_started", pipeline=self.name, index=rec.index
                )
            if rec.phase == "finish":
                tel.emit(
                    "reconstruction_finished", pipeline=self.name, index=rec.index
                )
        self._in_recon = rec.reconstructing and rec.phase != "finish"

    def state_nbytes(self) -> int:
        """Resident bytes of everything beyond the discriminative model."""
        return 0

    # -- checkpoint protocol -----------------------------------------------------------

    def _extra_state(self) -> dict:
        """Subclass hook: additional mutable fields to checkpoint."""
        return {}

    def _set_extra_state(self, state: dict) -> None:
        """Subclass hook: restore the fields from :meth:`_extra_state`."""

    def get_state(self) -> dict:
        """Snapshot every mutable field of the pipeline and its model."""
        return {
            "index": int(self._index),
            "detections": [int(d) for d in self.detections],
            "in_recon": bool(self._in_recon),
            "model": self.model.get_state(),
            "extra": self._extra_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        self.n_mutations += 1
        self._index = int(state["index"])
        self.detections = [int(d) for d in state["detections"]]
        self._in_recon = bool(state["in_recon"])
        self.model.set_state(state["model"])
        self._set_extra_state(state["extra"])


class NoDetectionPipeline(StreamPipeline):
    """Frozen OS-ELM ensemble — predicts, never adapts (Table 2 'Baseline')."""

    name = "baseline"
    #: frozen model: the state container is written once, then only the
    #: record log grows — checkpointing costs O(interval) per interval.
    checkpoint_volatility = "static"

    def process_one(self, x: np.ndarray, y_true: Optional[int] = None) -> StepRecord:
        c, err = self.model.predict_with_score(x)
        return self._record(c, err, y_true)

    def _process_chunk(self, Xc: np.ndarray, yc: np.ndarray, scored=None) -> RecordBlock:
        # The model is frozen, so every chunk is one batched forward pass.
        labels, scores = self._score_chunk(Xc, scored)
        self.model.count_predictions(len(labels))
        return self._record_rows(labels, scores, yc, _PREDICT)

    def prefers_batched_scoring(self) -> bool:
        # Frozen model: always a pure forward pass.
        return True


class ONLADPipeline(StreamPipeline):
    """ONLAD — passive approach: test-then-train on every sample.

    The model should be built with a ``forgetting_factor`` (0.97 / 0.99 in
    the paper); the pipeline itself works with any
    :class:`MultiInstanceModel` and always trains the closest instance on
    the incoming sample after predicting it.
    """

    name = "onlad"

    def process_one(self, x: np.ndarray, y_true: Optional[int] = None) -> StepRecord:
        c, err = self.model.predict_with_score(x)
        self.model.partial_fit_one(x, c)
        self.n_mutations += 1
        return self._record(c, err, y_true, phase="train")


class ProposedPipeline(StreamPipeline):
    """The paper's proposal: sequential detection + sequential reconstruction.

    Wires Algorithm 1 (``detector``) to Algorithm 2 (``reconstructor``)
    exactly as in the pseudocode: the sample that completes a drifting
    window is also the first sample fed to ``Reconstruct_Model`` (line 21
    executes in the same loop iteration).
    """

    name = "proposed"
    #: Algorithm 1 mutates nothing for idle sub-threshold predictions;
    #: check-window rows and reconstruction steps are counted in
    #: :attr:`n_mutations`, so intervals without them skip the
    #: state-container rewrite.
    checkpoint_volatility = "quiet"

    def __init__(
        self,
        model: MultiInstanceModel,
        detector: SequentialDriftDetector,
        reconstructor: ModelReconstructor,
    ) -> None:
        super().__init__(model)
        if reconstructor.model is not model:
            raise ConfigurationError(
                "reconstructor must operate on the same model as the pipeline."
            )
        if reconstructor.centroids is not detector.centroids:
            raise ConfigurationError(
                "detector and reconstructor must share one CentroidSet."
            )
        self.detector = detector
        self.reconstructor = reconstructor

    def process_one(self, x: np.ndarray, y_true: Optional[int] = None) -> StepRecord:
        x = as_matrix(x, name="x", n_features=self.model.n_features)
        return self._process_chunk(x, (y_true,)).records()[0]

    def _process_chunk(self, Xc: np.ndarray, yc, scored=None) -> RecordBlock:
        # Lines 20-21: while the drift flag is up the stream drives
        # reconstruction.
        if self.detector.drift:
            return self._reconstruct_chunk(Xc, yc)
        # Lines 6-7 for the whole chunk at once, then lines 8-19 over the
        # scored rows. The check window never touches the model, so the
        # scores stay valid up to and including the row that raises the
        # drift flag; that row is also the first one Reconstruct_Model
        # sees (line 21 runs in the same loop iteration).
        labels, scores = self._score_chunk(Xc, scored)
        status = self.detector.update_chunk(Xc, labels, scores)
        block = self._detected_rows(labels, scores, yc, status)
        if self.detector.drift:
            block = self._then_reconstruct(block, Xc, yc)
        return block

    def _detected_rows(self, labels, scores, yc, status) -> RecordBlock:
        """Records of the rows Algorithm 1 consumed (``status``, one code
        per row), up to but excluding a row that raised the drift flag."""
        self.n_mutations += int(np.count_nonzero(status))
        n = len(status) - int(self.detector.drift)
        self.model.count_predictions(n)
        return self._record_rows(
            labels[:n], scores[:n], yc, _ROW_PHASES[status[:n]]
        )

    def _end_reconstruction(self) -> None:
        self.detector.end_drift()

    def prefers_batched_scoring(self) -> bool:
        # Reconstruction (the drift flag) trains on every sample; the
        # check window only updates detector statistics, so scores taken
        # up front stay valid through it, check window or not.
        return not self.detector.drift

    def state_nbytes(self) -> int:
        """Detector centroid state (the method's whole extra footprint)."""
        return self.detector.state_nbytes()

    def _guard_bypass(self) -> None:
        # Abandon any half-done reconstruction (nothing is promoted) and
        # close the detector's window/flag so Algorithm 1 restarts idle.
        self.reconstructor.abort()
        self.detector.end_drift()
        self.n_mutations += 1

    def _extra_state(self) -> dict:
        # The detector snapshot covers the shared CentroidSet.
        return {
            "detector": self.detector.get_state(),
            "reconstructor": self.reconstructor.get_state(),
        }

    def _set_extra_state(self, state: dict) -> None:
        self.detector.set_state(state["detector"])
        self.reconstructor.set_state(state["reconstructor"])


class BatchDetectorPipeline(StreamPipeline):
    """Active approach with a batch detector (Quant Tree / SPLL).

    Samples stream into the batch detector's buffer; when a full batch
    tests positive the pipeline switches to reconstruction (same
    Algorithm 2 machinery as the proposal, for a like-for-like accuracy
    comparison) and the detector's buffer is cleared.

    With ``refit_reference=True`` (default) the detector's reference
    window is rebuilt from the first ``batch_size`` samples that arrive
    after reconstruction completes — otherwise a stale reference keeps
    re-detecting the new (now adapted-to) concept every batch.
    """

    def __init__(
        self,
        model: MultiInstanceModel,
        detector: BatchDriftDetector,
        reconstructor: ModelReconstructor,
        *,
        refit_reference: bool = True,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(model)
        if reconstructor.model is not model:
            raise ConfigurationError(
                "reconstructor must operate on the same model as the pipeline."
            )
        self.detector = detector
        self.reconstructor = reconstructor
        self.refit_reference = bool(refit_reference)
        self.name = name or type(detector).__name__.lower()
        self._reconstructing = False
        self._refit_buffer: List[np.ndarray] = []
        self._refitting = False

    def _end_reconstruction(self) -> None:
        self._reconstructing = False
        self.detector.reset_stream()
        if self.refit_reference:
            self._refitting = True
            self._refit_buffer = []

    def _guard_bypass(self) -> None:
        # Drop reconstruction, any half-filled refit buffer, and the
        # detector's sample buffer — all built from now-suspect input.
        self.reconstructor.abort()
        self._reconstructing = False
        self._refitting = False
        self._refit_buffer = []
        self.detector.reset_stream()
        self.n_mutations += 1

    def process_one(self, x: np.ndarray, y_true: Optional[int] = None) -> StepRecord:
        x = as_matrix(x, name="x", n_features=self.model.n_features)
        return self._process_chunk(x, (y_true,)).records()[0]

    def _process_chunk(self, Xc: np.ndarray, yc, scored=None) -> RecordBlock:
        if self._reconstructing:
            return self._reconstruct_chunk(Xc, yc)
        # Buffering and refitting never touch the model, so the chunk is
        # scored at once; only a detection (which starts reconstruction)
        # ends it early.
        labels, scores = self._score_chunk(Xc, scored)
        if self._refitting:
            return self._refit_chunk(Xc, yc, labels, scores)
        n = len(labels)
        update_one = self.detector.update_one
        for j in range(n):
            if update_one(Xc[j]):
                self._reconstructing = True
                n = j
                break
        self.model.count_predictions(n)
        self.n_mutations += n
        block = self._record_rows(labels[:n], scores[:n], yc, _PREDICT)
        if self._reconstructing:
            block = self._then_reconstruct(block, Xc, yc)
        return block

    def _refit_chunk(self, Xc, yc, labels, scores) -> RecordBlock:
        """Collect the new reference window; the chunk ends when it fills."""
        batch = self.detector.batch_size
        take = min(len(labels), batch - len(self._refit_buffer))
        self._refit_buffer.extend(
            np.asarray(x, dtype=np.float64).ravel() for x in Xc[:take]
        )
        if len(self._refit_buffer) >= batch:
            self.detector.fit_reference(np.asarray(self._refit_buffer))
            self._refit_buffer = []
            self._refitting = False
            # The reference fits on the chunk's last row, whose index the
            # event names.
            self.telemetry.emit(
                "reference_refitted", pipeline=self.name, index=self._index + take - 1
            )
        self.model.count_predictions(take)
        self.n_mutations += take
        return self._record_rows(labels[:take], scores[:take], yc, _REFIT)

    def prefers_batched_scoring(self) -> bool:
        # The detector only buffers between batch tests; the model itself
        # mutates only during reconstruction.
        return not (self._reconstructing or self._refitting)

    def state_nbytes(self) -> int:
        """Batch-detector state incl. its sample buffer (Table 4's cost).

        Also counts the samples held in ``_refit_buffer`` while the
        reference window is being rebuilt — they are resident memory this
        method (and only this method) pays for.
        """
        nbytes = getattr(self.detector, "state_nbytes", None)
        total = int(nbytes()) if callable(nbytes) else 0
        return total + sum(int(s.nbytes) for s in self._refit_buffer)

    def _extra_state(self) -> dict:
        return {
            "detector": self.detector.get_state(),
            "reconstructor": self.reconstructor.get_state(),
            "centroids": self.reconstructor.centroids.get_state(),
            "reconstructing": bool(self._reconstructing),
            "refitting": bool(self._refitting),
            "refit_buffer": (
                np.asarray(self._refit_buffer) if self._refit_buffer else None
            ),
        }

    def _set_extra_state(self, state: dict) -> None:
        self.detector.set_state(state["detector"])
        self.reconstructor.set_state(state["reconstructor"])
        self.reconstructor.centroids.set_state(state["centroids"])
        self._reconstructing = bool(state["reconstructing"])
        self._refitting = bool(state["refitting"])
        buf = state["refit_buffer"]
        self._refit_buffer = (
            [] if buf is None else [row.copy() for row in np.asarray(buf)]
        )


class ErrorRatePipeline(StreamPipeline):
    """Supervised error-rate detection (DDM / ADWIN) + reconstruction.

    Requires ground-truth labels per sample (``y_true``) — exactly the
    requirement that makes this family "not suited to resource-limited
    edge devices" (§2.2.2); provided for ablation studies.
    """

    def __init__(
        self,
        model: MultiInstanceModel,
        detector: ErrorRateDriftDetector,
        reconstructor: ModelReconstructor,
        *,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(model)
        self.detector = detector
        self.reconstructor = reconstructor
        self.name = name or type(detector).__name__.lower()
        self._reconstructing = False

    def _end_reconstruction(self) -> None:
        # The detector reset must happen in *every* path that finishes a
        # reconstruction — including the one-shot case where it completes
        # within the detection sample itself — or stale DDM/ADWIN error
        # statistics re-fire immediately on the next sample.
        self._reconstructing = False
        self.detector.reset()

    def _guard_bypass(self) -> None:
        # Error-rate statistics accumulated on faulty predictions are
        # meaningless — restart the detector clean alongside the abort.
        self.reconstructor.abort()
        self._reconstructing = False
        self.detector.reset()
        self.n_mutations += 1

    def process_one(self, x: np.ndarray, y_true: Optional[int] = None) -> StepRecord:
        if y_true is None:
            raise ConfigurationError(
                f"{self.name} needs ground-truth labels (supervised detection)."
            )
        x = as_matrix(x, name="x", n_features=self.model.n_features)
        return self._process_chunk(x, (y_true,)).records()[0]

    def _process_chunk(self, Xc: np.ndarray, yc, scored=None) -> RecordBlock:
        if self._reconstructing:
            return self._reconstruct_chunk(Xc, yc)
        # The model is only mutated by reconstruction, so chunk scores stay
        # valid up to (and including) the sample that fires the detector;
        # the detector itself is still fed sample by sample.
        labels, scores = self._score_chunk(Xc, scored)
        predicted = labels.tolist()
        n = len(predicted)
        ys = _label_list(yc, n)
        update = self.detector.update
        for j in range(n):
            if update(predicted[j] != ys[j]) is DriftState.DRIFT:
                self._reconstructing = True
                n = j
                break
        self.model.count_predictions(n)
        self.n_mutations += n
        block = self._record_rows(labels[:n], scores[:n], yc, _PREDICT)
        if self._reconstructing:
            block = self._then_reconstruct(block, Xc, yc)
        return block

    def prefers_batched_scoring(self) -> bool:
        # DDM/ADWIN statistics update per sample but never touch the model.
        return not self._reconstructing

    def state_nbytes(self) -> int:
        nbytes = getattr(self.detector, "state_nbytes", None)
        return int(nbytes()) if callable(nbytes) else 0

    def _extra_state(self) -> dict:
        return {
            "detector": self.detector.get_state(),
            "reconstructor": self.reconstructor.get_state(),
            "centroids": self.reconstructor.centroids.get_state(),
            "reconstructing": bool(self._reconstructing),
        }

    def _set_extra_state(self, state: dict) -> None:
        self.detector.set_state(state["detector"])
        self.reconstructor.set_state(state["reconstructor"])
        self.reconstructor.centroids.set_state(state["centroids"])
        self._reconstructing = bool(state["reconstructing"])
