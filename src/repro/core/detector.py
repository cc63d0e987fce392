"""The proposed fully-sequential drift detector — Algorithm 1's state machine.

Per test sample the detector receives the discriminative model's predicted
label ``c`` and anomaly score ``error`` (Algorithm 1, lines 6-7) and runs
lines 8-19:

* when idle, an anomaly score ``≥ θ_error`` opens a **check window** of
  ``W`` samples (lines 8-10);
* inside an open window every sample updates the recent centroid of its
  predicted label and the L1 drift rate (lines 11-15) — O(C·D) time,
  O(C·D) memory, no stored samples;
* when the window fills, ``dist ≥ θ_drift`` raises the **drift** flag
  (lines 16-19); the caller then drives model reconstruction
  (:mod:`repro.core.reconstruction`) until it reports completion and calls
  :meth:`SequentialDriftDetector.end_drift`.

The detector itself never stores past samples — the paper's entire memory
argument (Table 4) rests on this property, which the tests assert via
:meth:`state_nbytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.hooks import default_telemetry
from ..utils.validation import check_positive
from .coords import CentroidSet

if TYPE_CHECKING:  # type-only: core has no runtime telemetry dependency
    from ..telemetry import Telemetry

__all__ = [
    "DetectorStep",
    "SequentialDriftDetector",
    "ROW_IDLE",
    "ROW_CHECK",
    "ROW_CLOSED",
]

#: Per-row codes returned by :meth:`SequentialDriftDetector.update_chunk`.
ROW_IDLE, ROW_CHECK, ROW_CLOSED = 0, 1, 2


@dataclass(frozen=True)
class DetectorStep:
    """Outcome of feeding one sample to the detector.

    Attributes
    ----------
    drift_detected:
        True on the exact sample whose full window crossed ``θ_drift``.
    drifting:
        True while the drift flag is raised (until ``end_drift``).
    checking:
        True while a check window is open (after this sample).
    window_count:
        ``win`` after this sample (0 when idle).
    distance:
        Current drift rate ``dist`` (L1 centroid displacement sum).
    """

    drift_detected: bool
    drifting: bool
    checking: bool
    window_count: int
    distance: float


class SequentialDriftDetector:
    """Algorithm 1 (lines 2-19) over a :class:`CentroidSet`.

    Parameters
    ----------
    centroids:
        Trained/recent centroid state (Require: ``cor``, ``train_cor``,
        ``num``).
    window_size:
        ``W`` — samples per check window (paper sweeps 10-1000).
    theta_error:
        Anomaly-score trigger ``θ_error`` opening a check window.
    theta_drift:
        Drift-rate threshold ``θ_drift`` (Eq. 1).
    """

    def __init__(
        self,
        centroids: CentroidSet,
        *,
        window_size: int,
        theta_error: float,
        theta_drift: float,
    ) -> None:
        if not isinstance(centroids, CentroidSet):
            raise ConfigurationError("centroids must be a CentroidSet.")
        check_positive(window_size, "window_size")
        check_positive(theta_error, "theta_error", strict=False)
        check_positive(theta_drift, "theta_drift", strict=False)
        self.centroids = centroids
        self.window_size = int(window_size)
        self.theta_error = float(theta_error)
        self.theta_drift = float(theta_drift)
        # Algorithm 1 lines 2-3.
        self.drift = False
        self.check = False
        self._win = 0
        self.last_distance = 0.0
        #: total check windows opened / drifts flagged (diagnostics)
        self.n_windows_opened = 0
        self.n_drifts = 0
        #: telemetry hub (the process default; reassign for private capture)
        self.telemetry: Telemetry = default_telemetry()

    @property
    def window_count(self) -> int:
        """Current ``win`` counter."""
        return self._win

    def update(self, x: np.ndarray, label: int, error: float) -> DetectorStep:
        """Feed one sample with its predicted label and anomaly score.

        Implements lines 5-19 of Algorithm 1 as the one-row case of
        :meth:`update_chunk`. While the drift flag is raised the detector
        is inert (the caller is reconstructing the model); it resumes
        after :meth:`end_drift`.
        """
        was_drifting = self.drift
        self.update_chunk(np.reshape(x, (1, -1)), (label,), (error,))
        return DetectorStep(
            drift_detected=self.drift and not was_drifting,
            drifting=self.drift,
            checking=self.check,
            window_count=self._win,
            distance=self.last_distance,
        )

    def update_chunk(
        self, X: np.ndarray, labels: np.ndarray, errors: np.ndarray
    ) -> np.ndarray:
        """Run Algorithm 1 (lines 5-19) over scored rows, in order.

        ``labels``/``errors`` are the model's predictions for ``X``. The
        call stops after the row that raises the drift flag — the caller
        reconstructs from the next row on — or after the last row, and
        returns one code per row it consumed: :data:`ROW_IDLE` (the row
        touched nothing), :data:`ROW_CHECK` (it updated the recent
        centroids and the window is still open after it) or
        :data:`ROW_CLOSED` (it updated them and closed the window, with
        or without drift). While the drift flag is raised every row is
        idle.

        Idle rows are skipped with one vectorised threshold search per
        window (:meth:`_plan`); the chunk is validated once, when it has
        window rows, and window rows are folded into the centroids one
        by one. The drift rate is evaluated when a window closes and once
        at the end of the call, so :attr:`last_distance` is exact
        whenever control returns to the caller.
        :func:`repro.core.lockstep.update_chunk_group` runs the same
        steps for many detectors at once.
        """
        n = len(X)
        errors = np.asarray(errors, dtype=np.float64)
        labels = np.asarray(labels)
        if labels.shape != (n,) or errors.shape != (n,):
            raise ConfigurationError(
                f"need one label and one score per row: {n} rows, "
                f"labels {labels.shape}, scores {errors.shape}."
            )
        status = np.full(n, ROW_IDLE, dtype=np.int8)
        if self.drift:
            return status
        segments, absorb = self._plan(errors)
        if absorb is not None:
            # An open window that is already full (only a hand-made
            # state gets here) absorbs rows without updating.
            status[absorb:] = ROW_CHECK
        if not segments:
            return status
        centroids = self.centroids
        tel = self.telemetry
        traced = tel.enabled
        rows, X = centroids._check_rows(labels, X)
        for j, take, opened, closes in segments:
            if opened:
                self._open_window()
                if traced:
                    self._telemetry_opened(tel, float(errors[j]))
            # Lines 12-15: sequential centroid updates for the window rows.
            centroids._fold_rows(rows[j : j + take], X[j : j + take])
            status[j : j + take] = ROW_CHECK
            self._win += take
            if closes:
                status[j + take - 1] = ROW_CLOSED
                drift = self._close_window(centroids.drift_distance())
                if traced:
                    self._telemetry_closed(tel, drift)
                if drift:
                    status = status[: j + take]
                    break
        if not closes:
            self.last_distance = centroids.drift_distance()
        if traced:
            tel.registry.gauge(
                "detector.distance", "current L1 centroid drift rate (Eq. 1 numerator)"
            ).set(self.last_distance)
        return status

    def _plan(self, errors: np.ndarray):
        """Where lines 8-16 fold and close windows over scored rows.

        Returns ``(segments, absorb)``: one ``(start, take, opened,
        closes)`` per run of window rows, in order — ``opened`` when the
        run opens a window (lines 8-10), ``closes`` when it fills one
        (line 16) — assuming no close raises the drift flag; and the row
        from which an already-full window absorbs the rest, or ``None``.
        Which rows are window rows depends on the scores alone; only the
        drift decision at a close needs the folded centroids, and a
        drift ends the chunk at that close. Mutates nothing.
        """
        n = len(errors)
        window = self.window_size
        check, win = self.check, self._win
        segments = []
        j = 0
        while j < n:
            opened = not check
            if opened:
                # Lines 8-10: open a window on the next anomalous score.
                hits = np.flatnonzero(errors[j:] >= self.theta_error)
                if not len(hits):
                    break
                j += int(hits[0])
                check, win = True, 0
            take = min(window - win, n - j)
            if take <= 0:
                return segments, j
            win += take
            closes = win == window
            segments.append((j, take, opened, closes))
            j += take
            if closes:
                check, win = False, 0
        return segments, None

    def _open_window(self) -> None:
        """Lines 9-10: the check flag goes up on an anomalous score."""
        self.check = True
        self._win = 0
        self.n_windows_opened += 1

    def _close_window(self, distance: float) -> bool:
        """Lines 16-19 for a full window with drift rate ``distance``;
        returns whether it raised the drift flag."""
        self.last_distance = distance
        self.check = False
        if distance >= self.theta_drift:
            self.drift = True
            self.n_drifts += 1
            return True
        # Idle again: ``win`` honours its "0 when idle" contract (on
        # drift, ``end_drift`` resets it).
        self._win = 0
        return False

    def _telemetry_opened(self, tel: Telemetry, error: float) -> None:
        tel.registry.counter(
            "detector.windows_opened", "check windows opened (θ_error crossings)"
        ).inc()
        tel.emit("window_opened", window=self.n_windows_opened, score=error)

    def _telemetry_closed(self, tel: Telemetry, drift_detected: bool) -> None:
        reg = tel.registry
        reg.counter(
            "detector.windows_closed", "check windows closed", labels=("drift",)
        ).inc(drift=drift_detected)
        if drift_detected:
            reg.counter(
                "detector.drifts", "drift flags raised (θ_drift crossings)"
            ).inc()
        tel.emit(
            "window_closed",
            window=self.n_windows_opened,
            drift=drift_detected,
            distance=self.last_distance,
            threshold=self.theta_drift,
        )

    def end_drift(self) -> None:
        """Lower the drift flag (Reconstruct_Model returned False)."""
        self.drift = False
        self.check = False
        self._win = 0

    def state_nbytes(self) -> int:
        """Centroid state + a few scalars — no sample storage, ever."""
        return self.centroids.state_nbytes() + 6 * 8

    # -- checkpoint protocol -----------------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot the Algorithm 1 state machine, its centroids and the
        two thresholds calibrated from the initial-training data."""
        return {
            "centroids": self.centroids.get_state(),
            "theta_error": float(self.theta_error),
            "theta_drift": float(self.theta_drift),
            "drift": bool(self.drift),
            "check": bool(self.check),
            "win": int(self._win),
            "last_distance": float(self.last_distance),
            "n_windows_opened": int(self.n_windows_opened),
            "n_drifts": int(self.n_drifts),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        self.centroids.set_state(state["centroids"])
        self.theta_error = float(state["theta_error"])
        self.theta_drift = float(state["theta_drift"])
        self.drift = bool(state["drift"])
        self.check = bool(state["check"])
        self._win = int(state["win"])
        self.last_distance = float(state["last_distance"])
        self.n_windows_opened = int(state["n_windows_opened"])
        self.n_drifts = int(state["n_drifts"])
