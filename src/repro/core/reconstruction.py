"""Model reconstruction — Algorithm 2 with Algorithms 3/4 as sub-steps.

When Algorithm 1 raises the drift flag, every subsequent sample is fed to
``Reconstruct_Model`` until it reports completion. Reconstruction runs four
phases over a budget of ``N`` samples:

1. ``count < n_search`` — **coordinate search**: Init_Coord (Algorithm 3)
   greedily adopts incoming samples as label coordinates so they spread
   out over the *new* distribution (k-means++-style seeding);
2. ``count < n_update`` — **coordinate refinement**: Update_Coord
   (Algorithm 4) runs sequential k-means steps ("since there is a
   possibility that initial coordinates selected by Init_Coord() are
   outliers, the centroids are further refined");
3. ``count < N/2`` — **centroid-labelled retraining**: the sample's label
   is the L1-nearest coordinate; the corresponding OS-ELM instance trains
   sequentially (Algorithm 2 lines 8-9 — "model retraining *without*
   label prediction" in Table 6);
4. ``count < N`` — **self-labelled retraining**: the label comes from the
   (partially retrained) discriminative model's own argmin-score
   prediction (lines 11-12 — "model retraining *with* label prediction").

Phase layout note: as printed, Algorithm 2 uses independent ``if`` s, so a
sample with ``count < N/2`` would train the model twice (once per labelling
rule). Table 6 however prices the two retraining modes as *separate*
per-sample costs, which implies disjoint phases; we therefore run phase 4
only for ``count ≥ N/2`` (and phases 1-2 as printed: they do overlap with
phase 3 by construction, since ``n_search < n_update ≤ N/2``). The
overlapping-literal behaviour is available via ``literal_overlap=True``.

On entry the reconstructor resets per-label counts to 1 (otherwise
Update_Coord could not move coordinates that carry thousands of training
samples of inertia) and — by default — resets each OS-ELM instance's ``P``
matrix to its ridge prior so sequential retraining adapts at initial-phase
speed (covariance resetting, standard for RLS tracking). On completion the
recent coordinates are promoted to the new trained centroids so the drift
rate re-anchors at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..oselm.ensemble import MultiInstanceModel
from ..utils.exceptions import ConfigurationError
from ..utils.hooks import default_telemetry
from ..utils.validation import as_vector, check_positive
from .coords import CentroidSet

if TYPE_CHECKING:  # type-only: core has no runtime telemetry dependency
    from ..telemetry import Telemetry

__all__ = ["ReconstructionStep", "ModelReconstructor"]


@dataclass(frozen=True)
class ReconstructionStep:
    """Outcome of feeding one sample to the reconstructor.

    ``still_reconstructing`` mirrors Algorithm 2's return value (True while
    the drift flag should stay raised). ``phase`` ∈ {"search", "update",
    "train_centroid", "train_predict", "finish"} names the dominant phase
    this step. ``label`` is the label used for training this sample (-1
    when the sample trained nothing, e.g. the final "finish" step).
    """

    still_reconstructing: bool
    phase: str
    label: int
    count: int


class ModelReconstructor:
    """Stateful Reconstruct_Model (Algorithm 2).

    Parameters
    ----------
    model:
        The multi-instance OS-ELM discriminative model to retrain.
    centroids:
        Shared coordinate state (the same object Algorithm 1 updates).
    n_total:
        ``N`` — samples consumed per reconstruction.
    n_search:
        ``N_search`` — Init_Coord budget (must be < ``n_update``).
    n_update:
        ``N_update`` — Update_Coord budget (must be ≤ ``N/2``).
    reset_covariance:
        Reset each instance's ``P`` to the ridge prior at reconstruction
        start (fast re-adaptation; see module docstring).
    literal_overlap:
        Run Algorithm 2's training blocks with the printed overlapping
        ``if`` semantics instead of disjoint phases.
    """

    def __init__(
        self,
        model: MultiInstanceModel,
        centroids: CentroidSet,
        *,
        n_total: int = 400,
        n_search: Optional[int] = None,
        n_update: Optional[int] = None,
        reset_covariance: bool = True,
        literal_overlap: bool = False,
    ) -> None:
        check_positive(n_total, "n_total")
        if n_total < 4:
            raise ConfigurationError("n_total must be >= 4.")
        self.model = model
        self.centroids = centroids
        self.n_total = int(n_total)
        self.n_search = int(n_search) if n_search is not None else max(
            2 * centroids.n_labels, self.n_total // 10
        )
        self.n_update = (
            int(n_update) if n_update is not None else (3 * self.n_total) // 8
        )
        if not 0 < self.n_search < self.n_update <= self.n_total // 2:
            raise ConfigurationError(
                f"need 0 < n_search ({self.n_search}) < n_update ({self.n_update})"
                f" <= n_total/2 ({self.n_total // 2})."
            )
        self.reset_covariance = bool(reset_covariance)
        self.literal_overlap = bool(literal_overlap)
        self.count = 0
        self.n_reconstructions = 0
        self._active = False
        #: telemetry hub (the process default; reassign for private capture)
        self.telemetry: Telemetry = default_telemetry()

    @property
    def is_active(self) -> bool:
        """True between the first sample of a reconstruction and its end."""
        return self._active

    # -- lifecycle hooks --------------------------------------------------------------

    def _begin(self) -> None:
        self._active = True
        self.count = 0
        # Coordinates must be movable: a count of 1 gives each label unit
        # inertia, like a freshly-seeded sequential k-means.
        self.centroids.reset_counts(1)
        if self.reset_covariance:
            for inst in self.model.instances:
                core = inst.core
                if core.is_fitted:
                    core.P = np.eye(core.n_hidden) / core.reg

    def _finish(self) -> None:
        self._active = False
        self.count = 0
        self.n_reconstructions += 1
        self.centroids.promote_recent_to_trained()

    def abort(self) -> None:
        """Abandon an in-flight reconstruction without promoting anything.

        The guard runtime calls this when the degradation ladder bypasses
        adaptation mid-reconstruction (the samples driving it are suspect):
        the partially-moved recent coordinates are left un-promoted — the
        next reconstruction re-seeds them — and the run does not count
        toward ``n_reconstructions``. A no-op when idle.
        """
        if not self._active:
            return
        self._active = False
        self.count = 0
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "reconstructor.aborts", "reconstructions abandoned by the guard"
            ).inc()

    # -- checkpoint protocol -----------------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot the reconstruction progress counters.

        The shared model/centroids are snapshotted by their owners; this
        covers only what the reconstructor itself mutates.
        """
        return {
            "count": int(self.count),
            "n_reconstructions": int(self.n_reconstructions),
            "active": bool(self._active),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        self.count = int(state["count"])
        self.n_reconstructions = int(state["n_reconstructions"])
        self._active = bool(state["active"])

    def state_nbytes(self) -> int:
        """Three scalar counters — the reconstructor stores no samples."""
        return 3 * 8

    # -- Algorithm 2 -------------------------------------------------------------------

    def process(
        self,
        x: np.ndarray,
        *,
        hidden: Optional[Sequence[np.ndarray]] = None,
        predicted: Optional[int] = None,
    ) -> ReconstructionStep:
        """Feed one sample; returns whether reconstruction continues.

        Mirrors Algorithm 2: increments ``count``, dispatches the sample
        to the phase-appropriate coordinate and training updates, and
        returns ``False`` (complete) exactly when ``count == N``.

        A caller that has already scored ``x`` can pass what it computed:
        ``hidden`` — the model's :meth:`~repro.oselm.ensemble.MultiInstanceModel.hidden_rows`
        row of ``x`` for each instance — and ``predicted`` — the model's
        argmin label for ``x`` before this step. Training then reuses
        them instead of re-running the random layers and rescoring a
        model that has not changed; both are derived from ``x`` when
        omitted. With ``hidden`` given, ``x`` must be the validated
        ``(n_features,)`` float64 row the hidden rows were computed from
        (the pipelines validate each chunk once); without it, ``x`` is
        validated here.
        """
        if not self._active:
            self._begin()
        self.count += 1
        count = self.count
        model = self.model
        centroids = self.centroids
        if hidden is None:
            x = as_vector(x, name="x", n_features=centroids.n_features)
            hidden = model.hidden_rows(x)

        phase = "train_predict"
        label = -1
        if count < self.n_search:
            centroids._init_coord(x)
            phase = "search"
        if count < self.n_update:
            centroids._update_coord(x)
            if phase == "train_predict":
                phase = "update"

        half = self.n_total // 2
        if count < half:
            # Lines 8-9: centroid-labelled training (no model prediction).
            label = model._train_hidden(hidden, x, centroids._nearest_label(x))
            if phase == "train_predict":
                phase = "train_centroid"
            if self.literal_overlap and count < self.n_total:
                # Second, self-labelled pass: the model just changed, so
                # the label comes from rescoring it.
                relabel = int(model.scores_hidden(hidden, x).argmin())
                label = model._train_hidden(hidden, x, relabel)
        elif count < self.n_total:
            # Lines 11-12: self-labelled training. Nothing has touched the
            # model since the caller scored x, so its argmin is the label.
            if predicted is None:
                predicted = int(model.scores_hidden(hidden, x).argmin())
            label = model._train_hidden(hidden, x, predicted)
        finished = count >= self.n_total
        tel = self.telemetry
        if tel.enabled:
            reg = tel.registry
            reg.counter(
                "reconstructor.samples",
                "reconstruction samples by phase",
                labels=("phase",),
            ).inc(phase="finish" if finished else phase)
            if finished:
                reg.counter(
                    "reconstructor.reconstructions", "completed reconstructions"
                ).inc()
        if finished:
            # Lines 13-15: budget exhausted — lower the flag; the N-th
            # sample itself is not trained on (count < N is false for it).
            self._finish()
            return ReconstructionStep(False, "finish", label, self.n_total)
        return ReconstructionStep(True, phase, label, count)
