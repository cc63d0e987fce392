"""Centroid bookkeeping — Algorithms 3 & 4 and the drift-rate distance.

This module owns the paper's per-label coordinate state:

* ``trained`` centroids — frozen means of the initial-training data per
  label (Figure 3(b));
* ``recent`` centroids ``cor`` with per-label sample counts ``num`` —
  sequentially updated from predicted test samples (Figure 3(c)/(d));
* the **drift rate** ``dist = Σ_i Σ_j |cor[i][j] − train_cor[i][j]|``
  (Algorithm 1, line 14) — an L1 distance, cheap on FPU-less MCUs;
* ``init_coord`` (Algorithm 3) — greedy spread-maximising adoption of an
  incoming sample as a label coordinate, inspired by k-means++;
* ``update_coord`` (Algorithm 4) — one sequential k-means step: assign to
  the L1-nearest coordinate, then exact running-mean update.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.validation import as_matrix, as_vector, check_labels, check_positive

__all__ = ["CentroidSet", "init_coord_rows"]


def _total_pairwise_l1(coords: np.ndarray) -> float:
    """Σ_{j<k} |coords[j] − coords[k]|₁ over all coordinate pairs."""
    total = 0.0
    for j in range(len(coords) - 1):
        total += float(np.abs(coords[j + 1 :] - coords[j]).sum())
    return total


def init_coord_rows(recent: np.ndarray, x: np.ndarray) -> int:
    """Algorithm 3 on a ``(C, D)`` array of recent coordinates, in place.

    ``x`` is a validated row. Returns the index replaced, or -1.
    """
    best_label = -1
    best = _total_pairwise_l1(recent)
    for c in range(len(recent)):
        saved = recent[c].copy()
        recent[c] = x
        d = _total_pairwise_l1(recent)
        recent[c] = saved
        if d > best:
            best = d
            best_label = c
    if best_label != -1:
        recent[best_label] = x
    return best_label


class CentroidSet:
    """Trained + recent centroids for ``C`` labels in ``D`` dimensions.

    Parameters
    ----------
    trained:
        ``(C, D)`` frozen trained centroids.
    counts:
        Initial per-label sample counts ``num`` (Algorithm 1's Require).
        The recent centroids start as copies of the trained ones, so the
        drift rate starts at exactly 0.
    max_count:
        Optional cap on the effective count used in the running-mean
        update. ``None`` keeps the exact arithmetic mean of Algorithm 4;
        a finite cap implements the recency weighting the paper sanctions
        in §3.2 ("assign a higher weight to a newer sample ... so that
        they can represent 'recent' test centroids"): once ``num[c]``
        reaches the cap, each update behaves like an EWMA with weight
        ``1 / (max_count + 1)``, bounding the centroids' inertia on long
        streams.
    """

    def __init__(
        self,
        trained: np.ndarray,
        counts: np.ndarray,
        *,
        max_count: Optional[int] = None,
    ) -> None:
        trained = as_matrix(trained, name="trained")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(trained),):
            raise ConfigurationError(
                f"counts must have shape ({len(trained)},), got {counts.shape}."
            )
        if np.any(counts < 0):
            raise ConfigurationError("counts must be non-negative.")
        if max_count is not None:
            check_positive(max_count, "max_count")
        self.max_count = None if max_count is None else int(max_count)
        self.trained = trained.copy()
        self.trained.setflags(write=False)
        self.recent = trained.copy()
        self.counts = counts.copy()
        self._trained_counts = counts.copy()

    # -- constructors --------------------------------------------------------------

    @classmethod
    def from_labelled_data(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        n_labels: Optional[int] = None,
        *,
        max_count: Optional[int] = None,
    ) -> "CentroidSet":
        """Compute trained centroids as per-label means of ``(X, y)``.

        Labels may come from ground truth or a clustering pass (the paper
        assumes k-means labelling in the unsupervised case, §3.2).
        """
        X = as_matrix(X, name="X")
        y = check_labels(y, name="y")
        if len(X) != len(y):
            raise ConfigurationError(
                f"X has {len(X)} samples but y has {len(y)} labels."
            )
        C = int(n_labels) if n_labels is not None else int(y.max()) + 1
        check_positive(C, "n_labels")
        if y.size and y.max() >= C:
            raise ConfigurationError(
                f"labels reach {int(y.max())} but n_labels is {C}."
            )
        centroids = np.zeros((C, X.shape[1]))
        counts = np.bincount(y, minlength=C)
        if np.any(counts == 0):
            missing = np.flatnonzero(counts == 0).tolist()
            raise ConfigurationError(f"labels {missing} have no samples.")
        np.add.at(centroids, y, X)
        centroids /= counts[:, None]
        return cls(centroids, counts, max_count=max_count)

    # -- basic properties --------------------------------------------------------------

    @property
    def n_labels(self) -> int:
        return self.trained.shape[0]

    @property
    def n_features(self) -> int:
        return self.trained.shape[1]

    @property
    def count_cap(self) -> int:
        """``max_count``, or the largest int64 when uncapped (never reached)."""
        return np.iinfo(np.int64).max if self.max_count is None else self.max_count

    # -- Algorithm 1 lines 12-14 -----------------------------------------------------

    def update(self, label: int, x: np.ndarray) -> None:
        """Sequential recent-centroid update for one predicted sample.

        ``cor[c] ← (cor[c]·num[c] + x) / (num[c] + 1)``, ``num[c] += 1``.
        """
        x = as_vector(x, name="x", n_features=self.n_features)
        self.update_rows((label,), x[None, :])

    def update_rows(self, labels: np.ndarray, X: np.ndarray) -> None:
        """:meth:`update` for each ``(labels[i], X[i])`` in order.

        The rows are validated once for the whole block; the running
        means are still folded in one sample at a time, so the result is
        bit-identical to calling :meth:`update` per row.
        """
        self._fold_rows(*self._check_rows(labels, X))

    def _check_rows(self, labels, X):
        """Validate a block for :meth:`_fold_rows`: returns ``(labels as a
        list of in-range ints, X as a finite (n, D) float matrix)``."""
        X = as_matrix(X, name="X", n_features=self.n_features)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (len(X),):
            raise ConfigurationError(
                f"got {labels.size} labels for {len(X)} rows."
            )
        if labels.min() < 0 or labels.max() >= self.n_labels:
            bad = int(labels[(labels < 0) | (labels >= self.n_labels)][0])
            raise ConfigurationError(
                f"label {bad} out of range [0, {self.n_labels})."
            )
        return labels.tolist(), X

    def _fold_rows(self, labels, X) -> None:
        """:meth:`update_rows` on validated rows: ``labels`` are in-range
        ints, ``X`` iterates over finite ``(D,)`` float rows."""
        rows = list(self.recent)  # one view per label, made once
        counts = self.counts.tolist()
        cap = self.max_count
        if cap is None:
            cap = len(X) + max(counts)  # never reached in this call
        for label, x in zip(labels, X):
            n = counts[label]
            counts[label] = n + 1
            if n > cap:
                n = cap
            row = rows[label]
            if n:
                # (row·n + x) / (n + 1), in place: the same three roundings.
                # n is exact as a float, and ufuncs take a float faster.
                f = float(n)
                row *= f
                row += x
                row /= f + 1.0
            else:
                row[:] = x
        self.counts[:] = counts

    def drift_distance(self) -> float:
        """Drift rate: total L1 distance between recent and trained centroids."""
        return float(np.abs(self.recent - self.trained).sum())

    def sample_distance(self, label: int, x: np.ndarray, *, which: str = "trained") -> float:
        """L1 distance from a sample to the trained (or recent) centroid of ``label``."""
        x = as_vector(x, name="x", n_features=self.n_features)
        ref = self.trained if which == "trained" else self.recent
        return float(np.abs(ref[label] - x).sum())

    # -- Algorithm 3: Init_Coord ---------------------------------------------------------

    def init_coord(self, x: np.ndarray) -> int:
        """Greedy spread-maximising coordinate adoption (Algorithm 3).

        Tries replacing each recent coordinate with ``x``; adopts the
        replacement that maximises the total pairwise inter-coordinate L1
        distance, provided it beats the current spread. Returns the index
        replaced, or -1 when ``x`` was not adopted.
        """
        return self._init_coord(as_vector(x, name="x", n_features=self.n_features))

    def _init_coord(self, x: np.ndarray) -> int:
        """:meth:`init_coord` for a validated row."""
        return init_coord_rows(self.recent, x)

    # -- Algorithm 4: Update_Coord ----------------------------------------------------------

    def update_coord(self, x: np.ndarray) -> int:
        """One sequential k-means step (Algorithm 4). Returns the label.

        Assigns ``x`` to the L1-nearest recent coordinate and applies the
        exact running-mean update to that coordinate.
        """
        return self._update_coord(as_vector(x, name="x", n_features=self.n_features))

    def nearest_label(self, x: np.ndarray) -> int:
        """``argmin_c |cor[c] − x|₁`` (used by Algorithms 2 and 4)."""
        return self._nearest_label(as_vector(x, name="x", n_features=self.n_features))

    # -- unchecked steps for validated rows ------------------------------------------------
    #
    # Reconstruction validates its chunk once and then runs these per row;
    # each does exactly what its public counterpart does after validation.

    def _nearest_label(self, x: np.ndarray) -> int:
        return int(np.add.reduce(np.abs(self.recent - x), axis=1).argmin())

    def _update_coord(self, x: np.ndarray) -> int:
        label = self._nearest_label(x)
        self._fold_rows((label,), (x,))
        return label

    # -- lifecycle ---------------------------------------------------------------------------

    def reset_recent(self) -> None:
        """Snap recent centroids/counts back to the trained state."""
        self.recent = self.trained.copy()
        self.counts = self._trained_counts.copy()

    def reset_counts(self, value: int = 1) -> None:
        """Set every ``num[c]`` to ``value`` (used at reconstruction start
        so Update_Coord can actually move the coordinates)."""
        check_positive(value, "value", strict=False)
        self.counts[:] = int(value)

    def promote_recent_to_trained(self) -> None:
        """Adopt the recent coordinates as the new trained centroids.

        Called after a successful model reconstruction: the re-learned
        coordinates become the new reference against which future drift
        rates are measured, and the drift rate drops back to 0.
        """
        self.trained = self.recent.copy()
        self.trained.setflags(write=False)
        self._trained_counts = self.counts.copy()

    def state_nbytes(self) -> int:
        """Resident bytes: two ``(C, D)`` float matrices + counts.

        This is the entire per-stream memory of the proposed detection
        method — the asset behind Table 4's 69 kB row.
        """
        return int(self.trained.nbytes + self.recent.nbytes + self.counts.nbytes)

    # -- checkpoint protocol -----------------------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot every mutable field (trained/recent/counts)."""
        return {
            "trained": self.trained.copy(),
            "recent": self.recent.copy(),
            "counts": self.counts.copy(),
            "trained_counts": self._trained_counts.copy(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot onto *this* object.

        Fields are reassigned in place so components sharing the
        CentroidSet by identity (the proposed pipeline's detector and
        reconstructor) keep sharing it after a restore.
        """
        trained = np.asarray(state["trained"], dtype=np.float64)
        recent = np.asarray(state["recent"], dtype=np.float64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        trained_counts = np.asarray(state["trained_counts"], dtype=np.int64)
        if (
            trained.shape != self.trained.shape
            or recent.shape != trained.shape
            or counts.shape != (len(trained),)
            or trained_counts.shape != (len(trained),)
        ):
            raise ConfigurationError(
                f"centroid state shapes {trained.shape}/{recent.shape}/"
                f"{counts.shape} do not match this CentroidSet "
                f"({self.trained.shape})."
            )
        self.trained = trained.copy()
        self.trained.setflags(write=False)
        self.recent = recent.copy()
        self.counts = counts.copy()
        self._trained_counts = trained_counts.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CentroidSet(C={self.n_labels}, D={self.n_features}, "
            f"drift={self.drift_distance():.4f})"
        )
