"""Multi-instance discriminative model (paper §3.1, Figure 2).

"The same number of OS-ELM based neural networks (called 'instances') as
the number of labels in the training dataset are used. For each label ...
a discriminative model instance is trained with the data belonging to the
label. ... the smallest anomaly score among all the instances is used as
the final prediction result. For the sequential training, a single model
instance that outputs the smallest anomaly score (i.e. the 'closest'
instance) trains the input data sequentially."

Constructed with ``forgetting_factor`` set, this same class *is* the
paper's ONLAD baseline (passive approach): forgetting autoencoder instances
continuously retrained on every sample.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..telemetry import Telemetry, get_telemetry
from ..utils.exceptions import ConfigurationError, NotFittedError
from ..utils.rng import SeedLike, spawn_rngs
from ..utils.validation import as_matrix, as_vector, check_labels, check_positive
from .autoencoder import ErrorMetric, OSELMAutoencoder

__all__ = ["MultiInstanceModel"]


class MultiInstanceModel:
    """One OS-ELM autoencoder per label; predict = argmin anomaly score.

    Parameters
    ----------
    n_features, n_hidden:
        Autoencoder geometry, shared by all instances.
    n_labels:
        Number of instances ``C``.
    forgetting_factor:
        ``None`` → plain OS-ELM instances (the paper's active-approach
        discriminative model); a float in (0, 1] → ONLAD-style instances.
    error_metric, activation, weight_scale, reg:
        Forwarded to each :class:`OSELMAutoencoder`.
    seed:
        One seed reproduces the whole ensemble (independent child RNGs per
        instance).
    """

    def __init__(
        self,
        n_features: int,
        n_hidden: int,
        n_labels: int,
        *,
        forgetting_factor: float | None = None,
        error_metric: ErrorMetric = "mse",
        activation: str = "sigmoid",
        weight_scale: float = 1.0,
        reg: float = 1e-3,
        seed: SeedLike = None,
    ) -> None:
        check_positive(n_labels, "n_labels")
        rngs = spawn_rngs(seed, n_labels)
        self.instances: list[OSELMAutoencoder] = [
            OSELMAutoencoder(
                n_features,
                n_hidden,
                error_metric=error_metric,
                forgetting_factor=forgetting_factor,
                activation=activation,
                weight_scale=weight_scale,
                reg=reg,
                seed=rngs[c],
            )
            for c in range(n_labels)
        ]
        self.n_features = int(n_features)
        self.n_hidden = int(n_hidden)
        self.n_labels = int(n_labels)
        self.forgetting_factor = forgetting_factor
        #: telemetry hub (the process default; reassign for private capture)
        self.telemetry: Telemetry = get_telemetry()

    @property
    def is_fitted(self) -> bool:
        return all(inst.is_fitted for inst in self.instances)

    # -- training ---------------------------------------------------------------

    def fit_initial(self, X: np.ndarray, y: np.ndarray) -> "MultiInstanceModel":
        """Initial phase: train instance ``c`` on the samples labelled ``c``.

        Labels may come from ground truth or from a clustering algorithm
        (the paper assumes k-means labelling for the unsupervised case).
        Every label must contribute at least one sample.
        """
        X = as_matrix(X, name="X", n_features=self.n_features)
        y = check_labels(y, n_classes=self.n_labels, name="y")
        if len(X) != len(y):
            raise ConfigurationError(
                f"X has {len(X)} samples but y has {len(y)} labels."
            )
        for c in range(self.n_labels):
            Xc = X[y == c]
            if len(Xc) == 0:
                raise ConfigurationError(
                    f"label {c} has no initial-training samples."
                )
            self.instances[c].fit_initial(Xc)
        return self

    def partial_fit_one(self, x: np.ndarray, label: Optional[int] = None) -> int:
        """Sequentially train one instance on one sample.

        With ``label=None`` the closest (lowest-score) instance trains —
        the paper's self-labelled mode; otherwise the given instance
        trains (the centroid-labelled mode of Algorithm 2's third part).
        Returns the index of the instance that was trained.
        """
        x = as_vector(x, name="x", n_features=self.n_features)
        if label is None:
            label = self.predict_one(x)
        elif not 0 <= label < self.n_labels:
            raise ConfigurationError(
                f"label {label} out of range [0, {self.n_labels})."
            )
        self.instances[label].partial_fit_one(x)
        self._count_training(label)
        return int(label)

    def _train_hidden(self, hidden: Sequence[np.ndarray], x: np.ndarray, label: int) -> int:
        """:meth:`partial_fit_one` for a sample whose hidden rows are known.

        ``hidden`` is :meth:`hidden_rows` for ``x`` (one ``(1, n_hidden)``
        row per instance); instance ``label`` trains with its own rank-1
        step on its row. Unchecked: for a fitted model, an in-range int
        ``label`` and a validated 1-D ``x``. Returns ``label``.
        """
        self.instances[label].core._step_hidden(hidden[label], x)
        self._count_training(label)
        return label

    def _count_training(self, label: int) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "oselm.train", "sequential training steps", labels=("instance",)
            ).inc(instance=label)

    # -- inference ----------------------------------------------------------------

    def scores_one(self, x: np.ndarray) -> np.ndarray:
        """Anomaly score of each instance for one sample, shape ``(C,)``."""
        if not self.is_fitted:
            raise NotFittedError(self, "scores_one")
        x = as_vector(x, name="x", n_features=self.n_features)
        return np.array([inst.score_one(x) for inst in self.instances])

    def predict_one(self, x: np.ndarray) -> int:
        """Label of the instance with the smallest anomaly score."""
        return int(self.scores_one(x).argmin())

    def predict_with_score(self, x: np.ndarray) -> tuple[int, float]:
        """``(label, anomaly_score)`` — Algorithm 1 lines 6-7 in one pass."""
        scores = self.scores_one(x)
        c = int(scores.argmin())
        self.count_predictions(1)
        return c, float(scores[c])

    def hidden_rows(self, X: np.ndarray) -> list[np.ndarray]:
        """Each instance's hidden rows for ``X``: a list of ``(n, n_hidden)``.

        Computed with the row-stable ``transform_rowwise`` kernel, so row
        ``i`` of instance ``c`` is bit-identical to its ``transform_one``
        of ``X[i]``. The random layers never change, so the rows stay
        valid while the model trains on the chunk.
        """
        X = as_matrix(X, name="X", n_features=self.n_features)
        return [inst.core.layer.transform_rowwise(X) for inst in self.instances]

    def scores_hidden(self, hidden: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
        """:meth:`scores_one` for a validated ``x`` with known hidden rows
        (one ``(1, n_hidden)`` row per instance, or their ``(C, 1, n_hidden)``
        stack); bit-identical to it.

        The instances are scored in one stacked product, which issues
        each instance's own ``(1, h) @ (h, d)`` product, followed by the
        row-wise error of :meth:`OSELMAutoencoder.score_rowwise`.
        """
        betas = np.array([inst.core.beta for inst in self.instances])
        R = np.matmul(np.asarray(hidden), betas)[:, 0, :]
        return self.instances[0]._row_errors(R, x)

    def count_predictions(self, n: int) -> None:
        """Add ``n`` to the ``oselm.predict`` counter (telemetry on)."""
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter("oselm.predict", "label predictions").inc(n)

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Batch anomaly scores, shape ``(n, C)`` (vectorised)."""
        if not self.is_fitted:
            raise NotFittedError(self, "scores")
        X = as_matrix(X, name="X", n_features=self.n_features)
        return np.column_stack([inst.score(X) for inst in self.instances])

    def scores_rowwise(self, X: np.ndarray) -> np.ndarray:
        """Batch scores, shape ``(n, C)``, bit-identical per row to
        :meth:`scores_one`.

        Unlike :meth:`scores` (one big GEMM per instance, fastest but off
        by an ulp from the per-sample path), this uses the row-stable
        kernels so ``scores_rowwise(X)[i] == scores_one(X[i])`` exactly —
        the property the chunked streaming fast path is built on.
        """
        if not self.is_fitted:
            raise NotFittedError(self, "scores_rowwise")
        X = as_matrix(X, name="X", n_features=self.n_features)
        return np.column_stack([inst.score_rowwise(X) for inst in self.instances])

    def predict_with_score_batch(
        self, X: np.ndarray, *, count: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``(labels, anomaly_scores)`` for a whole chunk.

        Equivalent to ``[predict_with_score(x) for x in X]`` — same argmin
        tie-breaking, same floats to the last bit — but computed with
        matrix ops instead of a per-sample Python loop. Returns
        ``(n,)`` int labels and ``(n,)`` float scores.

        ``count=False`` leaves the ``oselm.predict`` counter to the
        caller: a streaming pipeline whose chunk ends early (at a drift)
        scores the rest again later, so it counts through
        :meth:`count_predictions` only the rows it consumed.
        """
        S = self.scores_rowwise(X)
        labels = S.argmin(axis=1)
        if count:
            self.count_predictions(len(S))
        return labels, S[np.arange(len(S)), labels]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch argmin-score labels, shape ``(n,)``."""
        return self.scores(X).argmin(axis=1)

    @staticmethod
    def score_batch_many(
        models: Sequence["MultiInstanceModel"],
        X: np.ndarray,
        owners: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One forward pass scoring rows owned by *different* models.

        ``X`` stacks pending rows from many devices; ``owners[i]`` is the
        index into ``models`` of the model that owns row ``i``. Every
        model must share the first model's random-layer weights (the
        fleet's :func:`~repro.fleet.batching.model_signature` guarantees
        this) so the hidden activation ``H`` is computed once, while the
        learned betas are stacked into a 3-D tensor and gathered per row.
        Per-row results are bit-identical to each owner's
        :meth:`predict_with_score_batch` — row ``i`` issues the same
        ``(1, h) @ (h, d)`` product against the same beta as the
        per-device path.

        Returns ``(labels, scores)`` of shape ``(n,)`` each.
        """
        if not models:
            raise ConfigurationError("score_batch_many needs at least one model.")
        first = models[0]
        X = as_matrix(X, name="X", n_features=first.n_features)
        owners = np.asarray(owners, dtype=np.intp)
        if owners.shape != (len(X),):
            raise ConfigurationError(
                f"owners must be shape ({len(X)},), got {owners.shape}."
            )
        for model in models:
            if not model.is_fitted:
                raise NotFittedError(model, "score_batch_many")
        S = np.empty((len(X), first.n_labels), dtype=np.float64)
        for c in range(first.n_labels):
            S[:, c] = OSELMAutoencoder.score_batch_many(
                [model.instances[c] for model in models], X, owners
            )
        labels = S.argmin(axis=1)
        # No oselm.predict increment here: a prediction is counted when a
        # pipeline consumes its row, so batched and sequential runs report
        # identical counters.
        return labels, S[np.arange(len(S)), labels]

    def state_nbytes(self) -> int:
        """Total resident learned-state bytes across instances."""
        return sum(inst.state_nbytes() for inst in self.instances)

    # -- checkpoint protocol -----------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot every instance's learned state."""
        return {"instances": [inst.get_state() for inst in self.instances]}

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        instances = state["instances"]
        if len(instances) != self.n_labels:
            raise ConfigurationError(
                f"state has {len(instances)} instances, model has {self.n_labels}."
            )
        for inst, inst_state in zip(self.instances, instances):
            inst.set_state(inst_state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "" if self.forgetting_factor is None else f", α={self.forgetting_factor}"
        return (
            f"MultiInstanceModel(C={self.n_labels}, "
            f"{self.n_features}-{self.n_hidden}-{self.n_features}{tag})"
        )
