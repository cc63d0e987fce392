"""OS-ELM autoencoder for unsupervised anomaly scoring (paper §3.1).

Each discriminative-model instance "forms an autoencoder for unsupervised
anomaly detection. That is, the numbers of input and output layer nodes
... are the same, and each instance is trained so that its output can
reconstruct a given input data with a smaller number of hidden nodes."
The anomaly score is the reconstruction error between input and output.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.rng import SeedLike
from ..utils.validation import as_matrix
from .forgetting import ForgettingOSELM
from .oselm import OSELM

__all__ = ["OSELMAutoencoder"]

ErrorMetric = Literal["mse", "mae"]


class OSELMAutoencoder:
    """Autoencoder built on an (optionally forgetting) OS-ELM core.

    Parameters
    ----------
    n_features:
        Input == output dimensionality.
    n_hidden:
        Bottleneck width (22 in both of the paper's configurations).
    error_metric:
        ``"mse"`` (default) or ``"mae"`` reconstruction error.
    forgetting_factor:
        ``None`` → plain OS-ELM; otherwise builds a
        :class:`~repro.oselm.forgetting.ForgettingOSELM` core (this is how
        ONLAD instances are constructed).
    """

    def __init__(
        self,
        n_features: int,
        n_hidden: int,
        *,
        error_metric: ErrorMetric = "mse",
        forgetting_factor: float | None = None,
        activation: str = "sigmoid",
        weight_scale: float = 1.0,
        reg: float = 1e-3,
        seed: SeedLike = None,
    ) -> None:
        if error_metric not in ("mse", "mae"):
            raise ConfigurationError(f"unknown error_metric {error_metric!r}.")
        core_cls = OSELM if forgetting_factor is None else ForgettingOSELM
        kwargs = dict(
            activation=activation, weight_scale=weight_scale, reg=reg, seed=seed
        )
        if forgetting_factor is not None:
            kwargs["forgetting_factor"] = forgetting_factor
        self.core = core_cls(n_features, n_hidden, n_features, **kwargs)
        self.n_features = int(n_features)
        self.n_hidden = int(n_hidden)
        self.error_metric: ErrorMetric = error_metric
        self.forgetting_factor = forgetting_factor

    @property
    def is_fitted(self) -> bool:
        return self.core.is_fitted

    @property
    def n_samples_seen(self) -> int:
        return self.core.n_samples_seen

    # -- training ---------------------------------------------------------------

    def fit_initial(self, X: np.ndarray) -> "OSELMAutoencoder":
        """Initial batch phase with reconstruction targets ``T = X``."""
        X = as_matrix(X, name="X", n_features=self.n_features)
        self.core.fit_initial(X, X)
        return self

    def partial_fit(self, X: np.ndarray) -> "OSELMAutoencoder":
        """Sequentially train on a chunk (targets are the inputs)."""
        X = as_matrix(X, name="X", n_features=self.n_features)
        self.core.partial_fit(X, X)
        return self

    def partial_fit_one(self, x: np.ndarray) -> "OSELMAutoencoder":
        """Single-sample sequential training step (the on-device path)."""
        x = np.asarray(x, dtype=np.float64).ravel()
        self.core.partial_fit_one(x, x)
        return self

    # -- scoring ---------------------------------------------------------------

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Autoencoder outputs for a batch."""
        return self.core.predict(X)

    def score(self, X: np.ndarray) -> np.ndarray:
        """Per-sample anomaly score (reconstruction error), shape ``(n,)``."""
        X = as_matrix(X, name="X", n_features=self.n_features)
        R = self.core.predict(X)
        if self.error_metric == "mse":
            return np.mean((R - X) ** 2, axis=1)
        return np.mean(np.abs(R - X), axis=1)

    def score_one(self, x: np.ndarray) -> float:
        """Anomaly score for one sample."""
        x = np.asarray(x, dtype=np.float64).ravel()
        return self._error(self.core.predict_one(x), x)

    def _error(self, r: np.ndarray, x: np.ndarray) -> float:
        # What np.mean computes (a pairwise add.reduce, then one division
        # by the count), without its wrapper; d * d is what ** 2 computes.
        d = r - x
        e = d * d if self.error_metric == "mse" else np.abs(d)
        return float(np.add.reduce(e) / d.size)

    def _row_errors(self, R: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-row :meth:`_error` of a batch: the same reduction along axis 1."""
        D = R - X
        E = D * D if self.error_metric == "mse" else np.abs(D)
        return np.add.reduce(E, axis=1) / D.shape[1]

    def score_rowwise(self, X: np.ndarray) -> np.ndarray:
        """Batch anomaly scores, bit-identical per row to :meth:`score_one`.

        Built on :meth:`~repro.oselm.oselm.OSELM.predict_rowwise`; the
        per-row reduction (``add.reduce`` along the feature axis) uses
        the same pairwise summation as the 1-D one of ``score_one``.
        """
        X = as_matrix(X, name="X", n_features=self.n_features)
        return self._row_errors(self.core.predict_rowwise(X), X)

    @staticmethod
    def score_batch_many(
        instances: "list[OSELMAutoencoder]",
        X: np.ndarray,
        owners: np.ndarray,
    ) -> np.ndarray:
        """Anomaly scores for rows owned by different same-layer instances.

        All ``instances`` must share the first one's random-layer weights
        and ``error_metric``; ``owners[i]`` selects which instance's beta
        scores row ``i``. The hidden activations are computed once with
        the row-stable :meth:`~repro.oselm.random_layer.RandomLayer.transform_rowwise`
        kernel; each run of consecutive rows with one owner is then
        multiplied by that owner's beta with the kernel of
        :meth:`~repro.oselm.oselm.OSELM.predict_rowwise` — one
        ``(1, h) @ (h, d)`` product per row, on the same operands as the
        owner's :meth:`score_rowwise`. Returns shape ``(n,)``.
        """
        ref = instances[0]
        H = ref.core.layer.transform_rowwise(X)
        owners = np.asarray(owners)
        R = np.empty((len(H), ref.n_features))
        cuts = (np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(H)]):
            if lo < hi:
                beta = instances[owners[lo]].core.beta
                R[lo:hi] = np.matmul(H[lo:hi, None, :], beta)[:, 0, :]
        return ref._row_errors(R, X)

    def state_nbytes(self) -> int:
        """Resident learned-state bytes (delegates to the core)."""
        return self.core.state_nbytes()

    def get_state(self) -> dict:
        """Snapshot the wrapped OS-ELM core."""
        return {"core": self.core.get_state()}

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        self.core.set_state(state["core"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "" if self.forgetting_factor is None else f", α={self.forgetting_factor}"
        return f"OSELMAutoencoder({self.n_features}-{self.n_hidden}-{self.n_features}{tag})"
