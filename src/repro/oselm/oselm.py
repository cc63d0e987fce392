"""OS-ELM — Online Sequential Extreme Learning Machine (Liang et al. 2006).

A 3-layer network whose hidden layer is a fixed :class:`RandomLayer` and
whose output weights ``β`` are learned by recursive least squares:

* **initial phase** (batch): ``P₀ = (H₀ᵀH₀ + λI)⁻¹``, ``β₀ = P₀ H₀ᵀ T₀``;
* **sequential phase** (chunk of ``m`` rows): with ``H`` the chunk's hidden
  features and ``T`` its targets,

  .. math::

     P \\leftarrow P - P H^\\top (I_m + H P H^\\top)^{-1} H P, \\qquad
     \\beta \\leftarrow \\beta + P H^\\top (T - H \\beta).

* **rank-1 fast path** (``m = 1``, the paper's on-device mode): the inner
  inverse degenerates to a scalar, so *no matrix inversion is ever needed*
  ("the training batch size is fixed to one so that pseudo inverse
  operation of matrixes can be eliminated", §2.2.1):

  .. math::

     k = \\frac{P h^\\top}{1 + h P h^\\top}, \\qquad
     \\beta \\leftarrow \\beta + k\\,(t - h\\beta), \\qquad
     P \\leftarrow P - k\\,(h P).

The sequential updates are algebraically identical to re-solving ridge
regression on all data seen so far — the equivalence the property-based
tests verify.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
    NumericalHealthError,
)
from ..utils.rng import SeedLike
from ..utils.validation import as_matrix, check_positive
from .random_layer import RandomLayer

__all__ = ["OSELM"]


class OSELM:
    """Online-sequential ELM regressor / multi-output network.

    Parameters
    ----------
    n_inputs, n_hidden, n_outputs:
        Layer sizes. For the paper's autoencoders ``n_outputs == n_inputs``.
    activation, weight_scale, seed:
        Forwarded to :class:`RandomLayer`.
    reg:
        Ridge regularisation ``λ`` of the initial phase. Also allows an
        initial batch smaller than ``n_hidden`` (the P matrix stays PD).

    Attributes
    ----------
    beta:
        ``(n_hidden, n_outputs)`` learned output weights.
    P:
        ``(n_hidden, n_hidden)`` inverse-covariance state of the RLS
        recursion.
    n_samples_seen:
        Total training rows folded in so far.
    """

    def __init__(
        self,
        n_inputs: int,
        n_hidden: int,
        n_outputs: int,
        *,
        activation: str = "sigmoid",
        weight_scale: float = 1.0,
        reg: float = 1e-3,
        seed: SeedLike = None,
    ) -> None:
        check_positive(n_outputs, "n_outputs")
        check_positive(reg, "reg")
        self.layer = RandomLayer(
            n_inputs,
            n_hidden,
            activation=activation,
            weight_scale=weight_scale,
            seed=seed,
        )
        self.n_inputs = self.layer.n_inputs
        self.n_hidden = self.layer.n_hidden
        self.n_outputs = int(n_outputs)
        self.reg = float(reg)
        self.beta: Optional[np.ndarray] = None
        self.P: Optional[np.ndarray] = None
        self.n_samples_seen: int = 0

    @property
    def is_fitted(self) -> bool:
        return self.beta is not None

    # -- initial (batch) phase --------------------------------------------------

    def fit_initial(self, X: np.ndarray, T: np.ndarray) -> "OSELM":
        """Run the OS-ELM initial phase on the batch ``(X, T)``.

        Resets any previous state. ``T`` must be ``(n, n_outputs)`` (a 1-D
        target is accepted for ``n_outputs == 1``).
        """
        X = as_matrix(X, name="X", n_features=self.n_inputs)
        T = self._as_targets(T, len(X))
        H = self.layer.transform(X)
        A = H.T @ H
        A.flat[:: self.n_hidden + 1] += self.reg
        self.P = np.linalg.inv(A)
        self.beta = self.P @ (H.T @ T)
        self.n_samples_seen = len(X)
        return self

    # -- sequential phase ---------------------------------------------------------

    def partial_fit(self, X: np.ndarray, T: np.ndarray) -> "OSELM":
        """Fold a chunk of training rows into ``(P, β)``.

        Dispatches to the rank-1 fast path for single rows (the on-device
        mode); larger chunks use the ``m×m`` inner inverse.
        """
        if not self.is_fitted:
            raise NotFittedError(self, "partial_fit")
        X = as_matrix(X, name="X", n_features=self.n_inputs)
        T = self._as_targets(T, len(X))
        if len(X) == 1:
            self._rank1_update(self.layer.transform(X), T)
        else:
            H = self.layer.transform(X)
            PHt = self.P @ H.T
            M = H @ PHt
            M.flat[:: len(X) + 1] += 1.0
            K = PHt @ np.linalg.inv(M)
            self.beta += K @ (T - H @ self.beta)
            self.P -= K @ PHt.T
            self._symmetrize()
        self.n_samples_seen += len(X)
        return self

    def partial_fit_one(self, x: np.ndarray, t: np.ndarray) -> "OSELM":
        """Single-sample sequential update (no inversion, O(h²) work)."""
        if not self.is_fitted:
            raise NotFittedError(self, "partial_fit_one")
        return self.partial_fit_hidden(self.layer.transform_one(x), t)

    def partial_fit_hidden(self, h: np.ndarray, t: np.ndarray) -> "OSELM":
        """:meth:`partial_fit_one` for a sample whose hidden row is known.

        ``h`` is the ``(1, n_hidden)`` feature row of the sample (from
        :meth:`~repro.oselm.random_layer.RandomLayer.transform_one` or a
        row of ``transform_rowwise``, which is bit-identical). The random
        layer is frozen, so a caller that already mapped a chunk can train
        on its rows without re-running the layer. Subclasses change the
        step itself (:meth:`_rank1_update`), so this stays correct for
        them too.
        """
        if not self.is_fitted:
            raise NotFittedError(self, "partial_fit_hidden")
        t = np.asarray(t, dtype=np.float64).reshape(1, -1)
        if t.shape[1] != self.n_outputs:
            raise ConfigurationError(
                f"target has {t.shape[1]} outputs, model expects {self.n_outputs}."
            )
        if not np.all(np.isfinite(t)):
            raise DataValidationError("target contains NaN or infinite values.")
        self._step_hidden(h, t)
        return self

    def _step_hidden(self, h: np.ndarray, t: np.ndarray) -> None:
        """:meth:`partial_fit_hidden` without its checks.

        For a fitted model and a target ``t`` already validated (finite,
        ``n_outputs`` values, 1-D or one row) — the pipelines'
        reconstruction validates each chunk once and then trains here.
        """
        self._rank1_update(h, t.reshape(1, -1))
        self.n_samples_seen += 1

    def _rank1_update(self, h: np.ndarray, t: np.ndarray) -> None:
        """RLS rank-1 step with h a (1, n_hidden) row, t a (1, n_outputs) row."""
        h0 = h[0]
        Ph = self.P @ h0                        # (n_hidden,)
        denom = 1.0 + float(h0 @ Ph)
        k = Ph / denom                          # gain vector
        err = t[0] - h0 @ self.beta             # (n_outputs,)
        # The products of np.outer(k, ·), without its wrapper.
        kc = k[:, None]
        self.beta += kc * err
        # P ← P − k (h P); h P == Ph because P is symmetric.
        self.P -= kc * Ph
        self._symmetrize()

    def _symmetrize(self) -> None:
        # RLS recursions slowly lose symmetry in floating point; re-impose it
        # so long streams (22 701 samples in the NSL-KDD run) stay stable.
        self.P += self.P.T
        self.P *= 0.5

    # -- inference -------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Network outputs ``H β`` for a batch, shape ``(n, n_outputs)``."""
        if not self.is_fitted:
            raise NotFittedError(self, "predict")
        X = as_matrix(X, name="X", n_features=self.n_inputs)
        return self.layer.transform(X) @ self.beta

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        """Network output vector for one sample, shape ``(n_outputs,)``."""
        if not self.is_fitted:
            raise NotFittedError(self, "predict_one")
        return self.predict_hidden(self.layer.transform_one(x))

    def predict_hidden(self, h: np.ndarray) -> np.ndarray:
        """Network output for a ``(1, n_hidden)`` hidden row, shape ``(n_outputs,)``."""
        return (h @ self.beta)[0]

    def predict_rowwise(self, X: np.ndarray) -> np.ndarray:
        """Batch outputs, bit-identical per row to :meth:`predict_one`.

        Uses the stacked single-row products of
        :meth:`~repro.oselm.random_layer.RandomLayer.transform_rowwise` for
        both layers, so chunked streaming reproduces the per-sample path
        exactly (see the pipeline fast path).
        """
        if not self.is_fitted:
            raise NotFittedError(self, "predict_rowwise")
        H = self.layer.transform_rowwise(X)
        return np.matmul(H[:, None, :], self.beta)[:, 0, :]

    # -- numeric health ----------------------------------------------------------------

    def numeric_health(self) -> dict:
        """Cheap (O(h²)) indicators of the RLS recursion's numeric state.

        Returns a dict the guard layer's sentinels threshold against:

        * ``finite`` — no NaN/inf anywhere in ``β`` or ``P``;
        * ``beta_norm`` — Frobenius norm of ``β`` (explodes when a huge
          target is folded in, e.g. a sensor spike hitting an autoencoder);
        * ``p_max`` — largest ``|P|`` entry (a condition proxy: ``P`` is
          the inverse covariance, so a blow-up means the recursion lost
          positive definiteness);
        * ``p_asymmetry`` — ``max|P - Pᵀ|`` (kept ≈0 by ``_symmetrize``;
          growth signals external corruption);
        * ``p_diag_min`` — smallest diagonal entry (must stay > 0 for a
          PD matrix).

        An unfitted model reports ``{"fitted": False}``.
        """
        if not self.is_fitted:
            return {"fitted": False}
        beta, P = self.beta, self.P
        with np.errstate(over="ignore", invalid="ignore"):
            return {
                "fitted": True,
                "finite": bool(np.isfinite(beta).all() and np.isfinite(P).all()),
                "beta_norm": float(np.sqrt(np.sum(beta * beta))),
                "p_max": float(np.abs(P).max()),
                "p_asymmetry": float(np.abs(P - P.T).max()),
                "p_diag_min": float(np.diagonal(P).min()),
            }

    def check_health(
        self,
        *,
        max_beta_norm: float = 1e6,
        max_p_magnitude: float = 1e8,
        symmetry_tol: float = 1e-6,
    ) -> None:
        """Raise :class:`NumericalHealthError` if the state has diverged.

        The thresholds mirror :class:`repro.guard.NumericHealthSentinel`'s
        defaults; an unfitted model trivially passes.
        """
        h = self.numeric_health()
        if not h.get("fitted"):
            return
        violations = []
        if not h["finite"]:
            violations.append("non-finite values in beta/P")
        if h["beta_norm"] > max_beta_norm:
            violations.append(f"||beta||={h['beta_norm']:.3g} exceeds {max_beta_norm:g}")
        if h["p_max"] > max_p_magnitude:
            violations.append(f"max|P|={h['p_max']:.3g} exceeds {max_p_magnitude:g}")
        if h["p_asymmetry"] > symmetry_tol:
            violations.append(f"P asymmetry {h['p_asymmetry']:.3g} exceeds {symmetry_tol:g}")
        if h["p_diag_min"] <= 0.0:
            violations.append(f"P diagonal min {h['p_diag_min']:.3g} is not positive")
        if violations:
            raise NumericalHealthError(
                f"{type(self).__name__} numeric state diverged: " + "; ".join(violations)
            )

    # -- helpers ----------------------------------------------------------------------

    def _as_targets(self, T: np.ndarray, n: int) -> np.ndarray:
        T = np.asarray(T, dtype=np.float64)
        if T.ndim == 1:
            T = T.reshape(-1, 1) if self.n_outputs == 1 else T.reshape(1, -1)
        if T.shape != (n, self.n_outputs):
            raise ConfigurationError(
                f"targets have shape {T.shape}, expected ({n}, {self.n_outputs})."
            )
        if not np.all(np.isfinite(T)):
            raise DataValidationError("targets contain NaN or infinite values.")
        return T

    def state_nbytes(self) -> int:
        """Resident memory of the learned state (β and P), in bytes.

        Random-layer weights are counted separately by the device memory
        model since they could live in flash on a microcontroller.
        """
        if not self.is_fitted:
            return 0
        return int(self.beta.nbytes + self.P.nbytes)

    # -- checkpoint protocol -----------------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot the learned state plus the frozen random layer.

        The layer weights are included so a restore is self-contained
        even if the receiving model was built from a different seed.
        """
        return {
            "weights": self.layer.weights.copy(),
            "biases": self.layer.biases.copy(),
            "beta": None if self.beta is None else self.beta.copy(),
            "P": None if self.P is None else self.P.copy(),
            "n_samples_seen": int(self.n_samples_seen),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        weights = np.asarray(state["weights"], dtype=np.float64)
        biases = np.asarray(state["biases"], dtype=np.float64)
        if weights.shape != self.layer.weights.shape or biases.shape != self.layer.biases.shape:
            raise ConfigurationError(
                f"layer state shapes {weights.shape}/{biases.shape} do not match "
                f"this OSELM ({self.layer.weights.shape}/{self.layer.biases.shape})."
            )
        self.layer.weights = weights.copy()
        self.layer.weights.setflags(write=False)
        self.layer.biases = biases.copy()
        self.layer.biases.setflags(write=False)
        beta, P = state["beta"], state["P"]
        if (beta is None) != (P is None):
            raise ConfigurationError("beta and P must both be present or both None.")
        self.beta = None if beta is None else np.asarray(beta, dtype=np.float64).copy()
        self.P = None if P is None else np.asarray(P, dtype=np.float64).copy()
        self.n_samples_seen = int(state["n_samples_seen"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OSELM({self.n_inputs}-{self.n_hidden}-{self.n_outputs}, "
            f"activation={self.layer.activation!r}, seen={self.n_samples_seen})"
        )
