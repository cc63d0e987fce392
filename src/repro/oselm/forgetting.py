"""Forgetting-factor OS-ELM — the learning rule inside ONLAD.

ONLAD (Tsukada, Kondo & Matsutani 2020) extends OS-ELM with an
exponential-forgetting mechanism so the model tracks non-stationary data:
old samples are discounted by a factor ``α ∈ (0, 1]`` at every step
(``α = 1`` recovers plain OS-ELM). This is exactly recursive least squares
with a forgetting factor:

.. math::

   k = \\frac{P h^\\top}{\\alpha + h P h^\\top}, \\qquad
   \\beta \\leftarrow \\beta + k (t - h \\beta), \\qquad
   P \\leftarrow \\frac{P - k\\, (h P)}{\\alpha}.

The paper evaluates ONLAD as its passive-approach baseline with
``α = 0.97`` (NSL-KDD) and ``α = 0.99`` (cooling fan), and observes that
tuning ``α`` is difficult — accuracy decays even before the drift when the
factor is too aggressive. The ablation bench sweeps ``α`` to reproduce that
observation.
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.rng import SeedLike
from .oselm import OSELM

__all__ = ["ForgettingOSELM"]


class ForgettingOSELM(OSELM):
    """OS-ELM whose sequential updates apply a forgetting factor.

    Parameters
    ----------
    forgetting_factor:
        ``α ∈ (0, 1]``. Effective memory is roughly ``1 / (1 - α)``
        samples (≈33 at the paper's 0.97, ≈100 at 0.99).

    Notes
    -----
    Only the single-sample path differs from :class:`OSELM`; chunked
    ``partial_fit`` applies the rank-1 rule row by row, which is the exact
    chunk generalisation for RLS with forgetting.
    """

    def __init__(
        self,
        n_inputs: int,
        n_hidden: int,
        n_outputs: int,
        *,
        forgetting_factor: float = 0.97,
        activation: str = "sigmoid",
        weight_scale: float = 1.0,
        reg: float = 1e-3,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 < forgetting_factor <= 1.0:
            raise ConfigurationError(
                f"forgetting_factor must be in (0, 1], got {forgetting_factor!r}."
            )
        super().__init__(
            n_inputs,
            n_hidden,
            n_outputs,
            activation=activation,
            weight_scale=weight_scale,
            reg=reg,
            seed=seed,
        )
        self.forgetting_factor = float(forgetting_factor)

    def partial_fit(self, X: np.ndarray, T: np.ndarray) -> "ForgettingOSELM":
        """Fold a chunk row by row with forgetting between rows."""
        from ..utils.validation import as_matrix

        X = as_matrix(X, name="X", n_features=self.n_inputs)
        T = self._as_targets(T, len(X))
        for i in range(len(X)):
            self.partial_fit_one(X[i], T[i])
        return self

    def _rank1_update(self, h: np.ndarray, t: np.ndarray) -> None:
        a = self.forgetting_factor
        Ph = self.P @ h[0]
        denom = a + float(h[0] @ Ph)
        k = Ph / denom
        err = t[0] - h[0] @ self.beta
        kc = k[:, None]
        self.beta += kc * err
        self.P -= kc * Ph
        self.P /= a
        self._symmetrize()
