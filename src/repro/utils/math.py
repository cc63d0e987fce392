"""Numerically careful math helpers used across the library.

These are small, heavily-reused primitives: pairwise distances for the
clustering substrate, a streaming mean/variance estimator for threshold
calibration and error-rate detectors, and log-domain utilities for the GMM.
All array paths are fully vectorised (see the HPC guide: vectorise inner
loops, prefer in-place updates, avoid needless copies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "pairwise_sq_dists",
    "pairwise_l1_dists",
    "logsumexp",
    "sigmoid",
    "RunningMoments",
]


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``A`` and rows of ``B``.

    Returns an ``(len(A), len(B))`` matrix. Uses the expanded form
    ``|a|^2 - 2 a.b + |b|^2`` (one GEMM instead of a broadcasted cube of
    memory), clipping tiny negative round-off to zero.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    aa = np.einsum("ij,ij->i", A, A)[:, None]
    bb = np.einsum("ij,ij->i", B, B)[None, :]
    d = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d, 0.0, out=d)
    return d


def pairwise_l1_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Manhattan (L1) distances between rows of ``A`` and rows of ``B``.

    The paper's drift rate (Algorithm 1, line 14) and its coordinate
    bookkeeping (Algorithms 3-4) use L1 distances, which are cheap on
    FPU-less microcontrollers (no multiplies).
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Stable ``log(sum(exp(a)))`` along ``axis``."""
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return out if axis is None else np.squeeze(out, axis=axis)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (no overflow warnings).

    ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    otherwise, without masking: ``min(x, -x)`` is ``-x`` in the first
    case and ``x`` in the second (and NaN keeps its own bits), so one
    ``exp`` of it feeds both branches with the same operands and the
    argument never exceeds 0.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)  # so a 0-d input still gets array temporaries
    e = np.minimum(flat, -flat)
    np.exp(e, out=e)
    d = 1.0 + e
    np.divide(e, d, out=e)    # the x < 0 branch
    np.divide(1.0, d, out=d)  # the x >= 0 branch
    return np.where(flat >= 0, d, e).reshape(x.shape)


@dataclass
class RunningMoments:
    """Streaming mean/variance via Welford's algorithm.

    O(1) memory per stream — the same budget discipline as the paper's
    sequential detector. Used for Eq. 1 threshold calibration and by the
    Page-Hinkley / DDM error-rate detectors.

    Examples
    --------
    >>> m = RunningMoments()
    >>> for v in [1.0, 2.0, 3.0]:
    ...     m.update(v)
    >>> m.mean
    2.0
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)

    def update(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def update_many(self, values: np.ndarray) -> None:
        """Fold a batch of observations (still numerically stable)."""
        for v in np.asarray(values, dtype=np.float64).ravel():
            self.update(float(v))

    @property
    def variance(self) -> float:
        """Population variance (the paper's Eq. 1 uses the 1/N form)."""
        return self._m2 / self.count if self.count > 0 else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.variance))

    def reset(self) -> None:
        """Forget all observations."""
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def get_state(self) -> dict:
        """Snapshot the running moments as plain builtins."""
        return {"count": int(self.count), "mean": float(self.mean), "m2": float(self._m2)}

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.count = int(state["count"])
        self.mean = float(state["mean"])
        self._m2 = float(state["m2"])
