"""Page–Hinkley test — a classic sequential change detector.

Included as an additional error-rate baseline (the paper discusses the
error-rate family in §2.2.2; Page–Hinkley is the textbook cumulative-sum
member). It monitors the cumulative deviation of a signal from its running
mean and fires when the deviation exceeds ``threshold``:

.. math::

    m_T = \\sum_{t=1}^{T} (x_t - \\bar{x}_T - \\delta), \\qquad
    PH_T = m_T - \\min_{t \\le T} m_t \\ge \\lambda .

O(1) memory and time per sample — like the paper's proposed method it is
fully sequential, but it watches a scalar signal (e.g. the model's error
indicator or anomaly score), not the input distribution.
"""

from __future__ import annotations

from ..utils.validation import check_positive
from .base import DriftState, ErrorRateDriftDetector

__all__ = ["PageHinkley"]


class PageHinkley(ErrorRateDriftDetector):
    """Page–Hinkley change detector for increases of the monitored signal.

    Parameters
    ----------
    delta:
        Magnitude tolerance; deviations smaller than ``delta`` are ignored.
    threshold:
        Detection threshold ``λ`` on the cumulative deviation.
    min_samples:
        Grace period before detection can fire.
    """

    def __init__(
        self,
        *,
        delta: float = 0.005,
        threshold: float = 50.0,
        min_samples: int = 30,
    ) -> None:
        super().__init__()
        check_positive(delta, "delta", strict=False)
        check_positive(threshold, "threshold")
        check_positive(min_samples, "min_samples")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self._mean = 0.0
        self._cumulative = 0.0
        self._min_cumulative = 0.0

    def update(self, error: bool | int | float) -> DriftState:
        """Fold one value; DRIFT when the PH statistic crosses ``threshold``."""
        x = float(error)
        self.n_samples_seen += 1
        self._mean += (x - self._mean) / self.n_samples_seen
        self._cumulative += x - self._mean - self.delta
        self._min_cumulative = min(self._min_cumulative, self._cumulative)
        ph = self._cumulative - self._min_cumulative
        if self.n_samples_seen >= self.min_samples and ph >= self.threshold:
            self.state = DriftState.DRIFT
        else:
            self.state = DriftState.NORMAL
        return self.state

    def reset(self) -> None:
        """Restart the test (after model adaptation)."""
        super().reset()
        self._mean = 0.0
        self._cumulative = 0.0
        self._min_cumulative = 0.0

    def state_nbytes(self) -> int:
        """A handful of scalars."""
        return 4 * 8

    def _extra_state(self) -> dict:
        return {
            "mean": float(self._mean),
            "cumulative": float(self._cumulative),
            "min_cumulative": float(self._min_cumulative),
        }

    def _set_extra_state(self, state: dict) -> None:
        self._mean = float(state["mean"])
        self._cumulative = float(state["cumulative"])
        self._min_cumulative = float(state["min_cumulative"])
