"""Input sanitation — the first rung of the self-healing runtime.

A month-long edge deployment sees data nobody validated for: NaN bursts
from a dying ADC, ±10⁶ electrical spikes, channels stuck at zero. The
:class:`InputSanitizer` sits between the stream and the pipeline and
classifies every sample as *clean* or *faulty* (non-finite anywhere, or
outside per-feature bounds learned from the initial-training set), then
applies one of four policies to faulty samples:

``reject``
    Raise :class:`~repro.utils.exceptions.GuardError` — the loud-failure
    mode for development and CI, equivalent to the library's historical
    validation-boundary behaviour but correctly classified.
``clip``
    Repair in place: non-finite features take the last good reading,
    then the whole sample is clipped into the learned bounds. Keeps every
    sample flowing (best when faults are mild range excursions).
``impute_last_good``
    Replace each faulty feature with its most recent clean reading
    (bounds midpoint before any clean sample has been seen). The sample
    still reaches the pipeline, so detectors keep their cadence.
``quarantine``
    Withhold the sample from the pipeline entirely; the guard emits a
    placeholder record instead. The raw sample is retained in a bounded
    buffer for post-mortem inspection.

Clean samples are returned **by reference, untouched** — this is what
makes a guarded no-fault run byte-identical to an unguarded one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.validation import as_matrix

__all__ = ["POLICIES", "FeatureBounds", "SanitizedSample", "InputSanitizer"]

#: The four supported sanitizer policies.
POLICIES = ("reject", "clip", "impute_last_good", "quarantine")


@dataclass(frozen=True)
class FeatureBounds:
    """Per-feature plausibility interval learned from the init set.

    ``from_data`` pads the observed min/max by ``margin`` times the
    feature's range (or its magnitude, for constant features), so
    legitimate drift — which moves distributions by fractions of the
    range — stays inside the bounds while sensor spikes (orders of
    magnitude out) do not.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64).ravel()
        hi = np.asarray(self.hi, dtype=np.float64).ravel()
        if lo.shape != hi.shape or lo.size == 0:
            raise ConfigurationError(
                f"bounds must be equal-length non-empty vectors, got {lo.shape}/{hi.shape}."
            )
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError("bounds must be finite.")
        if np.any(lo > hi):
            raise ConfigurationError("every lower bound must be <= its upper bound.")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # The interval every feature's bounds contain (possibly empty).
        object.__setattr__(self, "_common", (float(lo.max()), float(hi.min())))

    @classmethod
    def from_data(cls, X: np.ndarray, *, margin: float = 3.0) -> "FeatureBounds":
        """Learn padded per-feature bounds from (clean) training data.

        The pad is floored at ``margin`` times the **global** feature
        span, not just each feature's own: legitimate concept drift can
        sweep a formerly-quiet feature across the data's whole scale
        (e.g. a spectral peak moving into a flat bin), and drift must
        *never* look like a sensor fault — only values far outside the
        scale of anything in the init set (spikes, garbage) should trip.
        """
        X = as_matrix(X, name="X")
        if margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {margin!r}.")
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = hi - lo
        # Global value range: after drift, any feature may plausibly take
        # values anywhere on the scale the init data occupies overall.
        scale = float(hi.max() - lo.min()) if X.size else 0.0
        if scale == 0.0:
            scale = max(float(np.abs(X).max()), 1.0) if X.size else 1.0
        pad = margin * np.maximum(span, scale)
        return cls(lo - pad, hi + pad)

    @property
    def n_features(self) -> int:
        return int(self.lo.size)

    @property
    def midpoint(self) -> np.ndarray:
        """Centre of each interval — the imputation value of last resort."""
        return 0.5 * (self.lo + self.hi)

    def violations(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of features outside the interval (NaN counts)."""
        with np.errstate(invalid="ignore"):
            return ~((x >= self.lo) & (x <= self.hi))

    def contains_all(self, X: np.ndarray) -> bool:
        """Vectorized whole-chunk check.

        The bounds are finite, so this also screens out non-finite
        values: NaN fails both comparisons and ±inf fails one.

        A chunk whose global min and max lie in the interval common to
        all features is inside every feature's bounds, which two
        contiguous reductions prove faster than the per-feature
        comparisons; any other chunk (NaN included: it fails the test)
        gets the per-feature check.
        """
        X = np.asarray(X, dtype=np.float64)
        common_lo, common_hi = self._common
        if X.size and common_lo <= X.min() and X.max() <= common_hi:
            return True
        with np.errstate(invalid="ignore"):
            return bool((X >= self.lo).all() and (X <= self.hi).all())


@dataclass(frozen=True)
class SanitizedSample:
    """Outcome of sanitising one sample.

    ``x`` is the vector to feed the pipeline (the *original reference*
    for action ``"ok"``, a repaired copy for ``"clipped"``/``"imputed"``,
    and ``None`` for ``"quarantined"``/``"rejected"``).
    """

    x: Optional[np.ndarray]
    action: str
    bad_features: Tuple[int, ...] = ()


class InputSanitizer:
    """Classify-and-repair front end for a guarded pipeline.

    Parameters
    ----------
    n_features:
        Expected sample width (samples of any other width are faulty as
        a whole — e.g. rows mangled upstream of the guard).
    policy:
        One of :data:`POLICIES`.
    bounds:
        Optional :class:`FeatureBounds`. Without bounds only non-finite
        values count as faults, so finite garbage (spikes, stuck-at)
        passes — fit bounds from the init set whenever one exists.
    quarantine_capacity:
        Most recent quarantined raw samples retained for inspection.
    """

    def __init__(
        self,
        n_features: int,
        *,
        policy: str = "impute_last_good",
        bounds: Optional[FeatureBounds] = None,
        quarantine_capacity: int = 128,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown guard policy {policy!r}; choose from {POLICIES}."
            )
        self.n_features = int(n_features)
        if self.n_features < 1:
            raise ConfigurationError("n_features must be >= 1.")
        if bounds is not None and bounds.n_features != self.n_features:
            raise ConfigurationError(
                f"bounds cover {bounds.n_features} features, expected {self.n_features}."
            )
        self.policy = policy
        self.bounds = bounds
        self.quarantined: Deque[np.ndarray] = deque(maxlen=int(quarantine_capacity))
        self._last_good: Optional[np.ndarray] = None
        #: per-action tallies (report currency; "ok" counts clean samples)
        self.counts = {"ok": 0, "clipped": 0, "imputed": 0, "quarantined": 0, "rejected": 0}

    # -- fast path -------------------------------------------------------------

    def all_clean(self, Xc: np.ndarray) -> bool:
        """Vectorized chunk screen: True iff every sample is clean.

        This is the only sanitizer work the healthy fast path pays — a
        couple of element-wise passes, negligible next to the chunk's
        model scoring (the guard-overhead bench bounds it at <5 %).
        """
        if Xc.shape[1] != self.n_features:
            return False
        if self.bounds is not None:
            # Finite bounds subsume the finiteness check (see contains_all),
            # saving one full pass over the chunk on the hot path.
            return self.bounds.contains_all(Xc)
        return bool(np.isfinite(Xc).all())

    def note_good(self, x: np.ndarray) -> None:
        """Record the most recent clean reading (imputation source)."""
        self._last_good = np.array(x, dtype=np.float64).ravel()
        self.counts["ok"] += 1

    # -- per-sample path -------------------------------------------------------

    def sanitize(self, x: np.ndarray) -> SanitizedSample:
        """Classify one sample and apply the policy if it is faulty."""
        arr = np.asarray(x, dtype=np.float64).ravel()
        if arr.size != self.n_features:
            # The whole row is unusable (e.g. truncated after an upstream
            # quarantine): every feature counts as bad.
            return self._faulty(arr, tuple(range(self.n_features)), whole_row=True)
        finite = np.isfinite(arr)
        bad = ~finite
        if self.bounds is not None:
            bad |= self.bounds.violations(arr)
        if not bad.any():
            self.note_good(arr)
            return SanitizedSample(x, "ok")
        return self._faulty(arr, tuple(int(i) for i in np.flatnonzero(bad)))

    def _fallback(self) -> np.ndarray:
        """Imputation source: last clean reading, else bounds midpoint, else zeros."""
        if self._last_good is not None:
            return self._last_good
        if self.bounds is not None:
            return self.bounds.midpoint
        return np.zeros(self.n_features)

    def _faulty(
        self, arr: np.ndarray, bad: Tuple[int, ...], *, whole_row: bool = False
    ) -> SanitizedSample:
        policy = self.policy
        if policy == "reject":
            self.counts["rejected"] += 1
            return SanitizedSample(None, "rejected", bad)
        if policy == "quarantine" or whole_row:
            # A wrong-width row cannot be repaired feature-wise; repairing
            # policies degrade to quarantine for it.
            self.counts["quarantined"] += 1
            self.quarantined.append(arr.copy())
            return SanitizedSample(None, "quarantined", bad)
        fallback = self._fallback()
        out = arr.copy()
        if policy == "impute_last_good":
            out[list(bad)] = fallback[list(bad)]
            self.counts["imputed"] += 1
            return SanitizedSample(out, "imputed", bad)
        # clip: repair non-finite from the fallback, then clamp into bounds.
        nonfinite = ~np.isfinite(out)
        out[nonfinite] = fallback[nonfinite]
        if self.bounds is not None:
            np.clip(out, self.bounds.lo, self.bounds.hi, out=out)
        self.counts["clipped"] += 1
        return SanitizedSample(out, "clipped", bad)

    # -- reporting -------------------------------------------------------------

    @property
    def n_faults(self) -> int:
        """Samples that needed any intervention."""
        c = self.counts
        return c["clipped"] + c["imputed"] + c["quarantined"] + c["rejected"]
