"""Synthetic cooling-fan vibration-spectrum streams.

The paper's second dataset (§4.1.2) contains frequency spectra (1–511 Hz, so
511 features) of cooling-fan vibration measured with an industrial
accelerometer, for a normal fan and two damage modes — holes drilled in a
blade and a chipped blade edge — in silent and noisy environments. Damaged
blades unbalance the rotor radially, producing characteristic harmonic
energy.

The real recordings are not available offline, so this module synthesises
spectra from a compact physical model (substitution documented in
DESIGN.md §1):

* a rotational fundamental around 38 Hz with decaying integer harmonics;
* a blade-pass frequency (``n_blades ×`` rotation) with its own harmonics;
* a coloured broadband noise floor;
* **hole damage** → strong 1× unbalance line + raised odd harmonics;
* **chipped blade** → milder unbalance + blade-pass sidebands;
* **noisy environment** → an interfering ventilation-fan line near 50 Hz
  and a lifted noise floor.

Scenario builders replicate the paper's three test schedules exactly:
sudden (drift @120), gradual (mixing 120–600), reoccurring (damage only in
120–170).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Literal, Tuple

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from .stream import DataStream

__all__ = [
    "N_BINS",
    "FanSpectrumModel",
    "fan_condition",
    "make_fan_samples",
    "make_cooling_fan_like",
    "iter_cooling_fan_like",
]

#: Spectrum resolution of the real dataset: 1 Hz bins from 1 to 511 Hz.
N_BINS = 511

Condition = Literal["normal", "holes", "chipped"]
Environment = Literal["silent", "noisy"]


@dataclass(frozen=True)
class FanSpectrumModel:
    """Parametric generator of one fan/environment vibration spectrum.

    Amplitudes are in arbitrary acceleration units; spectra are
    non-negative. ``unbalance`` scales the 1×-rotation line (the radial
    unbalance signature the paper attributes to damaged blades);
    ``sideband`` scales blade-pass sidebands (chipped-edge signature).
    """

    rotation_hz: float = 38.0
    n_blades: int = 7
    base_amplitude: float = 1.0
    harmonic_decay: float = 0.55
    unbalance: float = 0.15
    sideband: float = 0.0
    noise_floor: float = 0.01
    interference_hz: float = 0.0
    interference_amp: float = 0.0
    jitter: float = 0.006

    def __post_init__(self) -> None:
        if self.rotation_hz <= 0 or self.n_blades < 1:
            raise ConfigurationError("rotation_hz must be > 0 and n_blades >= 1.")
        if min(self.base_amplitude, self.noise_floor, self.unbalance) < 0:
            raise ConfigurationError("amplitudes must be non-negative.")

    def mean_spectrum(self, n_bins: int = N_BINS) -> np.ndarray:
        """The noise-free expected spectrum over ``n_bins`` 1-Hz bins."""
        freqs = np.arange(1, n_bins + 1, dtype=np.float64)
        spec = np.full(n_bins, self.noise_floor)
        # Coloured floor: slightly more energy at low frequency.
        spec += self.noise_floor * 2.0 / (1.0 + freqs / 60.0)

        def add_line(f0: float, amp: float, width: float = 1.6) -> None:
            spec_line = amp * np.exp(-0.5 * ((freqs - f0) / width) ** 2)
            np.add(spec, spec_line, out=spec)

        # Rotational harmonics: 1x, 2x, 3x, ...
        k = 1
        while k * self.rotation_hz < n_bins:
            amp = self.base_amplitude * self.harmonic_decay ** (k - 1) * 0.4
            if k == 1:
                amp += self.unbalance  # radial unbalance raises the 1x line
            elif k % 2 == 1:
                amp += 0.3 * self.unbalance
            add_line(k * self.rotation_hz, amp)
            k += 1
        # Blade-pass frequency and harmonics.
        bpf = self.n_blades * self.rotation_hz
        k = 1
        while k * bpf < n_bins:
            amp = self.base_amplitude * self.harmonic_decay ** (k - 1)
            add_line(k * bpf, amp)
            if self.sideband > 0:
                add_line(k * bpf - self.rotation_hz, self.sideband * amp)
                add_line(k * bpf + self.rotation_hz, self.sideband * amp)
            k += 1
        if self.interference_amp > 0 and 0 < self.interference_hz < n_bins:
            add_line(self.interference_hz, self.interference_amp, width=2.5)
            add_line(2 * self.interference_hz, 0.5 * self.interference_amp, width=2.5)
        return spec

    def sample(self, n: int, rng: np.random.Generator, n_bins: int = N_BINS) -> np.ndarray:
        """Draw ``n`` noisy spectra (multiplicative + additive noise, ≥ 0)."""
        mean = self.mean_spectrum(n_bins)
        gain = 1.0 + rng.normal(0.0, 0.05, size=(n, 1))  # per-capture gain
        X = mean * gain * (1.0 + rng.normal(0.0, self.jitter, size=(n, n_bins)))
        X += rng.normal(0.0, self.noise_floor * 0.5, size=(n, n_bins))
        np.maximum(X, 0.0, out=X)
        return X


def fan_condition(
    condition: Condition = "normal",
    environment: Environment = "silent",
) -> FanSpectrumModel:
    """The six paper conditions as configured spectrum models."""
    base = FanSpectrumModel()
    if condition == "holes":
        base = replace(base, unbalance=1.4, harmonic_decay=0.62, jitter=0.012)
    elif condition == "chipped":
        base = replace(base, unbalance=1.2, sideband=0.8, jitter=0.012)
    elif condition != "normal":
        raise ConfigurationError(f"unknown condition {condition!r}.")
    if environment == "noisy":
        base = replace(
            base,
            noise_floor=base.noise_floor * 3.0,
            interference_hz=50.0,
            interference_amp=0.5,
        )
    elif environment != "silent":
        raise ConfigurationError(f"unknown environment {environment!r}.")
    return base


def make_fan_samples(
    condition: Condition,
    environment: Environment,
    n: int,
    *,
    seed: SeedLike = None,
    n_bins: int = N_BINS,
) -> np.ndarray:
    """Convenience: ``n`` spectra for one condition/environment."""
    rng = ensure_rng(seed)
    return fan_condition(condition, environment).sample(n, rng, n_bins)


def make_cooling_fan_like(
    scenario: Literal["sudden", "gradual", "reoccurring"] = "sudden", **kwargs
) -> Tuple[DataStream, DataStream]:
    """Build ``(train, test)`` streams for one of the paper's three scenarios.

    * ``sudden`` — normal before ``drift_at``, hole-damaged after (paper
      test set 1; drift at the 120th point).
    * ``gradual`` — normal before ``drift_at``; between ``drift_at`` and
      ``gradual_end`` normal and chipped-blade spectra mix with a linearly
      rising damage probability; chipped only afterwards (paper test set 2).
    * ``reoccurring`` — chipped-blade spectra appear only in
      ``[drift_at, reoccur_at)``; normal reoccurs after (paper test set 3).

    The training stream is the normal fan in ``train_environment``
    (silent by default, matching the paper; set it to ``"noisy"`` to
    study environment-matched noisy deployments). Labels: 0 = normal,
    1 = damaged (ground truth for the evaluation harness; the detector
    itself never sees them).

    ``n_modes=2`` adds a second *normal operating mode* (higher rotation
    speed) to the training data as a second label — the "multiple normal
    patterns" setup of the paper's on-device demo (its Table 6 prices
    Init_Coord above zero, which requires C ≥ 2 instances). The test
    scenarios still stream mode-1 data.

    Keyword arguments and their defaults are those of
    :func:`iter_cooling_fan_like`.
    """
    train, test = iter_cooling_fan_like(scenario, **kwargs)
    return train, test


def iter_cooling_fan_like(
    scenario: Literal["sudden", "gradual", "reoccurring"] = "sudden",
    *,
    n_train: int = 120,
    n_test: int = 700,
    drift_at: int = 120,
    gradual_end: int = 600,
    reoccur_at: int = 170,
    environment: Environment = "silent",
    train_environment: Environment = "silent",
    n_modes: int = 1,
    seed: SeedLike = 0,
    n_bins: int = N_BINS,
) -> Iterator[DataStream]:
    """Yield :func:`make_cooling_fan_like`'s training stream, then its test
    stream.

    Every argument is checked before the first yield. The training rows
    are drawn first, so a caller that takes only the first stream gets
    the same bits without paying for the test draw.
    """
    if scenario not in ("sudden", "gradual", "reoccurring"):
        raise ConfigurationError(f"unknown scenario {scenario!r}.")
    if not 0 < drift_at < n_test:
        raise ConfigurationError(f"drift_at must be in (0, {n_test}).")
    if n_modes not in (1, 2):
        raise ConfigurationError(f"n_modes must be 1 or 2, got {n_modes}.")
    if scenario == "gradual" and not drift_at < gradual_end <= n_test:
        raise ConfigurationError("need drift_at < gradual_end <= n_test.")
    if scenario == "reoccurring" and not drift_at < reoccur_at < n_test:
        raise ConfigurationError("need drift_at < reoccur_at < n_test.")
    rng = ensure_rng(seed)
    normal = fan_condition("normal", environment)
    damaged = fan_condition("holes" if scenario == "sudden" else "chipped", environment)

    X_train = fan_condition("normal", train_environment).sample(n_train, rng, n_bins)
    y_train = np.zeros(n_train, dtype=np.int64)
    if n_modes == 2:
        fast = replace(fan_condition("normal", train_environment), rotation_hz=45.0)
        X_train = np.concatenate([X_train, fast.sample(n_train, rng, n_bins)])
        y_train = np.concatenate([y_train, np.ones(n_train, dtype=np.int64)])
    yield DataStream(X_train, y_train, name=f"fan/{scenario}/train")

    X = np.empty((n_test, n_bins))
    y = np.zeros(n_test, dtype=np.int64)
    X[:drift_at] = normal.sample(drift_at, rng, n_bins)

    if scenario == "sudden":
        X[drift_at:] = damaged.sample(n_test - drift_at, rng, n_bins)
        y[drift_at:] = 1
        drifts: tuple[int, ...] = (drift_at,)
    elif scenario == "gradual":
        span = gradual_end - drift_at
        p_damaged = (np.arange(span) + 1) / span
        dmg = rng.random(span) < p_damaged
        idx = np.arange(drift_at, gradual_end)
        X[idx[~dmg]] = normal.sample(int((~dmg).sum()), rng, n_bins)
        X[idx[dmg]] = damaged.sample(int(dmg.sum()), rng, n_bins)
        y[idx[dmg]] = 1
        X[gradual_end:] = damaged.sample(n_test - gradual_end, rng, n_bins)
        y[gradual_end:] = 1
        drifts = (drift_at,)
    else:  # reoccurring
        X[drift_at:reoccur_at] = damaged.sample(reoccur_at - drift_at, rng, n_bins)
        y[drift_at:reoccur_at] = 1
        X[reoccur_at:] = normal.sample(n_test - reoccur_at, rng, n_bins)
        drifts = (drift_at, reoccur_at)

    yield DataStream(X, y, drift_points=drifts, name=f"fan/{scenario}/test")
