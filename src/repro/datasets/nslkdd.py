"""Synthetic NSL-KDD-like intrusion-detection stream.

The paper evaluates on NSL-KDD restricted to its two largest labels,
``normal`` and ``neptune`` (a SYN-flood attack), pre-processed down to 38
numeric features, with 2 522 initial-training samples and 22 701 test
samples, and a distribution shift at the 8 333rd test sample.

That dataset cannot be fetched offline, so this module generates a
*statistically analogous* stream (substitution documented in DESIGN.md §1):

* 38 features in ``[0, 1]`` after min-max scaling — a mix of dense
  "traffic-volume" features, sparse "flag" features that are near-zero for
  one class and active for the other, and a few near-constant features (as
  in real NSL-KDD, where several columns are almost always 0);
* two classes drawn from class-conditional Gaussian mixtures that are well
  separated initially (the paper's OS-ELM ensemble reaches ≳95 % before the
  drift);
* a **covariate drift** at ``drift_at``: both class-conditional
  distributions translate and the attack class changes its active feature
  set, so a model trained on the initial concept degrades sharply while the
  classes remain separable — exactly the regime in which retraining recovers
  accuracy (Figure 4).

The generator returns ``(train, test)`` streams; call
:func:`nslkdd_default_config` for the paper's exact sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..utils.exceptions import ConfigurationError
from ..utils.rng import SeedLike, ensure_rng
from .stream import DataStream

__all__ = [
    "NSLKDDConfig",
    "nslkdd_default_config",
    "make_nslkdd_like",
    "iter_nslkdd_like",
]

#: Paper's feature count after NSL-KDD preprocessing.
N_FEATURES = 38
#: Paper's sample counts (§4.1.1).
N_TRAIN = 2522
N_TEST = 22701
DRIFT_AT = 8333


@dataclass(frozen=True)
class NSLKDDConfig:
    """Sizing and drift-severity knobs for the synthetic NSL-KDD stream.

    ``attack_fraction`` is the prior of the ``neptune`` class (label 1);
    the real selected subset is roughly balanced, so 0.45 is the default.
    ``drift_shift`` scales how far the class-conditional means move at the
    drift — 0 reproduces a stationary stream, larger values make the drift
    easier for every detector.
    """

    n_features: int = N_FEATURES
    n_train: int = N_TRAIN
    n_test: int = N_TEST
    drift_at: int = DRIFT_AT
    attack_fraction: float = 0.45
    drift_shift: float = 1.1
    noise_std: float = 0.08
    ambiguous_fraction: float = 0.04

    def __post_init__(self) -> None:
        if self.n_features < 8:
            raise ConfigurationError("n_features must be >= 8 for the feature groups.")
        if not 0 < self.drift_at < self.n_test:
            raise ConfigurationError(
                f"drift_at must be in (0, n_test={self.n_test}), got {self.drift_at}."
            )
        if not 0.0 < self.attack_fraction < 1.0:
            raise ConfigurationError("attack_fraction must be in (0, 1).")
        if not 0.0 <= self.ambiguous_fraction < 1.0:
            raise ConfigurationError("ambiguous_fraction must be in [0, 1).")
        if self.drift_shift < 0 or self.noise_std < 0:
            raise ConfigurationError("drift_shift and noise_std must be >= 0.")


def nslkdd_default_config() -> NSLKDDConfig:
    """The paper's exact sizes: 38 features, 2 522 train, 22 701 test, drift @8 333."""
    return NSLKDDConfig()


def _class_profiles(cfg: NSLKDDConfig, rng: np.random.Generator) -> dict:
    """Build the pre-/post-drift class-conditional mean vectors.

    Feature layout (indices over ``n_features``):

    * the first quarter — "volume" features: moderate means, both classes
      active but at different levels (duration, src_bytes, counts, ...);
    * the second quarter — "flag" features: near 0 for normal, high for
      neptune (SYN-error rates are the classic neptune signature);
    * the third quarter — "service" features: high for normal, low for
      neptune;
    * the final quarter — near-constant background features.
    """
    d = cfg.n_features
    q = d // 4
    normal = np.full(d, 0.1)
    attack = np.full(d, 0.1)
    normal[:q] = rng.uniform(0.30, 0.55, size=q)
    attack[:q] = rng.uniform(0.55, 0.80, size=q)
    normal[q : 2 * q] = rng.uniform(0.02, 0.08, size=q)
    attack[q : 2 * q] = rng.uniform(0.75, 0.95, size=q)
    normal[2 * q : 3 * q] = rng.uniform(0.60, 0.85, size=q)
    attack[2 * q : 3 * q] = rng.uniform(0.05, 0.20, size=q)
    normal[3 * q :] = rng.uniform(0.04, 0.10, size=d - 3 * q)
    attack[3 * q :] = rng.uniform(0.04, 0.10, size=d - 3 * q)

    # Post-drift concept: a moderate covariate shift mirroring NSL-KDD's
    # train→test gap. Both class-conditional means move a fraction of the
    # way toward each other on the discriminative feature groups (flags +
    # services) — a congested network raises benign SYN-error rates while
    # the attack's signature weakens — and the shared traffic-volume
    # features translate. The pull is deliberately partial: the paper's
    # frozen baseline still reaches ≈74 % post-drift accuracy, and the
    # unsupervised reconstruction relies on each new cluster staying
    # closer to its own old centroid than to the other class's.
    s = cfg.drift_shift
    gap = attack - normal
    disc = np.zeros(d)
    disc[q : 3 * q] = 1.0  # flags + services: the discriminative groups
    # Post-drift normal traffic suffers *heterogeneous* congestion: each
    # flow is pulled a per-sample fraction u ~ Beta(2, 3) of the way
    # toward the attack signature (direction vector below). The class
    # mean stays on the normal side of the midpoint (E[u]·0.75 + 0.15 ≈
    # 0.45 of the gap), preserving cluster identity for the unsupervised
    # reconstruction, while the Beta tail crosses the frozen model's
    # boundary — that tail is the ≈26 % post-drift error of the paper's
    # baseline.
    normal_post = normal.copy()
    normal_post[:q] = np.clip(
        normal[:q] + s * 0.15 * rng.choice([-1.0, 1.0], size=q), 0.0, 1.0
    )
    normal_post = np.clip(normal_post + s * 0.05 * gap * disc, 0.0, 1.0)
    normal_post_dir = s * 0.75 * gap * disc
    attack_post = attack.copy()
    attack_post[:q] = np.clip(attack[:q] + s * 0.15, 0.0, 1.0)
    attack_post = np.clip(attack_post - s * 0.25 * gap * disc, 0.0, 1.0)
    return {
        "pre": {0: normal, 1: attack},
        "post": {0: normal_post, 1: attack_post},
        "post_normal_dir": normal_post_dir,
    }


def _sample_class(
    mean: np.ndarray, n: int, noise_std: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` samples around a class mean, clipped into [0, 1].

    A small heavy-tailed component models the bursty traffic statistics of
    the real dataset (a plain Gaussian is too clean for a drift benchmark).
    """
    X = mean + rng.normal(0.0, noise_std, size=(n, mean.shape[0]))
    bursts = rng.random(size=X.shape) < 0.02
    X = X + bursts * rng.normal(0.0, 6.0 * noise_std, size=X.shape)
    return np.clip(X, 0.0, 1.0)


def make_nslkdd_like(
    config: NSLKDDConfig | None = None,
    *,
    seed: SeedLike = 0,
) -> Tuple[DataStream, DataStream]:
    """Generate ``(train, test)`` NSL-KDD-like streams.

    The training stream is drift-free (pre-drift concept only). The test
    stream switches to the post-drift concept at ``config.drift_at`` and
    carries that index in ``drift_points``.

    Examples
    --------
    >>> train, test = make_nslkdd_like(seed=7)
    >>> train.n_features, len(train), len(test), test.drift_points
    (38, 2522, 22701, (8333,))
    """
    train, test = iter_nslkdd_like(config, seed=seed)
    return train, test


def iter_nslkdd_like(
    config: NSLKDDConfig | None = None,
    *,
    seed: SeedLike = 0,
) -> Iterator[DataStream]:
    """Yield :func:`make_nslkdd_like`'s training stream, then its test stream.

    The training rows are drawn first, so a caller that takes only the
    first stream gets the same bits without paying for the test draw.
    """
    cfg = config or nslkdd_default_config()
    rng = ensure_rng(seed)
    profiles = _class_profiles(cfg, rng)

    def build(n: int, concept: str) -> tuple[np.ndarray, np.ndarray]:
        y = (rng.random(n) < cfg.attack_fraction).astype(np.int64)
        X = np.empty((n, cfg.n_features))
        means = profiles[concept]
        for c in (0, 1):
            mask = y == c
            m = int(mask.sum())
            Xc = _sample_class(means[c], m, cfg.noise_std, rng)
            if concept == "post" and c == 0:
                # Heterogeneous congestion severity per benign flow.
                u = rng.beta(2.0, 3.0, size=m)
                Xc = np.clip(Xc + u[:, None] * profiles["post_normal_dir"], 0.0, 1.0)
            X[mask] = Xc
        if cfg.ambiguous_fraction > 0:
            # A small share of inherently ambiguous flows (port scans,
            # half-open probes) sits between the class profiles with extra
            # spread. These keep every method's accuracy a little below
            # 100 % and, crucially, feed ONLAD's self-labelled training
            # with contaminated labels — the seed of the gradual decay the
            # paper observes for the passive approach.
            amb = rng.random(n) < cfg.ambiguous_fraction
            m = int(amb.sum())
            if m:
                means = profiles[concept]
                mid = 0.5 * (means[0] + means[1])
                X[amb] = _sample_class(mid, m, 2.0 * cfg.noise_std, rng)
                y[amb] = (rng.random(m) < 0.5).astype(np.int64)
        return X, y

    X_train, y_train = build(cfg.n_train, "pre")
    yield DataStream(X_train, y_train, drift_points=(), name="nslkdd-like/train")

    X_pre, y_pre = build(cfg.drift_at, "pre")
    X_post, y_post = build(cfg.n_test - cfg.drift_at, "post")
    yield DataStream(
        np.concatenate([X_pre, X_post]),
        np.concatenate([y_pre, y_post]),
        drift_points=(cfg.drift_at,),
        name="nslkdd-like/test",
    )
