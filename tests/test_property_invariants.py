"""Property-based tests (hypothesis) on the library's core invariants.

Each property pins an algebraic identity or structural invariant that the
paper's correctness rests on:

* OS-ELM sequential updates ≡ ridge regression re-solved from scratch;
* Welford moments ≡ two-pass mean/variance;
* Quant Tree bins form an (approximately equal-probability) partition;
* drift threshold Eq. 1 responds monotonically to ``z``;
* the sequential detector never stores samples (O(1) memory);
* MinMax scaling round-trips; ADWIN window bookkeeping stays exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CentroidSet, drift_threshold
from repro.datasets import MinMaxScaler
from repro.detectors import ADWIN, QuantTreePartition
from repro.oselm import OSELM
from repro.utils.math import RunningMoments

# Bounded, finite float strategies keep the algebra numerically honest.
finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)


def sample_matrix(n_min=2, n_max=24, d_min=1, d_max=6):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.integers(d_min, d_max).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=finite)
        )
    )


class TestOSELMEquivalenceProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(4, 20), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_sequential_equals_ridge(self, seed, n_extra, chunk):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(12 + n_extra, 3))
        T = rng.normal(size=(12 + n_extra, 2))
        m = OSELM(3, 6, 2, reg=1e-2, seed=0).fit_initial(X[:12], T[:12])
        i = 12
        while i < len(X):
            j = min(i + chunk, len(X))
            m.partial_fit(X[i:j], T[i:j])
            i = j
        H = m.layer.transform(X)
        beta_ridge = np.linalg.solve(
            H.T @ H + m.reg * np.eye(6), H.T @ T
        )
        np.testing.assert_allclose(m.beta, beta_ridge, atol=1e-5, rtol=1e-4)


class TestWelfordProperty:
    @given(arrays(np.float64, st.integers(1, 200), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_matches_two_pass(self, values):
        m = RunningMoments()
        m.update_many(values)
        assert m.count == len(values)
        np.testing.assert_allclose(m.mean, values.mean(), atol=1e-9)
        np.testing.assert_allclose(m.variance, values.var(), atol=1e-7)


class TestQuantTreePartitionProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 16), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_bins_partition_probability(self, seed, n_bins, dims):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(max(4 * n_bins, 40), dims))
        part = QuantTreePartition(n_bins, seed=seed).fit(X)
        assert part.probabilities.sum() == pytest.approx(1.0)
        assert (part.probabilities >= 0).all()
        # Every bin holds roughly 1/K of the reference data.
        np.testing.assert_allclose(
            part.probabilities, 1.0 / n_bins, atol=0.6 / n_bins
        )

    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_assignment_total_preserved(self, seed, n_bins):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        part = QuantTreePartition(n_bins, seed=seed).fit(X)
        batch = rng.normal(size=(37, 3))
        counts = part.counts(batch)
        assert counts.sum() == 37
        assert (part.assign(batch) < n_bins).all()


class TestThresholdProperty:
    @given(arrays(np.float64, st.integers(2, 100),
                  elements=st.floats(0.0, 50.0, allow_nan=False, width=64)),
           st.floats(0.0, 5.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_z_monotone_and_above_mean(self, dists, z):
        t = drift_threshold(dists, z=z)
        assert t >= dists.mean() - 1e-9
        assert drift_threshold(dists, z=z + 1.0) >= t


class TestCentroidMemoryProperty:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 8),
           st.integers(1, 120))
    @settings(max_examples=25, deadline=None)
    def test_state_size_independent_of_stream_length(self, seed, C, D, n_updates):
        rng = np.random.default_rng(seed)
        cents = CentroidSet(rng.normal(size=(C, D)), np.ones(C, dtype=int))
        before = cents.state_nbytes()
        for _ in range(n_updates):
            cents.update(int(rng.integers(C)), rng.normal(size=D))
        assert cents.state_nbytes() == before

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_drift_distance_nonnegative_and_zero_at_reset(self, seed, C, D):
        rng = np.random.default_rng(seed)
        cents = CentroidSet(rng.normal(size=(C, D)), np.ones(C, dtype=int))
        for _ in range(10):
            cents.update(int(rng.integers(C)), rng.normal(size=D))
            assert cents.drift_distance() >= 0.0
        cents.reset_recent()
        assert cents.drift_distance() == 0.0


class TestMinMaxProperty:
    @given(sample_matrix(n_min=2))
    @settings(max_examples=60, deadline=None)
    def test_transform_bounded_and_roundtrips(self, X):
        sc = MinMaxScaler().fit(X)
        out = sc.transform(X)
        assert out.min() >= -1e-9 and out.max() <= 1.0 + 1e-9
        back = sc.inverse_transform(out)
        # (Near-)constant features lose information (map to 0); compare
        # only the columns the scaler actually scales.
        varying = sc.scale_ > 0
        np.testing.assert_allclose(back[:, varying], X[:, varying], atol=1e-6)


class TestADWINProperty:
    @given(arrays(np.float64, st.integers(1, 300),
                  elements=st.floats(0.0, 1.0, allow_nan=False, width=64)))
    @settings(max_examples=30, deadline=None)
    def test_width_and_total_consistent(self, values):
        ad = ADWIN(delta=1e-6, clock=1000)  # effectively no cuts
        for v in values:
            ad.update(float(v))
        assert ad.width == len(values)
        np.testing.assert_allclose(ad.estimation, values.mean(), atol=1e-6)

    @given(arrays(np.float64, st.integers(50, 300),
                  elements=st.floats(0.0, 1.0, allow_nan=False, width=64)))
    @settings(max_examples=20, deadline=None)
    def test_bucket_counts_are_powers_of_two_summing_to_width(self, values):
        ad = ADWIN()
        for v in values:
            ad.update(float(v))
        counts = [b.count for b in ad._buckets]
        assert sum(counts) == ad.width
        assert all(c & (c - 1) == 0 for c in counts)  # powers of two
