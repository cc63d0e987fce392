"""Unit tests for repro.utils.math — distances, sigmoid, running moments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.math import (
    RunningMoments,
    pairwise_l1_dists,
    pairwise_sq_dists,
    sigmoid,
)


class TestPairwiseSqDists:
    def test_matches_bruteforce(self, rng):
        A, B = rng.normal(size=(7, 4)), rng.normal(size=(5, 4))
        D = pairwise_sq_dists(A, B)
        brute = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(D, brute, atol=1e-10)

    def test_self_distance_zero(self, rng):
        A = rng.normal(size=(4, 3))
        D = pairwise_sq_dists(A, A)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-9)

    def test_never_negative(self, rng):
        A = rng.normal(size=(50, 10)) * 1e-8  # tiny values stress round-off
        assert (pairwise_sq_dists(A, A) >= 0).all()

    def test_shape(self, rng):
        assert pairwise_sq_dists(rng.normal(size=(3, 2)), rng.normal(size=(6, 2))).shape == (3, 6)


class TestPairwiseL1Dists:
    def test_matches_bruteforce(self, rng):
        A, B = rng.normal(size=(4, 5)), rng.normal(size=(6, 5))
        D = pairwise_l1_dists(A, B)
        brute = np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)
        np.testing.assert_allclose(D, brute)

    def test_symmetry(self, rng):
        A = rng.normal(size=(5, 3))
        np.testing.assert_allclose(pairwise_l1_dists(A, A), pairwise_l1_dists(A, A).T)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array(0.0)) == pytest.approx(0.5)

    def test_extremes_no_warning(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0) and out[1] == pytest.approx(1.0)

    def test_monotone(self, rng):
        x = np.sort(rng.normal(size=100) * 10)
        assert (np.diff(sigmoid(x)) >= 0).all()

    def test_symmetry(self, rng):
        x = rng.normal(size=20)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestRunningMoments:
    def test_mean(self):
        m = RunningMoments()
        for v in [1.0, 2.0, 3.0, 4.0]:
            m.update(v)
        assert m.mean == pytest.approx(2.5)

    def test_population_variance(self, rng):
        data = rng.normal(size=500)
        m = RunningMoments()
        m.update_many(data)
        assert m.variance == pytest.approx(data.var(), rel=1e-9)
        assert m.std == pytest.approx(data.std(), rel=1e-9)

    def test_empty_variance_zero(self):
        assert RunningMoments().variance == 0.0

    def test_single_value(self):
        m = RunningMoments()
        m.update(7.0)
        assert m.mean == 7.0 and m.variance == 0.0

    def test_reset(self):
        m = RunningMoments()
        m.update_many([1.0, 2.0])
        m.reset()
        assert m.count == 0 and m.mean == 0.0 and m.variance == 0.0

    def test_numerically_stable_offset(self):
        # Classic catastrophic-cancellation scenario for naive sum-of-squares.
        base = 1e9
        m = RunningMoments()
        for v in [base + 1, base + 2, base + 3]:
            m.update(v)
        assert m.variance == pytest.approx(2.0 / 3.0, rel=1e-6)
