"""Second round of property-based tests (hypothesis) — newer subsystems.

Pins invariants of the components added on top of the core reproduction:
the KS test, Hellinger distance and the ascii sparkline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.detectors import hellinger_distance, ks_two_sample
from repro.metrics import sparkline

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64)


class TestKSProperties:
    @given(
        arrays(np.float64, st.integers(5, 80), elements=finite),
        arrays(np.float64, st.integers(5, 80), elements=finite),
    )
    @settings(max_examples=60, deadline=None)
    def test_statistic_in_unit_interval(self, a, b):
        d, p = ks_two_sample(a, b)
        assert 0.0 <= d <= 1.0
        assert 0.0 <= p <= 1.0

    @given(arrays(np.float64, st.integers(5, 80), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, a):
        b = a[::-1] + 1.0
        d1, p1 = ks_two_sample(a, b)
        d2, p2 = ks_two_sample(b, a)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    @given(arrays(np.float64, st.integers(5, 60), elements=finite))
    @settings(max_examples=40, deadline=None)
    def test_self_distance_zero(self, a):
        d, p = ks_two_sample(a, a)
        assert d == 0.0 and p == 1.0


class TestHellingerProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_bounded_and_zero_on_self(self, seed, dims, bins):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, dims))
        lo, hi = X.min(axis=0), X.max(axis=0)
        assert hellinger_distance(X, X, n_bins=bins, lo=lo, hi=hi) == pytest.approx(0.0)
        Y = rng.normal(size=(60, dims)) + 1.0
        d = hellinger_distance(X, Y, n_bins=bins, lo=lo, hi=hi)
        assert 0.0 <= d <= 1.0 + 1e-9


class TestSparklineProperties:
    @given(arrays(np.float64, st.integers(1, 200), elements=finite),
           st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_length_and_alphabet(self, values, width):
        s = sparkline(values, width=width)
        assert len(s) == min(width, len(values))
        assert set(s) <= set("▁▂▃▄▅▆▇█")
