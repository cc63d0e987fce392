"""Unit tests for repro.guard.sanitizer — bounds learning and policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.guard import FeatureBounds, InputSanitizer, POLICIES
from repro.utils.exceptions import ConfigurationError


@pytest.fixture
def bounds(rng) -> FeatureBounds:
    return FeatureBounds.from_data(rng.normal(0.5, 0.1, size=(100, 4)))


def make_sanitizer(bounds, policy, **kw) -> InputSanitizer:
    return InputSanitizer(bounds.n_features, policy=policy, bounds=bounds, **kw)


class TestFeatureBounds:
    def test_from_data_covers_training_data(self, rng):
        X = rng.normal(size=(200, 5))
        b = FeatureBounds.from_data(X)
        assert b.contains_all(X)
        assert not b.violations(X[0]).any()

    def test_margin_zero_is_exact_min_max(self, rng):
        X = rng.normal(size=(50, 3))
        b = FeatureBounds.from_data(X, margin=0.0)
        np.testing.assert_array_equal(b.lo, X.min(axis=0))
        np.testing.assert_array_equal(b.hi, X.max(axis=0))

    def test_drift_scale_shift_stays_inside(self, rng):
        # A feature quiet in training may legitimately swing across the
        # data's global scale after drift — that must not look faulty.
        X = rng.normal(0.0, 0.01, size=(100, 4))
        X[:, 2] += 0.5  # one feature defines the global scale
        b = FeatureBounds.from_data(X)
        drifted = np.array([0.5, 0.5, 0.0, 0.5])  # peak moved to new bins
        assert not b.violations(drifted).any()

    def test_spike_still_caught(self, rng):
        X = rng.normal(0.5, 0.1, size=(100, 4))
        b = FeatureBounds.from_data(X)
        spiked = np.array([0.5, 1e3, 0.5, 0.5])
        assert list(np.flatnonzero(b.violations(spiked))) == [1]

    def test_nan_counts_as_violation(self, bounds):
        assert bounds.violations(np.array([np.nan, 0.5, 0.5, 0.5]))[0]

    def test_constant_data_gets_nonzero_pad(self):
        b = FeatureBounds.from_data(np.full((10, 3), 2.0))
        assert (b.hi > 2.0).all() and (b.lo < 2.0).all()

    def test_midpoint(self):
        b = FeatureBounds(np.array([0.0, -2.0]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(b.midpoint, [0.5, 0.0])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            FeatureBounds(np.zeros(3), np.zeros(2))

    def test_rejects_inverted_interval(self):
        with pytest.raises(ConfigurationError):
            FeatureBounds(np.array([1.0]), np.array([0.0]))

    def test_rejects_non_finite_bounds(self):
        with pytest.raises(ConfigurationError):
            FeatureBounds(np.array([0.0]), np.array([np.inf]))

    def test_rejects_negative_margin(self, rng):
        with pytest.raises(ConfigurationError):
            FeatureBounds.from_data(rng.normal(size=(10, 2)), margin=-1.0)


class TestContainsAllScreen:
    """The whole-chunk screen's global min/max shortcut never changes the
    verdict of the per-feature comparison."""

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(
                hnp.arrays(np.float64, d, elements=st.floats(-5, 5)),
                hnp.arrays(np.float64, d, elements=st.floats(0, 6)),
                hnp.arrays(
                    np.float64,
                    st.tuples(st.integers(0, 8), st.just(d)),
                    elements=st.one_of(
                        st.floats(-12, 12),
                        st.sampled_from([np.nan, np.inf, -np.inf]),
                    ),
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_verdict_equals_per_feature_comparison(self, case):
        lo, width, X = case
        b = FeatureBounds(lo, lo + width)
        with np.errstate(invalid="ignore"):
            want = bool((X >= b.lo).all() and (X <= b.hi).all())
        assert b.contains_all(X) is want


class TestSanitizerCleanPath:
    def test_clean_sample_returned_by_reference(self, bounds):
        s = make_sanitizer(bounds, "reject")
        x = np.full(4, 0.5)
        out = s.sanitize(x)
        assert out.action == "ok" and out.x is x and out.bad_features == ()
        assert s.counts["ok"] == 1 and s.n_faults == 0

    def test_all_clean_vectorized_matches_per_sample(self, bounds, rng):
        s = make_sanitizer(bounds, "reject")
        X = rng.normal(0.5, 0.1, size=(32, 4))
        assert s.all_clean(X)
        X[5, 2] = np.nan
        assert not s.all_clean(X)

    def test_all_clean_rejects_wrong_width(self, bounds, rng):
        s = make_sanitizer(bounds, "reject")
        assert not s.all_clean(rng.normal(0.5, 0.1, size=(8, 3)))

    def test_all_clean_without_bounds_only_checks_finiteness(self):
        s = InputSanitizer(2, policy="clip")
        assert s.all_clean(np.array([[1e9, -1e9]]))
        assert not s.all_clean(np.array([[1.0, np.inf]]))


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            InputSanitizer(3, policy="panic")

    def test_policy_tuple_is_stable_api(self):
        assert POLICIES == ("reject", "clip", "impute_last_good", "quarantine")

    def test_reject_returns_none_sample(self, bounds):
        s = make_sanitizer(bounds, "reject")
        out = s.sanitize(np.array([np.nan, 0.5, 0.5, 0.5]))
        assert out.action == "rejected" and out.x is None
        assert out.bad_features == (0,)
        assert s.counts["rejected"] == 1

    def test_clip_clamps_into_bounds(self, bounds):
        s = make_sanitizer(bounds, "clip")
        out = s.sanitize(np.array([1e6, 0.5, -1e6, 0.5]))
        assert out.action == "clipped"
        assert out.x[0] == bounds.hi[0] and out.x[2] == bounds.lo[2]
        assert out.x[1] == 0.5

    def test_clip_repairs_nan_from_last_good(self, bounds):
        s = make_sanitizer(bounds, "clip")
        s.sanitize(np.array([0.4, 0.5, 0.6, 0.5]))  # establishes last-good
        out = s.sanitize(np.array([np.nan, 0.5, 0.5, 0.5]))
        assert out.action == "clipped" and out.x[0] == 0.4

    def test_impute_uses_last_good_reading(self, bounds):
        s = make_sanitizer(bounds, "impute_last_good")
        s.sanitize(np.array([0.41, 0.52, 0.63, 0.54]))
        out = s.sanitize(np.array([np.nan, 0.5, 1e7, 0.5]))
        assert out.action == "imputed"
        assert out.x[0] == 0.41 and out.x[2] == 0.63
        assert out.bad_features == (0, 2)

    def test_impute_before_any_clean_uses_midpoint(self, bounds):
        s = make_sanitizer(bounds, "impute_last_good")
        out = s.sanitize(np.array([np.nan, 0.5, 0.5, 0.5]))
        assert out.x[0] == bounds.midpoint[0]

    def test_impute_without_bounds_or_history_uses_zero(self):
        s = InputSanitizer(2, policy="impute_last_good")
        out = s.sanitize(np.array([np.nan, 1.0]))
        assert out.x[0] == 0.0

    def test_quarantine_withholds_and_buffers(self, bounds):
        s = make_sanitizer(bounds, "quarantine", quarantine_capacity=2)
        for k in range(3):
            out = s.sanitize(np.array([np.nan, 0.5, 0.5, float(k)]))
            assert out.action == "quarantined" and out.x is None
        assert len(s.quarantined) == 2  # bounded buffer keeps the newest
        assert s.quarantined[-1][3] == 2.0

    def test_wrong_width_row_degrades_to_quarantine(self, bounds):
        # A truncated row cannot be repaired feature-wise, even under a
        # repairing policy.
        s = make_sanitizer(bounds, "impute_last_good")
        out = s.sanitize(np.array([0.5, 0.5]))
        assert out.action == "quarantined"
        assert out.bad_features == (0, 1, 2, 3)

    def test_fault_tally(self, bounds):
        s = make_sanitizer(bounds, "clip")
        s.sanitize(np.full(4, 0.5))
        s.sanitize(np.array([np.nan, 0.5, 0.5, 0.5]))
        s.sanitize(np.array([1e9, 0.5, 0.5, 0.5]))
        assert s.n_faults == 2 and s.counts["ok"] == 1

    def test_bounds_feature_mismatch_rejected(self, bounds):
        with pytest.raises(ConfigurationError):
            InputSanitizer(7, policy="clip", bounds=bounds)
