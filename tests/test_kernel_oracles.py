"""Bit-equality of the per-row kernels against their earlier formulations.

Each test keeps an earlier, slower formulation of a kernel verbatim as
its oracle and requires the current kernel to produce the same float64
bits — the same IEEE operations on the same operands, minus wrapper and
dispatch cost:

* the branch-free logistic ``sigmoid`` vs the masked one, including
  ±0.0, ±inf, NaN and arguments far past ``exp``'s overflow point;
* the RLS rank-1 step (plain and forgetting cores) vs ``np.outer``;
* the autoencoder's per-sample error vs ``np.mean``;
* ``CentroidSet.update_rows`` vs the per-row running-mean fold, with
  and without a count cap that is reached in the middle of a block;
* ``OSELMAutoencoder.score_batch_many`` vs gathering every row's beta
  from a stacked tensor, with owners interleaved;
* the lockstep kernels of :mod:`repro.core.lockstep` vs the per-device
  kernels they stack: the fold vs ``CentroidSet._fold_rows`` (ragged
  windows, a count cap hit mid-block, zero counts, ``-0.0`` rows), the
  rank-1 step vs each core's ``_rank1_update`` (plain and forgetting,
  many steps), and the cross-device instance scores vs ``scores_hidden``.

Also pinned: ``model_signature`` follows a restore that swaps the
random-layer weights, so batched scoring stays exact. Runs under the derandomized
hypothesis profile of ``tests/conftest.py``.
"""

from __future__ import annotations

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import CentroidSet
from repro.core.lockstep import fold_lockstep, instance_scores, rank1_lockstep
from repro.fleet import model_signature
from repro.oselm import MultiInstanceModel, OSELMAutoencoder
from repro.oselm.forgetting import ForgettingOSELM
from repro.oselm.oselm import OSELM
from repro.utils.math import sigmoid

seeds = st.integers(0, 2**31 - 1)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


# -- sigmoid -------------------------------------------------------------------------


def masked_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, 710.0, -710.0, 745.0,
     -745.0, 1e300, -1e300, 5e-324, -5e-324, 1e-300, -36.7, 36.7]
)


class TestSigmoid:
    def test_edge_values_bit_equal_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(EDGES)
        assert _bits(got) == _bits(masked_sigmoid(EDGES))

    @given(hnp.arrays(np.float64, st.integers(0, 64)))
    @settings(max_examples=200, deadline=None)
    def test_any_float_bit_equal(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        assert got.shape == x.shape
        assert _bits(got) == _bits(masked_sigmoid(x))

    @given(seeds, st.sampled_from([1.0, 30.0, 800.0]))
    @settings(max_examples=20, deadline=None)
    def test_random_pre_activations_bit_equal(self, seed, scale):
        x = np.random.default_rng(seed).normal(0.0, scale, size=(50, 1, 22))
        assert _bits(sigmoid(x)) == _bits(masked_sigmoid(x))

    def test_zero_d_input(self):
        assert _bits(sigmoid(np.float64(-3.0))) == _bits(masked_sigmoid(np.float64(-3.0)))


# -- OS-ELM rank-1 step -----------------------------------------------------------------


def outer_rank1(beta, P, h, t, a=None):
    """The rank-1 step as written with np.outer; ``a`` is the forgetting
    factor (None for the plain core)."""
    Ph = P @ h[0]
    denom = (1.0 if a is None else a) + float(h[0] @ Ph)
    k = Ph / denom
    err = t[0] - h[0] @ beta
    beta += np.outer(k, err)
    P -= np.outer(k, Ph)
    if a is not None:
        P /= a
    P += P.T
    P *= 0.5


class TestRankOneStep:
    @given(seeds, st.integers(1, 8), st.integers(2, 24), st.sampled_from([None, 0.9, 0.99]))
    @settings(max_examples=40, deadline=None)
    def test_step_bit_equal_to_outer_form(self, seed, d, h, forgetting):
        rng = np.random.default_rng(seed)
        X0 = rng.uniform(0.0, 1.0, size=(2 * h + 4, d))
        if forgetting is None:
            core = OSELM(d, h, d, seed=seed)
        else:
            core = ForgettingOSELM(d, h, d, forgetting_factor=forgetting, seed=seed)
        core.fit_initial(X0, X0)
        beta, P = core.beta.copy(), core.P.copy()
        for x in rng.uniform(-1.0, 2.0, size=(12, d)):
            hrow = core.layer.transform_one(x)
            core.partial_fit_hidden(hrow, x)
            outer_rank1(beta, P, hrow, x.reshape(1, -1), forgetting)
        assert _bits(core.beta) == _bits(beta)
        assert _bits(core.P) == _bits(P)


# -- autoencoder error ----------------------------------------------------------------


def mean_error(metric, r, x):
    if metric == "mse":
        return float(np.mean((r - x) ** 2))
    return float(np.mean(np.abs(r - x)))


class TestError:
    @given(
        st.sampled_from(["mse", "mae"]),
        st.integers(1, 600).flatmap(
            lambda n: st.tuples(
                hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)),
                hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)),
            )
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_error_bit_equal_to_mean(self, metric, pair):
        r, x = pair
        ae = OSELMAutoencoder(len(x), 2, error_metric=metric, seed=0)
        got = ae._error(r, x)
        assert type(got) is float
        assert _bits(got) == _bits(mean_error(metric, r, x))

    @given(st.sampled_from(["mse", "mae"]), seeds, st.integers(1, 40), st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_row_errors_bit_equal_to_mean_along_rows(self, metric, seed, n, d):
        rng = np.random.default_rng(seed)
        R, X = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        ae = OSELMAutoencoder(d, 2, error_metric=metric, seed=0)
        want = (
            np.mean((R - X) ** 2, axis=1) if metric == "mse" else np.mean(np.abs(R - X), axis=1)
        )
        assert _bits(ae._row_errors(R, X)) == _bits(want)


# -- centroid folds ------------------------------------------------------------------------


def fold_rows(recent, counts, cap, labels, X):
    """The per-row running-mean fold with the cap tested on every row."""
    counts = counts.tolist()
    for label, x in zip(labels.tolist(), X):
        n = counts[label]
        n_eff = n if cap is None else min(n, cap)
        row = recent[label]
        if n_eff == 0:
            row[:] = x
        else:
            row *= n_eff
            row += x
            row /= n_eff + 1
        counts[label] = n + 1
    return np.asarray(counts, dtype=np.int64)


class TestCentroidFold:
    @given(
        seeds,
        st.integers(1, 4),
        st.integers(1, 12),
        st.integers(1, 80),
        st.sampled_from([None, 1, 5, 40]),
        st.integers(0, 45),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_rows_equals_per_row_update_and_oracle(self, seed, C, D, n, cap, start):
        rng = np.random.default_rng(seed)
        trained = rng.normal(size=(C, D))
        counts = rng.integers(0, start + 1, size=C)
        labels = rng.integers(0, C, size=n)
        X = rng.normal(size=(n, D)) * 10.0
        block = CentroidSet(trained, counts, max_count=cap)
        rowwise = CentroidSet(trained, counts, max_count=cap)
        block.update_rows(labels, X)
        for label, x in zip(labels.tolist(), X):
            rowwise.update(label, x)
        recent = trained.copy()
        want_counts = fold_rows(recent, counts, cap, labels, X)
        assert _bits(block.recent) == _bits(recent) == _bits(rowwise.recent)
        assert block.counts.tolist() == want_counts.tolist() == rowwise.counts.tolist()

    def test_cap_reached_mid_block(self):
        trained = np.array([[0.0, 1.0], [2.0, 3.0]])
        cs = CentroidSet(trained, np.array([3, 0]), max_count=5)
        X = np.linspace(-3.0, 3.0, 16).reshape(8, 2)
        labels = np.zeros(8, dtype=np.int64)
        cs.update_rows(labels, X)
        recent = trained.copy()
        fold_rows(recent, np.array([3, 0]), 5, labels, X)
        assert cs.counts.tolist() == [11, 0]
        assert _bits(cs.recent) == _bits(recent)


# -- batched scoring ---------------------------------------------------------------------


def gathered_scores(instances, X, owners):
    """Every row scored against its owner's beta gathered from a stack."""
    ref = instances[0]
    H = ref.core.layer.transform_rowwise(X)
    betas = np.stack([inst.core.beta for inst in instances])
    R = np.matmul(H[:, None, :], betas[owners])[:, 0, :]
    if ref.error_metric == "mse":
        return np.mean((R - X) ** 2, axis=1)
    return np.mean(np.abs(R - X), axis=1)


class TestScoreBatchMany:
    @given(
        seeds,
        st.integers(1, 5),
        st.integers(1, 60),
        st.sampled_from(["mse", "mae"]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_runs_bit_equal_to_gather_with_interleaved_owners(
        self, seed, G, n, metric, interleave
    ):
        rng = np.random.default_rng(seed)
        d, h = 6, 22
        instances = []
        for g in range(G):
            ae = OSELMAutoencoder(d, h, error_metric=metric, seed=99)
            ae.fit_initial(rng.uniform(0.0, 1.0, size=(30, d)))
            instances.append(ae)
        X = rng.uniform(-0.5, 1.5, size=(n, d))
        owners = rng.integers(0, G, size=n) if interleave else np.sort(rng.integers(0, G, size=n))
        got = OSELMAutoencoder.score_batch_many(instances, X, owners)
        assert _bits(got) == _bits(gathered_scores(instances, X, owners))
        for g, inst in enumerate(instances):
            mine = owners == g
            if mine.any():
                assert _bits(got[mine]) == _bits(inst.score_rowwise(X[mine]))


# -- signature after a restore -------------------------------------------------------------------


def _model(seed: int, rng) -> MultiInstanceModel:
    X = rng.uniform(0.0, 1.0, size=(60, 6))
    y = np.arange(60) % 2
    return MultiInstanceModel(6, 22, 2, seed=seed).fit_initial(X, y)


class TestSignatureAfterRestore:
    def test_restore_of_another_seed_changes_signature_and_batches_exactly(self):
        rng = np.random.default_rng(0)
        a, b = _model(1, rng), _model(2, rng)
        sig_a, sig_b = model_signature(a), model_signature(b)
        assert sig_a != sig_b
        a.set_state(b.get_state())
        assert model_signature(a) == sig_b
        X = rng.uniform(0.0, 1.0, size=(40, 6))
        owners = np.arange(40) % 2
        labels, scores = MultiInstanceModel.score_batch_many([a, b], X, owners)
        for k, model in enumerate((a, b)):
            want_labels, want_scores = model.predict_with_score_batch(X[owners == k])
            assert labels[owners == k].tolist() == want_labels.tolist()
            assert _bits(scores[owners == k]) == _bits(want_scores)


class TestStackedInstanceScores:
    @given(seeds, st.integers(1, 4), st.sampled_from(["mse", "mae"]))
    @settings(max_examples=30, deadline=None)
    def test_scores_hidden_bit_equal_to_per_instance_products(self, seed, C, metric):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(20 * C, 6))
        y = np.arange(len(X)) % C
        model = MultiInstanceModel(6, 22, C, error_metric=metric, seed=seed)
        model.fit_initial(X, y)
        Xt = rng.uniform(-0.5, 1.5, size=(8, 6))
        H = np.stack(model.hidden_rows(Xt))
        for j, x in enumerate(Xt):
            want = np.array([
                mean_error(metric, (H[c, j : j + 1] @ inst.core.beta)[0], x)
                for c, inst in enumerate(model.instances)
            ])
            assert _bits(model.scores_hidden(H[:, j : j + 1], x)) == _bits(want)
            assert _bits(model.scores_hidden(model.hidden_rows(x), x)) == _bits(want)
            assert _bits(model.scores_one(x)) == _bits(want)


# -- lockstep kernels --------------------------------------------------------------------------


class TestLockstepFold:
    @given(
        seeds,
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 7),
        st.sampled_from([None, 1, 3, 12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_ragged_windows_bit_equal_to_per_set_folds(self, seed, G, C, D, cap):
        rng = np.random.default_rng(seed)
        sets, ref = [], []
        for _ in range(G):
            trained = rng.normal(size=(C, D))
            counts = rng.integers(0, 4, size=C)  # zero counts included
            sets.append(CentroidSet(trained, counts, max_count=cap))
            ref.append(CentroidSet(trained, counts, max_count=cap))
        lens = rng.integers(0, 25, size=G)  # ragged; a set may have no rows
        labels = [rng.integers(0, C, size=n) for n in lens]
        rows = [rng.normal(size=(n, D)) * 10.0 for n in lens]
        for X in rows:
            X[rng.random(X.shape) < 0.2] = -0.0
        recent = np.stack([cs.recent for cs in sets]).reshape(G * C, D)
        counts = np.stack([cs.counts for cs in sets]).reshape(G * C)
        caps = np.array([cs.count_cap for cs in sets], dtype=np.int64)
        for t in range(int(lens.max(initial=0))):
            live = np.flatnonzero(lens > t)
            flat = live * C + np.array([labels[g][t] for g in live])
            fold_lockstep(recent, counts, caps[live], flat, np.stack([rows[g][t] for g in live]))
        for g, cs in enumerate(ref):
            cs._fold_rows(labels[g].tolist(), rows[g])
            assert _bits(recent.reshape(G, C, D)[g]) == _bits(cs.recent)
            assert counts.reshape(G, C)[g].tolist() == cs.counts.tolist()

    def test_cap_hit_mid_block_and_negative_zero(self):
        trained = np.array([[0.5, -1.0], [2.0, 3.0]])
        per_set = [CentroidSet(trained, np.array([3, 0]), max_count=5) for _ in range(2)]
        X = np.linspace(-3.0, 3.0, 16).reshape(8, 2)
        X[0] = -0.0
        recent = np.stack([trained, trained]).reshape(4, 2)
        counts = np.array([3, 0, 3, 0], dtype=np.int64)
        caps = np.array([5, 5], dtype=np.int64)
        for t in range(8):
            fold_lockstep(recent, counts, caps, np.array([0, 3]), np.stack([X[t], X[t]]))
        per_set[0]._fold_rows([0] * 8, X)
        per_set[1]._fold_rows([1] * 8, X)
        assert counts.tolist() == [11, 0, 3, 8]
        assert _bits(recent[:2]) == _bits(per_set[0].recent)
        assert _bits(recent[2:]) == _bits(per_set[1].recent)
        assert np.signbit(recent[3, 0]) == np.signbit(per_set[1].recent[1, 0])


class TestLockstepRankOne:
    @given(seeds, st.integers(1, 8), st.integers(2, 24), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_stacked_step_bit_equal_to_each_core(self, seed, G, h, forgetting):
        rng = np.random.default_rng(seed)
        d = 6
        cores = []
        for g in range(G):
            if forgetting:
                core = ForgettingOSELM(d, h, d, forgetting_factor=0.9 + 0.01 * g, seed=seed)
            else:
                core = OSELM(d, h, d, seed=seed)
            X0 = rng.uniform(0.0, 1.0, size=(2 * h + 4, d))
            cores.append(core.fit_initial(X0, X0))
        P = np.stack([c.P for c in cores])
        B = np.stack([c.beta for c in cores])
        factors = np.array([c.forgetting_factor for c in cores]) if forgetting else None
        for _ in range(60):
            X = rng.uniform(-1.0, 2.0, size=(G, d))
            H = np.stack([c.layer.transform_one(x)[0] for c, x in zip(cores, X)])
            for c, hrow, x in zip(cores, H, X):
                c._rank1_update(hrow[None, :], x[None, :])
            rank1_lockstep(P, B, H, X, factors)
        for g, c in enumerate(cores):
            assert _bits(P[g]) == _bits(c.P)
            assert _bits(B[g]) == _bits(c.beta)


class TestLockstepInstanceScores:
    @given(seeds, st.integers(1, 6), st.integers(1, 4), st.sampled_from(["mse", "mae"]))
    @settings(max_examples=30, deadline=None)
    def test_cross_device_scores_bit_equal_to_scores_hidden(self, seed, G, C, metric):
        rng = np.random.default_rng(seed)
        models = []
        for g in range(G):
            X = rng.uniform(0.0, 1.0, size=(20 * C, 6))
            model = MultiInstanceModel(6, 22, C, error_metric=metric, seed=seed)
            models.append(model.fit_initial(X, np.arange(len(X)) % C))
        Xt = rng.uniform(-0.5, 1.5, size=(G, 6))
        hidden = np.stack([np.stack(m.hidden_rows(x))[:, 0] for m, x in zip(models, Xt)])
        betas = np.stack([[inst.core.beta for inst in m.instances] for m in models])
        got = instance_scores(hidden, betas, Xt, metric)
        for g, (m, x) in enumerate(zip(models, Xt)):
            assert _bits(got[g]) == _bits(m.scores_hidden(m.hidden_rows(x), x))
