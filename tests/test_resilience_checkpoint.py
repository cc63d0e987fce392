"""Checkpoint container tests: atomicity, round-trip fidelity, corruption.

The on-disk contract: a checkpoint either exists complete (magic +
checksum verify) or effectively not at all; loading validates *everything*
before returning any state, so a damaged file can never leak partial
state into a live object; version skew is detected on intact files.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.resilience import (
    FORMAT_VERSION,
    MAGIC,
    atomic_write_bytes,
    corrupt_version,
    flip_bit,
    load_checkpoint,
    save_checkpoint,
    truncate_file,
)
from repro.resilience.state import (
    decode_records,
    encode_records,
    flatten_state,
    state_arrays_nbytes,
    unflatten_state,
)
from repro.utils.exceptions import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    ReproError,
)


def _rich_state(rng):
    """A state tree exercising every supported leaf type."""
    return {
        "arr2d": rng.normal(size=(7, 3)),
        "ints": np.arange(5, dtype=np.int64),
        "bools": np.array([True, False, True]),
        "scalar_int": 42,
        "scalar_float": 0.1 + 0.2,  # not exactly representable: bit fidelity
        "inf": float("inf"),
        "none": None,
        "text": "label",
        "flag": True,
        "nested": {"deep": {"x": rng.normal(size=4), "t": ("a", 1, 2.5)}},
        "listed": [1.5, None, "s", np.array([9.0])],
        "empty_list": [],
        "tuple": (3, "b"),
    }


class TestStateTree:
    def test_flatten_unflatten_identity(self, rng):
        state = _rich_state(rng)
        tree, arrays = flatten_state(state)
        back = unflatten_state(tree, arrays)
        assert back["scalar_float"] == state["scalar_float"]
        assert back["inf"] == float("inf")
        assert back["none"] is None
        assert back["tuple"] == (3, "b")
        assert back["nested"]["deep"]["t"] == ("a", 1, 2.5)
        np.testing.assert_array_equal(back["arr2d"], state["arr2d"])
        assert back["arr2d"].dtype == state["arr2d"].dtype
        assert back["bools"].dtype == np.bool_

    def test_nbytes_counts_arrays(self, rng):
        state = {"a": rng.normal(size=(10, 4)), "b": {"c": np.arange(8)}}
        assert state_arrays_nbytes(state) == 10 * 4 * 8 + 8 * 8

    def test_reserved_key_collision_raises(self):
        with pytest.raises(ReproError):
            flatten_state({"bad": {"__ndarray__": "x"}})

    def test_records_round_trip_bit_exact(self, rng):
        from repro.core.pipeline import StepRecord

        records = [
            StepRecord(
                index=i,
                predicted=int(rng.integers(0, 3)),
                true_label=None if i % 5 == 0 else int(rng.integers(0, 3)),
                correct=None if i % 5 == 0 else bool(rng.integers(0, 2)),
                anomaly_score=float(rng.normal()),
                drift_detected=bool(i == 7),
                reconstructing=bool(3 <= i < 6),
                phase=("predict", "reconstruct", "drift")[i % 3],
            )
            for i in range(40)
        ]
        back = decode_records(encode_records(records))
        assert back == records
        a = np.array([r.anomaly_score for r in back])
        b = np.array([r.anomaly_score for r in records])
        assert a.tobytes() == b.tobytes()


class TestAtomicWriter:
    def test_writes_bytes(self, tmp_path):
        p = tmp_path / "f.bin"
        atomic_write_bytes(p, b"hello")
        assert p.read_bytes() == b"hello"

    def test_overwrites_atomically(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"old")
        atomic_write_bytes(p, b"new contents")
        assert p.read_bytes() == b"new contents"

    def test_leaves_no_temp_files(self, tmp_path):
        p = tmp_path / "f.bin"
        atomic_write_bytes(p, b"x" * 1024)
        assert os.listdir(tmp_path) == ["f.bin"]


class TestSaveLoad:
    def test_round_trip(self, tmp_path, rng):
        state = _rich_state(rng)
        path = save_checkpoint(tmp_path / "c.ckpt", state, kind="test", meta={"k": 1})
        ckpt = load_checkpoint(path)
        assert ckpt.kind == "test"
        assert ckpt.meta == {"k": 1}
        assert ckpt.format_version == FORMAT_VERSION
        np.testing.assert_array_equal(ckpt.state["arr2d"], state["arr2d"])
        assert ckpt.state["scalar_float"] == state["scalar_float"]
        assert ckpt.state["inf"] == float("inf")

    def test_file_starts_with_magic(self, tmp_path, rng):
        path = save_checkpoint(tmp_path / "c.ckpt", {"a": 1}, kind="test")
        assert path.read_bytes()[: len(MAGIC)] == MAGIC

    def test_expected_kind_enforced(self, tmp_path):
        path = save_checkpoint(tmp_path / "c.ckpt", {"a": 1}, kind="alpha")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, expected_kind="beta")

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")


class TestCorruptionDetection:
    """Every damage mode must raise CheckpointCorruptError — never load."""

    def _saved(self, tmp_path, rng):
        return save_checkpoint(
            tmp_path / "c.ckpt", _rich_state(rng), kind="test"
        )

    def test_truncation(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)
        truncate_file(path)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_truncated_to_tiny(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)
        truncate_file(path, keep_bytes=5)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bit", [0, 63, 300, 4096])
    def test_bit_flip_anywhere(self, tmp_path, rng, bit):
        path = self._saved(tmp_path, rng)
        size_bits = path.stat().st_size * 8
        flip_bit(path, bit % size_bits)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, rng):
        path = self._saved(tmp_path, rng)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(os.urandom(2048))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_wrong_version_with_valid_checksum(self, tmp_path, rng):
        """Version skew is its own error class, distinct from damage —
        the file is intact, just written by an incompatible format."""
        path = self._saved(tmp_path, rng)
        corrupt_version(path, FORMAT_VERSION + 1)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)
        # and it still is a CheckpointCorruptError for blanket handlers
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)


class TestRefusalWithoutMutation:
    """A failed load must leave in-memory pipeline state untouched."""

    def test_pipeline_resume_refuses_corrupt_and_keeps_state(self, tmp_path):
        from repro.core import build_proposed
        from repro.datasets import NSLKDDConfig, make_nslkdd_like
        from repro.resilience import InjectedCrash, crash_at

        train, test = make_nslkdd_like(
            NSLKDDConfig(n_train=300, n_test=600, drift_at=200), seed=0
        )
        ckpt = tmp_path / "c.ckpt"
        victim = build_proposed(train.X, train.y, window_size=30, seed=1)
        with pytest.raises(InjectedCrash):
            with crash_at(victim, 100):
                victim.run(test, checkpoint_every=16, checkpoint_path=ckpt)
        flip_bit(ckpt, 2048)

        survivor = build_proposed(train.X, train.y, window_size=30, seed=1)
        before = flatten_state(survivor.get_state())
        with pytest.raises(CheckpointCorruptError):
            survivor.resume(test, ckpt)
        after = flatten_state(survivor.get_state())
        assert before[0] == after[0]
        assert sorted(before[1]) == sorted(after[1])
        for k in before[1]:
            np.testing.assert_array_equal(before[1][k], after[1][k])
        # the refused pipeline is still fully usable
        records = survivor.run(test)
        assert len(records) == len(test)


class TestIoPersistenceAtomicity:
    """Regression for the legacy save_pipeline: it used to write the
    archive non-atomically (np.savez straight to the target), so a crash
    mid-save left a torn, half-written .npz. It now goes through the
    atomic checksummed container."""

    @pytest.fixture()
    def fitted(self):
        from repro.core import build_proposed
        from repro.datasets import NSLKDDConfig, make_nslkdd_like

        train, test = make_nslkdd_like(
            NSLKDDConfig(n_train=300, n_test=400, drift_at=200), seed=0
        )
        pipe = build_proposed(train.X, train.y, window_size=30, seed=1)
        pipe.run(test.take(100))
        return pipe, test

    def test_no_temp_residue_and_single_file(self, tmp_path, fitted):
        from repro.io import save_pipeline

        pipe, _ = fitted
        save_pipeline(pipe, tmp_path / "deploy.npz")
        assert os.listdir(tmp_path) == ["deploy.npz"]

    def test_corrupted_archive_is_refused(self, tmp_path, fitted):
        from repro.io import load_pipeline, save_pipeline

        pipe, _ = fitted
        path = save_pipeline(pipe, tmp_path / "deploy.npz")
        truncate_file(path)
        with pytest.raises(CheckpointCorruptError):
            load_pipeline(path)

    def test_bit_flipped_archive_is_refused(self, tmp_path, fitted):
        from repro.io import load_pipeline, save_pipeline

        pipe, _ = fitted
        path = save_pipeline(pipe, tmp_path / "deploy.npz")
        flip_bit(path, 10_000)
        with pytest.raises(CheckpointCorruptError):
            load_pipeline(path)

    def test_mid_stream_save_restore_resumes_exactly(self, tmp_path, fitted):
        from repro.io import load_pipeline, save_pipeline

        pipe, test = fitted
        rest = test.slice(100)
        golden = [r for r in pipe.run(rest, chunk_size=1)]

        # restore the pre-run snapshot and replay: same records
        path = tmp_path / "deploy.npz"
        # (re-fit an identical pipeline to the 100-sample point)
        from repro.core import build_proposed
        from repro.datasets import NSLKDDConfig, make_nslkdd_like

        train, test2 = make_nslkdd_like(
            NSLKDDConfig(n_train=300, n_test=400, drift_at=200), seed=0
        )
        fresh = build_proposed(train.X, train.y, window_size=30, seed=1)
        fresh.run(test2.take(100))
        save_pipeline(fresh, path)
        restored = load_pipeline(path)
        replay = restored.run(rest, chunk_size=1)
        assert [r.predicted for r in replay] == [r.predicted for r in golden]
        a = np.array([r.anomaly_score for r in replay])
        b = np.array([r.anomaly_score for r in golden])
        assert a.tobytes() == b.tobytes()


class TestStaleContainer:
    """A fresh run never resumes from a container an earlier run left."""

    EVERY = 64

    def test_fresh_run_is_not_paired_with_an_earlier_container(
        self, tmp_path, monkeypatch
    ):
        from repro.core import build_proposed
        from repro.datasets import NSLKDDConfig, make_nslkdd_like
        from repro.metrics import evaluate_method
        from repro.resilience import InjectedCrash, crash_at
        from repro.resilience import checkpoint as container

        train, test = make_nslkdd_like(
            NSLKDDConfig(n_train=400, n_test=600, drift_at=300), seed=0
        )

        def make(seed):
            return build_proposed(train.X, train.y, window_size=60, seed=seed)

        ckpt = tmp_path / "cell.ckpt"
        # Run A (model seed 1) is killed after its first container.
        with pytest.raises(InjectedCrash):
            with crash_at(a := make(1), self.EVERY + 30):
                a.run(test, checkpoint_every=self.EVERY, checkpoint_path=ckpt)
        assert ckpt.exists()
        # A fresh run B (seed 2) on the same path is killed after its
        # first log block, before its first container lands.
        with monkeypatch.context() as patch:
            patch.setattr(container, "save_checkpoint", lambda *a, **k: None)
            with pytest.raises(InjectedCrash):
                with crash_at(b := make(2), self.EVERY + 30):
                    b.run(test, checkpoint_every=self.EVERY, checkpoint_path=ckpt)
        # Resuming B must not load A's state over B's records.
        result = evaluate_method(
            make(2), test, checkpoint_every=self.EVERY, checkpoint_path=ckpt
        )
        assert result.resumed_at is None
        assert result.records == make(2).run(test)
