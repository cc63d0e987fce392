"""Records as columns: :class:`RecordBlock`, its codec, and what it keeps resident.

* A block's records equal, field by field and type by type, the
  ``StepRecord`` tuples the pipelines return, and the one codec the
  record log and the fleet spool share round-trips them bit-exactly.
* A session keeps its records as blocks: one resident record costs at
  most :data:`MAX_RESIDENT_BYTES` (a ``StepRecord`` tuple of Python
  scalars costs about 176 bytes).
* A fleet spool file of another layout revision is refused as corrupt:
  the device is quarantined and ``corrupt_checkpoints`` counts it.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import RecordBlock, StepRecord
from repro.core.records import PHASES, decode_block, encode_blocks, records_of
from repro.engine import StreamSession, build_pipeline, build_streams, default_stack
from repro.engine.context import MERGE_ROWS
from repro.fleet import FleetManager, make_fleet_specs
from repro.resilience import load_checkpoint, save_checkpoint
from repro.utils.exceptions import DeviceQuarantinedError

#: resident bytes one record may cost in a session, whatever its chunk size
MAX_RESIDENT_BYTES = 48

FIELD_TYPES = (int, int, (int, type(None)), (bool, type(None)), float, bool, bool, str)


def _records(n: int, start: int = 0, *, seed: int = 0, missing_every: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(start, start + n):
        predicted = int(rng.integers(0, 3))
        label = None if missing_every and i % missing_every == 0 else int(rng.integers(0, 3))
        out.append(StepRecord(
            i, predicted, label, None if label is None else predicted == label,
            float(rng.normal()), i == start + 2, 1 <= i - start < 4,
            PHASES[i % len(PHASES)],
        ))
    return out


def _assert_same(a, b):
    assert a == b
    for ra, rb in zip(a, b):
        assert [type(v) for v in ra] == [type(v) for v in rb]
    assert (
        np.array([r.anomaly_score for r in a]).tobytes()
        == np.array([r.anomaly_score for r in b]).tobytes()
    )


class TestRecordBlock:
    def test_from_records_round_trips_field_and_type(self):
        for missing_every in (0, 3):
            recs = _records(20, start=5, missing_every=missing_every)
            block = RecordBlock.from_records(recs)
            assert (block.start, block.stop, len(block)) == (5, 25, 20)
            assert (block.missing is None) == (missing_every == 0)
            assert block.correct is None  # implied by the labels
            _assert_same(block.records(), recs)
            for rec in block.records():
                for value, kind in zip(rec, FIELD_TYPES):
                    assert isinstance(value, kind)

    def test_a_correct_field_the_labels_do_not_imply_is_kept(self):
        recs = _records(6)
        recs[1] = recs[1]._replace(correct=not recs[1].correct)
        block = RecordBlock.from_records(recs)
        assert block.correct is not None
        _assert_same(decode_block(encode_blocks([block])).records(), recs)

    def test_concat_and_codec_keep_every_record(self):
        recs = _records(30, start=10, missing_every=4)
        blocks = [RecordBlock.from_records(recs[a:b]) for a, b in ((0, 7), (7, 8), (8, 30))]
        _assert_same(RecordBlock.concat(blocks).records(), recs)
        _assert_same(records_of(blocks), recs)
        back = decode_block(encode_blocks(blocks))
        assert back.start == 10
        _assert_same(back.records(), recs)

    @pytest.mark.parametrize("big", [100, 300, 70_000, 2**40, -(2**62)])
    def test_codec_keeps_labels_of_any_width(self, big):
        recs = [r._replace(true_label=big, correct=r.predicted == big) for r in _records(5)]
        recs[3] = recs[3]._replace(predicted=big, correct=True)
        _assert_same(decode_block(encode_blocks([RecordBlock.from_records(recs)])).records(), recs)

    def test_codec_rejects_gaps_and_torn_bytes(self):
        a = RecordBlock.from_records(_records(4))
        b = RecordBlock.from_records(_records(4, start=5))
        with pytest.raises(ValueError):
            encode_blocks([a, b])
        raw = encode_blocks([a])
        with pytest.raises(ValueError):
            decode_block(raw[:-1])

    def test_empty_blocks(self):
        assert RecordBlock.empty().records() == []
        assert decode_block(encode_blocks([])).records() == []
        assert RecordBlock.from_records([]).records() == []


def test_small_chunks_merge_into_long_blocks():
    """Blocks stored from 1- and 7-row feeds are merged, yet every feed
    returns its own records and the session's records equal a whole run's."""
    spec = next(iter(make_fleet_specs(1, seed=3, n_test=400, drift_fraction=1.0).values()))
    _, test = build_streams(spec)
    expected = build_pipeline(spec).run(test)
    pipeline = build_pipeline(spec)
    session = StreamSession(pipeline, default_stack(pipeline, 256)).open()
    lo = 0
    for size in [1] * 50 + [7] * 50:
        got = session.feed(test.X[lo : lo + size], test.y[lo : lo + size])
        _assert_same(got, expected[lo : lo + size])
        lo += size
    session.feed(test.X[lo:], test.y[lo:])
    assert all(len(b) >= MERGE_ROWS for b in session.blocks[:-1])
    assert len(session.blocks) < 400 // MERGE_ROWS + 2
    _assert_same(session.close(), expected)


@pytest.mark.parametrize("chunk, n", [(60, 12_000), (5, 12_000), (1, 6_000)])
def test_resident_records_stay_compact(chunk, n):
    """A session fed ``n`` samples in ``chunk``-row chunks keeps its
    records in at most ``MAX_RESIDENT_BYTES`` per record: small chunks'
    blocks are merged as they are stored."""
    spec = next(iter(make_fleet_specs(1, seed=3, n_test=n, drift_fraction=1.0).values()))
    _, test = build_streams(spec)
    pipeline = build_pipeline(spec)
    session = StreamSession(pipeline, default_stack(pipeline, 256)).open()
    session.feed(test.X[:60], test.y[:60])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for lo in range(60, n, chunk):
            session.feed(test.X[lo : lo + chunk], test.y[lo : lo + chunk])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pipeline.detections  # the stream drifts: reconstruction blocks too
    assert session.position == n
    per_record = grown / (n - 60)
    assert per_record <= MAX_RESIDENT_BYTES, f"{per_record:.1f} bytes per record"


def _v1_columns(records) -> dict:
    """A session's records in the spool's layout revision 1: typed columns
    plus a phase vocabulary."""
    vocab = list(dict.fromkeys(r.phase for r in records))
    return {
        "index": np.array([r.index for r in records], dtype=np.int64),
        "predicted": np.array([r.predicted for r in records], dtype=np.int64),
        "true_label": np.array(
            [-1 if r.true_label is None else r.true_label for r in records], dtype=np.int64
        ),
        "true_none": np.array([r.true_label is None for r in records]),
        "correct": np.array(
            [-1 if r.correct is None else int(r.correct) for r in records], dtype=np.int8
        ),
        "anomaly_score": np.array([r.anomaly_score for r in records]),
        "drift_detected": np.array([r.drift_detected for r in records]),
        "reconstructing": np.array([r.reconstructing for r in records]),
        "phase_codes": np.array([vocab.index(r.phase) for r in records], dtype=np.int64),
        "phase_vocab": vocab,
    }


@pytest.mark.parametrize("layout", ["columns", "blocks"])
def test_revision_one_spool_is_refused_as_corrupt(layout, tmp_path):
    """A revision-1 spool — the old column layout, or today's records
    under a revision-1 header — benches its device and spares the rest."""
    specs = make_fleet_specs(3, seed=1, n_test=120)
    ids = list(specs)
    _, test = build_streams(specs[ids[0]])
    with FleetManager(capacity=2, spool_dir=tmp_path) as fm:
        for dev, spec in specs.items():
            fm.add_device(dev, spec)
        for dev in ids:
            fm.submit(dev, test.X[:60], test.y[:60])
        victim = ids[0]
        assert fm.evict_device(victim) or victim not in fm.resident
        path = tmp_path / f"{victim}.fleetck"
        ck = load_checkpoint(path)
        state, meta = dict(ck.state), dict(ck.meta)
        meta["spool_format"] = 1
        if layout == "columns":
            del meta["spool_format"]  # revision 1 carried no format field
            state["records"] = _v1_columns(decode_block(state["records"]).records())
        save_checkpoint(path, state, kind=ck.kind, meta=meta, durable=False)

        with pytest.raises(DeviceQuarantinedError):
            fm.submit(victim, test.X[60:], test.y[60:])
        assert fm.stats.corrupt_checkpoints == 1
        assert victim in fm.quarantined
        assert len(fm.submit(ids[1], test.X[60:], test.y[60:])) == 60
