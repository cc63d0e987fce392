"""Algorithms 1 and 2 in lockstep across the devices of one group.

A fleet's devices share one firmware image, so their detectors and
models have one geometry: ``C`` labels, ``D`` features, ``h`` hidden
nodes. Each device's step is cheap — an O(C·D) centroid fold per check
window row (Algorithm 1), an O(h²) RLS step per reconstruction row
(Algorithm 2) — so stepping the devices one after another pays numpy
dispatch per device per row, not arithmetic. The kernels here stack the
devices' state as ``(G, C, …)`` arrays and advance every device by one
row per step:

* :func:`fold_lockstep` folds one window row into each of many centroid
  sets (:meth:`~repro.core.coords.CentroidSet._fold_rows`);
* :func:`rank1_lockstep` takes one RLS rank-1 step on each of many
  OS-ELM cores, plain or forgetting (``OSELM._rank1_update``);
* :func:`instance_scores` scores one row against every instance of many
  models (:meth:`~repro.oselm.ensemble.MultiInstanceModel.scores_hidden`);
* :func:`update_chunk_group` and :func:`reconstruct_group` run
  Algorithms 1 and 2 over many pipelines' chunks with them, and
  :func:`step_group` is the chunk step of a whole group.

Every element gets the same IEEE operations on the same operands as in
the per-device kernel, so records and ``get_state()`` are bit-identical
to stepping each device alone (``tests/test_kernel_oracles.py`` pins
each kernel). Init_Coord (Algorithm 3, the first ``n_search`` rows of a
reconstruction) stays per device.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..utils.validation import as_matrix
from .coords import init_coord_rows
from .detector import ROW_CHECK, ROW_CLOSED, ROW_IDLE, SequentialDriftDetector
from .pipeline import ProposedPipeline
from .records import RecordBlock, phase_code

#: record phase codes of Algorithm 2's steps
_SEARCH, _UPDATE, _TRAIN_CENTROID, _TRAIN_PREDICT, _FINISH = map(
    phase_code, ("search", "update", "train_centroid", "train_predict", "finish")
)

#: Smallest sets stepped in lockstep; a smaller set steps device by
#: device, which costs less there. Measured on a 2-core x86-64 host with
#: the fleet geometry (C=2, D=6, h=22): the lockstep fold beat per-device
#: folds from about 6 detectors, the lockstep reconstruction from 3.
MIN_LOCKSTEP_DETECT = 6
MIN_LOCKSTEP_RECONSTRUCT = 3

__all__ = [
    "fold_lockstep",
    "rank1_lockstep",
    "instance_scores",
    "update_chunk_group",
    "reconstruct_group",
    "lockstep_ready",
    "step_group",
]


# -- kernels ------------------------------------------------------------------------


def fold_lockstep(recent, counts, caps, flat, X) -> None:
    """Fold row ``X[i]`` into centroid row ``flat[i]``, for every ``i``.

    ``recent`` stacks the recent centroids of many sets as ``(S, D)``
    rows and ``counts`` their counts as ``(S,)``; both are updated in
    place. ``flat`` holds distinct row indices, and ``caps[i]`` is the
    count cap of ``flat[i]``'s set (:attr:`CentroidSet.count_cap`). Each
    element gets the per-set fold's ``*= n``, ``+= x``, ``/= n + 1``, or
    ``= x`` at a zero count. Indices may repeat only for a row whose
    result is discarded.
    """
    n = counts[flat]
    counts[flat] = n + 1
    np.minimum(n, caps, out=n)
    f = n.astype(np.float64)[:, None]
    rows = recent[flat]
    rows *= f
    rows += X
    rows /= f + 1.0
    if not n.all():
        fresh = n == 0
        rows[fresh] = X[fresh]
    recent[flat] = rows


def rank1_lockstep(P, B, H, T, factors: Optional[np.ndarray] = None) -> None:
    """One RLS rank-1 step on each of ``k`` OS-ELM cores, in place.

    ``P`` is ``(k, h, h)``, ``B`` (the betas) ``(k, h, d)``, ``H`` the
    hidden rows ``(k, h)`` and ``T`` the targets ``(k, d)``. ``factors``
    holds each core's forgetting factor, or is ``None`` for plain cores.
    The three stacked products issue each core's own ``P @ h``,
    ``h @ Ph`` and ``h @ beta``.
    """
    Ph = np.matmul(P, H[:, :, None])
    hPh = np.matmul(H[:, None, :], Ph)[:, 0, 0]
    denom = (1.0 if factors is None else factors) + hPh
    K = (Ph[:, :, 0] / denom[:, None])[:, :, None]
    err = T - np.matmul(H[:, None, :], B)[:, 0, :]
    B += K * err[:, None, :]
    P -= K * Ph.transpose(0, 2, 1)
    if factors is not None:
        P /= factors[:, None, None]
    P += P.transpose(0, 2, 1)
    P *= 0.5


def instance_scores(hidden, betas, X, metric: str) -> np.ndarray:
    """Anomaly score of each instance of ``k`` models for one row each.

    ``hidden`` is ``(k, C, h)`` (every instance's hidden row of ``X[i]``),
    ``betas`` ``(k, C, h, d)`` and ``X`` ``(k, d)``; returns ``(k, C)``.
    """
    R = np.matmul(hidden[:, :, None, :], betas)[:, :, 0, :]
    R -= X[:, None, :]
    E = R * R if metric == "mse" else np.abs(R)
    return np.add.reduce(E, axis=2) / R.shape[2]


def _nearest(recent, X) -> np.ndarray:
    """``argmin_c |recent[i, c] − X[i]|₁`` for each ``i``."""
    return np.add.reduce(np.abs(recent - X[:, None, :]), axis=2).argmin(axis=1)


# -- Algorithm 1 ----------------------------------------------------------------------


def update_chunk_group(
    detectors: Sequence[SequentialDriftDetector], Xs, labels, errors
) -> List[np.ndarray]:
    """:meth:`SequentialDriftDetector.update_chunk` for many detectors.

    ``Xs[g]``/``labels[g]``/``errors[g]`` are detector ``g``'s scored
    chunk; returns each detector's row codes. Every detector's window
    rows (:meth:`~SequentialDriftDetector._plan`) are folded in lockstep
    over a ``(G, C, D)`` stack of the recent centroids: step ``t`` folds
    the ``t``-th window row of every detector that has one. A detector
    whose window closes into a drift leaves the step there, as its own
    call would stop. Emits no telemetry: callers use it for quiet
    detectors only.
    """
    statuses, live, folds = [], [], []
    for det, X, lab, err in zip(detectors, Xs, labels, errors):
        status = np.full(len(X), ROW_IDLE, dtype=np.int8)
        statuses.append(status)
        if det.drift:
            continue
        segments, absorb = det._plan(np.asarray(err, dtype=np.float64))
        if absorb is not None:
            status[absorb:] = ROW_CHECK
        if not segments:
            continue
        rows, X = det.centroids._check_rows(lab, X)
        picks = np.concatenate([np.arange(j, j + take) for j, take, _, _ in segments])
        live.append((len(statuses) - 1, det, segments))
        folds.append((X[picks], np.asarray(rows)[picks]))
    if not live:
        return statuses
    A = len(live)
    T = max(len(rows) for _, rows in folds)
    C, D = live[0][1].centroids.recent.shape
    # Row A*C is scratch: padding past a detector's last window row, and
    # every row after its drift, folds there and is never read.
    scratch = A * C
    Xg = np.zeros((T, A, D))
    flat = np.full((T, A), scratch, dtype=np.intp)
    ends = {}
    for a, ((_, det, segments), (Xa, rows)) in enumerate(zip(live, folds)):
        Xg[: len(rows), a] = Xa
        flat[: len(rows), a] = a * C + rows
        t = -1
        for seg in segments:
            t += seg[1]
            ends.setdefault(t, []).append((a, seg))
    sets = [det.centroids for _, det, _ in live]
    recent = np.concatenate([cs.recent for cs in sets] + [np.zeros((1, D))])
    counts = np.concatenate([cs.counts for cs in sets] + [np.zeros(1, np.int64)])
    caps = np.array([cs.count_cap for cs in sets], dtype=np.int64)
    stops = [None] * A
    for t in range(T):
        fold_lockstep(recent, counts, caps, flat[t], Xg[t])
        for a, (j, take, opened, closes) in ends.get(t, ()):
            if stops[a] is not None:
                continue  # drifted at an earlier close
            g, det, _ = live[a]
            if opened:
                det._open_window()
            det._win += take
            statuses[g][j : j + take] = ROW_CHECK
            if closes:
                statuses[g][j + take - 1] = ROW_CLOSED
                own = recent[a * C : (a + 1) * C]
                if det._close_window(float(np.abs(own - sets[a].trained).sum())):
                    stops[a] = j + take
                    flat[t + 1 :, a] = scratch
    for a, ((g, det, segments), cs) in enumerate(zip(live, sets)):
        cs.recent[...] = recent[a * C : (a + 1) * C]
        cs.counts[...] = counts[a * C : (a + 1) * C]
        if stops[a] is not None:
            statuses[g] = statuses[g][: stops[a]]
        elif not segments[-1][3]:
            det.last_distance = cs.drift_distance()
    return statuses


# -- Algorithm 2 ----------------------------------------------------------------------


def reconstruct_group(jobs) -> List[RecordBlock]:
    """:meth:`StreamPipeline._reconstruct_chunk` for many pipelines.

    ``jobs`` holds ``(pipeline, X, y, drift_detected)`` per pipeline;
    returns each one's record block. Every pipeline advances one row per
    step: stacked instance scores and argmin labels, Init_Coord per
    device, stacked nearest-coordinate labels and Update_Coord folds,
    and one stacked rank-1 step on each device's trained instance. A
    device leaves at the row that completes its reconstruction. The
    models share one geometry and error metric; each keeps its own
    reconstruction budget, count cap and forgetting factor. Emits no
    telemetry and does not run the ``literal_overlap`` second pass:
    callers use it for quiet, disjoint-phase reconstructors only.
    """
    A = len(jobs)
    pipes = [job[0] for job in jobs]
    model = pipes[0].model
    C, h, d = model.n_labels, model.n_hidden, model.n_features
    Xs = [as_matrix(X, name="X", n_features=d) for _, X, _, _ in jobs]
    lens = np.array([len(X) for X in Xs])
    T = int(lens.max())
    Xg = np.zeros((A, T, d))
    Hg = np.zeros((A, T, C, h))
    for a, (p, X) in enumerate(zip(pipes, Xs)):
        Xg[a, : len(X)] = X
        Hg[a, : len(X)] = np.array(p.model.hidden_rows(X)).transpose(1, 0, 2)
        if not p.reconstructor.is_active:
            p.reconstructor._begin()
    recons = [p.reconstructor for p in pipes]
    P = np.array([[inst.core.P for inst in p.model.instances] for p in pipes])
    B = np.array([[inst.core.beta for inst in p.model.instances] for p in pipes])
    recent = np.stack([r.centroids.recent for r in recons])
    counts = np.stack([r.centroids.counts for r in recons])
    P_f, B_f = P.reshape(A * C, h, h), B.reshape(A * C, h, d)
    recent_f, counts_f = recent.reshape(A * C, d), counts.reshape(A * C)
    caps = np.array([r.centroids.count_cap for r in recons], dtype=np.int64)
    factors = None
    if model.forgetting_factor is not None:
        factors = np.array([p.model.forgetting_factor for p in pipes], dtype=np.float64)
    n_search = np.array([r.n_search for r in recons])
    n_update = np.array([r.n_update for r in recons])
    half = np.array([r.n_total // 2 for r in recons])
    n_total = np.array([r.n_total for r in recons])
    count = np.array([r.count for r in recons])
    seen = np.zeros(A * C, dtype=np.int64)
    metric = model.instances[0].error_metric
    # Each device's record columns, row t at [a, t]; used[a] rows each.
    labels_g = np.zeros((A, T), dtype=np.int64)
    scores_g = np.zeros((A, T))
    phases_g = np.zeros((A, T), dtype=np.uint8)
    used = np.zeros(A, dtype=np.int64)

    def write_back(a: int) -> None:
        for c, inst in enumerate(pipes[a].model.instances):
            core = inst.core
            core.P[...] = P[a, c]
            core.beta[...] = B[a, c]
            core.n_samples_seen += int(seen[a * C + c])
        cs = recons[a].centroids
        cs.recent[...] = recent[a]
        cs.counts[...] = counts[a]
        recons[a].count = int(count[a])

    act = np.arange(A)
    full = True
    for t in range(T):
        x = Xg[act, t]
        hid = Hg[act, t]
        S = instance_scores(hid, B if full else B[act], x, metric)
        pred = S.argmin(axis=1)
        score = S[np.arange(len(act)), pred]
        count[act] += 1
        cnt = count[act]
        for a in act[cnt < n_search[act]].tolist():
            init_coord_rows(recent[a], Xg[a, t])
        sel = cnt < n_update[act]
        if sel.any():
            m = act[sel]
            xm = x[sel]
            fold_lockstep(recent_f, counts_f, caps[m], m * C + _nearest(recent[m], xm), xm)
        by_coord = cnt < half[act]
        by_model = ~by_coord & (cnt < n_total[act])
        trainers = np.concatenate([act[by_coord], act[by_model]])
        if len(trainers):
            # Lines 8-9 label by the nearest coordinate, lines 11-12 by the
            # model's own argmin (nothing has trained it since the scores).
            labels = np.concatenate(
                [_nearest(recent[act[by_coord]], x[by_coord]), pred[by_model]]
            )
            flat = trainers * C + labels
            Pk, Bk = P_f[flat], B_f[flat]
            rank1_lockstep(
                Pk, Bk, Hg[trainers, t, labels],
                np.concatenate([x[by_coord], x[by_model]]),
                None if factors is None else factors[trainers],
            )
            P_f[flat] = Pk
            B_f[flat] = Bk
            seen[flat] += 1
        done = cnt >= n_total[act]
        labels_g[act, t] = pred
        scores_g[act, t] = score
        phases_g[act, t] = np.select(
            [done, cnt < n_search[act], cnt < n_update[act], by_coord],
            [_FINISH, _SEARCH, _UPDATE, _TRAIN_CENTROID],
            _TRAIN_PREDICT,
        )
        used[act] = t + 1
        for a in act[done].tolist():
            write_back(a)
            recons[a]._finish()
            pipes[a]._end_reconstruction()
        keep = ~done & (lens[act] > t + 1)
        if not keep.all():
            act = act[keep]
            full = False
            if not len(act):
                break
    blocks = []
    for a, p in enumerate(pipes):
        if recons[a].is_active:
            write_back(a)
        m = int(used[a])
        p.model.count_predictions(m)
        p.n_mutations += m
        blocks.append(p._record_rows(
            labels_g[a, :m], scores_g[a, :m], jobs[a][2], phases_g[a, :m],
            drift_first=jobs[a][3], reconstructing=True,
        ))
    return blocks


# -- the group step -------------------------------------------------------------------


def lockstep_ready(pipeline) -> bool:
    """Can this pipeline's step run in lockstep with others?

    The proposed pipeline (exactly; a subclass may change the step) with
    disjoint reconstruction phases and every telemetry hub off, so the
    lockstep order of events across devices is unobservable.
    """
    return (
        type(pipeline) is ProposedPipeline
        and not pipeline.reconstructor.literal_overlap
        and not (
            pipeline.telemetry.enabled
            or pipeline.detector.telemetry.enabled
            or pipeline.reconstructor.telemetry.enabled
            or pipeline.model.telemetry.enabled
        )
    )


def step_group(members) -> List[RecordBlock]:
    """One chunk step for every member of a group; returns their record
    blocks.

    ``members`` holds ``(pipeline, consume, X, y, scored)`` per pipeline:
    ``consume(X, y, scored)`` is its own chunk step (its session's
    consume chain) and ``scored`` the ``(labels, scores)`` of ``X``'s
    rows against its current model, or ``None``. Each member consumes a
    non-empty prefix of its chunk, exactly as its own step would. The
    pipelines' models must share one geometry (one model signature).

    Proposed pipelines that are :func:`lockstep_ready` run Algorithm 1
    (:func:`update_chunk_group`) and Algorithm 2
    (:func:`reconstruct_group`) in lockstep; a device whose window closes
    into a drift joins this step's reconstructing set with its drift row.
    A set smaller than :data:`MIN_LOCKSTEP_DETECT` or
    :data:`MIN_LOCKSTEP_RECONSTRUCT`, and every other member, takes its
    own step.
    """
    out: List[Optional[RecordBlock]] = [None] * len(members)
    detect, recon = [], []
    for i, (p, consume, X, y, scored) in enumerate(members):
        if lockstep_ready(p):
            (recon if p.detector.drift else detect).append(i)
        else:
            out[i] = consume(X, y, scored)
    if len(detect) < MIN_LOCKSTEP_DETECT:
        for i in detect:
            p, consume, X, y, scored = members[i]
            out[i] = consume(X, y, scored)
        detect = []
    jobs = []
    if detect:
        scored = [members[i][4] for i in detect]
        for k, i in enumerate(detect):
            if scored[k] is None:
                scored[k] = members[i][0]._score_chunk(members[i][2], None)
        statuses = update_chunk_group(
            [members[i][0].detector for i in detect],
            [members[i][2] for i in detect],
            [s[0] for s in scored],
            [s[1] for s in scored],
        )
        for i, (labels, scores), status in zip(detect, scored, statuses):
            p, _, X, y, _ = members[i]
            out[i] = p._detected_rows(labels, scores, y, status)
            if p.detector.drift:
                n = len(out[i])
                jobs.append((i, X[n : n + 1], y[n : n + 1], True))
    jobs = [(i, members[i][2], members[i][3], False) for i in recon] + jobs
    if len(jobs) >= MIN_LOCKSTEP_RECONSTRUCT:
        done = reconstruct_group(
            [(members[i][0], X, y, drift) for i, X, y, drift in jobs]
        )
    else:
        done = []
        for i, X, y, drift in jobs:
            p, consume, _, _, scored = members[i]
            done.append(
                p._reconstruct_chunk(X, y, drift_detected=True)
                if drift
                else consume(X, y, scored)
            )
    for (i, _, _, _), block in zip(jobs, done):
        out[i] = block if out[i] is None else RecordBlock.concat([out[i], block])
    return out
