"""Cross-session group steps: group by signature, score once, step together.

A resident fleet wastes the host when every device scores its pending
rows as an independent small-matrix op and steps Algorithms 1–2 alone.
Devices that share one firmware image share one ``model_seed`` — hence
*identical* random-layer weights — so their forward passes differ only
in the learned betas, and their detector and model state has one
geometry. The group step exploits exactly that:

1. :class:`BatchPlanner` groups the sessions of one submit window by
   :func:`model_signature` — a digest over the model *and its
   RNG-derived random-layer weights*, not just its shape. Two devices
   with identical dims but different seeds hash differently and never
   share a stacked forward pass (sharing one would score every other
   device against the wrong hidden layer).
2. :meth:`BatchGroup.prime` stacks the pending rows of every member
   whose ``prefers_batched_scoring()`` holds and scores them in one pass
   with :meth:`~repro.oselm.ensemble.MultiInstanceModel.score_batch_many`
   (shared hidden activations, per-device betas gathered from a 3-D
   tensor) — bit-identical per row to each device's own scoring path.
3. :meth:`BatchGroup.step` is the consume step of
   :func:`repro.engine.drive_group`: each round it hands every member's
   slice, with its scores as an argument, to
   :func:`repro.core.lockstep.step_group`, which runs Algorithms 1 and 2
   in lockstep across the group's proposed pipelines.

A session whose pipeline is reconstructing joins its signature's group
unscored (its model changes with every row), and a member stops getting
scores once one of its steps has reconstructed; either then scores its
own rows. A session that carries a guard, hosts a foreign model class,
or trains on every sample (ONLAD) stays on
:meth:`~repro.engine.StreamSession.feed`.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.lockstep import lockstep_ready, step_group
from ..oselm.ensemble import MultiInstanceModel

__all__ = ["BatchGroup", "BatchPlanner", "model_signature"]


def model_signature(model) -> Optional[str]:
    """Digest identifying models that may share one stacked forward pass.

    Covers the model class, ensemble geometry, error metric, activation,
    and — critically — the bytes of every instance's random-layer weights
    and biases. The weights are the RNG draw itself, so models built from
    different seeds (or different ``weight_scale``) can never collide the
    way a shape-only key would. Returns ``None`` for anything that is not
    a fitted :class:`MultiInstanceModel` (never batchable).
    """
    if not isinstance(model, MultiInstanceModel) or not model.is_fitted:
        return None
    digest = hashlib.sha256()
    digest.update(type(model).__name__.encode())
    digest.update(
        f"|{model.n_features}|{model.n_hidden}|{model.n_labels}|".encode()
    )
    for inst in model.instances:
        layer = inst.core.layer
        digest.update(
            f"{type(inst.core).__name__}|{inst.error_metric}|"
            f"{layer.activation}|".encode()
        )
        digest.update(np.ascontiguousarray(layer.weights).tobytes())
        digest.update(np.ascontiguousarray(layer.biases).tobytes())
    return digest.hexdigest()


def _layer_arrays(model: MultiInstanceModel) -> list:
    return [
        a for inst in model.instances for a in (inst.core.layer.weights, inst.core.layer.biases)
    ]


@dataclass
class BatchGroup:
    """One signature's worth of sessions with rows pending this window.

    ``device_ids``/``pipelines``/``rows`` are the members whose rows
    :meth:`prime` scores; ``unscored`` holds ``(device_id, pipeline)``
    for the members that take the group step without up-front scores.
    :attr:`members` lists both, in that order.
    """

    signature: str
    device_ids: List[str] = field(default_factory=list)
    pipelines: List = field(default_factory=list)
    rows: List[np.ndarray] = field(default_factory=list)
    unscored: List[Tuple[str, object]] = field(default_factory=list)
    #: per scored member: (labels, scores, stream index of the first row),
    #: or None once the member's model has changed
    _scored: List = field(default_factory=list, init=False, repr=False)

    @property
    def n_devices(self) -> int:
        return len(self.device_ids) + len(self.unscored)

    @property
    def n_samples(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def members(self) -> List[Tuple[str, object]]:
        """``(device_id, pipeline)`` of every member, scored ones first."""
        return list(zip(self.device_ids, self.pipelines)) + self.unscored

    def prime(self) -> int:
        """Score every scored member's rows in one stacked pass.

        The scores are kept for :meth:`step`, keyed to each pipeline's
        current ``_index`` (the stream-global record counter), so a
        member's slices get the rows at exactly the indices they were
        computed for. Returns the number of rows scored.
        """
        if not self.rows:
            return 0
        X = self.rows[0] if len(self.rows) == 1 else np.concatenate(self.rows)
        owners = np.repeat(
            np.arange(len(self.rows)), [len(r) for r in self.rows]
        )
        models = [p.model for p in self.pipelines]
        labels, scores = MultiInstanceModel.score_batch_many(models, X, owners)
        cuts = np.cumsum([len(r) for r in self.rows])[:-1]
        self._scored = [
            (lab, sco, p._index)
            for lab, sco, p in zip(
                np.split(labels, cuts), np.split(scores, cuts), self.pipelines
            )
        ]
        return len(X)

    def step(self, slices) -> list:
        """One :func:`~repro.engine.drive_group` round for this group.

        ``slices`` holds ``(k, consume, X, y)`` with ``k`` indexing
        :attr:`members`; returns each slice's record block.
        """
        members = self.members
        batch = []
        for k, consume, X, y in slices:
            pipeline = members[k][1]
            scored = None
            if k < len(self._scored) and self._scored[k] is not None:
                labels, scores, base = self._scored[k]
                off = pipeline._index - base
                scored = (labels[off : off + len(X)], scores[off : off + len(X)])
            batch.append((pipeline, consume, X, y, scored))
        results = step_group(batch)
        for (k, _, _, _), block in zip(slices, results):
            if k < len(self._scored) and block.reconstructing[-1]:
                # The model trained: the rest of the scores are stale.
                self._scored[k] = None
        return results


class BatchPlanner:
    """Split one submit window into group steps plus a fallback set.

    Callers hand it ``(device_id, pipeline, rows)`` triples
    for the sessions of one window and get back :class:`BatchGroup`
    objects (keyed on :func:`model_signature`, including singletons:
    even one device's rows beat its own scoring call) and the list of
    ``(device_id, n_rows)`` pairs whose rows are not scored up front.
    A fallback session whose pipeline can step in lockstep
    (:func:`repro.core.lockstep.lockstep_ready`, e.g. one that is
    reconstructing) also joins its signature's group as an unscored
    member; every other fallback session feeds on its own.

    The one thing a planner keeps is each model's signature, hashed once
    and reused while the model's instances hold the weight and bias
    arrays it hashed. Those arrays are read-only and only ``set_state``
    replaces them, so a restored state with other weights hashes afresh.
    """

    def __init__(self) -> None:
        #: model -> (the random-layer arrays its signature hashed, the signature)
        self._signatures: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def signature(self, model) -> Optional[str]:
        """:func:`model_signature`, hashed once per model's random layer."""
        if not isinstance(model, MultiInstanceModel):
            return None
        arrays = _layer_arrays(model)
        cached = self._signatures.get(model)
        if (
            cached is not None
            and len(cached[0]) == len(arrays)
            and all(a is b for a, b in zip(cached[0], arrays))
        ):
            return cached[1]
        signature = model_signature(model)
        if signature is not None:
            self._signatures[model] = (arrays, signature)
        return signature

    def plan(
        self, items: Sequence[Tuple[str, object, np.ndarray]]
    ) -> Tuple[List[BatchGroup], List[Tuple[str, int]]]:
        groups: dict = {}
        fallback: List[Tuple[str, int]] = []
        for device_id, pipeline, rows in items:
            if len(rows) == 0:
                continue
            scored = pipeline.prefers_batched_scoring()
            signature = None
            if pipeline.guard is None and (scored or lockstep_ready(pipeline)):
                signature = self.signature(pipeline.model)
            if signature is None:
                fallback.append((device_id, len(rows)))
                continue
            group = groups.get(signature)
            if group is None:
                group = groups[signature] = BatchGroup(signature=signature)
            if scored:
                group.device_ids.append(device_id)
                group.pipelines.append(pipeline)
                group.rows.append(np.asarray(rows, dtype=np.float64))
            else:
                fallback.append((device_id, len(rows)))
                group.unscored.append((device_id, pipeline))
        return list(groups.values()), fallback
