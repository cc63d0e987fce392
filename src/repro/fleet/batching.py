"""Cross-session batched OS-ELM scoring: group, stack, one GEMM, prime.

A resident fleet wastes the hardware's GEMM throughput when every device
scores its pending rows as an independent small-matrix op. Devices that
share one firmware image share one ``model_seed`` — hence *identical*
random-layer weights — so their forward passes differ only in the
learned betas. The batched path exploits exactly that:

1. :class:`BatchPlanner` groups the sessions of one submit window by
   :func:`model_signature` — a digest over the model *and its
   RNG-derived random-layer weights*, not just its shape. Two devices
   with identical dims but different seeds hash differently and never
   share a stacked forward pass (sharing one would score every other
   device against the wrong hidden layer).
2. Each group's pending rows are stacked and scored in one pass by
   :meth:`~repro.oselm.ensemble.MultiInstanceModel.score_batch_many`
   (shared hidden activations, per-device betas gathered from a 3-D
   tensor) — bit-identical per row to each device's own scoring path.
3. The results are *primed* onto each device's model
   (:meth:`~repro.oselm.ensemble.MultiInstanceModel.prime_scores`); the
   session then feeds as usual and its pipeline consumes the primed
   rows instead of recomputing them.

Fallback is per-session and automatic. A session whose pipeline reports
``prefers_batched_scoring() == False`` (an in-flight reconstruction or
reference refit, ONLAD's per-sample training), carries a guard, or hosts
a foreign model class is left on the sequential path. An open check
window is no reason to fall back: it never touches the model, and the
pipeline consumes the primed rows of the whole window in one slice.
And because any training step invalidates the primed cache, eligibility
is purely a *throughput* heuristic — a drift that fires mid-window
simply drops the remaining primed rows and recomputes, byte-identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

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


@dataclass
class BatchGroup:
    """One signature's worth of sessions with rows pending this window."""

    signature: str
    device_ids: List[str] = field(default_factory=list)
    pipelines: List = field(default_factory=list)
    rows: List[np.ndarray] = field(default_factory=list)

    @property
    def n_devices(self) -> int:
        return len(self.device_ids)

    @property
    def n_samples(self) -> int:
        return sum(len(r) for r in self.rows)

    def prime(self) -> int:
        """Run the group GEMM and prime every member; returns row count.

        Primed rows are keyed to each pipeline's current ``_index`` (the
        stream-global record counter), so a member whose feed is driven
        later in the window consumes its slice at exactly the indices it
        was computed for — and a member that mutates mid-feed invalidates
        its own slice without touching the others.
        """
        X = self.rows[0] if len(self.rows) == 1 else np.concatenate(self.rows)
        owners = np.repeat(
            np.arange(len(self.rows)), [len(r) for r in self.rows]
        )
        models = [p.model for p in self.pipelines]
        labels, scores = MultiInstanceModel.score_batch_many(models, X, owners)
        offset = 0
        for pipeline, rows in zip(self.pipelines, self.rows):
            n = len(rows)
            pipeline.model.prime_scores(
                labels[offset : offset + n].copy(),
                scores[offset : offset + n].copy(),
                base_index=pipeline._index,
                index_fn=(lambda p=pipeline: p._index),
            )
            offset += n
        return len(X)


class BatchPlanner:
    """Split one submit window into stackable groups plus a fallback set.

    Stateless: callers hand it ``(device_id, pipeline, rows)`` triples
    for the sessions of one window and get back :class:`BatchGroup` objects (keyed on
    :func:`model_signature`, including singletons: even one device's
    rows beat its per-sample scalar loop) and the list of
    ``(device_id, n_rows)`` pairs that must stay sequential.
    """

    def plan(
        self, items: Sequence[Tuple[str, object, np.ndarray]]
    ) -> Tuple[List[BatchGroup], List[Tuple[str, int]]]:
        groups: dict = {}
        fallback: List[Tuple[str, int]] = []
        for device_id, pipeline, rows in items:
            if len(rows) == 0:
                continue
            signature = None
            if pipeline.guard is None and pipeline.prefers_batched_scoring():
                signature = model_signature(pipeline.model)
            if signature is None:
                fallback.append((device_id, len(rows)))
                continue
            group = groups.get(signature)
            if group is None:
                group = groups[signature] = BatchGroup(signature=signature)
            group.device_ids.append(device_id)
            group.pipelines.append(pipeline)
            group.rows.append(np.asarray(rows, dtype=np.float64))
        return list(groups.values()), fallback
