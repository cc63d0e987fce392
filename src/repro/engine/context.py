"""The mutable per-run state shared by the engine and its interceptors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

import numpy as np

from ..core.records import RecordBlock, StepRecord, records_of

if TYPE_CHECKING:  # pragma: no cover — typing only, no runtime import
    from ..core.pipeline import StreamPipeline
    from ..datasets.stream import DataStream

__all__ = ["RunContext", "MERGE_ROWS"]

#: A stored block shorter than this absorbs the next one. Each block
#: carries about 1 kB of array headers besides its ~27 bytes per row, so
#: a session fed one-row chunks would otherwise keep ~1 kB per record.
MERGE_ROWS = 48


@dataclass
class RunContext:
    """Everything one engine run knows: the pipeline, the stream, progress.

    The engine owns ``position`` and ``blocks``; interceptors read them.
    ``X`` and ``y`` are the stream's arrays, hoisted once so the hot loop slices
    without attribute lookups.
    """

    pipeline: "StreamPipeline"
    stream: "DataStream"
    X: np.ndarray
    y: np.ndarray
    #: total samples in the stream
    n: int
    #: next stream index to consume (also: records already in ``blocks``)
    position: int = 0
    #: record blocks produced so far, in stream order (resume pre-loads
    #: the checkpointed prefix; :meth:`store` merges short blocks)
    blocks: List[RecordBlock] = field(default_factory=list)

    def store(self, block: RecordBlock) -> None:
        """Keep a consumed chunk's ``block`` and advance ``position``.

        A last block shorter than :data:`MERGE_ROWS` absorbs ``block``,
        so small chunks do not each keep a block's fixed cost.
        """
        blocks = self.blocks
        if blocks and len(blocks[-1]) < MERGE_ROWS:
            blocks[-1] = RecordBlock.concat((blocks[-1], block))
        else:
            blocks.append(block)
        self.position += len(block)

    def records(self) -> List[StepRecord]:
        """Every record produced so far, as :class:`StepRecord` tuples."""
        return records_of(self.blocks)

    @classmethod
    def for_run(
        cls,
        pipeline: "StreamPipeline",
        stream: "DataStream",
        *,
        start: int = 0,
        blocks: List[RecordBlock] | None = None,
    ) -> "RunContext":
        return cls(
            pipeline=pipeline,
            stream=stream,
            X=stream.X,
            y=stream.y,
            n=len(stream),
            position=int(start),
            blocks=[] if blocks is None else blocks,
        )
