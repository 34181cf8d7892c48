"""Result containers of the serving runtime.

Plain dataclasses so shard results pickle cleanly across the worker
result queue and fleet results are directly inspectable in tests and the
scaling benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import SequencePlan
from repro.obs.record import RunRecord


@dataclass
class ShardResult:
    """One dispatched group, executed by one worker.

    Attributes:
        shard_id: Monotonic dispatch ticket of the parent.
        worker_id: Executing worker (``-1`` for the synchronous fallback).
        indices: Original batch positions of the shard's sequences.
        logits: ``(k, ...)`` logits in shard order.
        plans: Per-sequence structural plans in shard order.
        record: The worker's :class:`~repro.obs.record.RunRecord` for this
            shard (``seq_index`` already remapped to original batch
            positions), or ``None`` when recording is off.
        wall_s: Worker-side wall clock of the shard (executor + dwell).
    """

    shard_id: int
    worker_id: int
    indices: tuple[int, ...]
    logits: np.ndarray
    plans: list[SequencePlan]
    record: RunRecord | None
    wall_s: float


@dataclass
class FleetResult:
    """A whole fleet execution, reassembled in request order.

    ``logits``/``plans`` are ordered by the caller's original batch
    positions regardless of how shards were grouped or which worker
    finished first. ``record`` is the merged fleet-wide run record (see
    :func:`repro.obs.merge.merge_run_records`), present only when the
    runtime carries a recorder.
    """

    logits: np.ndarray
    plans: list[SequencePlan]
    record: RunRecord | None
    wall_s: float
    num_sequences: int
    num_shards: int
    workers: int

    @property
    def throughput_seq_s(self) -> float:
        """Sequences per second of wall clock."""
        return self.num_sequences / self.wall_s if self.wall_s > 0 else 0.0

    def predictions(self) -> np.ndarray:
        """Argmax predictions: ``(B,)`` or ``(B, T)``."""
        return np.argmax(self.logits, axis=-1)
