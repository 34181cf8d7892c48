"""Fleet-wide batch scheduler: group queued sequences by plan signature.

Before dispatch, queued sequences are grouped by the structural signature
of their first layer — :func:`repro.core.tissue.schedule_key` of the
relevance → breakpoints → aligned-tissue pipeline — so that same-plan
sequences land in the same worker batch: every wave of such a batch is
full width and one tissue size, the widest stacked matmuls the combined
walk can run.

Grouping is no longer what makes program reuse land. The combined-mode
program (:class:`~repro.core.program.CombinedGroupProgram`) is keyed on
shape only and takes the plans as run-time inputs, so a worker's
long-lived executor replays one program per layer for *any* shard of a
given size, same-plan or not. Follow-up: with that, ``FleetScheduler`` may
batch by length only (as it already does for the undivided modes) and
skip the parent-side relevance pass; whether same-plan batches are worth
their scheduling cost is now a throughput question for
``bench_runtime_scaling``, not a cache-hit one.

The signature deliberately uses only **layer 0**: its relevance depends
on nothing but the embedded tokens and the layer weights, so it is
computable in the scheduling parent without running any recurrence. The
per-gate projections are taken exactly as the executor takes them
(per-row GEMV dispatch via :func:`repro.core.executor._row_proj`, so the
bits match the executor's at any length or batching), and the cache keys match
:meth:`repro.core.executor.LSTMExecutor._plan_inter`'s, so a shared
:class:`~repro.core.plan.PlanCache` means the relevance pass is paid
once between scheduling and (synchronous) execution.

Modes that never divide a layer (baseline / intra / zero-prune) carry no
structural plan to group by; their signature collapses to the sequence
length, which keeps dispatch batching purely size-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.breakpoints import divide_layer, find_breakpoints
from repro.core.executor import ExecutionConfig, _row_proj
from repro.core.plan import PlanCache, fingerprint_array, fingerprint_weights
from repro.core.relevance import (
    exact_relevance_values,
    recurrent_row_ranges,
    relevance_values,
)
from repro.core.tissue import align_tissues, schedule_key
from repro.errors import ShapeError
from repro.nn.lstm_cell import GATE_ORDER
from repro.nn.network import LSTMNetwork


@dataclass(frozen=True)
class DispatchGroup:
    """One dispatchable batch of same-signature sequences.

    Attributes:
        indices: Original positions of the member sequences (ascending).
        tokens: ``(k, T)`` token rows, ordered like ``indices``.
        signature: The grouping key (hashable; shared by all members).
    """

    indices: tuple[int, ...]
    tokens: np.ndarray
    signature: tuple


class FleetScheduler:
    """Groups token sequences into plan-aligned dispatch batches.

    Grouping is a pure function of ``(network, config, tokens)`` — it
    never depends on worker count or queue state — so a fleet run
    dispatches identical groups at any parallelism, which is what makes
    the runtime's bit-identity contract testable.
    """

    def __init__(
        self,
        network: LSTMNetwork,
        config: ExecutionConfig,
        max_batch: int = 8,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {max_batch}")
        self.network = network
        self.config = config
        self.max_batch = max_batch
        self.plan_cache = plan_cache
        weights = network.layers[0].weights
        self._weights = weights
        self._row_ranges = recurrent_row_ranges(weights)
        self._weights_fp = fingerprint_weights(weights) if plan_cache is not None else None

    # ----------------------------------------------------------- signature

    def signature(self, tokens_row: np.ndarray) -> tuple:
        """Plan signature of one sequence (hashable)."""
        tokens_row = np.asarray(tokens_row)
        if tokens_row.ndim != 1:
            raise ShapeError(f"tokens_row must be 1-D, got shape {tokens_row.shape}")
        if not self.config.inter_active:
            return ("len", int(tokens_row.shape[0]))
        relevance = self._relevance(tokens_row)
        breaks = find_breakpoints(relevance, self.config.alpha_inter)
        sublayers = divide_layer(int(tokens_row.shape[0]), breaks)
        tissues = align_tissues(sublayers, self.config.mts)
        return ("plan", schedule_key(tissues))

    def _relevance(self, tokens_row: np.ndarray) -> np.ndarray:
        cfg = self.config
        xs = self.network.embed(tokens_row)  # (T, E)

        def compute() -> np.ndarray:
            proj = {g: _row_proj(xs, self._weights.gate_w(g).T) for g in GATE_ORDER}
            fn = exact_relevance_values if cfg.use_exact_relevance else relevance_values
            return fn(self._weights, proj, row_ranges=self._row_ranges)

        if self.plan_cache is None:
            return compute()
        key = ("rel", self._weights_fp, fingerprint_array(xs), cfg.use_exact_relevance)
        return self.plan_cache.relevance(key, compute)

    # ------------------------------------------------------------ grouping

    def plan_dispatch(self, tokens: np.ndarray) -> list[DispatchGroup]:
        """Group a ``(B, T)`` batch into dispatch batches of ``<= max_batch``.

        Sequences are bucketed by signature (first-seen signature order,
        member indices ascending), then each bucket is chunked. The
        output covers every input index exactly once.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (B, T), got shape {tokens.shape}")
        buckets: dict[tuple, list[int]] = {}
        for index in range(tokens.shape[0]):
            buckets.setdefault(self.signature(tokens[index]), []).append(index)
        groups: list[DispatchGroup] = []
        for signature, indices in buckets.items():
            for start in range(0, len(indices), self.max_batch):
                chunk = indices[start : start + self.max_batch]
                groups.append(
                    DispatchGroup(
                        indices=tuple(chunk),
                        tokens=tokens[chunk],
                        signature=signature,
                    )
                )
        return groups
