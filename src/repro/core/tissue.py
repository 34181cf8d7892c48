"""Tissue formation, alignment, and MTS calibration (Sections IV-C / IV-D).

Once a layer is divided into independent sub-layers, one cell per sub-layer
is fused into a *tissue*; all cells of a tissue execute concurrently as a
single ``Sgemm(U_{f,i,c,o}, H_t)``, so the united weight matrix is loaded
once per tissue instead of once per cell. The data dependence along each
sub-layer becomes a dependence across tissues.

Naive formation (:func:`form_tissues`) takes the ``k``-th cell of every
sub-layer, which produces *fat* tissues (wider than the maximum tissue
size, oversubscribing shared-memory bandwidth) early and *thin* tissues
late. :func:`align_tissues` rebalances: it schedules the sub-layer chains
onto tissue slots of capacity MTS, preferring the longest remaining chain
(the classic longest-processing-time rule), which both respects every chain
dependence and minimizes the number of tissues.

:func:`calibrate_mts` performs the offline step 1 of Fig. 10: sweep the
tissue size on the target GPU model and return the knee of the performance
curve.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.breakpoints import SubLayer
from repro.errors import CalibrationError, PlanError


@dataclass
class Tissue:
    """One tissue: the fused cells, each identified as (sub-layer, timestamp)."""

    cells: list[tuple[int, int]] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of fused cells."""
        return len(self.cells)

    def timestamps(self) -> list[int]:
        """Original cell timestamps inside this tissue."""
        return [t for _, t in self.cells]


def form_tissues(sublayers: list[SubLayer]) -> list[Tissue]:
    """Naive tissue formation: fuse the k-th cell of every sub-layer.

    This reproduces Fig. 8(b1): tissue ``k`` contains one cell from every
    sub-layer that still has a ``k``-th cell, so early tissues are as wide
    as the number of sub-layers and late tissues shrink.
    """
    if not sublayers:
        raise PlanError("form_tissues needs at least one sub-layer")
    chains = [(idx, sub.start, sub.end) for idx, sub in enumerate(sublayers)]
    longest = max(end - start for _, start, end in chains)
    return [
        Tissue(cells=[(idx, start + k) for idx, start, end in chains if start + k < end])
        for k in range(longest)
    ]


def align_tissues(sublayers: list[SubLayer], mts: int) -> list[Tissue]:
    """Tissue formation + alignment under the maximum tissue size.

    Greedy chain scheduling: at every tissue step each sub-layer offers its
    next unscheduled cell; if more than ``mts`` are on offer, the sub-layers
    with the most remaining cells win (LPT rule; a heap on ``(-remaining,
    index)``). No context link is broken beyond the existing breakpoints and
    every tissue has ``size <= mts``.
    """
    if mts < 1:
        raise PlanError(f"mts must be >= 1, got {mts}")
    if not sublayers:
        raise PlanError("align_tissues needs at least one sub-layer")
    if len(sublayers) <= mts:  # every chain runs every step
        return form_tissues(sublayers)
    heap = [(-sub.length, idx) for idx, sub in enumerate(sublayers)]
    heapq.heapify(heap)
    tissues: list[Tissue] = []
    while heap:
        chosen = [heapq.heappop(heap) for _ in range(min(mts, len(heap)))]
        chosen.sort(key=lambda item: item[1])
        cells = []
        for neg_left, idx in chosen:
            cells.append((idx, sublayers[idx].end + neg_left))
            if neg_left < -1:
                heapq.heappush(heap, (neg_left + 1, idx))
        tissues.append(Tissue(cells=cells))
    return tissues


def calibrate_mts(
    spec,
    hidden_size: int,
    seq_length: int = 60,
    max_tissue_size: int = 12,
) -> int:
    """Offline MTS search (Fig. 10, step 1).

    Simulates one LSTM layer executed with forced equal division into
    tissues of size ``1 .. max_tissue_size`` on the given GPU spec and
    returns the size with the best performance — the knee of Fig. 9.
    """
    from repro.core.trace_builder import forced_tissue_layer_trace
    from repro.gpu.simulator import TimingSimulator

    if max_tissue_size < 1:
        raise CalibrationError("max_tissue_size must be >= 1")
    simulator = TimingSimulator(spec)
    best_size, best_time = 1, float("inf")
    for size in range(1, max_tissue_size + 1):
        trace = simulator.run_trace(
            forced_tissue_layer_trace(spec, hidden_size, seq_length, size)
        )
        if trace.total_time < best_time:
            best_time = trace.total_time
            best_size = size
    return best_size
