"""Functional and cycle model of the CTA-reorganization module (Fig. 12).

The CRM sits in the grid management unit. For a kernel carrying a
trivial-row list ``R`` it:

1. loads ``R`` into the trivial-rows buffer (TRB),
2. decodes the disabled thread IDs (DTIDs) from ``R`` and the grid config,
3. filters every software thread ID (STID) against the DTIDs and computes,
   via a prefix sum over 32-thread groups, the offset between each
   surviving STID and its hardware thread ID (HTID),
4. shifts the surviving STIDs into a dense HTID range and emits the
   re-organized CTAs to the hardware work queue.

The functional model below performs exactly that compaction (and is what
the correctness tests exercise); the cycle model counts the two-stage
pipeline's occupancy at one warp-sized group per cycle per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Pipeline depth of the CRM (the two dashed stages of Fig. 12).
PIPELINE_STAGES: int = 2

#: Fixed cycles to initialize kernel information and arm the TRB loader.
SETUP_CYCLES: int = 8

#: Trivial-row IDs the LD module can move into the TRB per cycle.
TRB_IDS_PER_CYCLE: int = 8


@dataclass
class CRMReorganization:
    """Result of reorganizing one kernel's CTAs.

    Attributes:
        stid_to_htid: For each surviving software thread ID, the hardware
            thread ID it is shifted to (dense, order preserving).
        disabled_stids: The thread IDs removed from the grid.
        active_threads: Surviving thread count.
        active_warps: Warps after compaction.
        cycles: CRM processing cycles for this kernel.
    """

    stid_to_htid: dict[int, int]
    disabled_stids: np.ndarray
    active_threads: int
    active_warps: int
    cycles: int

    def htid(self, stid: int) -> int:
        """Hardware slot of a surviving software thread."""
        return self.stid_to_htid[stid]


def decode_disabled_threads(
    trivial_rows: np.ndarray, total_threads: int, threads_per_row: int = 1
) -> np.ndarray:
    """DTID decode: expand trivial row IDs to the thread IDs that serve them.

    With a row-per-thread ``Sgemv`` mapping (``threads_per_row == 1``) the
    DTIDs equal the row IDs; wider mappings disable a contiguous group per
    row.
    """
    trivial_rows = np.asarray(trivial_rows, dtype=np.int64).ravel()
    if threads_per_row < 1:
        raise ConfigurationError("threads_per_row must be >= 1")
    if trivial_rows.size and (trivial_rows.min() < 0):
        raise ConfigurationError("trivial row IDs must be non-negative")
    base = trivial_rows * threads_per_row
    offsets = np.arange(threads_per_row)
    dtids = (base[:, None] + offsets[None, :]).ravel()
    return dtids[dtids < total_threads]


def reorganize_ctas(
    trivial_rows: np.ndarray,
    total_threads: int,
    warp_size: int = 32,
    threads_per_row: int = 1,
) -> CRMReorganization:
    """Run the CRM pipeline for one kernel launch.

    Args:
        trivial_rows: Row IDs in the kernel's ``R`` argument.
        total_threads: Grid size before compaction.
        warp_size: Hardware warp width (the prefix-sum group size).
        threads_per_row: Threads assigned per matrix row.

    Returns:
        The compaction mapping plus the cycle count.
    """
    if total_threads < 1:
        raise ConfigurationError("total_threads must be >= 1")
    dtids = decode_disabled_threads(trivial_rows, total_threads, threads_per_row)
    disabled = np.zeros(total_threads, dtype=bool)
    disabled[dtids] = True

    # Prefix sum of disabled flags = offset between STID and HTID.
    offsets = np.cumsum(disabled)
    surviving = np.flatnonzero(~disabled)
    mapping = {int(stid): int(stid - offsets[stid]) for stid in surviving}

    active = int(surviving.size)
    active_warps = int(np.ceil(active / warp_size)) if active else 0

    groups = int(np.ceil(total_threads / warp_size))
    trb_cycles = int(np.ceil(dtids.size / TRB_IDS_PER_CYCLE))
    cycles = SETUP_CYCLES + trb_cycles + groups + PIPELINE_STAGES

    return CRMReorganization(
        stid_to_htid=mapping,
        disabled_stids=dtids,
        active_threads=active,
        active_warps=active_warps,
        cycles=cycles,
    )
