"""CTA/warp-level efficiency models (divergence and irregular access).

Three execution styles of the intra-cell comparison (Fig. 16) differ only
in how the skipped work maps onto warps:

* **Hardware DRS (CRM).** The CTA-reorganization module compacts the thread
  grid before issue, so the surviving threads are dense: no divergence, and
  the skipped rows are simply absent from the stream (coalescing is
  preserved because whole rows are cache-line aligned).
* **Software DRS.** Every thread branches on "is my row trivial?". A warp
  only disappears when *all* of its rows are trivial; otherwise it runs the
  full latency path, and its memory requests become gappy.
* **Zero-pruned SpMV.** Element-granular sparsity forces a CSR gather:
  variable row lengths unbalance warps and column indices break coalescing.

The functions here turn a skip/prune fraction into the
``(warp_efficiency, gather_efficiency)`` pair consumed by the simulator.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def software_drs_penalties(
    skip_fraction: float, warp_skip_fraction: float
) -> tuple[float, float, float]:
    """Efficiency triple for software-only DRS.

    ``warp_skip_fraction`` is the lane-weighted share of rows in entirely
    trivial warps (:func:`repro.core.plan.warp_skip_fractions`), never
    above ``skip_fraction``.

    Returns:
        ``(warp_efficiency, gather_efficiency, effective_skip)`` where
        ``effective_skip`` is the fraction of weight *bytes* whose load is
        actually avoided. Per-thread early exits do avoid the row loads, but
        the resulting holes de-coalesce the stream, so the avoided bytes
        only count partially and the surviving warps run at reduced
        efficiency.
    """
    if not 0 <= skip_fraction <= 1:
        raise ConfigurationError(f"skip_fraction must be in [0, 1], got {skip_fraction}")
    if not 0 <= warp_skip_fraction <= 1:
        raise ConfigurationError(
            f"warp_skip_fraction must be in [0, 1], got {warp_skip_fraction}"
        )
    # Divergence cost peaks when skipping is mixed within warps.
    mixed = skip_fraction - warp_skip_fraction
    warp_efficiency = max(0.4, 1.0 - 0.5 * mixed)
    gather_efficiency = max(0.5, 1.0 - 0.45 * mixed)
    # Whole-warp skips save their bytes cleanly; per-thread skips save the
    # row bytes but de-coalesce the stream around the holes, modeled as a
    # 70 % effectiveness.
    effective_skip = warp_skip_fraction + 0.7 * mixed
    return warp_efficiency, gather_efficiency, effective_skip


def hardware_drs_penalties(skip_fraction: float) -> tuple[float, float, float]:
    """Efficiency triple for CRM-backed hardware DRS.

    The compacted grid has no divergence and whole skipped rows leave a
    perfectly coalescible stream, so the full byte saving is realized.
    """
    if not 0 <= skip_fraction <= 1:
        raise ConfigurationError(f"skip_fraction must be in [0, 1], got {skip_fraction}")
    return 1.0, 1.0, skip_fraction


def pruned_spmv_penalties(kept_fraction: float) -> tuple[float, float]:
    """Efficiency pair ``(warp_efficiency, gather_efficiency)`` for the
    zero-pruned CSR SpMV baseline.

    Variable row populations unbalance warps (efficiency ~= mean/max row
    length under a binomial row model, flattened to a calibrated constant)
    and index-driven gathers defeat coalescing.
    """
    if not 0 < kept_fraction <= 1:
        raise ConfigurationError(f"kept_fraction must be in (0, 1], got {kept_fraction}")
    sparsity = 1.0 - kept_fraction
    warp_efficiency = max(0.5, 1.0 - 0.6 * sparsity)
    gather_efficiency = max(0.35, 1.0 - 1.5 * sparsity)
    return warp_efficiency, gather_efficiency
