"""The zero-pruning baseline of Fig. 16 (Han et al. [31]).

Zero-pruning erases individual near-zero weight elements. On a GPU the
surviving elements must be stored in a sparse format (values + column
indices + row pointers), so the *data-movement* saving is smaller than the
element count suggests, and the irregular per-row work causes branch
divergence — which is why the paper measures a *slowdown* for this scheme.

This module provides the numerical pruning (for accuracy evaluation) and the
storage-cost model (for the GPU simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Bytes per stored non-zero value (fp32).
VALUE_BYTES: int = 4
#: Bits per element for the occupancy bitmap (Deep-Compression-style
#: position encoding: one presence bit per original element).
BITMAP_BITS_PER_ELEMENT: int = 1
#: Bytes per row-pointer entry (32-bit).
ROW_PTR_BYTES: int = 4


@dataclass
class ZeroPruningResult:
    """Outcome of magnitude pruning one matrix.

    Attributes:
        pruned: The matrix with erased elements set to zero.
        mask: Boolean mask of *kept* elements.
        threshold: Magnitude threshold actually applied.
        dense_bytes: Storage of the original dense matrix.
        sparse_bytes: Bitmap-compressed storage of the pruned matrix
            (values + one presence bit per element + row pointers).
    """

    pruned: np.ndarray
    mask: np.ndarray
    threshold: float
    dense_bytes: int
    sparse_bytes: int

    @property
    def kept_fraction(self) -> float:
        """Fraction of elements surviving the prune."""
        return float(self.mask.mean())

    @property
    def compression_ratio(self) -> float:
        """Fraction of weight *elements* eliminated (Fig. 16a metric)."""
        return 1.0 - self.kept_fraction


def zero_prune(
    matrix: np.ndarray,
    prune_fraction: float | None = None,
    threshold: float | None = None,
    value_bytes: int = VALUE_BYTES,
) -> ZeroPruningResult:
    """Magnitude-prune a dense matrix.

    Exactly one of ``prune_fraction`` (erase the smallest fraction of
    elements) or ``threshold`` (erase ``|w| < threshold``) must be given.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError(f"zero_prune expects a 2-D matrix, got shape {matrix.shape}")
    if (prune_fraction is None) == (threshold is None):
        raise ConfigurationError("pass exactly one of prune_fraction or threshold")
    magnitude = np.abs(matrix)  # one pass serves the quantile and the mask
    if prune_fraction is not None:
        if not 0.0 <= prune_fraction < 1.0:
            raise ConfigurationError(f"prune_fraction must be in [0, 1), got {prune_fraction}")
        threshold = 0.0 if prune_fraction == 0.0 else float(np.quantile(magnitude, prune_fraction))
    assert threshold is not None
    mask = magnitude >= threshold if threshold > 0.0 else np.ones_like(matrix, dtype=bool)
    pruned = np.where(mask, matrix, 0.0)
    nnz = int(mask.sum())
    dense_bytes = matrix.size * value_bytes
    bitmap_bytes = (matrix.size * BITMAP_BITS_PER_ELEMENT + 7) // 8
    sparse_bytes = nnz * value_bytes + bitmap_bytes + (matrix.shape[0] + 1) * ROW_PTR_BYTES
    return ZeroPruningResult(
        pruned=pruned,
        mask=mask,
        threshold=float(threshold),
        dense_bytes=dense_bytes,
        sparse_bytes=sparse_bytes,
    )


def prune_cell_weights(weights, prune_fraction: float):
    """Zero-prune the recurrent matrices of an LSTM cell in place-free style.

    Returns a new :class:`~repro.nn.lstm_cell.LSTMCellWeights` holding a
    pruned ``U`` block of its own and the *source's* ``W`` / ``b`` blocks
    (pruning never touches them, so they are shared, not copied), plus the
    aggregate :class:`ZeroPruningResult` statistics for the united matrix
    (what the GPU kernel would actually stream).
    """
    aggregate = zero_prune(weights.united_u(), prune_fraction=prune_fraction)
    # One threshold over the united matrix is an elementwise rule, so the
    # united result *is* the four per-gate prunes, already in block form.
    return type(weights)(weights.w, aggregate.pruned, weights.b), aggregate
