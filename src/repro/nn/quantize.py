"""Low-precision weight storage: symmetric per-row int8 and fp16 policies.

The paper's bandwidth model treats every streamed weight byte as the
enemy; tissues amortize re-loads of ``U`` and DRS skips trivial rows, but
both savings scale with the *size* of the stored rows. E-PUR and SHARP
show the other half of memory friendliness for RNN inference: linear
low-precision weight storage, which composes multiplicatively with row
skipping — a skipped int8 row was already 8x smaller than its fp64
master, so skip and quantization compound.

This module provides the :class:`Precision` policy object threaded
through :class:`~repro.nn.network.LSTMNetwork` →
:class:`~repro.core.executor.LSTMExecutor` → compiled programs, plus the
quantize/dequantize primitives:

* ``int8``: symmetric per-row quantization with a float64 scale per row,
  ``scale = max|row| / 127`` and ``q = clip(rint(x / scale), -127, 127)``.
  The per-element reconstruction error is bounded by ``scale / 2``
  (property-tested in ``tests/test_quantize.py``). All-zero rows store
  ``scale = 0`` and reconstruct exactly.
* ``fp16``: a round-trip through IEEE half precision — no scales, 2
  bytes per element, relative error bounded by ``2**-11`` in the normal
  range.
* ``fp64``: the identity policy. It performs **no** transformation, so
  an fp64-policy executor stays bit-identical to the frozen reference.

Only the recurrence weights ``W`` and ``U`` are quantized: they dominate
streamed bytes (Sec. II-B) and their rows are what DRS skips. Biases,
the embedding table, and the head stay float64.

Quantization happens once, at executor construction (mirroring how zero
pruning replaces weights before planning); executors over the same
weights at one precision share the resulting cells — an app's threshold
sweep, the zoo's tenants, a fleet worker handed the codes its parent
published. Every downstream path — relevance planning, compiled
programs — observes ordinary float64 weights whose *values* carry the
quantization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights

#: Valid ``Precision.weights`` values, widest first.
PRECISIONS: tuple[str, ...] = ("fp64", "fp16", "int8")

#: Storage bytes per weight element for each policy (host arrays).
STORAGE_BYTES: dict[str, int] = {"fp64": 8, "fp16": 2, "int8": 1}

#: Symmetric int8 code range: codes live in [-127, 127] (no -128, so the
#: grid is symmetric and ``|deq - x| <= scale / 2`` holds at both ends).
INT8_LEVELS: int = 127


@dataclass(frozen=True)
class Precision:
    """Weight-storage precision policy (hashable, frozen).

    Attributes:
        weights: Storage format for the recurrence weights ``W``/``U``:
            ``"fp64"`` (identity — bit-exact), ``"fp16"``, or ``"int8"``
            (symmetric per-row with float64 scales).
    """

    weights: str = "fp64"

    def __post_init__(self) -> None:
        if self.weights not in PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {PRECISIONS}, got {self.weights!r}"
            )

    @classmethod
    def parse(cls, name: "str | Precision") -> "Precision":
        """Coerce a CLI/config string (or pass a policy through)."""
        if isinstance(name, Precision):
            return name
        return cls(weights=str(name))

    @property
    def is_quantized(self) -> bool:
        """True for any policy that transforms the stored weights."""
        return self.weights != "fp64"

    @property
    def storage_bytes(self) -> int:
        """Host bytes per stored weight element."""
        return STORAGE_BYTES[self.weights]

    @property
    def scale_bytes_per_row(self) -> int:
        """Host bytes of per-row scale metadata (int8 stores fp64 scales)."""
        return 8 if self.weights == "int8" else 0

    @property
    def tag(self) -> str:
        """Short identifier used in cache keys, fingerprints, and records."""
        return self.weights


def quantize_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-row int8 quantization.

    Args:
        matrix: ``(R, C)`` float array.
    Returns:
        ``(codes, scales)``: int8 codes ``(R, C)`` and float64 per-row
        scales ``(R,)``. All-zero rows get ``scale = 0`` and all-zero
        codes (exact reconstruction).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError(f"expected a 2-D matrix, got shape {matrix.shape}")
    maxabs = np.max(np.abs(matrix), axis=1)
    scales = maxabs / INT8_LEVELS
    # Guard the division for all-zero rows; their codes are exactly zero.
    safe = np.where(scales > 0.0, scales, 1.0)
    codes = np.clip(np.rint(matrix / safe[:, None]), -INT8_LEVELS, INT8_LEVELS)
    return codes.astype(np.int8), scales


def dequantize_rows(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Widen int8 codes back to float64: ``codes * scales[:, None]``."""
    return codes.astype(np.float64) * np.asarray(scales, dtype=np.float64)[:, None]


@dataclass(frozen=True)
class QuantizedMatrix:
    """One stored weight matrix: quantized payload plus dequant metadata.

    Attributes:
        data: The stored payload — ``int8`` codes for the int8 policy,
            ``float16`` values for fp16.
        scales: Float64 per-row scales for int8; ``None`` for fp16.
    """

    data: np.ndarray
    scales: np.ndarray | None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def payload_bytes(self) -> int:
        """Host bytes of the stored payload including scale metadata."""
        total = self.data.nbytes
        if self.scales is not None:
            total += self.scales.nbytes
        return total

    def dequantize(self) -> np.ndarray:
        """Reconstruct the full float64 matrix."""
        if self.scales is None:
            return self.data.astype(np.float64)
        return dequantize_rows(self.data, self.scales)


def quantize_matrix(matrix: np.ndarray, precision: Precision) -> QuantizedMatrix:
    """Quantize one matrix under ``precision`` (which must be quantized)."""
    if precision.weights == "int8":
        codes, scales = quantize_rows(matrix)
        return QuantizedMatrix(data=codes, scales=scales)
    if precision.weights == "fp16":
        return QuantizedMatrix(
            data=np.asarray(matrix, dtype=np.float64).astype(np.float16), scales=None
        )
    raise ConfigurationError(
        f"fp64 is the identity policy; nothing to quantize (got {precision})"
    )


@dataclass(frozen=True)
class QuantizedCell:
    """Quantized storage for one recurrent cell's ``W``/``U`` matrices.

    Attributes:
        precision: The policy that produced this cell.
        dequantized: Cell weights rebuilt in float64 — what the executor
            computes with.
        w: Per-gate quantized input-projection payloads.
        u: Per-gate quantized recurrence payloads.
    """

    precision: Precision
    dequantized: LSTMCellWeights
    w: dict[str, QuantizedMatrix]
    u: dict[str, QuantizedMatrix]

    @property
    def payload_bytes(self) -> int:
        """Total host bytes of all stored payloads (codes + scales)."""
        return sum(m.payload_bytes for m in self.w.values()) + sum(
            m.payload_bytes for m in self.u.values()
        )


def quantize_cell_weights(weights: LSTMCellWeights, precision: Precision) -> QuantizedCell:
    """Quantize one cell's ``W``/``U`` under ``precision``.

    Biases pass through untouched (they are read once per gate per step
    and contribute nothing to the streamed-weight traffic the paper
    models).
    """
    if not precision.is_quantized:
        raise ConfigurationError(
            "quantize_cell_weights requires a quantized precision; "
            "fp64 is the identity policy"
        )
    if not isinstance(weights, LSTMCellWeights):
        raise ConfigurationError(f"cannot quantize weights of type {type(weights).__name__}")
    qw = {g: quantize_matrix(weights.gate_w(g), precision) for g in GATE_ORDER}
    qu = {g: quantize_matrix(weights.gate_u(g), precision) for g in GATE_ORDER}
    dequantized = dequantize_lstm_cell(qw, qu, weights.b)
    return QuantizedCell(precision=precision, dequantized=dequantized, w=qw, u=qu)


def dequantize_lstm_cell(
    w: dict[str, QuantizedMatrix], u: dict[str, QuantizedMatrix], b: np.ndarray
) -> LSTMCellWeights:
    """Float64 reconstruction of an LSTM cell's per-gate payloads, packed
    into fresh united ``W`` / ``U`` blocks beside the bias block ``b``
    (taken as is — biases are never quantized)."""
    return LSTMCellWeights(
        *(np.concatenate([m[g].dequantize() for g in GATE_ORDER]) for m in (w, u)), b
    )
