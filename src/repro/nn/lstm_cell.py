"""LSTM cell mathematics (paper Eq. 1-5).

One cell maps ``(x_t, h_{t-1}, c_{t-1})`` to ``(h_t, c_t)`` through three
gates::

    f_t = sigma(W_f x_t + U_f h_{t-1} + b_f)                   (Eq. 1)
    i_t = sigma(W_i x_t + U_i h_{t-1} + b_i)                   (Eq. 2)
    c_t = f_t * c_{t-1} + i_t * tanh(W_c x_t + U_c h_{t-1} + b_c)  (Eq. 3)
    o_t = sigma(W_o x_t + U_o h_{t-1} + b_o)                   (Eq. 4)
    h_t = o_t * tanh(c_t)                                      (Eq. 5)

The module also implements the *dynamic row skip* semantics of Section V-A:
given a boolean mask of trivial rows (rows of ``U_{f,i,c}`` whose matching
``o_t`` element is near zero), the skipped rows are neither loaded nor
computed, and the corresponding ``c_t`` elements are approximated to zero —
exactly the paper's approximation.

All functions accept either single vectors (shape ``(H,)``) or batches
(shape ``(B, H)``); the gate order used throughout the package for the
united matrices is ``(f, i, c, o)``, matching the paper's subscripts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import sigmoid, tanh
from repro.nn.initializers import WeightInitializer

#: Canonical gate order for the united matrices ``W_{f,i,c,o}`` / ``U_{f,i,c,o}``.
GATE_ORDER: tuple[str, ...] = ("f", "i", "c", "o")

#: Byte alignment of the blocks :meth:`LSTMCellWeights.zeros` allocates: a
#: cache line. The per-row lifts stream weight rows through BLAS vector
#: loads; a row that starts mid-line (glibc's large allocations start 16
#: bytes into a page) splits loads across lines, which measured ~25 %
#: slower per IMDB projection.
BLOCK_ALIGN = 64


def _aligned_zeros(rows: int, cols: int) -> np.ndarray:
    """A zeroed ``(rows, cols)`` float64 array whose data starts on a
    :data:`BLOCK_ALIGN` boundary (a view into a slightly larger buffer)."""
    nbytes = rows * cols * np.dtype(np.float64).itemsize
    raw = np.zeros(nbytes + BLOCK_ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % BLOCK_ALIGN
    return raw[start : start + nbytes].view(np.float64).reshape(rows, cols)


@dataclass
class LSTMCellWeights:
    """Weights of one LSTM layer's cell, stored united.

    Three row-major blocks in :data:`GATE_ORDER` — ``w`` ``(4H, E)``, ``u``
    ``(4H, H)``, ``b`` ``(4H,)``, the forms the GPU kernels operate on — are
    the only storage; :meth:`united_w` / :meth:`united_u` / :meth:`united_b`
    return them, not copies. The per-gate names ``w_f .. b_o`` (the
    optimizations treat gates differently — DRS skips rows of ``U_f, U_i,
    U_c`` but never ``U_o``) are row slices of the blocks: each keeps its
    own row-major layout, and reads, in-place updates and assignments all
    land in the one copy that executors, compiled programs, the zoo's
    tenants and the fleet's forked workers compute on (a worker reads the
    parent's pages copy-on-write).
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        hidden = self.u.shape[-1]
        if self.u.shape != (4 * hidden, hidden):
            raise ShapeError(f"u must be ({4 * hidden}, {hidden}), got {self.u.shape}")
        if self.w.ndim != 2 or self.w.shape[0] != 4 * hidden:
            raise ShapeError(f"w must be ({4 * hidden}, E), got {self.w.shape}")
        if self.b.shape != (4 * hidden,):
            raise ShapeError(f"b must be ({4 * hidden},), got {self.b.shape}")
        if not all(block.flags.c_contiguous for block in (self.w, self.u, self.b)):
            # Gate slices and the programs' (4, H, ·) reshapes must be views.
            raise ShapeError("w, u and b must be C-contiguous (row-major)")

    @classmethod
    def zeros(cls, hidden_size: int, input_size: int) -> "LSTMCellWeights":
        """All-zero blocks, for callers that fill them gate by gate; ``w``
        and ``u`` start on a cache line (:data:`BLOCK_ALIGN`)."""
        rows = 4 * hidden_size
        return cls(
            _aligned_zeros(rows, input_size), _aligned_zeros(rows, hidden_size), np.zeros(rows)
        )

    @property
    def hidden_size(self) -> int:
        """Number of hidden units ``H``."""
        return self.u.shape[1]

    @property
    def input_size(self) -> int:
        """Width of the layer input ``x_t``."""
        return self.w.shape[1]

    def gate_w(self, gate: str) -> np.ndarray:
        """Input-projection matrix ``W_gate``."""
        return getattr(self, f"w_{gate}")

    def gate_u(self, gate: str) -> np.ndarray:
        """Recurrent matrix ``U_gate``."""
        return getattr(self, f"u_{gate}")

    def gate_b(self, gate: str) -> np.ndarray:
        """Bias vector ``b_gate``."""
        return getattr(self, f"b_{gate}")

    def gate_arrays(self) -> list[np.ndarray]:
        """The twelve per-gate views ``W_{f,i,c,o}``, ``U_{f,i,c,o}``,
        ``b_{f,i,c,o}`` in that order — slices of the blocks, so an
        in-place update through them lands in the one copy."""
        return [getattr(self, f"{kind}_{gate}") for kind in "wub" for gate in GATE_ORDER]

    def united_w(self) -> np.ndarray:
        """The ``W_{f,i,c,o}`` block, shape ``(4H, input_size)`` (not a copy)."""
        return self.w

    def united_u(self) -> np.ndarray:
        """The ``U_{f,i,c,o}`` block, shape ``(4H, H)`` (not a copy)."""
        return self.u

    def united_b(self) -> np.ndarray:
        """The bias block ``b_{f,i,c,o}``, shape ``(4H,)`` (not a copy)."""
        return self.b

    @classmethod
    def initialize(
        cls,
        hidden_size: int,
        input_size: int,
        init: WeightInitializer,
        recurrent_scale: float = 1.0,
        forget_bias: float = 1.0,
    ) -> "LSTMCellWeights":
        """Create freshly initialized weights.

        Uses Xavier for the input projections and scaled orthogonal matrices
        for the recurrent projections; the forget-gate bias follows the
        common positive-bias convention so fresh cells retain state.
        """
        weights = cls.zeros(hidden_size, input_size)
        for gate in GATE_ORDER:
            weights.gate_w(gate)[...] = init.xavier_uniform(hidden_size, input_size)
        for gate in GATE_ORDER:
            weights.gate_u(gate)[...] = init.orthogonal(
                hidden_size, hidden_size, gain=recurrent_scale
            )
        weights.b_f = forget_bias
        return weights


def _gate_slice(kind: str, index: int) -> property:
    """Rows ``index * H .. (index + 1) * H`` of block ``kind`` as an attribute
    that reads a view and assigns through it."""

    def view(self: LSTMCellWeights) -> np.ndarray:
        hidden = self.u.shape[1]
        return getattr(self, kind)[index * hidden : (index + 1) * hidden]

    def assign(self: LSTMCellWeights, value) -> None:
        view(self)[...] = value

    return property(view, assign)


for _index, _gate in enumerate(GATE_ORDER):
    for _kind in "wub":
        setattr(LSTMCellWeights, f"{_kind}_{_gate}", _gate_slice(_kind, _index))


@dataclass
class GateVectors:
    """Post-activation gate values of one cell step (diagnostics)."""

    f: np.ndarray
    i: np.ndarray
    g: np.ndarray  # tanh candidate from Eq. 3
    o: np.ndarray


@dataclass
class CellState:
    """The two outputs of one cell: hidden output ``h`` and cell state ``c``."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int, batch: int | None = None) -> "CellState":
        """Initial (all-zero) state used at the start of every layer."""
        shape = (hidden_size,) if batch is None else (batch, hidden_size)
        return cls(h=np.zeros(shape), c=np.zeros(shape))


def input_projections(weights: LSTMCellWeights, x: np.ndarray) -> dict[str, np.ndarray]:
    """Compute the per-gate input projections ``W_gate @ x`` for all gates.

    This is the per-layer ``Sgemm(W_{f,i,c,o}, x)`` of Algorithm 1 step 2:
    the whole layer's inputs are known up front, so these terms are computed
    once and reused by every cell, by Algorithm 2 (which needs ``X'``), and
    by the breakpoint search.

    Args:
        weights: The layer's cell weights.
        x: Input of shape ``(E,)`` or ``(T, E)`` (one row per timestep).

    Returns:
        Mapping from gate name to projection of shape ``(H,)`` / ``(T, H)``.
    """
    x = np.asarray(x, dtype=np.float64)
    return {g: x @ weights.gate_w(g).T for g in GATE_ORDER}


def lstm_cell_step(
    weights: LSTMCellWeights,
    x_proj: dict[str, np.ndarray],
    state: CellState,
    skip_rows: np.ndarray | None = None,
) -> tuple[CellState, GateVectors]:
    """Advance one LSTM cell by one timestep (Eq. 1-5).

    Args:
        weights: The layer's cell weights.
        x_proj: Pre-computed per-gate input projections for *this* timestep
            (single rows out of :func:`input_projections`).
        state: ``(h_{t-1}, c_{t-1})``.
        skip_rows: Optional boolean mask of shape ``(H,)``; ``True`` marks a
            trivial row skipped by DRS. Skipped rows contribute ``c_t = 0``
            and therefore ``h_t = 0`` (Section V-A). The output gate ``o_t``
            is always computed in full — DRS needs it to pick the rows.

    Returns:
        The new :class:`CellState` and the :class:`GateVectors` diagnostics.
    """
    h_prev, c_prev = state.h, state.c

    o_pre = x_proj["o"] + h_prev @ weights.u_o.T + weights.b_o
    o = sigmoid(o_pre)

    if skip_rows is None:
        keep = None
    else:
        skip_rows = np.asarray(skip_rows, dtype=bool)
        if skip_rows.shape != (weights.hidden_size,):
            raise ShapeError(
                f"skip_rows must be ({weights.hidden_size},), got {skip_rows.shape}"
            )
        keep = ~skip_rows

    if keep is None:
        f = sigmoid(x_proj["f"] + h_prev @ weights.u_f.T + weights.b_f)
        i = sigmoid(x_proj["i"] + h_prev @ weights.u_i.T + weights.b_i)
        g = tanh(x_proj["c"] + h_prev @ weights.u_c.T + weights.b_c)
        c = f * c_prev + i * g
    else:
        # Only the kept rows of U_f, U_i, U_c are loaded and multiplied;
        # skipped elements of c_t are approximated to zero (Section V-A).
        f = np.zeros_like(o)
        i = np.zeros_like(o)
        g = np.zeros_like(o)
        if np.any(keep):
            f_kept = sigmoid(
                _rows(x_proj["f"], keep) + h_prev @ weights.u_f[keep].T + weights.b_f[keep]
            )
            i_kept = sigmoid(
                _rows(x_proj["i"], keep) + h_prev @ weights.u_i[keep].T + weights.b_i[keep]
            )
            g_kept = tanh(
                _rows(x_proj["c"], keep) + h_prev @ weights.u_c[keep].T + weights.b_c[keep]
            )
            _set_rows(f, keep, f_kept)
            _set_rows(i, keep, i_kept)
            _set_rows(g, keep, g_kept)
        c = np.where(keep, f * c_prev + i * g, 0.0)

    h = o * tanh(c)
    return CellState(h=h, c=c), GateVectors(f=f, i=i, g=g, o=o)


def _rows(vec: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Select kept elements along the hidden axis for vectors or batches."""
    return vec[..., keep]


def _set_rows(dest: np.ndarray, keep: np.ndarray, values: np.ndarray) -> None:
    dest[..., keep] = values
