"""Algorithm 2 — relevance value acquisition (Section IV-B).

The relevance value ``S`` quantifies how much the previous cell's output
``h_{t-1}`` can influence the current cell. Because ``h_{t-1}`` is bounded
to ``[-1, 1]`` (Eq. 5), the recurrent contribution ``U_g h_{t-1}`` to each
gate pre-activation lies within ``[-D_g, D_g]`` where ``D_g`` is the
row-wise L1 norm of ``U_g``. Combining this range with the known input
projection ``X'_g = W_g x_t`` and bias gives the reachable pre-activation
range; the portion of that range overlapping the activation's *sensitive
area* ``[-2, 2]`` is what the previous cell can actually modulate.

``S = 0`` means the two cells are completely irrelevant — breaking the link
is exact. Small ``S`` means a weak link.

Two implementations are provided:

* :func:`relevance_values` — the paper's Algorithm 2 (including its
  asymmetric treatment of the forget gate), in six in-place passes per
  gate: line 5's ``min(term_a, term_b)`` is ``term_b`` by the identity
  ``term_a = 2 + min(2, |center|) >= 2 >= term_b``. The only deviation is
  a final clip of each per-gate term to ``[0, 4]``: the published
  pseudo-code can go negative when a range sits entirely outside the
  sensitive area with small ``D``, which would *reduce* the summed
  relevance; a negative overlap has no geometric meaning.
* :func:`exact_relevance_values` — an ablation variant that replaces the
  per-gate expressions with the exact interval-overlap computation of
  :func:`repro.nn.activations.sensitive_overlap`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.activations import SENSITIVE_WIDTH, sensitive_overlap
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights


def recurrent_row_ranges(weights: LSTMCellWeights) -> dict[str, np.ndarray]:
    """Line 2 of Algorithm 2: ``D_g = sum(abs(U_g), axis=1)`` per gate.

    ``[-D_g, D_g]`` bounds the recurrent contribution per element given
    ``h_{t-1}`` in ``[-1, 1]``. Computed once per layer (the matrices do not
    change at inference time).
    """
    return {g: np.abs(weights.gate_u(g)).sum(axis=1) for g in GATE_ORDER}


def _check_projections(
    weights: LSTMCellWeights, x_proj: dict[str, np.ndarray]
) -> tuple[int, ...]:
    """Validate the per-gate projections; returns the leading shape.

    Projections are ``(..., T, H)``: the canonical per-layer ``(T, H)``
    form — what the executors pass, one sequence at a time — or any number
    of leading batch dimensions.
    """
    hidden = weights.hidden_size
    lead: tuple[int, ...] | None = None
    for gate in GATE_ORDER:
        if gate not in x_proj:
            raise ShapeError(f"x_proj missing gate {gate!r}")
        arr = x_proj[gate]
        if arr.ndim < 2 or arr.shape[-1] != hidden:
            raise ShapeError(
                f"x_proj[{gate!r}] must be (..., T, {hidden}), got {arr.shape}"
            )
        if lead is None:
            lead = arr.shape[:-1]
        elif arr.shape[:-1] != lead:
            raise ShapeError("x_proj gates disagree on sequence length")
    assert lead is not None
    return lead


def relevance_values(
    weights: LSTMCellWeights,
    x_proj: dict[str, np.ndarray],
    row_ranges: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-timestep relevance ``S`` (Algorithm 2), vectorized over the layer.

    Args:
        weights: Layer weights (provides ``U`` and ``b``).
        x_proj: Per-gate input projections ``X' = W_g x_t`` of shape
            ``(T, H)`` — the output of the per-layer ``Sgemm(W, x)`` — or
            ``(..., T, H)`` with leading batch dimensions.
        row_ranges: Optional precomputed :func:`recurrent_row_ranges`.

    Returns:
        Array of shape ``(T,)`` (or ``(..., T)`` for batched projections):
        ``S[t]`` measures the link *into* cell ``t`` from cell ``t - 1``.
        ``S[0]`` is computed like every other entry but has no link to
        break (there is no cell ``-1``).
    """
    lead = _check_projections(weights, x_proj)
    ranges = row_ranges if row_ranges is not None else recurrent_row_ranges(weights)

    # Line 4: the forget gate's one-sided overlap with the sensitive area.
    s_f = np.add(x_proj["f"], weights.b_f)
    np.add(s_f, ranges["f"], out=s_f)
    np.add(s_f, 2.0, out=s_f)
    np.maximum(s_f, 0.0, out=s_f)
    np.minimum(SENSITIVE_WIDTH, s_f, out=s_f)
    # Line 5 for i, c, o: min(term_a, term_b) is term_b (NaN stays NaN), and
    # max(term_b, 0) is the clip bit for bit: term_b <= 2, never -0.0.
    per_gate = []
    for gate in ("i", "c", "o"):
        term_b = np.add(x_proj[gate], weights.gate_b(gate))
        np.abs(term_b, out=term_b)  # center
        np.maximum(2.0, term_b, out=term_b)
        np.subtract(2.0 + ranges[gate], term_b, out=term_b)
        np.minimum(2.0, term_b, out=term_b)
        np.maximum(term_b, 0.0, out=term_b)
        per_gate.append(term_b)
    s_i, s_c, s_o = per_gate

    # Line 6: combine gate overlaps; line 7: reduce over the hidden dim.
    np.multiply(s_i, s_c, out=s_c)
    np.add(s_f, s_c, out=s_c)
    np.multiply(s_o, s_c, out=s_c)
    s = s_c.sum(axis=-1)
    if s.shape != lead:
        raise ShapeError("internal: relevance reduction produced a bad shape")
    return s


def exact_relevance_values(
    weights: LSTMCellWeights,
    x_proj: dict[str, np.ndarray],
    row_ranges: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Ablation variant of Algorithm 2 using exact interval overlaps.

    Each gate's contribution is the exact length of the overlap between the
    reachable pre-activation interval ``[X' + b - D, X' + b + D]`` and the
    sensitive area, combined with the same line-6 formula.
    """
    _check_projections(weights, x_proj)
    ranges = row_ranges if row_ranges is not None else recurrent_row_ranges(weights)

    per_gate: dict[str, np.ndarray] = {}
    for gate in GATE_ORDER:
        center = x_proj[gate] + weights.gate_b(gate)
        per_gate[gate] = sensitive_overlap(center - ranges[gate], center + ranges[gate])

    s_elem = per_gate["o"] * (per_gate["f"] + per_gate["i"] * per_gate["c"])
    return s_elem.sum(axis=-1)
