"""Memory-frugal truncated BPTT for the stacked LSTM.

Training footprint of an unrolled LSTM is dominated not by the weights but
by the per-timestep activations the backward pass consumes. Echo
(PAPERS.md) showed that recomputing those tensors during the backward
sweep cuts the footprint by multiples at a small compute cost, and
RETURNN's ``LstmOpLowMem`` is the minimal recipe: keep only the
per-timestep outputs ``Y`` and cell states ``C`` and rebuild ``i/f/g/o``
from them on the way back.

One forward serves training and inference. :func:`training_forward` is
the exact-tier BASELINE run of :class:`~repro.core.executor.LSTMExecutor`
with ``collect_states``, so the logits, ``Y`` and ``C`` on the tape are
bit-identical to :class:`~repro.core.reference.ReferenceExecutor`. Every
call builds a private executor: no program or token-row cache keyed on a
weight digest outlives an optimizer step.

Backward runs no recurrence of its own. Per layer it rebuilds every gate
at once — one ``(B*T, E) @ W^T`` and one ``(B*T, H) @ U^T`` GEMM on the
united blocks, with ``h_{t-1}`` read from the saved ``Y`` — then the
reverse time loop overwrites those gate rows with their pre-activation
gradients, so ``dW``, ``dU`` and the layer-input gradient are one GEMM
each. The rebuilt gates agree with the forward's to rounding (the forward
lifts each row to its own GEMV, the rebuild does not), so gradients are
exact fp64 derivatives up to the last bits.

Peak-memory accounting comes in two planes: an *analytic* saved-tensor
bytes model (:func:`analytic_saved_bytes`, surfaced through
``RunRecord.memory`` and ``repro trace summarize``) and a *measured*
``tracemalloc`` high-water figure (:func:`measure_training_memory`).
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.activations import dsigmoid, dtanh
from repro.nn.lstm_cell import LSTMCellWeights
from repro.nn.network import LSTMNetwork

#: Bytes per saved fp64 element.
ELEMENT_BYTES: int = 8


@dataclass
class LayerTape:
    """Saved tensors of one layer: outputs ``y`` and cell states ``c``,
    each ``(B, T, H)``."""

    y: np.ndarray
    c: np.ndarray

    def saved_bytes(self) -> int:
        """Bytes this layer's tape retains between passes."""
        return self.y.nbytes + self.c.nbytes


@dataclass
class TrainingTape:
    """Everything :func:`backward` needs, retained between the passes.

    The embedded layer-0 input is not retained: ``tokens`` (integers) are
    kept and the embedding gather re-runs in backward.
    """

    network: LSTMNetwork
    tokens: np.ndarray
    logits: np.ndarray
    layers: list[LayerTape]

    def saved_bytes(self) -> int:
        """Bytes the tape retains between forward and backward."""
        return sum(tape.saved_bytes() for tape in self.layers)

    def memory_report(self) -> dict[str, float]:
        """The ``RunRecord.memory`` mapping for this tape: per-layer saved
        bytes, their total and the analytic model's figure for the same
        workload (the two are equal by construction)."""
        batch, seq_len = self.tokens.shape
        report = {
            f"layer{index}_saved_bytes": float(tape.saved_bytes())
            for index, tape in enumerate(self.layers)
        }
        report["saved_bytes"] = float(self.saved_bytes())
        report["analytic_saved_bytes"] = float(
            analytic_saved_bytes(self.network, batch, seq_len)
        )
        return report


@dataclass
class Gradients:
    """Gradients of every parameter of an :class:`LSTMNetwork`.

    Layer gradients reuse :class:`~repro.nn.lstm_cell.LSTMCellWeights` as a
    shape-validated container (``w_f`` holds ``dL/dW_f`` and so on).
    """

    embedding: np.ndarray
    layers: list[LSTMCellWeights] = field(default_factory=list)
    head_weight: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    head_bias: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def arrays(self) -> list[np.ndarray]:
        """All gradient arrays in the canonical parameter order of
        :meth:`LSTMNetwork.parameters`, so optimizers can zip parameters
        with gradients positionally."""
        cells = [array for layer in self.layers for array in layer.gate_arrays()]
        return [self.embedding, *cells, self.head_weight, self.head_bias]

    def array_equal(self, other: "Gradients") -> bool:
        """Whether two gradient sets are equal bit for bit, array by array."""
        mine, theirs = self.arrays(), other.arrays()
        return len(mine) == len(theirs) and all(
            np.array_equal(a, b) for a, b in zip(mine, theirs)
        )


def analytic_saved_bytes(network: LSTMNetwork, batch: int, seq_len: int) -> int:
    """The saved-tensor bytes model: two fp64 ``(B, T, H)`` tensors (``Y``
    and ``C``) per layer."""
    hidden = network.config.hidden_size
    return 2 * batch * seq_len * hidden * network.num_layers * ELEMENT_BYTES


# ------------------------------------------------------------------ forward


def training_forward(network: LSTMNetwork, tokens: np.ndarray) -> TrainingTape:
    """The exact-tier forward, retaining ``Y`` and ``C`` per layer.

    Args:
        network: The model (fp64 numpy weights).
        tokens: Integer token batch of shape ``(B, T)``, ``B, T >= 1``.

    Returns:
        A :class:`TrainingTape` holding the logits and per-layer ``Y``/``C``.

    Raises:
        ShapeError: For out-of-vocabulary ids, a batch that is not 2-D, or
            an empty batch (no rows or no timesteps: nothing to score).
    """
    # repro.core imports repro.nn at package init, so the executor import
    # stays function-local.
    from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor

    tokens = network.check_tokens(tokens)
    if tokens.ndim != 2 or 0 in tokens.shape:
        raise ShapeError(
            f"training tokens must be (B, T) with B, T >= 1, got shape {tokens.shape}"
        )
    result = LSTMExecutor(network, ExecutionConfig(mode=ExecutionMode.BASELINE)).run_batch(
        tokens, collect_states=True
    )
    return TrainingTape(
        network=network,
        tokens=tokens,
        logits=result.logits,
        layers=[LayerTape(y, c) for y, c in zip(result.layer_outputs, result.layer_states)],
    )


# --------------------------------------------------------------------- loss


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Args:
        logits: ``(B, C)`` (sequence-final heads) or ``(B, T, C)``
            (per-timestep heads).
        labels: Integer classes, ``(B,)`` or ``(B, T)``.

    Returns:
        ``(loss, dlogits)`` — the mean is over every scored position, so
        ``dlogits`` already carries the ``1/N`` factor.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(denom)
    picked = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    count = picked.size
    loss = float(-picked.sum() / count)
    dlogits = exp / denom
    flat = dlogits.reshape(-1, dlogits.shape[-1])
    flat[np.arange(count), labels.reshape(-1)] -= 1.0
    dlogits /= count
    return loss, dlogits


# ----------------------------------------------------------------- backward


def rebuild_gates(
    weights: LSTMCellWeights, xs: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every gate activation of one layer from its input and saved ``Y``.

    Args:
        weights: The layer's cell weights.
        xs: The layer input ``(B, T, E)``.
        y: The layer's saved outputs ``(B, T, H)``.

    Returns:
        ``(gates, h_prev)``: ``(B*T, 4H)`` activations in gate order
        ``f, i, c, o`` (sigmoid, sigmoid, tanh, sigmoid) and the
        ``(B*T, H)`` previous hidden states they were computed from.
    """
    batch, seq_len, hidden = y.shape
    h_prev = np.empty_like(y)
    h_prev[:, 0] = 0.0
    h_prev[:, 1:] = y[:, :-1]
    h_prev = h_prev.reshape(batch * seq_len, hidden)
    gates = xs.reshape(batch * seq_len, -1) @ weights.w.T
    gates += h_prev @ weights.u.T
    gates += weights.b
    _sigmoid_(gates[:, : 2 * hidden])
    np.tanh(gates[:, 2 * hidden : 3 * hidden], out=gates[:, 2 * hidden : 3 * hidden])
    _sigmoid_(gates[:, 3 * hidden :])
    return gates, h_prev


def _sigmoid_(x: np.ndarray) -> None:
    """``x = 1 / (1 + exp(-x))`` in place. The rebuild is graded, not
    bit-exact, so it skips :func:`~repro.nn.activations.sigmoid`'s
    two-branch ladder: this form agrees with it to rounding, allocates
    nothing and runs several times faster."""
    with np.errstate(over="ignore"):  # exp(-x) = inf yields the exact limit 0
        np.exp(np.negative(x, out=x), out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def _layer_backward(
    weights: LSTMCellWeights,
    xs: np.ndarray,
    saved: LayerTape,
    d_y: np.ndarray,
    truncation: int | None,
) -> tuple[np.ndarray, LSTMCellWeights]:
    """Backward sweep of one layer; returns ``(d_xs, weight gradients)``.

    ``xs`` is the layer's forward input block ``(B, T, E)`` (the layer
    below's saved ``y``, or the embedded tokens for layer 0). ``d_y`` is
    the loss gradient w.r.t. this layer's outputs.
    """
    batch, seq_len, hidden = saved.y.shape
    flat, h_prev = rebuild_gates(weights, xs, saved.y)
    gates = flat.reshape(batch, seq_len, 4, hidden)
    f, i, g, o = (gates[:, :, k] for k in range(4))
    # Every factor of the reverse step that does not depend on the carried
    # gradients, computed for the whole layer at once and written over the
    # activations it consumes: the step then scales each gate slot by
    # dc (f, i, g) or dh (o) to get its pre-activation gradient.
    tanh_c = np.tanh(saved.c)
    dc_dh = dtanh(tanh_c)
    dc_dh *= o  # dc/dh through h = o * tanh(c)
    o[...] = dsigmoid(o) * tanh_c
    del tanh_c
    forget = f.copy()  # dc_{t-1} = dc_t * f_t
    f[...] = dsigmoid(f)
    f[:, 0] = 0.0  # c_{-1} = 0
    f[:, 1:] *= saved.c[:, :-1]
    d_i = g * dsigmoid(i)
    g[...] = dtanh(g) * i
    i[...] = d_i
    del d_i

    zeros = np.zeros((batch, hidden))
    dh_carry = zeros
    dc_carry = zeros
    for t in range(seq_len - 1, -1, -1):
        step = gates[:, t]
        dh = d_y[:, t] + dh_carry
        dc = dc_carry + dh * dc_dh[:, t]
        step[:, :3] *= dc[:, None]
        step[:, 3] *= dh
        dc_carry = dc * forget[:, t]
        dh_carry = step.reshape(batch, 4 * hidden) @ weights.u
        if truncation is not None and t % truncation == 0:
            # Window boundary: gradients do not flow into the previous
            # truncation window (the h/c carried across the boundary are
            # treated as constants, the standard TBPTT contract).
            dh_carry = zeros
            dc_carry = zeros

    flat_x = xs.reshape(batch * seq_len, -1)
    layer_grads = LSTMCellWeights(flat.T @ flat_x, flat.T @ h_prev, flat.sum(axis=0))
    return (flat @ weights.w).reshape(xs.shape), layer_grads


def backward(
    tape: TrainingTape, labels: np.ndarray, truncation: int | None = None
) -> tuple[float, Gradients]:
    """Full backward pass: loss, head, stacked layers, embedding.

    Args:
        tape: The retained forward state (:func:`training_forward`).
        labels: Integer targets — ``(B,)`` for sequence-final heads,
            ``(B, T)`` for per-timestep heads.
        truncation: Truncated-BPTT window length ``K``: gradients do not
            flow across window boundaries (multiples of ``K`` from the
            sequence start). ``None`` means full backpropagation through
            time.

    Returns:
        ``(loss, gradients)``: the mean cross-entropy and its fp64
        derivatives (subject to the truncation window).
    """
    if truncation is not None and truncation < 1:
        raise ConfigurationError(
            f"truncation must be a positive window length, got {truncation}"
        )
    network = tape.network
    batch, seq_len = tape.tokens.shape
    hidden = network.config.hidden_size
    loss, dlogits = softmax_cross_entropy(tape.logits, labels)

    top = tape.layers[-1].y
    if network.per_timestep_head:
        flat_dlogits = dlogits.reshape(batch * seq_len, -1)
        d_head_w = flat_dlogits.T @ top.reshape(batch * seq_len, hidden)
        d_head_b = flat_dlogits.sum(axis=0)
        d_top = (flat_dlogits @ network.head_weight).reshape(batch, seq_len, hidden)
    else:
        pooled = network.pool_top(top)
        d_head_w = dlogits.T @ pooled
        d_head_b = dlogits.sum(axis=0)
        d_pooled = dlogits @ network.head_weight
        d_top = np.zeros((batch, seq_len, hidden))
        pool = network.head_pool
        d_top[:, seq_len - pool:] = d_pooled[:, None, :] / pool

    layer_grads: list[LSTMCellWeights] = [None] * network.num_layers
    d_y = d_top
    for index in range(network.num_layers - 1, -1, -1):
        xs = network.embedding[tape.tokens] if index == 0 else tape.layers[index - 1].y
        d_y, layer_grads[index] = _layer_backward(
            network.layers[index].weights, xs, tape.layers[index], d_y, truncation
        )

    d_embedding = np.zeros_like(network.embedding)
    np.add.at(d_embedding, tape.tokens.reshape(-1), d_y.reshape(batch * seq_len, -1))
    return loss, Gradients(
        embedding=d_embedding,
        layers=layer_grads,
        head_weight=d_head_w,
        head_bias=d_head_b,
    )


def training_step(
    network: LSTMNetwork,
    tokens: np.ndarray,
    labels: np.ndarray,
    truncation: int | None = None,
) -> tuple[float, Gradients]:
    """One forward + backward pair; returns ``(loss, gradients)``."""
    return backward(training_forward(network, tokens), labels, truncation)


# ---------------------------------------------------------- measured memory


def measure_training_memory(
    network: LSTMNetwork,
    tokens: np.ndarray,
    labels: np.ndarray,
    truncation: int | None = None,
) -> dict[str, float]:
    """Measured (``tracemalloc``) memory of one training step.

    Returns a mapping with:

    * ``measured_saved_bytes`` — traced bytes *retained* by the tape
      between forward and backward (the saved-tensor footprint the
      analytic model predicts),
    * ``measured_peak_bytes`` — the traced high-water mark across the
      whole forward + backward step (transients included),
    * ``analytic_saved_bytes`` — the tape's own array bytes.

    Only allocations made during the step are traced (the network itself
    is built beforehand), so the figures isolate the training memory.
    Tracing slows allocation; never time a step while measuring it.
    """
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before_current, _ = tracemalloc.get_traced_memory()
        tape = training_forward(network, tokens)
        gc.collect()
        after_forward, _ = tracemalloc.get_traced_memory()
        loss, grads = backward(tape, labels, truncation)
        _, peak = tracemalloc.get_traced_memory()
        del loss, grads
    finally:
        tracemalloc.stop()
    return {
        "measured_saved_bytes": float(after_forward - before_current),
        "measured_peak_bytes": float(peak - before_current),
        "analytic_saved_bytes": float(tape.saved_bytes()),
    }
