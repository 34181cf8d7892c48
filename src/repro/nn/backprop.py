"""Memory-frugal truncated BPTT for the stacked LSTM.

Training footprint of an unrolled LSTM is dominated not by the weights but
by the *stashed per-timestep activations* the backward pass consumes: four
gate activations plus the cell-state tanh per cell per timestep. Echo
(PAPERS.md) showed that recomputing those tensors during the backward sweep
cuts the training footprint by multiples at a small compute cost, and
RETURNN's ``LstmOpLowMem`` demonstrates the minimal-saved-tensor recipe:
keep only the per-timestep outputs ``Y`` and cell states ``C`` and rebuild
``i/f/g/o`` from them on the way back.

This module implements both ends of that trade as selectable *saved-tensor
policies* on :class:`TrainingConfig`:

* ``"stash"`` — the baseline tape: every gate activation, ``tanh(c_t)``,
  ``C`` and ``Y`` are saved per layer per timestep (7 ``B x T x H`` tensors
  per layer, plus the embedded layer-0 input).
* ``"recompute"`` — the Echo/LstmOpLowMem tape: only ``Y`` and ``C`` are
  saved (2 tensors per layer); the backward sweep re-runs the *identical*
  forward arithmetic — the same :func:`_batched_input_projections` GEMMs
  over the same inputs, the same :func:`_step_gates` expressions on the
  same saved ``h_{t-1}`` bits — so the rebuilt gates are bit-identical to
  the stashed ones and the two policies produce **bit-identical fp64
  gradients** (an equality contract, not a tolerance; gated in
  ``benchmarks/bench_training.py``).

The backward pass itself is vectorized like the PR-1 executor: batched
``(B, T, ·)`` tensors, the per-gate pre-activation gradients buffered
across timesteps so the weight-gradient reductions collapse into one GEMM
per gate, and derivatives expressed through the saved activation values
(:func:`repro.nn.activations.dsigmoid` / :func:`~repro.nn.activations.
dtanh`), never the pre-activations.

Peak-memory accounting comes in two planes, mirroring the inference-side
bytes-moved discipline: an *analytic* saved-tensor bytes model
(:meth:`TrainingTape.memory_report`, surfaced through ``RunRecord.memory``
and ``repro trace summarize``) and a *measured* ``tracemalloc`` high-water
figure (:func:`measure_training_memory`).
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn.activations import dtanh, sigmoid, sigmoid_derivative_for
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.nn.network import LSTMNetwork

#: Bytes per saved fp64 element.
ELEMENT_BYTES: int = 8

#: The selectable saved-tensor policies.
POLICIES: tuple[str, ...] = ("stash", "recompute")

#: Saved ``(B, T, H)`` tensors per layer under each policy: the stash tape
#: keeps f, i, g, o, tanh(c), c and y; the recompute tape keeps c and y.
SAVED_TENSORS_PER_LAYER: dict[str, int] = {"stash": 7, "recompute": 2}


@dataclass(frozen=True)
class TrainingConfig:
    """How the training forward/backward pair runs.

    Attributes:
        policy: Saved-tensor policy — ``"stash"`` (keep all gate
            activations) or ``"recompute"`` (keep only ``Y``/``C`` and
            rebuild the gates during the backward sweep).
        truncation: Truncated-BPTT window length ``K``: gradients do not
            flow across window boundaries (multiples of ``K`` from the
            sequence start). ``None`` means full backpropagation through
            time.
    """

    policy: str = "recompute"
    truncation: int | None = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown saved-tensor policy {self.policy!r} "
                f"(choose from {', '.join(POLICIES)})"
            )
        if self.truncation is not None and self.truncation < 1:
            raise ConfigurationError(
                f"truncation must be a positive window length, got {self.truncation}"
            )


@dataclass
class LayerTape:
    """Saved tensors of one layer, shaped by the active policy.

    ``y`` and ``c`` (each ``(B, T, H)``) are always present — they are the
    minimal set the recompute policy needs. The gate activations and
    ``tanh_c`` are populated only under the stash policy.
    """

    y: np.ndarray
    c: np.ndarray
    f: np.ndarray | None = None
    i: np.ndarray | None = None
    g: np.ndarray | None = None
    o: np.ndarray | None = None
    tanh_c: np.ndarray | None = None

    def saved_bytes(self) -> int:
        """Analytic bytes this layer's tape retains between passes."""
        total = self.y.nbytes + self.c.nbytes
        for extra in (self.f, self.i, self.g, self.o, self.tanh_c):
            if extra is not None:
                total += extra.nbytes
        return total


@dataclass
class TrainingTape:
    """Everything :func:`backward` needs, retained between the passes.

    Under the recompute policy the embedded layer-0 input is *not*
    retained either — ``tokens`` (integers) are kept and the embedding
    gather re-runs in backward, bit-identically.
    """

    network: LSTMNetwork
    config: TrainingConfig
    tokens: np.ndarray
    logits: np.ndarray
    layers: list[LayerTape]
    embedded: np.ndarray | None = None

    # ------------------------------------------------------------- memory

    def saved_bytes(self) -> int:
        """Analytic bytes the tape retains between forward and backward."""
        total = sum(tape.saved_bytes() for tape in self.layers)
        if self.embedded is not None:
            total += self.embedded.nbytes
        return total

    def memory_report(self) -> dict[str, float]:
        """The ``RunRecord.memory`` mapping for this tape.

        Keys are plain numbers (the schema treats ``memory`` as an open
        ``str -> number`` mapping, like ``cache``): per-layer saved bytes,
        the policy's total, and the analytic totals both policies *would*
        retain on this workload — the stash/recompute ratio is the
        footprint reduction the active policy buys.
        """
        batch, seq_len = self.tokens.shape
        report: dict[str, float] = {}
        for index, tape in enumerate(self.layers):
            report[f"layer{index}_saved_bytes"] = float(tape.saved_bytes())
        report["saved_bytes"] = float(self.saved_bytes())
        for policy in POLICIES:
            report[f"saved_bytes_{policy}"] = float(
                analytic_saved_bytes(self.network, batch, seq_len, policy)
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
        """All gradient arrays in the canonical parameter order.

        The order matches :func:`network_parameters`, so optimizers can
        zip parameters with gradients positionally.
        """
        cells = [array for layer in self.layers for array in _cell_arrays(layer)]
        return [self.embedding, *cells, self.head_weight, self.head_bias]

    def allclose(self, other: "Gradients", exact: bool = True) -> bool:
        """Compare two gradient sets array-wise (exact bit equality by
        default — the stash/recompute contract)."""
        mine, theirs = self.arrays(), other.arrays()
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if a.shape != b.shape:
                return False
            if exact:
                if not np.array_equal(a, b):
                    return False
            elif not np.allclose(a, b):
                return False
        return True


def network_parameters(network: LSTMNetwork) -> list[np.ndarray]:
    """Every trainable array of a network, in the canonical order.

    Order: embedding, then per layer ``W_{f,i,c,o}``, ``U_{f,i,c,o}``,
    ``b_{f,i,c,o}``, then head weight and bias — matching
    :meth:`Gradients.arrays`.
    """
    cells = [array for layer in network.layers for array in _cell_arrays(layer.weights)]
    return [network.embedding, *cells, network.head_weight, network.head_bias]


def _cell_arrays(weights: LSTMCellWeights) -> list[np.ndarray]:
    """One cell's twelve per-gate arrays — views of its united blocks, so an
    in-place optimizer step updates the weights every executor runs on."""
    return [getattr(weights, f"{kind}_{gate}") for kind in "wub" for gate in GATE_ORDER]


def analytic_saved_bytes(
    network: LSTMNetwork, batch: int, seq_len: int, policy: str
) -> int:
    """The saved-tensor bytes model: what one policy retains per tape.

    Per layer: ``SAVED_TENSORS_PER_LAYER[policy]`` fp64 tensors of shape
    ``(B, T, H)``. The stash policy additionally retains the embedded
    layer-0 input ``(B, T, E)``; the recompute policy re-gathers it from
    the integer tokens during backward.
    """
    if policy not in POLICIES:
        raise ConfigurationError(f"unknown saved-tensor policy {policy!r}")
    hidden = network.config.hidden_size
    per_layer = SAVED_TENSORS_PER_LAYER[policy] * batch * seq_len * hidden
    total = per_layer * network.num_layers * ELEMENT_BYTES
    if policy == "stash":
        total += batch * seq_len * network.config.effective_input_size * ELEMENT_BYTES
    return total


# ------------------------------------------------------------------ forward


def _batched_input_projections(
    weights: LSTMCellWeights, xs: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-gate input projections over a whole ``(B, T, E)`` block.

    One GEMM per gate over the flattened ``(B*T, E)`` inputs. The backward
    recompute path calls this very function on the very same inputs, which
    is what makes the rebuilt pre-activations bit-identical to forward.
    """
    batch, seq_len, _ = xs.shape
    flat = xs.reshape(batch * seq_len, -1)
    return {
        gate: (flat @ weights.gate_w(gate).T).reshape(batch, seq_len, -1)
        for gate in GATE_ORDER
    }


def _step_gates(
    weights: LSTMCellWeights,
    proj_t: dict[str, np.ndarray],
    h_prev: np.ndarray,
    sigmoid_fn,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gate activations of one timestep (Eq. 1-4), batched over ``B``.

    Shared verbatim by the training forward and the backward recompute
    path — single source of the arithmetic, hence bit-identical rebuilds.
    """
    f = sigmoid_fn(proj_t["f"] + h_prev @ weights.u_f.T + weights.b_f)
    i = sigmoid_fn(proj_t["i"] + h_prev @ weights.u_i.T + weights.b_i)
    g = np.tanh(proj_t["c"] + h_prev @ weights.u_c.T + weights.b_c)
    o = sigmoid_fn(proj_t["o"] + h_prev @ weights.u_o.T + weights.b_o)
    return f, i, g, o


def _embed_batch(network: LSTMNetwork, tokens: np.ndarray) -> np.ndarray:
    """Batched embedding lookup ``(B, T) -> (B, T, E)`` with range checks."""
    tokens = network.check_tokens(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be 2-D (B, T), got shape {tokens.shape}")
    return network.embedding[tokens]


def training_forward(
    network: LSTMNetwork,
    tokens: np.ndarray,
    config: TrainingConfig | None = None,
) -> TrainingTape:
    """Batched forward pass that retains the policy's saved tensors.

    Args:
        network: The model (fp64 numpy weights).
        tokens: Integer token batch of shape ``(B, T)``.
        config: Saved-tensor policy and truncation window.

    Returns:
        A :class:`TrainingTape` holding ``logits`` plus per-layer saved
        tensors sized by the policy.
    """
    config = config if config is not None else TrainingConfig()
    tokens = np.asarray(tokens)
    xs = _embed_batch(network, tokens)
    embedded = xs if config.policy == "stash" else None
    batch, seq_len = tokens.shape
    hidden = network.config.hidden_size

    layer_tapes: list[LayerTape] = []
    for layer in network.layers:
        weights = layer.weights
        sigmoid_fn = layer.sigmoid_fn
        proj = _batched_input_projections(weights, xs)
        ys = np.empty((batch, seq_len, hidden))
        cs = np.empty((batch, seq_len, hidden))
        stash = config.policy == "stash"
        fs = np.empty_like(ys) if stash else None
        is_ = np.empty_like(ys) if stash else None
        gs = np.empty_like(ys) if stash else None
        os_ = np.empty_like(ys) if stash else None
        tanh_cs = np.empty_like(ys) if stash else None

        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        for t in range(seq_len):
            proj_t = {gate: proj[gate][:, t] for gate in GATE_ORDER}
            f, i, g, o = _step_gates(weights, proj_t, h, sigmoid_fn)
            c = f * c + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            ys[:, t] = h
            cs[:, t] = c
            if stash:
                fs[:, t] = f
                is_[:, t] = i
                gs[:, t] = g
                os_[:, t] = o
                tanh_cs[:, t] = tanh_c
        layer_tapes.append(
            LayerTape(y=ys, c=cs, f=fs, i=is_, g=gs, o=os_, tanh_c=tanh_cs)
        )
        xs = ys  # next layer consumes this layer's outputs

    top = layer_tapes[-1].y
    if network.per_timestep_head:
        logits = network.head_logits(top)
    else:
        logits = network.head_logits(network.pool_top(top))
    return TrainingTape(
        network=network,
        config=config,
        tokens=tokens,
        logits=logits,
        layers=layer_tapes,
        embedded=embedded,
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


def _layer_backward(
    layer_index: int,
    tape: TrainingTape,
    xs: np.ndarray,
    d_y: np.ndarray,
) -> tuple[np.ndarray, LSTMCellWeights]:
    """Backward sweep of one layer; returns ``(d_xs, weight gradients)``.

    ``xs`` is the layer's forward input block ``(B, T, E)`` (the layer
    below's saved ``y``, or the embedded tokens for layer 0). ``d_y`` is
    the loss gradient w.r.t. this layer's outputs.
    """
    layer = tape.network.layers[layer_index]
    weights = layer.weights
    sigmoid_fn = layer.sigmoid_fn
    dsig = sigmoid_derivative_for(sigmoid_fn)
    saved = tape.layers[layer_index]
    batch, seq_len, hidden = saved.y.shape
    recompute = tape.config.policy == "recompute"
    truncation = tape.config.truncation

    # Recompute path: rebuild the input projections with the identical
    # batched GEMMs the forward used — same inputs, same call, same bits.
    proj = _batched_input_projections(weights, xs) if recompute else None

    # Pre-activation gradients buffered across timesteps so every weight
    # reduction below collapses into one GEMM per gate.
    dpre = {gate: np.empty((batch, seq_len, hidden)) for gate in GATE_ORDER}
    dh_carry = np.zeros((batch, hidden))
    dc_carry = np.zeros((batch, hidden))

    for t in range(seq_len - 1, -1, -1):
        c_prev = saved.c[:, t - 1] if t > 0 else np.zeros((batch, hidden))
        h_prev = saved.y[:, t - 1] if t > 0 else np.zeros((batch, hidden))
        if recompute:
            proj_t = {gate: proj[gate][:, t] for gate in GATE_ORDER}
            f, i, g, o = _step_gates(weights, proj_t, h_prev, sigmoid_fn)
            tanh_c = np.tanh(saved.c[:, t])
        else:
            f, i, g, o = saved.f[:, t], saved.i[:, t], saved.g[:, t], saved.o[:, t]
            tanh_c = saved.tanh_c[:, t]

        dh = d_y[:, t] + dh_carry
        do = dh * tanh_c
        dc = dc_carry + dh * o * dtanh(tanh_c)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dpre["f"][:, t] = df * dsig(f)
        dpre["i"][:, t] = di * dsig(i)
        dpre["c"][:, t] = dg * dtanh(g)
        dpre["o"][:, t] = do * dsig(o)
        dh_carry = (
            dpre["f"][:, t] @ weights.u_f
            + dpre["i"][:, t] @ weights.u_i
            + dpre["c"][:, t] @ weights.u_c
            + dpre["o"][:, t] @ weights.u_o
        )
        dc_carry = dc * f
        if truncation is not None and t % truncation == 0:
            # Window boundary: gradients do not flow into the previous
            # truncation window (the h/c carried across the boundary are
            # treated as constants, the standard TBPTT contract).
            dh_carry = np.zeros((batch, hidden))
            dc_carry = np.zeros((batch, hidden))

    # One GEMM per gate for each weight-gradient reduction.
    flat_x = xs.reshape(batch * seq_len, -1)
    h_prevs = np.empty_like(saved.y)
    h_prevs[:, 0] = 0.0
    h_prevs[:, 1:] = saved.y[:, :-1]
    flat_h = h_prevs.reshape(batch * seq_len, hidden)
    layer_grads = LSTMCellWeights.zeros(hidden, flat_x.shape[1])
    for gate in GATE_ORDER:
        flat_dpre = dpre[gate].reshape(batch * seq_len, hidden)
        np.matmul(flat_dpre.T, flat_x, out=layer_grads.gate_w(gate))
        np.matmul(flat_dpre.T, flat_h, out=layer_grads.gate_u(gate))
        dpre[gate].sum(axis=(0, 1), out=layer_grads.gate_b(gate))

    d_xs = (
        dpre["f"].reshape(batch * seq_len, hidden) @ weights.w_f
        + dpre["i"].reshape(batch * seq_len, hidden) @ weights.w_i
        + dpre["c"].reshape(batch * seq_len, hidden) @ weights.w_c
        + dpre["o"].reshape(batch * seq_len, hidden) @ weights.w_o
    ).reshape(xs.shape)
    return d_xs, layer_grads


def backward(tape: TrainingTape, labels: np.ndarray) -> tuple[float, Gradients]:
    """Full backward pass: loss, head, stacked layers, embedding.

    Args:
        tape: The retained forward state (:func:`training_forward`).
        labels: Integer targets — ``(B,)`` for sequence-final heads,
            ``(B, T)`` for per-timestep heads.

    Returns:
        ``(loss, gradients)``. Gradients are exact fp64 derivatives of the
        mean cross-entropy (subject to the truncation window), identical
        bit for bit under both saved-tensor policies.
    """
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

    layer_grads: list[LSTMCellWeights | None] = [None] * network.num_layers
    d_y = d_top
    if tape.embedded is not None:
        embedded = tape.embedded
    else:
        embedded = _embed_batch(network, tape.tokens)
    for index in range(network.num_layers - 1, -1, -1):
        xs = embedded if index == 0 else tape.layers[index - 1].y
        d_xs, grads = _layer_backward(index, tape, xs, d_y)
        layer_grads[index] = grads
        d_y = d_xs

    d_embedding = np.zeros_like(network.embedding)
    np.add.at(
        d_embedding,
        tape.tokens.reshape(-1),
        d_y.reshape(batch * seq_len, -1),
    )
    return loss, Gradients(
        embedding=d_embedding,
        layers=list(layer_grads),
        head_weight=d_head_w,
        head_bias=d_head_b,
    )


def training_step(
    network: LSTMNetwork,
    tokens: np.ndarray,
    labels: np.ndarray,
    config: TrainingConfig | None = None,
) -> tuple[float, Gradients]:
    """One forward + backward pair; returns ``(loss, gradients)``."""
    tape = training_forward(network, tokens, config)
    return backward(tape, labels)


# ---------------------------------------------------------- measured memory


def measure_training_memory(
    network: LSTMNetwork,
    tokens: np.ndarray,
    labels: np.ndarray,
    config: TrainingConfig | None = None,
) -> dict[str, float]:
    """Measured (``tracemalloc``) training-step memory for one policy.

    Returns a mapping with:

    * ``measured_saved_bytes`` — traced bytes *retained* by the tape
      between forward and backward (the saved-tensor footprint the
      analytic model predicts),
    * ``measured_peak_bytes`` — the traced high-water mark across the
      whole forward + backward step (transients included).

    Only allocations made during the step are traced (the network itself
    is built beforehand), so the figures isolate the training memory.
    Tracing slows allocation; never time a step while measuring it.
    """
    config = config if config is not None else TrainingConfig()
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before_current, _ = tracemalloc.get_traced_memory()
        tape = training_forward(network, tokens, config)
        gc.collect()
        after_forward, _ = tracemalloc.get_traced_memory()
        loss, grads = backward(tape, labels)
        _, peak = tracemalloc.get_traced_memory()
        del loss, grads
    finally:
        tracemalloc.stop()
    return {
        "measured_saved_bytes": float(after_forward - before_current),
        "measured_peak_bytes": float(peak - before_current),
        "analytic_saved_bytes": float(tape.saved_bytes()),
    }
