"""Calibrated synthetic "pre-trained" models (the paper's checkpoint stand-in).

The paper evaluates on six NLP applications with trained PyTorch models. We
have no network access, so this module generates weights whose *gate
statistics* match what the paper's optimizations rely on in trained LSTMs:

* **Saturated pre-activations.** Trained LSTMs drive many gate
  pre-activations deep into the sigmoid/tanh insensitive area ``|x| > 2``
  (this is exactly the observation of Section IV-A). The zoo controls the
  spread of the input projections ``W x_t`` per layer so a tunable share of
  pre-activations saturates — the source of weak context links.
* **Compact recurrent rows.** The relevance bound of Algorithm 2 uses the
  row-wise L1 norms ``D = sum|U|``; trained recurrent matrices concentrate
  mass in few significant entries per row. The zoo draws sparse rows with a
  target L1 norm.
* **Saturating output gates.** DRS skips rows whose ``o_t`` element is near
  zero; trained output gates are strongly bimodal. The zoo biases ``b_o``
  negative with spread so a realistic (~50 %) share of output-gate elements
  is near zero — the paper's measured average row-compression is 50.35 %.
* **Layer-depth decay.** Earlier layers see raw embeddings with larger
  dynamic range than the bounded ``h`` sequences upper layers see, which is
  why Fig. 15 finds earlier layers easier to divide. The zoo scales the
  input-projection spread down with depth.

The *tasks* are self-labelled: ground truth for accuracy evaluation is the
prediction of the exact network itself (see ``repro.workloads.metrics``), so
calibrated weights define a perfectly consistent task with 100 % baseline
accuracy, and every measured accuracy loss is attributable to the
approximations — the same Δ-accuracy the paper reports.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro.config import AppConfig, LSTMConfig
from repro.errors import ConfigurationError
from repro.nn.initializers import WeightInitializer
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.nn.network import LSTMNetwork


@dataclass(frozen=True)
class CalibrationProfile:
    """Statistical targets for synthetic trained-LSTM weights.

    Attributes:
        input_preact_std: Target standard deviation of the layer-0 input
            projections ``W_g x_t`` (all gates). Larger values push more
            pre-activations into the insensitive area, weakening links.
        layer_decay: Multiplier applied to ``input_preact_std`` per layer of
            depth (deeper layers see tamer inputs -> stronger links).
        recurrent_row_l1: Target row-wise L1 norm of the recurrent matrices
            (Algorithm 2's ``D``); small values tighten the reachable range
            of ``U h_{t-1}``.
        recurrent_density: Fraction of significant entries per recurrent row.
        forget_bias_mean / forget_bias_std: Forget-gate bias distribution
            of the ordinary (short-horizon) hidden dimensions.
        forget_memory_fraction / forget_memory_bias / forget_memory_spread:
            A share of hidden dimensions acts as *persistent memory* —
            forget bias strongly positive, so their state survives whole
            clauses. These dimensions are what breaking a *strong* context
            link destroys (bounding how far ``alpha_inter`` can push before
            accuracy pays); boundary tokens still close them via the
            stronger ``boundary_gamma_f`` shift.
        forget_gate_preact_std: Input-projection spread of the forget gate
            (smaller than the other gates': trained forget gates are
            bias-dominated and temporally stable).
        output_gate_preact_std: Input-projection spread of the *output*
            gate specifically. Trained output gates specialize per hidden
            dimension and stay stable across timesteps; a spread smaller
            than the other gates' keeps the near-zero set temporally
            coherent, which is what lets DRS zero a state element without
            the gate re-opening onto the destroyed value a step later.
        output_closed_fraction / output_closed_bias / output_closed_spread /
        output_open_bias / output_open_spread: The output-gate bias is a
            two-mode mixture — trained output gates are bimodal: a share of
            hidden dimensions is firmly gated off (``o ~ 0.01``, skipping
            them is nearly free — the paper's ~50 % row compression at
            negligible loss) while the rest are clearly open; the thin
            middle is what the ``alpha_intra`` sweep gradually eats into.
        embedding_std: Standard deviation of embedding entries.
        boundary_rate: Share of the vocabulary acting as *boundary tokens*
            (hard topic shifts: sentence/paragraph boundaries the model
            treats as resets). Trained LSTMs learn to close their forget
            and output gates across the whole state at such tokens — the
            correlated reset that creates the paper's genuinely weak
            context links; without it, per-element forgetting is
            uncorrelated and no link is weak. The rate is deliberately
            low (roughly one reset per few dozen tokens): the supply of
            free breakpoints is what separates the paper's ~2x inter-cell
            gains from the theoretical ceiling of full MTS parallelism.
        boundary_gamma_f / boundary_gamma_o / boundary_gamma_i: Strength of
            the gate closures a boundary token triggers (pre-activation
            shifts on the forget, output, and input gates). The forget
            closure is deliberately *partial* for the persistent-memory
            dimensions: real clause boundaries drop syntactic state but
            carry topic context across, so breaking a boundary link is
            cheap — not free — and the accuracy budget still binds the
            threshold somewhere.
    """

    input_preact_std: float = 2.2
    output_gate_preact_std: float = 0.9
    forget_gate_preact_std: float = 1.2
    layer_decay: float = 0.85
    recurrent_row_l1: float = 2.0
    recurrent_density: float = 0.08
    forget_bias_mean: float = 0.2
    forget_bias_std: float = 0.9
    forget_memory_fraction: float = 0.25
    forget_memory_bias: float = 2.3
    forget_memory_spread: float = 0.5
    output_closed_fraction: float = 0.52
    output_closed_bias: float = -5.0
    output_closed_spread: float = 0.6
    output_open_bias: float = -0.4
    output_open_spread: float = 0.8
    embedding_std: float = 0.3
    boundary_rate: float = 0.015
    boundary_gamma_f: float = 3.2
    boundary_gamma_o: float = 3.5
    boundary_gamma_i: float = 2.5

    def __post_init__(self) -> None:
        if self.input_preact_std <= 0:
            raise ConfigurationError("input_preact_std must be positive")
        if not 0 < self.layer_decay <= 1.5:
            raise ConfigurationError("layer_decay must be in (0, 1.5]")
        if self.recurrent_row_l1 <= 0:
            raise ConfigurationError("recurrent_row_l1 must be positive")
        if not 0 < self.recurrent_density <= 1:
            raise ConfigurationError("recurrent_density must be in (0, 1]")
        if self.embedding_std <= 0:
            raise ConfigurationError("embedding_std must be positive")


#: Default profile, shared by all applications.
DEFAULT_PROFILE = CalibrationProfile()

#: Per-application overrides. The paper's apps differ in how "divisible"
#: their layers are; these mild statistical differences (on top of the
#: geometry differences of Table II) reproduce the per-app spread of
#: Fig. 14 / Fig. 19.
APP_PROFILES: dict[str, CalibrationProfile] = {
    "IMDB": replace(DEFAULT_PROFILE, input_preact_std=2.3),
    "MR": replace(DEFAULT_PROFILE, input_preact_std=2.0, recurrent_row_l1=2.2),
    "BABI": replace(DEFAULT_PROFILE, input_preact_std=2.4, recurrent_row_l1=1.8),
    "SNLI": replace(DEFAULT_PROFILE, input_preact_std=2.1),
    "PTB": replace(DEFAULT_PROFILE, input_preact_std=2.5, recurrent_row_l1=1.8),
    "MT": replace(DEFAULT_PROFILE, input_preact_std=2.2),
}


def profile_for_app(app_name: str) -> CalibrationProfile:
    """Return the calibration profile for a Table II application."""
    return APP_PROFILES.get(app_name.upper(), DEFAULT_PROFILE)


def _sparse_recurrent_matrix(
    rng: np.random.Generator, hidden: int, profile: CalibrationProfile
) -> np.ndarray:
    """Draw a recurrent matrix with target row L1 norms.

    Each row has ``density * hidden`` significant entries (at least one)
    drawn from a Gaussian scaled so the expected row L1 norm equals
    ``recurrent_row_l1``; a small dense background models the residual
    near-zero weights of a trained matrix.
    """
    per_row = max(1, int(round(profile.recurrent_density * hidden)))
    # E|N(0, s)| = s * sqrt(2/pi); solve per-entry scale for the L1 target.
    scale = profile.recurrent_row_l1 / (per_row * np.sqrt(2.0 / np.pi))
    matrix = rng.normal(0.0, scale * 0.02, size=(hidden, hidden))  # background
    for row in range(hidden):
        cols = rng.choice(hidden, size=per_row, replace=False)
        matrix[row, cols] = rng.normal(0.0, scale, size=per_row)
    return matrix


def _input_matrix(
    rng: np.random.Generator,
    hidden: int,
    input_size: int,
    preact_std: float,
    input_rms: float,
) -> np.ndarray:
    """Draw ``W_g`` so that ``std(W_g x) ~= preact_std`` for inputs whose
    elementwise RMS is ``input_rms``."""
    entry_std = preact_std / (input_rms * np.sqrt(input_size))
    return rng.normal(0.0, entry_std, size=(hidden, input_size))


#: Boundary-channel output level: ``h = sigmoid(3) * tanh(sigmoid(3) * tanh(2.5))``.
_BOUNDARY_CHANNEL_LEVEL: float = 0.66

#: Per-layer decay of the boundary gate closures (deeper layers keep more
#: cross-boundary context — see :func:`_install_boundary_structure`).
_BOUNDARY_DEPTH_DECAY: float = 0.93


def _calibrated_cell(
    rng: np.random.Generator,
    hidden: int,
    input_size: int,
    profile: CalibrationProfile,
    layer_index: int,
    input_rms: float,
) -> LSTMCellWeights:
    decay = profile.layer_decay**layer_index
    # Every gate is drawn straight into the united blocks (rng order unchanged).
    weights = LSTMCellWeights.zeros(hidden, input_size)
    gate_preact_std = {
        "o": profile.output_gate_preact_std,
        "f": profile.forget_gate_preact_std,
        "i": profile.input_preact_std,
        "c": profile.input_preact_std,
    }
    for gate in GATE_ORDER:
        target = gate_preact_std[gate] * decay
        weights.gate_w(gate)[...] = _input_matrix(rng, hidden, input_size, target, input_rms)
        weights.gate_u(gate)[...] = _sparse_recurrent_matrix(rng, hidden, profile)
    memory_dims = rng.random(hidden) < profile.forget_memory_fraction
    weights.b_f = np.where(
        memory_dims,
        rng.normal(profile.forget_memory_bias, profile.forget_memory_spread, size=hidden),
        rng.normal(profile.forget_bias_mean, profile.forget_bias_std, size=hidden),
    )
    # Memory dimensions are write-gated: their input gate stays mostly
    # closed and opens only on strong input evidence (the sparse-write
    # behaviour of trained LSTM memory cells). This is what keeps the
    # per-step perturbation noise of the approximations from integrating
    # into the persistent state over long sequences.
    weights.b_i = np.where(
        memory_dims,
        rng.normal(-2.5, 0.5, size=hidden),
        rng.normal(0.0, 1.0, size=hidden),
    )
    weights.b_c = rng.normal(0.0, 0.8, size=hidden)
    # Closed output gates correlate with short-horizon dimensions: a
    # trained network gains nothing from long-range state it never outputs,
    # so persistent-memory dimensions keep their gates (mostly) open. The
    # per-group probabilities preserve the overall closed fraction.
    mem_frac = float(memory_dims.mean())
    closed_if_memory = 0.30
    denom = max(1.0 - mem_frac, 1e-9)
    closed_if_normal = np.clip(
        (profile.output_closed_fraction - mem_frac * closed_if_memory) / denom, 0.0, 1.0
    )
    p_closed = np.where(memory_dims, closed_if_memory, closed_if_normal)
    closed = rng.random(hidden) < p_closed
    weights.b_o = np.where(
        closed,
        rng.normal(profile.output_closed_bias, profile.output_closed_spread, size=hidden),
        rng.normal(profile.output_open_bias, profile.output_open_spread, size=hidden),
    )
    _install_boundary_structure(rng, weights, profile, layer_index)
    return weights


def _install_boundary_structure(
    rng: np.random.Generator,
    weights: LSTMCellWeights,
    profile: CalibrationProfile,
    layer_index: int,
) -> None:
    """Wire the correlated-reset behaviour of trained LSTMs.

    The last *input* coordinate is the boundary feature (the flag column of
    the embedding for layer 0, the boundary channel of the previous layer
    above); the last *hidden* dimension is this layer's boundary channel,
    which regenerates the flag for the next layer up.

    At a boundary token the forget/output/input gates of every element are
    pushed strongly negative — the whole cell state is dropped and the
    output squelched, exactly the state in which Algorithm 2's relevance
    value collapses and a context link can be broken for free.
    """
    if profile.boundary_rate <= 0.0:
        return
    hidden = weights.hidden_size
    bc = weights.input_size - 1
    # Layer 0 reads the raw flag (level 1.0); upper layers read the previous
    # layer's channel, which tops out at _BOUNDARY_CHANNEL_LEVEL.
    level = 1.0 if layer_index == 0 else _BOUNDARY_CHANNEL_LEVEL
    # Deeper layers track longer-horizon (discourse-level) context that
    # survives clause boundaries, so their boundary closure weakens with
    # depth — this is what makes the earlier layers easier to divide
    # (the paper's Fig. 15 observation).
    depth = _BOUNDARY_DEPTH_DECAY**layer_index
    for gate, gamma in (
        ("f", profile.boundary_gamma_f),
        ("o", profile.boundary_gamma_o),
        ("i", profile.boundary_gamma_i),
    ):
        weights.gate_w(gate)[:, bc] = (
            -(gamma * depth / level) * rng.uniform(0.85, 1.15, size=hidden)
        )

    # The boundary channel: no memory (f closed), always writing (i, o
    # open), candidate driven purely by the boundary feature.
    ch = hidden - 1
    for gate in GATE_ORDER:
        weights.gate_w(gate)[ch, :] = 0.0
        weights.gate_u(gate)[ch, :] = 0.0
    weights.w_c[ch, bc] = 2.5 / level
    weights.b_f[ch] = -4.0
    weights.b_i[ch] = 3.0
    weights.b_o[ch] = 3.0
    weights.b_c[ch] = 0.0


def build_calibrated_network(
    app: AppConfig | None = None,
    config: LSTMConfig | None = None,
    vocab_size: int | None = None,
    num_classes: int | None = None,
    seed: int = 0,
    profile: CalibrationProfile | None = None,
    per_timestep_head: bool | None = None,
) -> LSTMNetwork:
    """Build a network with calibrated synthetic "trained" weights.

    Either pass a Table II :class:`~repro.config.AppConfig` (geometry, vocab
    and head are taken from it) or an explicit ``config``/``vocab_size``/
    ``num_classes`` triple (used by the Fig. 17 capacity sweeps).
    """
    from repro.config import TaskFamily  # local import: config import cycle safety

    if app is not None:
        config = app.model if config is None else config
        vocab_size = app.vocab_size if vocab_size is None else vocab_size
        num_classes = app.num_classes if num_classes is None else num_classes
        if profile is None:
            profile = profile_for_app(app.name)
        if per_timestep_head is None:
            per_timestep_head = app.family in (
                TaskFamily.LANGUAGE_MODELING,
                TaskFamily.MACHINE_TRANSLATION,
            )
    if config is None or vocab_size is None or num_classes is None:
        raise ConfigurationError(
            "pass either an AppConfig or all of config/vocab_size/num_classes"
        )
    profile = profile or DEFAULT_PROFILE
    per_timestep_head = bool(per_timestep_head)

    # Sequence classifiers pool the final quarter of the hidden sequence —
    # the standard trained-model readout, and the mechanism that makes the
    # (zero-mean) predicted-link errors average out the way they do on the
    # paper's trained checkpoints.
    head_pool = 1 if per_timestep_head else max(1, config.seq_length // 4)
    rng = np.random.default_rng(seed + 0xC0FFEE)
    # One helper thread for the build: it replays the head's draws (its own
    # generator) while this thread draws the rest — numpy's bulk draws
    # release the GIL — and later walks half of the head-scale probe.
    with ThreadPoolExecutor(1) as helper:
        head_weight = helper.submit(_seeded_head, config, vocab_size, num_classes, seed)
        embedding = rng.normal(
            0.0, profile.embedding_std, size=(vocab_size, config.effective_input_size)
        )
        # Boundary tokens: a vocabulary share acting as clause separators.
        # The last embedding coordinate is their flag (read by the layer-0
        # gate closures installed below).
        if profile.boundary_rate > 0.0:
            num_boundary = max(1, int(round(profile.boundary_rate * vocab_size)))
            boundary_ids = rng.choice(vocab_size, size=num_boundary, replace=False)
            embedding[:, -1] = rng.normal(0.0, 0.02, size=vocab_size)
            embedding[boundary_ids, -1] = 1.0
            boundary_token_ids = np.sort(boundary_ids)
        else:
            boundary_token_ids = np.empty(0, dtype=int)
        # Layer 0 reads embeddings (RMS = embedding_std); upper layers read
        # bounded hidden sequences whose RMS is empirically ~0.3 for
        # calibrated cells.
        cells = [
            _calibrated_cell(
                rng,
                config.hidden_size,
                config.layer_input_size(layer_index),
                profile,
                layer_index,
                profile.embedding_std if layer_index == 0 else 0.3,
            )
            for layer_index in range(config.num_layers)
        ]
        network = LSTMNetwork.from_arrays(
            config,
            embedding,
            cells,
            head_weight.result(),
            np.zeros(num_classes),
            per_timestep_head=per_timestep_head,
            head_pool=head_pool,
        )
        network.boundary_token_ids = boundary_token_ids
        _informativeness_scale_head(network, rng, helper)
    return network


#: Draws per chunk :func:`_seeded_head` replays and drops (512 KB of doubles).
_SKIP_CHUNK = 1 << 16


def _seeded_head(config: LSTMConfig, vocab_size: int, num_classes: int, seed: int) -> np.ndarray:
    """The zoo's head weight before its informativeness scaling: the head
    ``LSTMNetwork(config, vocab_size, num_classes, seed=seed)`` draws, which
    the pinned zoo bytes (``tests/test_weights_storage.py``) fix.

    That generator draws the embedding, then per layer four Xavier ``W``
    and four orthogonal ``U``, then the head. The draws before the head are
    replayed into one reused chunk — a uniform or a normal sample consumes
    the generator the same whatever the call's size, bounds or scale — so
    the head comes without that network's arrays or QR factorizations.
    """

    def skip(draw, count: int) -> None:
        for start in range(0, count, _SKIP_CHUNK):
            draw(out=buffer[: min(_SKIP_CHUNK, count - start)])

    buffer = np.empty(_SKIP_CHUNK)

    init = WeightInitializer(seed)
    hidden = config.hidden_size
    skip(init.rng.standard_normal, vocab_size * config.effective_input_size)
    for layer_index in range(config.num_layers):
        skip(init.rng.random, 4 * hidden * config.layer_input_size(layer_index))
        skip(init.rng.standard_normal, 4 * hidden * hidden)
    return init.xavier_uniform(num_classes, hidden)


def _informativeness_scale_head(
    network: LSTMNetwork, rng: np.random.Generator, helper: ThreadPoolExecutor
) -> None:
    """Scale head columns by each hidden dimension's typical magnitude.

    Training concentrates head weight on the hidden dimensions that
    actually vary; dimensions whose output gate is almost always closed
    (``|h_j|`` tiny) end up with near-zero head weight. A uniformly random
    head would instead let those dimensions contribute full-strength logit
    noise, making the DRS approximation (which zeroes exactly those
    dimensions) look far more destructive than on a trained model. We
    reproduce the trained behaviour by scaling head column ``j`` with the
    RMS of ``h_j`` measured on a probe batch, renormalized to preserve the
    overall logit scale.
    """
    from repro.core.executor import ExecutionConfig, LSTMExecutor

    probe = rng.integers(0, network.vocab_size, size=(4, network.config.seq_length))
    # Exact BASELINE through the executor's per-row lifts, so the scale's
    # bytes are ReferenceExecutor's whatever the BLAS thread split — and
    # whatever rows share a call (run_stream's per-session bit identity),
    # so half the rows run on the build's helper thread, each half on its
    # own executor. One helper only: a thread keeps the transients it freed
    # in its own malloc arena, which counts toward peak RSS. The layers
    # only: a per-timestep LM head would cost (T, classes) logits the probe
    # never reads.
    def walk(rows: np.ndarray) -> np.ndarray:
        zeros = np.zeros((network.num_layers, rows.shape[0], network.config.hidden_size))
        return LSTMExecutor(network, ExecutionConfig()).run_stream(rows, zeros, zeros.copy())

    half = probe.shape[0] // 2
    second = helper.submit(walk, probe[half:])
    top = np.concatenate([walk(probe[:half]), second.result()])
    stacked = top.reshape(-1, top.shape[-1])
    rms = np.sqrt((stacked**2).mean(axis=0))
    scale = rms / max(float(rms.mean()), 1e-12)
    network.head_weight *= scale[None, :]
