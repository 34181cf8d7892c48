"""The seed executor, preserved verbatim as the equivalence oracle.

:class:`ReferenceExecutor` is the original (pre-batching) implementation of
:class:`repro.core.executor.LSTMExecutor`: per-gate recurrent GEMMs in the
stepwise modes and a per-sequence tissue-ordered walk in the combined mode.
It exists for two reasons:

* **Equivalence testing** — the batched executor must produce *bit-identical*
  ``h_t`` / ``c_t`` trajectories and identical :class:`~repro.core.plan.
  SequencePlan` records (``tests/test_executor_equivalence.py`` asserts
  this property across all five modes with hypothesis).
* **Benchmark regression gating** — ``benchmarks/bench_executor_regression.py``
  times the batched executor against this per-sequence walk on a fixed
  workload and CI fails if the batched path stops being faster.

The arithmetic in this module is intentionally frozen: do not "optimize" it.
Any numerical change here silently weakens the equivalence guarantee.

Two disclosed amendments since the seed, both of the same species — the
oracle's bits must not depend on how a workload happens to be delivered:

1. The stepwise recurrent products and the pooled classifier head are
   *lifted* to stacked per-row GEMVs (:func:`repro.core.executor.
   _row_gemv`). The seed's 2-D ``h @ U_g.T`` dispatched a GEMM at
   ``B > 1`` whose low bits drifted from the GEMV a solo sequence runs —
   so the oracle's own batched output depended on how sequences were
   grouped (the latent plan-float inheritance disclosed in PR 3). The
   lift dispatches the identical GEMV per row at every batch size,
   making the oracle equal to its own per-sequence walk.
2. The input projections and the per-timestep head are lifted the same
   way (:func:`repro.core.executor._row_proj`). The seed's
   ``(T, E) @ (E, H)`` GEMM made row ``t``'s bits depend on ``T``
   through OpenBLAS's M-blocking (measured: 30-70 % of chunked-vs-full
   products differ in the last bit), so the oracle's per-timestep bits
   depended on the sequence *length* — the same prefix of tokens scored
   differently in a length-10 and a length-12 session. The lift makes
   each timestep's projection a pure function of its token, which is
   what lets the streaming runtime replay a session in arbitrary chunks
   and still match this oracle bit for bit (PR 6).

Solo sequences (``B == 1``) are otherwise bit-identical to the seed
arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.core.breakpoints import divide_layer, find_breakpoints
from repro.core.context_prediction import PredictedLink
from repro.core.executor import (
    ZERO_PRUNE_FRACTION,
    ExecutionConfig,
    ExecutionMode,
    ExecutionResult,
    _row_gemv,
    _row_proj,
)
from repro.core.plan import (
    CachedLayerPlan,
    LayerPlanRecord,
    SequencePlan,
    single_cell_plan,
    warp_skip_fractions,
)
from repro.core.relevance import (
    exact_relevance_values,
    recurrent_row_ranges,
    relevance_values,
)
from repro.core.tissue import align_tissues
from repro.errors import ConfigurationError, ShapeError
from repro.nn.activations import sigmoid, tanh
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.nn.network import LSTMNetwork
from repro.nn.pruning import prune_cell_weights


class ReferenceExecutor:
    """The seed per-gate, per-sequence executor (see module docstring)."""

    def __init__(
        self,
        network: LSTMNetwork,
        config: ExecutionConfig,
        predicted_links: list[PredictedLink] | None = None,
    ) -> None:
        self.network = network
        self.config = config
        hidden = network.config.hidden_size
        if predicted_links is None:
            predicted_links = [PredictedLink.zeros(hidden) for _ in network.layers]
        if len(predicted_links) != len(network.layers):
            raise ConfigurationError(
                f"need one predicted link per layer "
                f"({len(network.layers)}), got {len(predicted_links)}"
            )
        self.predicted_links = predicted_links
        self._row_ranges = [recurrent_row_ranges(layer.weights) for layer in network.layers]
        self._weights: list[LSTMCellWeights] = [layer.weights for layer in network.layers]
        self._collect_states = False
        self._last_states: np.ndarray | None = None
        if config.mode is ExecutionMode.ZERO_PRUNE:
            self._weights = [
                prune_cell_weights(weights, ZERO_PRUNE_FRACTION)[0]
                for weights in self._weights
            ]

    # ------------------------------------------------------------------ API

    def run_batch(self, tokens: np.ndarray, collect_states: bool = False) -> ExecutionResult:
        """Execute a batch of token sequences, shape ``(B, T)``."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (B, T), got shape {tokens.shape}")
        batch, seq_len = tokens.shape
        xs = self.network.embedding[tokens]  # (B, T, E)

        plan_layers: list[list[LayerPlanRecord]] = [[] for _ in range(batch)]
        layer_outputs: list[np.ndarray] = []
        layer_states: list[np.ndarray] = []
        self._collect_states = collect_states
        for layer_index, weights in enumerate(self._weights):
            xs, records = self._run_layer(layer_index, weights, xs)
            layer_outputs.append(xs)
            if collect_states and self._last_states is not None:
                layer_states.append(self._last_states)
            for b in range(batch):
                plan_layers[b].append(records[b])

        top = xs if self.network.per_timestep_head else self.network.pool_top(xs)
        if top.ndim == 2:
            # Pooled readout: per-row GEMV lift, batch-composition-invariant
            # (see the module docstring's disclosed amendment).
            logits = self.network.head_logits(top[:, None, :])[:, 0]
        else:
            # Per-timestep heads take the same per-row lift (amendment 2).
            logits = self.network.head_logits(top[..., None, :])[..., 0, :]
        plans = [SequencePlan(layers=plan_layers[b]) for b in range(batch)]
        return ExecutionResult(
            logits=logits,
            plans=plans,
            layer_outputs=layer_outputs,
            layer_states=layer_states,
        )

    # ------------------------------------------------------------ internals

    def _run_layer(
        self, layer_index: int, weights: LSTMCellWeights, xs: np.ndarray
    ) -> tuple[np.ndarray, list[LayerPlanRecord]]:
        # Per-row GEMV lift (disclosed amendment 2): each timestep's
        # projection is a pure function of its token, never of T.
        proj = {g: _row_proj(xs, weights.gate_w(g).T) for g in GATE_ORDER}  # (B, T, H)
        if self.config.mode is ExecutionMode.COMBINED:
            return self._run_layer_combined(layer_index, weights, proj)
        return self._run_layer_stepwise(layer_index, weights, proj)

    def _relevance(self, layer_index: int, weights, proj_b: dict[str, np.ndarray]):
        fn = exact_relevance_values if self.config.use_exact_relevance else relevance_values
        return fn(weights, proj_b, row_ranges=self._row_ranges[layer_index])

    def _plan_inter(
        self, layer_index: int, weights: LSTMCellWeights, proj: dict[str, np.ndarray]
    ) -> tuple[list[np.ndarray], list[list], list[list]]:
        """Per-sequence relevance, breakpoints, sub-layers and tissues."""
        batch, seq_len, _ = proj["f"].shape
        relevances, sublayers_all, tissues_all = [], [], []
        for b in range(batch):
            proj_b = {g: proj[g][b] for g in GATE_ORDER}
            s = self._relevance(layer_index, weights, proj_b)
            breaks = find_breakpoints(s, self.config.alpha_inter)
            sublayers = divide_layer(seq_len, breaks)
            tissues = align_tissues(sublayers, self.config.mts)
            relevances.append(s)
            sublayers_all.append(sublayers)
            tissues_all.append(tissues)
        return relevances, sublayers_all, tissues_all

    def _run_layer_stepwise(
        self, layer_index: int, weights: LSTMCellWeights, proj: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, list[LayerPlanRecord]]:
        """Batched timestep loop with per-gate GEMMs (the seed arithmetic)."""
        cfg = self.config
        batch, seq_len, hidden = proj["f"].shape
        link = self.predicted_links[layer_index]

        break_mask = np.zeros((batch, seq_len), dtype=bool)
        relevances: list[np.ndarray | None] = [None] * batch
        sublayers_all: list[list] = [[] for _ in range(batch)]
        tissues_all: list[list] = [[] for _ in range(batch)]
        if cfg.inter_active:
            rel, subs, tis = self._plan_inter(layer_index, weights, proj)
            for b in range(batch):
                relevances[b] = rel[b]
                sublayers_all[b] = subs[b]
                tissues_all[b] = tis[b]
                for sub in subs[b][1:]:
                    break_mask[b, sub.start] = True

        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        hs = np.empty((batch, seq_len, hidden))
        cs = np.empty((batch, seq_len, hidden)) if self._collect_states else None
        skip_fracs = np.zeros((batch, seq_len))
        warp_fracs = np.zeros((batch, seq_len))

        for t in range(seq_len):
            if cfg.inter_active and break_mask[:, t].any():
                reset = break_mask[:, t][:, None]
                h = np.where(reset, link.h_bar[None, :], h)
                c = np.where(reset, link.c_bar[None, :], c)

            o = sigmoid(proj["o"][:, t] + _row_gemv(h, weights.u_o.T) + weights.b_o)
            f = sigmoid(proj["f"][:, t] + _row_gemv(h, weights.u_f.T) + weights.b_f)
            i = sigmoid(proj["i"][:, t] + _row_gemv(h, weights.u_i.T) + weights.b_i)
            g = tanh(proj["c"][:, t] + _row_gemv(h, weights.u_c.T) + weights.b_c)
            c = f * c + i * g
            if cfg.intra_active and cfg.alpha_intra > 0.0:
                masks = o < cfg.alpha_intra  # (B, H)
                c = np.where(masks, 0.0, c)
                skip_fracs[:, t] = masks.mean(axis=1)
                warp_fracs[:, t] = warp_skip_fractions(masks)
            h = o * tanh(c)
            hs[:, t] = h
            if cs is not None:
                cs[:, t] = c
        self._last_states = cs

        records = []
        for b in range(batch):
            records.append(
                self._stepwise_record(
                    layer_index,
                    weights,
                    seq_len,
                    sublayers_all[b],
                    tissues_all[b],
                    relevances[b],
                    skip_fracs[b],
                    warp_fracs[b],
                )
            )
        return hs, records

    def _stepwise_record(
        self,
        layer_index: int,
        weights: LSTMCellWeights,
        seq_len: int,
        sublayers: list,
        tissues: list,
        relevance: np.ndarray | None,
        skip_fracs: np.ndarray,
        warp_fracs: np.ndarray,
    ) -> LayerPlanRecord:
        if self.config.inter_active:
            # INTER never runs DRS (alpha_intra is not read), so every
            # tissue's skip statistics are zero.
            breakpoints = [sub.start for sub in sublayers[1:]]
            plan = CachedLayerPlan.from_schedule(relevance, breakpoints, tissues)
            skip_fracs = warp_fracs = np.zeros(plan.num_tissues)
        else:
            plan = single_cell_plan(seq_len)
        return LayerPlanRecord(
            layer_index, weights.hidden_size, weights.input_size, plan, skip_fracs, warp_fracs
        )

    def _run_layer_combined(
        self, layer_index: int, weights: LSTMCellWeights, proj: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, list[LayerPlanRecord]]:
        """Per-sequence tissue-ordered walk (inter + intra together)."""
        cfg = self.config
        batch, seq_len, hidden = proj["f"].shape
        link = self.predicted_links[layer_index]
        self._last_states = None  # combined mode does not collect states
        relevances, sublayers_all, tissues_all = self._plan_inter(layer_index, weights, proj)

        hs = np.empty((batch, seq_len, hidden))
        records = []
        for b in range(batch):
            sublayers = sublayers_all[b]
            tissues = tissues_all[b]
            h_state = np.zeros((len(sublayers), hidden))
            c_state = np.zeros((len(sublayers), hidden))
            for sub_idx in range(1, len(sublayers)):
                h_state[sub_idx] = link.h_bar
                c_state[sub_idx] = link.c_bar

            skips, warps = [], []
            for tissue in tissues:
                subs = [s for s, _ in tissue.cells]
                ts = [t for _, t in tissue.cells]
                h_prev = h_state[subs]
                c_prev = c_state[subs]
                x_o = proj["o"][b, ts]
                o = sigmoid(x_o + h_prev @ weights.u_o.T + weights.b_o)
                skip_frac = 0.0
                warp_frac = 0.0
                f = sigmoid(proj["f"][b, ts] + h_prev @ weights.u_f.T + weights.b_f)
                i = sigmoid(proj["i"][b, ts] + h_prev @ weights.u_i.T + weights.b_i)
                g = tanh(proj["c"][b, ts] + h_prev @ weights.u_c.T + weights.b_c)
                c_new = f * c_prev + i * g
                if cfg.alpha_intra > 0.0:
                    masks = o < cfg.alpha_intra  # (k, H)
                    shared = masks.all(axis=0)  # the tissue's intersection
                    c_new = np.where(shared[None, :], 0.0, c_new)
                    skip_frac = float(shared.mean())
                    warp_frac = float(warp_skip_fractions(shared[None, :])[0])
                h_new = o * tanh(c_new)
                h_state[subs] = h_new
                c_state[subs] = c_new
                hs[b, ts] = h_new
                skips.append(skip_frac)
                warps.append(warp_frac)
            breakpoints = [sub.start for sub in sublayers[1:]]
            records.append(
                LayerPlanRecord(
                    layer_index,
                    hidden,
                    weights.input_size,
                    CachedLayerPlan.from_schedule(relevances[b], breakpoints, tissues),
                    np.array(skips),
                    np.array(warps),
                )
            )
        return hs, records
