"""Numerically exact, batched execution of every evaluated LSTM scheme.

The executor runs the *actual arithmetic* of each scheme (so accuracy
results are measured, not modeled) while recording the structural plan that
the :mod:`repro.core.trace_builder` converts into GPU kernel traces (so
timing results come from the simulator): per sequence and layer, one
:class:`~repro.core.plan.LayerPlanRecord` — the executed tissue schedule
plus per-tissue skip statistics. Modes:

* ``BASELINE`` — Algorithm 1, the exact reference.
* ``INTER`` — layer division at weak links + predicted context links +
  tissue-parallel execution. The tissue grouping only changes *when* cells
  execute, never their inputs, so the numerics reduce to: reset the
  recurrent state to the predicted link at every breakpoint.
* ``INTRA`` — Algorithm 3 DRS: compute ``o_t`` first, zero the state
  elements of trivial rows.
* ``COMBINED`` — both; inside a tissue the skipped rows are the
  intersection of the fused cells' trivial rows (the shared weight load
  constraint), so the executor walks tissues in schedule order.
* ``ZERO_PRUNE`` — the Fig. 16 baseline: magnitude-pruned ``U`` matrices,
  otherwise the baseline flow.

Three levels of batching keep the hot paths vectorized:

* **Gate fusion.** Every mode drives the recurrence through the *united*
  matrices; the combined mode runs one ``(rows, H) @ (H, 4H)`` GEMM per
  wave, sliced per gate before the activations. The input projections
  of the stepwise modes and of COMBINED's layer 0 are per-row GEMVs
  against one gate block at a time (:func:`repro.core.program.
  project_rows`) — or, for gate blocks above 1 MiB, one aligned 64-row
  weight slab at a time, loaded once for every row; COMBINED projects
  layers >= 1 with one ``(B*T, E) @ (E, 4H)`` GEMM.
* **Batch-invariant stepwise recurrence.** The stepwise recurrent products
  run as *stacked per-row GEMVs* — ``h[:, None, :] @ U_g.T``, or per
  aligned weight slab of ``U_g`` when the gate block exceeds 1 MiB — instead
  of one ``(B, H) @ (H, H)`` GEMM (:func:`_row_gemv`). A ``(1, H)`` slice of
  a stacked matmul dispatches the exact GEMV the per-sequence walk uses,
  so every sequence's trajectory is bit-identical at *any* batch
  composition: solo runs, shards, and fleets of any grouping agree to the
  last bit. (The seed's batched GEMM did not have this property — its
  bits drifted between GEMV and GEMM dispatch across batch sizes.) The
  classifier head is lifted the same way for pooled readouts.
* **Wave walk.** Combined mode steps the whole shard together, whatever
  mix of structural plans it holds: wave ``w`` is the ``w``-th tissue of
  every sequence, and its recurrent products are one ``(rows, H) @
  (H, 4H)`` GEMM that loads ``U`` once for every cell of the wave — the
  paper's Sgemv -> Sgemm. The gather, the gate epilogue, the DRS
  intersection and the scatter run once per wave instead of once per
  tissue per sequence. Tissues of different sequences never depend on
  each other, so the walk changes only the order of independent work and
  the GEMM shapes, never a plan.

Layer 0 adds a fourth saving on the per-row lift: a token's projected row
is a function of the token id, the embedding and ``W`` alone, so a call
projects each *distinct* id once and gathers the ``(B, T)`` block from
those rows, and the shared :class:`~repro.core.plan.TokenRowMemo` (one
call deep, owned by the plan cache) lets the next call — another mode of a
sweep over the same tokens, the next request over a small vocabulary —
skip the ids it has already seen. INTER and COMBINED score each distinct
id's relevance once as well. A copy moves no bit, and the memo only ever
holds exact rows and their scores.

Two oracle grades (:func:`repro.core.backends.is_exact`, exposed as
:attr:`LSTMExecutor.exact`). The four stepwise modes on the numpy programs
are *exact*: bit-compatible with the per-sequence walk
(:class:`repro.core.reference.ReferenceExecutor`). cgen lowers only the
stepwise loop of BASELINE / INTRA / ZERO_PRUNE; INTER and COMBINED run the
numpy programs on every backend, so INTER is exact everywhere. COMBINED
and cgen's stepwise modes are *graded*: logits within ``1e-9`` with equal
predictions, identical breakpoints, tissues and skip fractions, relevance
and layer outputs within ``1e-9``.
``tests/test_executor_equivalence.py`` property-tests both grades and
``tests/test_executor.py`` pins them at serving geometry.

Every layer runs as a preallocated, fused program
(:mod:`repro.core.program`): views of the layer's weight blocks (nothing
here copies a weight), a workspace leased from the program cache's one
arena per dispatch slot (whatever a run returns is copied or reduced out
of it first), one stacked matmul per timestep, and in-place ufunc chains — the
reference walk's bits with no per-step allocation; the readable
specification of the arithmetic is that frozen reference. Programs are
cached in a :class:`~repro.core.program.ProgramCache` keyed on content and
shape only (backend, weights and link fingerprints, ``(B, T)``, thresholds)
— plans and breakpoints are run-time inputs in every mode — so a serving
workload at a steady shape compiles one program per layer and replays it
for every request, however its sequences plan.

Layer 0's structural planning (relevance -> breakpoints -> aligned
tissues) can be memoized across runs through an optional :class:`~repro.
core.plan.PlanCache` — the benchmark harness shares one per session so
threshold sweeps recompute no layer-0 relevance array twice.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.backends import (
    is_exact,
    make_combined_program,
    make_stepwise_program,
    resolve_backend,
    validate_backend_name,
)
from repro.core.breakpoints import divide_layer, find_breakpoints
from repro.core.context_prediction import PredictedLink
from repro.core.plan import (
    CachedLayerPlan,
    LayerPlanRecord,
    PlanCache,
    SequencePlan,
    TokenRowMemo,
    fingerprint_array,
    fingerprint_embedding,
    fingerprint_weights,
    single_cell_plan,
    warp_skip_fractions,
)
from repro.core.program import ProgramCache, StepwiseProgram, gather_rows, project_rows
from repro.core.relevance import (
    exact_relevance_values,
    recurrent_row_ranges,
    relevance_values,
)
from repro.core.tissue import align_tissues
from repro.core.trace_builder import build_kernel_trace
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.specs import GPUSpec, TEGRA_X1
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.nn.network import LSTMNetwork
from repro.nn.pruning import prune_cell_weights
from repro.nn.quantize import Precision, QuantizedCell, quantize_cell_weights

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder


class ExecutionMode(enum.Enum):
    """The five evaluated execution schemes."""

    BASELINE = "baseline"
    INTER = "inter"
    INTRA = "intra"
    COMBINED = "combined"
    ZERO_PRUNE = "zero_prune"


@dataclass(frozen=True)
class ExecutionConfig:
    """Knobs of one execution scheme.

    Attributes:
        mode: The scheme to run.
        alpha_inter: Relevance threshold (breaks links with ``S < alpha``).
        alpha_intra: Near-zero threshold on ``o_t`` (skips rows below it).
        mts: Maximum tissue size (from :func:`repro.core.tissue.calibrate_mts`).
        drs_style: ``"hardware"`` (CRM-backed) or ``"software"`` DRS.
        zero_prune_fraction: Element fraction erased in ``ZERO_PRUNE`` mode.
        use_exact_relevance: Use the exact-overlap ablation of Algorithm 2.
        spec: GPU model used when building kernel traces.
        precision: Weight-storage policy (:class:`~repro.nn.quantize.
            Precision`). ``fp64`` (the default) is the identity — the
            weights the frozen reference runs on. ``int8`` / ``fp16``
            quantize ``W``/``U`` once at executor construction, so every
            downstream path (programs, planning, the fleet) runs on the
            dequantized values; a plain string (``"int8"``) is coerced.
        backend: How the stepwise loop executes (:mod:`repro.core.
            backends`). ``"numpy"`` (the default) carries the fp64 bit
            contract with the frozen reference in the stepwise modes;
            ``"cgen"`` runs a generated-C fused kernel in BASELINE / INTRA
            / ZERO_PRUNE that agrees with it at the graded tier, never
            bit-exactly. INTER and COMBINED run the numpy programs on every
            backend (:attr:`LSTMExecutor.backend` is ``"numpy"`` there).
            Availability is resolved at executor construction.
        threads: In-process work-unit parallelism
            (:mod:`repro.core.parallel`). ``1`` (the default) runs the
            whole batch as one shard inline on the caller's thread — the
            dispatcher is never touched and no output is copied. Above
            one, ``run_batch`` / ``run_stream`` map the same shard body
            over contiguous row shards on a persistent thread pool; in the
            exact tier each shard's bits are independent of the batch
            composition (per-row GEMV / per-row projection lifts), so
            outputs stay bit-identical at every thread count (graded
            COMBINED stays within its grade). Shards share the plan
            cache (single-flight) and key their compiled programs per
            dispatch slot, so each thread computes in its own workspace
            arena.
    """

    mode: ExecutionMode = ExecutionMode.BASELINE
    alpha_inter: float = 0.0
    alpha_intra: float = 0.0
    mts: int = 5
    drs_style: str = "hardware"
    zero_prune_fraction: float = 0.37
    use_exact_relevance: bool = False
    spec: GPUSpec = TEGRA_X1
    precision: Precision = Precision()
    backend: str = "numpy"
    threads: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.precision, Precision):
            object.__setattr__(self, "precision", Precision.parse(self.precision))
        validate_backend_name(self.backend)
        if self.alpha_inter < 0 or self.alpha_intra < 0:
            raise ConfigurationError("thresholds must be non-negative")
        if self.mts < 1:
            raise ConfigurationError(f"mts must be >= 1, got {self.mts}")
        if self.drs_style not in ("hardware", "software"):
            raise ConfigurationError(f"unknown drs_style {self.drs_style!r}")
        if not 0 <= self.zero_prune_fraction < 1:
            raise ConfigurationError("zero_prune_fraction must be in [0, 1)")
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")

    @property
    def inter_active(self) -> bool:
        """Whether layer division runs."""
        return self.mode in (ExecutionMode.INTER, ExecutionMode.COMBINED)

    @property
    def intra_active(self) -> bool:
        """Whether DRS runs."""
        return self.mode in (ExecutionMode.INTRA, ExecutionMode.COMBINED)


@dataclass
class ExecutionResult:
    """Outcome of one batched execution.

    ``timings`` carries the host-side wall-clock split of the run —
    ``exec_wall_s`` (whole numerical execution), ``plan_wall_s``
    (structural planning: relevance, breakpoints, tissue alignment) and
    ``compile_wall_s`` (program lowering on a program-cache miss; ``0.0``
    once programs are warm, so steady-state speedups never include
    compile amortization) — measured at layer granularity, so the cost is
    a few clock reads per layer regardless of batch or sequence length.
    """

    logits: np.ndarray
    plans: list[SequencePlan]
    layer_outputs: list[np.ndarray] = field(default_factory=list)
    layer_states: list[np.ndarray] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def predictions(self) -> np.ndarray:
        """Argmax predictions: ``(B,)`` or ``(B, T)``."""
        return np.argmax(self.logits, axis=-1)


def _row_gemv(h: np.ndarray, u_t: np.ndarray) -> np.ndarray:
    """Batch-composition-invariant recurrent product ``h @ u_t``.

    Lifts ``(B, H) @ (H, N)`` to ``(B, 1, H) @ (H, N)``: numpy dispatches
    each ``(1, H)`` stack slice as the same BLAS GEMV a solo sequence
    runs, so the result rows are bit-identical at every batch size
    (measured: 0 mismatches across shapes/batches, versus near-certain
    last-bit drift for the GEMM dispatch the 2-D product takes at
    ``B > 1``). This is what makes stepwise trajectories — and therefore
    layer>=1 plan floats — independent of how sequences are grouped.
    ``u_t`` must stay a transpose *view* of the row-major gate block; a
    re-laid-out copy changes the GEMV kernel path and the bits.
    """
    return (h[:, None, :] @ u_t)[:, 0]


def _row_proj(xs: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """Sequence-length-invariant input projection ``xs @ w_t``.

    Lifts ``(..., E) @ (E, N)`` to ``(..., 1, E) @ (E, N)``: numpy
    dispatches each ``(1, E)`` row as the same BLAS GEMV no matter how
    many rows the call covers, so a token's projected bits depend only on
    the token and the weights — never on the sequence length, the chunk
    boundaries, or the batch around it. The 2-D GEMM the seed used does
    not have this property: OpenBLAS's M-blocking makes row ``t`` of a
    ``(T, E) @ (E, N)`` product depend on ``T`` (measured on this
    platform: 30-70 % of chunked-vs-full products differ in the last
    bit across shapes, single- and multi-threaded). This is the row-space
    twin of :func:`_row_gemv`, and it is what lets the streaming runtime
    (:mod:`repro.runtime.streaming`) deliver a session in arbitrary
    chunks bit-identically to one contiguous run.
    """
    return (xs[..., None, :] @ w_t)[..., 0, :]


def _layer_records(
    layer_index: int,
    weights: LSTMCellWeights,
    plans: list[CachedLayerPlan],
    skip: np.ndarray | None = None,
    warp: np.ndarray | None = None,
) -> list[LayerPlanRecord]:
    """One layer's per-sequence records.

    ``skip`` / ``warp`` hold every plan's per-tissue statistics,
    sequence-major; each record takes read-only views of them. Without
    them (DRS off) nothing skipped: one shared zero array.
    """
    counts = [plan.num_tissues for plan in plans]
    if skip is None:
        skip = warp = np.zeros(sum(counts))
    skip.setflags(write=False)
    warp.setflags(write=False)
    records, lo = [], 0
    for plan, count in zip(plans, counts):
        hi = lo + count
        records.append(
            LayerPlanRecord(
                layer_index, weights.hidden_size, weights.input_size, plan, skip[lo:hi], warp[lo:hi]
            )
        )
        lo = hi
    return records


@dataclass
class _UnitedWeights:
    """What one layer's programs compute on: the layer's own blocks.

    ``w`` / ``u`` / ``b`` *are* the :class:`~repro.nn.lstm_cell.
    LSTMCellWeights` blocks (for a forked fleet worker, the parent's pages,
    copy-on-write), never copies. Rows follow :data:`~repro.nn.lstm_cell.GATE_ORDER` —
    ``(f, i, c, o)`` — so ``slices[g]`` selects gate ``g`` out of a
    ``(..., 4H)`` product.
    """

    w: np.ndarray  # (4H, E)
    u: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    slices: dict[str, slice]

    @classmethod
    def from_weights(cls, weights: LSTMCellWeights) -> "_UnitedWeights":
        hidden = weights.hidden_size
        slices = {
            gate: slice(k * hidden, (k + 1) * hidden)
            for k, gate in enumerate(GATE_ORDER)
        }
        return cls(w=weights.w, u=weights.u, b=weights.b, slices=slices)

    def gate_w_ops(self) -> list[np.ndarray]:
        """The ``(E, H)`` transpose view of every gate's ``W`` block, the
        operands of :func:`~repro.core.program.project_rows`."""
        return [self.w[sl].T for sl in self.slices.values()]


class LSTMExecutor:
    """Executes an :class:`~repro.nn.network.LSTMNetwork` under one scheme.

    Args:
        network: The network to execute.
        config: The execution scheme and its thresholds.
        predicted_links: Per-layer Eq. 6 context links (zeros by default).
        plan_cache: Optional shared :class:`~repro.core.plan.PlanCache`;
            when given, layer 0's relevance arrays, structural plans and
            projected (and scored) token rows are reused across executor
            instances and runs (without one the executor keeps a private
            token memo).
        recorder: Optional :class:`~repro.obs.recorder.Recorder`; when
            enabled, every ``run_batch`` emits a numerics-plane
            :class:`~repro.obs.record.RunRecord` (plan counters, cache
            deltas + wall clock, no kernel events). :meth:`repro.core.
            pipeline.OptimizedLSTM.run` records through its own builder
            instead and leaves this unset, so runs are never
            double-recorded.
        program_cache: Optional shared :class:`~repro.core.program.
            ProgramCache`; when omitted the executor owns a private one.
        quantized_cells: Pre-quantized per-layer payloads
            (:class:`~repro.nn.quantize.QuantizedCell`) to run with
            instead of quantizing ``network``'s weights here.
            :class:`~repro.core.pipeline.OptimizedLSTM` and the zoo pass
            a kept executor's cells, so both compute on the same codes
            and scales (fleet workers need none: they inherit the
            parent's executor). Requires a quantized ``config.precision``.
    """

    def __init__(
        self,
        network: LSTMNetwork,
        config: ExecutionConfig,
        predicted_links: list[PredictedLink] | None = None,
        plan_cache: PlanCache | None = None,
        recorder: "Recorder | None" = None,
        program_cache: ProgramCache | None = None,
        quantized_cells: list[QuantizedCell] | None = None,
    ) -> None:
        self.network = network
        self.config = config
        self.plan_cache = plan_cache
        self.recorder = recorder
        #: Per-thread mutable run state: a shard runs on the caller's
        #: thread or on a pool thread, and each needs its own wall-clock
        #: accumulators and dispatch slot.
        self._tls = threading.local()
        #: The backend the programs actually run on: cgen lowers the
        #: stepwise loop only, so INTER and COMBINED resolve to numpy on
        #: every backend; otherwise the checked config name (a missing
        #: toolchain raises BackendUnavailableError now, not mid-run).
        self.backend = "numpy" if config.inter_active else resolve_backend(config.backend)
        #: The oracle grade (:func:`~repro.core.backends.is_exact`): exact
        #: runs are bit-identical to the reference, graded ones agree to
        #: ``1e-9`` with equal predictions and identical plans.
        self.exact = is_exact(self.backend, config.mode)
        self.program_cache = ProgramCache() if program_cache is None else program_cache
        self._link_fps: list[str | None] = [None] * len(network.layers)
        self._weights_fps: list[str | None] = [None] * len(network.layers)
        hidden = network.config.hidden_size
        if predicted_links is None:
            predicted_links = [PredictedLink.zeros(hidden) for _ in network.layers]
        if len(predicted_links) != len(network.layers):
            raise ConfigurationError(
                "need one predicted link per layer "
                f"({len(network.layers)}), got {len(predicted_links)}"
            )
        self.predicted_links = predicted_links
        self._row_ranges = [recurrent_row_ranges(layer.weights) for layer in network.layers]
        self._weights: list[LSTMCellWeights] = [layer.weights for layer in network.layers]
        self.pruning_kept_fraction: float | None = None
        if config.mode is ExecutionMode.ZERO_PRUNE:
            pruned = []
            kept = []
            for layer in network.layers:
                new_weights, aggregate = prune_cell_weights(
                    layer.weights, config.zero_prune_fraction
                )
                pruned.append(new_weights)
                kept.append(aggregate.kept_fraction)
            self._weights = pruned
            self.pruning_kept_fraction = float(np.mean(kept))
        if quantized_cells is not None and not config.precision.is_quantized:
            raise ConfigurationError(
                "quantized_cells were supplied but config.precision is fp64"
            )
        if config.precision.is_quantized:
            if quantized_cells is None:
                # Quantize whatever the mode executes (the pruned weights
                # under ZERO_PRUNE): one pass at construction, mirroring
                # how pruning replaces the weights before planning.
                quantized_cells = [
                    quantize_cell_weights(w, config.precision) for w in self._weights
                ]
            elif len(quantized_cells) != len(network.layers):
                raise ConfigurationError(
                    "need one quantized cell per layer "
                    f"({len(network.layers)}), got {len(quantized_cells)}"
                )
            self._weights = [cell.dequantized for cell in quantized_cells]
            # The deployed (dequantized) weights are what DRS profiles,
            # so row ranges are recomputed from them.
            self._row_ranges = [recurrent_row_ranges(w) for w in self._weights]
        #: The quantized payloads this executor runs on (``None`` at fp64);
        #: :class:`~repro.core.pipeline.OptimizedLSTM` hands them to its
        #: next executor of the same precision over the same weights.
        self.quantized_cells = quantized_cells
        self._united = [_UnitedWeights.from_weights(w) for w in self._weights]
        #: Layer 0 serves its projections from the distinct-token memo
        #: wherever the parent path is :func:`project_rows` (every numpy
        #: program); the cgen programs project inside their native call.
        #: The memo is the plan cache's, so every executor of an app
        #: shares it.
        self._memo_layer0 = self.backend == "numpy"
        self._token_memo = plan_cache.token_rows if plan_cache is not None else TokenRowMemo()
        self._w0_fp: str | None = None

    def owned_arrays(self) -> list[np.ndarray]:
        """The weight arrays this executor holds beyond the network's own:
        ZERO_PRUNE's pruned ``U``, a quantized precision's codes, scales
        and dequantized blocks — what keeping the executor costs
        (:attr:`~repro.core.program.ProgramCache.nbytes` counts each once
        across executors sharing it)."""
        owned = []
        for layer, weights in zip(self.network.layers, self._weights):
            model = layer.weights
            owned += [
                mine
                for mine, theirs in ((weights.w, model.w), (weights.u, model.u), (weights.b, model.b))
                if mine is not theirs
            ]
        for cell in self.quantized_cells or ():
            for matrix in (*cell.w.values(), *cell.u.values()):
                owned += [a for a in (matrix.data, matrix.scales) if a is not None]
        return owned

    # ----------------------------------------------------- per-thread state

    @property
    def _plan_wall(self) -> float:
        return getattr(self._tls, "plan_wall", 0.0)

    @_plan_wall.setter
    def _plan_wall(self, value: float) -> None:
        self._tls.plan_wall = value

    @property
    def _compile_wall(self) -> float:
        return getattr(self._tls, "compile_wall", 0.0)

    @_compile_wall.setter
    def _compile_wall(self, value: float) -> None:
        self._tls.compile_wall = value

    @property
    def _slot(self) -> int | None:
        """Dispatch-slot index of the current thread (``None`` = serial)."""
        return getattr(self._tls, "slot", None)

    @_slot.setter
    def _slot(self, value: int | None) -> None:
        self._tls.slot = value

    # ------------------------------------------------------------------ API

    def run_batch(self, tokens: np.ndarray, collect_states: bool = False) -> ExecutionResult:
        """Execute a batch of token sequences, shape ``(B, T)``.

        Args:
            tokens: Token-id batch.
            collect_states: Also return the per-layer cell-state sequences
                (used by the offline context-link calibration; stepwise
                modes only).
        """
        tokens = self._check_batch(tokens)
        batch, seq_len = tokens.shape
        start_wall = time.perf_counter()
        record = self.recorder is not None and self.recorder.enabled
        plan_stats_before = (
            self.plan_cache.stats.as_dict()
            if record and self.plan_cache is not None
            else None
        )
        program_stats_before = self.program_cache.stats.as_dict() if record else None
        token_rows = self._token_rows(tokens)

        def run_shard(slot: int | None, rows: slice):
            self._slot = slot
            self._plan_wall = 0.0
            self._compile_wall = 0.0
            layer_tokens = tokens[rows]
            cur = self.network.embedding[layer_tokens]  # (b, T, E)
            shard_batch = cur.shape[0]
            shard_plans: list[list[LayerPlanRecord]] = [[] for _ in range(shard_batch)]
            outs: list[np.ndarray] = []
            states: list[np.ndarray] = []
            staged = self._staged(token_rows, rows)
            for layer_index, weights in enumerate(self._weights):
                cur, records, cs = self._run_layer(
                    layer_index, weights, cur, collect_states, staged, layer_tokens
                )
                staged = layer_tokens = None  # layer 0 only
                outs.append(cur)
                if cs is not None:
                    states.append(cs)
                for i in range(shard_batch):
                    shard_plans[i].append(records[i])
            logits = self._head_logits(cur)
            return outs, states, shard_plans, logits, self._plan_wall, self._compile_wall

        # The state-collecting calibration path stays one shard: its
        # per-layer cell states are returned whole, never reassembled.
        results, dispatch_timings = self._map_shards(
            batch, 1 if collect_states else self.config.threads, run_shard
        )
        outs, states, shard_plans, logits, plan_walls, compile_walls = zip(*results)
        if len(results) == 1:
            layer_outputs, logits = outs[0], logits[0]
        else:
            # Shards are ascending contiguous row ranges, so ordered
            # concatenation reassembles exactly the unsharded arrays.
            layer_outputs = [np.concatenate(layer, axis=0) for layer in zip(*outs)]
            logits = np.concatenate(logits, axis=0)
        result = ExecutionResult(
            logits=logits,
            plans=[SequencePlan(layers=rows) for shard in shard_plans for rows in shard],
            layer_outputs=layer_outputs,
            layer_states=states[0],  # collected on one shard only
            timings={
                "exec_wall_s": time.perf_counter() - start_wall,
                "plan_wall_s": sum(plan_walls),
                "compile_wall_s": sum(compile_walls),
                **dispatch_timings,
            },
        )
        if record:
            self._record_run(result, batch, seq_len, plan_stats_before, program_stats_before)
        return result

    def _check_batch(self, tokens: np.ndarray) -> np.ndarray:
        """The door check of :meth:`run_batch` / :meth:`run_stream`: in-vocabulary
        integer ids, two axes, at least one timestep. An empty batch
        ``(0, T)`` is legal; a zero-length sequence has no last state to
        read out and nothing to plan, so it is rejected here rather than
        surfacing as NaN logits or a ``PlanError`` mid-run."""
        tokens = self.network.check_tokens(tokens)
        if tokens.ndim != 2 or tokens.shape[1] == 0:
            raise ShapeError(
                f"tokens must be (B, T) with T >= 1, got shape {tokens.shape}"
            )
        return tokens

    def _map_shards(self, batch: int, threads: int, run_shard) -> tuple[list, dict[str, float]]:
        """Run ``run_shard(slot, rows)`` over the batch's row shards.

        One thread (or one row) is one shard covering the whole batch,
        executed inline on the caller's thread under slot ``None``: the
        dispatcher is never touched and the shard's arrays are the
        result — the serial path is bit-identical
        by construction. Otherwise the batch splits into ``<= threads``
        contiguous row shards on the persistent thread pool. Because every
        exact-tier product is a per-row GEMV lift, a row's bits are
        independent of which rows share its dispatch — so the shards, in
        order, are bit-identical to the inline walk; graded COMBINED's wave
        GEMMs change shape with the shard and stay within the grade (both
        gated in ``bench_parallel``). Shards share the single-flight plan cache;
        programs are keyed per dispatch slot so each thread owns its
        workspace arena. Real concurrency comes from BLAS / ufunc / ctypes GIL
        release inside the shard bodies.

        Returns:
            The per-shard results in row order, and the dispatcher's
            timing keys (empty when run inline).
        """
        if threads == 1 or batch <= 1:
            return [run_shard(None, slice(0, batch))], {}
        from repro.core.parallel import get_dispatcher, shard_slices

        thunks = [
            (lambda slot=slot, rows=rows: run_shard(slot, rows))
            for slot, rows in enumerate(shard_slices(batch, threads))
        ]
        results, stats = get_dispatcher(threads).map(thunks)
        return results, stats.timing_keys()

    def _head_logits(self, xs: np.ndarray) -> np.ndarray:
        """Classifier-head readout of the top layer's outputs."""
        top = xs if self.network.per_timestep_head else self.network.pool_top(xs)
        if not self.exact:
            # The graded tier carries no bit contract, so the head readout
            # runs as one plain GEMM — the cheap form the per-row lift
            # deliberately gave up to keep the oracle's invariances.
            return self.network.head_logits(top)
        if top.ndim == 2:
            # Pooled readout: lift each row to its own (1, H) GEMV so the
            # logits stay batch-composition-invariant (see _row_gemv).
            return self.network.head_logits(top[:, None, :])[:, 0]
        # Per-timestep heads take the same per-row lift as the input
        # projections: a (T, H) GEMM's row bits depend on T, which
        # would make streamed logits diverge from contiguous runs.
        return self.network.head_logits(top[..., None, :])[..., 0, :]

    def run_stream(
        self,
        tokens: np.ndarray,
        h_states: np.ndarray,
        c_states: np.ndarray,
    ) -> np.ndarray:
        """Run one streamed chunk against resident per-session state.

        The single-step / short-chunk entry the streaming runtime
        (:mod:`repro.runtime.streaming`) drives every tick; its second
        caller is the model zoo's head probe
        (:func:`repro.nn.model_zoo._informativeness_scale_head`), a
        layers-only walk from zero state. Each layer replays the same
        cached :class:`~repro.core.program.StepwiseProgram` as
        :meth:`run_batch` at shape ``(B, L)``, with the
        callers' resident ``(h, c)`` injected as the initial state and the
        post-chunk state written back in place. Because the recurrent
        products are per-row GEMVs (:func:`_row_gemv`) and the input
        projections per-row lifts (:func:`_row_proj`), a session's bits
        are identical whether its sequence arrives as one contiguous run
        or as any partition into chunks under any batch composition —
        the bit-identity contract the streaming tests assert against the
        frozen reference. The cgen backend keeps the same invariance
        against itself (every dot of its kernel sums in one fixed order,
        whatever the tick and the chunk), equal to cgen :meth:`run_batch`
        on the whole sequence, and is graded against the reference.

        Structural modes are excluded: INTER / COMBINED plan from the
        *full* sequence's relevance, which a chunked arrival never has.

        Args:
            tokens: ``(B, L)`` token chunk, one row per live session.
            h_states: ``(num_layers, B, H)`` resident hidden state,
                updated in place to the post-chunk state.
            c_states: ``(num_layers, B, H)`` resident cell state, updated
                in place.

        Returns:
            ``(B, L, H)`` top-layer hidden outputs for the chunk. Head
            readout (per-timestep or pooled over a trailing window) is the
            caller's job — the streaming runtime owns the pooled-readout
            ring buffer.
        """
        cfg = self.config
        if cfg.inter_active:
            raise ConfigurationError(
                f"run_stream does not support mode {cfg.mode.value!r}: the inter "
                "level plans from full-sequence relevance, which chunked "
                "arrivals never have"
            )
        tokens = self._check_batch(tokens)
        batch, chunk = tokens.shape
        n_layers = len(self._weights)
        hidden = self.network.config.hidden_size
        expected = (n_layers, batch, hidden)
        if h_states.shape != expected or c_states.shape != expected:
            raise ShapeError(
                f"resident states must be {expected}, got "
                f"{h_states.shape} / {c_states.shape}"
            )
        drs = cfg.intra_active and cfg.alpha_intra > 0.0
        token_rows = self._token_rows(tokens)

        def run_shard(slot: int | None, rows: slice) -> np.ndarray:
            # Row slices of the resident ``(B, H)`` per-layer state are
            # views of disjoint memory, so the in-place state writebacks
            # of concurrent shards never interleave.
            self._slot = slot
            cur = self.network.embedding[tokens[rows]]  # (b, L, E)
            shard_batch = cur.shape[0]
            staged = self._staged(token_rows, rows)
            for layer_index, united in enumerate(self._united):
                program = self._compiled_stepwise(
                    layer_index, united, shard_batch, chunk, drs
                )
                if staged is None:
                    program.project(cur)
                else:
                    program.gather(*staged[:2])
                    staged = None  # layer 0 only
                hs = np.empty((shard_batch, chunk, hidden))
                h_view = h_states[layer_index, rows]
                c_view = c_states[layer_index, rows]
                program.execute(hs, h0=h_view, c0=c_view, state_out=(h_view, c_view))
                cur = hs
            return cur

        results, _ = self._map_shards(batch, cfg.threads, run_shard)
        return results[0] if len(results) == 1 else np.concatenate(results, axis=0)

    def _record_run(
        self,
        result: ExecutionResult,
        batch: int,
        seq_len: int,
        plan_stats_before: dict | None = None,
        program_stats_before: dict | None = None,
    ) -> None:
        """Emit a numerics-plane run record (no-op when recorder disabled)."""
        cfg = self.config
        builder = self.recorder.start_run(
            label="executor",
            mode=cfg.mode.value,
            spec=cfg.spec.name,
            batch=batch,
            seq_length=seq_len,
            config={
                "alpha_inter": cfg.alpha_inter,
                "alpha_intra": cfg.alpha_intra,
                "mts": cfg.mts,
                "drs_style": cfg.drs_style,
                "precision": cfg.precision.tag,
                "backend": self.backend,
                "threads": cfg.threads,
            },
        )
        if builder is None:
            return
        for b, plan in enumerate(result.plans):
            builder.observe_plan(b, plan)
        if plan_stats_before is not None:
            builder.observe_cache_delta(plan_stats_before, self.plan_cache.stats.as_dict())
        if program_stats_before is not None:
            builder.observe_program_cache_delta(
                program_stats_before, self.program_cache.stats.as_dict()
            )
        builder.set_timing(wall_s=result.timings["exec_wall_s"], **result.timings)
        builder.finish()

    def kernel_trace(self, plan: SequencePlan):
        """GPU kernel trace of one executed sequence (for the simulator)."""
        cfg = self.config
        return build_kernel_trace(
            plan,
            cfg.spec,
            inter=cfg.inter_active,
            intra=cfg.intra_active,
            drs_style=cfg.drs_style,
            zero_prune_kept=(
                self.pruning_kept_fraction
                if cfg.mode is ExecutionMode.ZERO_PRUNE
                else None
            ),
            precision=cfg.precision,
        )

    # ------------------------------------------------------------ internals

    def _run_layer(
        self,
        layer_index: int,
        weights: LSTMCellWeights,
        xs: np.ndarray,
        collect_states: bool,
        staged: tuple | None = None,
        tokens: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[LayerPlanRecord], np.ndarray | None]:
        """One layer: ``(hs, per-sequence records, cs)`` — ``cs`` is the
        cell-state sequence when collected (stepwise modes only).
        ``staged`` is layer 0's ``(token rows, index, relevance)`` when its
        projections come from the token memo (:meth:`_token_rows`);
        ``tokens`` is layer 0's ``(B, T)`` ids, ``None`` above it."""
        united = self._united[layer_index]
        if self.config.mode is ExecutionMode.COMBINED:
            # One (B, T, 4H) block for the walk's fused gate math. Layer 0
            # keeps the exact per-row lift: its rows come from (or go into)
            # the token memo and its relevance keys, which a sweep shares
            # with the exact stepwise modes. Layers >= 1 are graded: one
            # (B*T, E) @ (E, 4H) GEMM.
            proj_u = np.empty(xs.shape[:2] + united.b.shape)
            proj = {g: proj_u[..., sl] for g, sl in united.slices.items()}
            if staged is not None:
                gather_rows(*staged[:2], proj.values())
            elif layer_index == 0:
                project_rows(xs, united.gate_w_ops(), proj.values())
            else:
                np.matmul(
                    xs.reshape(-1, xs.shape[-1]),
                    united.w.T,
                    out=proj_u.reshape(-1, proj_u.shape[-1]),
                )
            plans = self._plan_inter(layer_index, weights, proj, staged, tokens)
            hs, records = self._run_layer_combined(layer_index, weights, united, proj_u, plans)
            return hs, records, None  # combined mode does not collect states
        return self._run_layer_stepwise(
            layer_index, weights, united, xs, collect_states, staged, tokens
        )

    def _token_rows(self, tokens: np.ndarray) -> tuple | None:
        """Layer 0's projections — and, when the layer is divided, its
        relevance — of a call's *distinct* tokens.

        The per-row lift makes a token's projected row a function of the
        token and ``W`` only, so each distinct id is projected once — and
        not at all if the previous call through the shared
        :class:`~repro.core.plan.TokenRowMemo` left it behind (every mode
        after the first of a sweep); INTER and COMBINED score each distinct
        id's relevance once too (Algorithm 2 reads the row, ``U`` and ``b``
        only). Runs once per call on the caller's thread; the shards gather
        from the result (:meth:`_staged`). Returns ``(rows, index,
        relevance)`` — ``(4, n, H)``, ``(B, T)``, ``(n,)`` or ``None`` — or
        ``None`` where layer 0 projects through its program: the cgen
        programs (BASELINE / INTRA / ZERO_PRUNE only; INTER and COMBINED
        run numpy programs and take the memo on every backend), and a
        one-token call (a streamed LM tick), which has nothing to share and
        would only displace the previous call's rows.
        """
        if not self._memo_layer0 or tokens.size == 1:
            return None
        united = self._united[0]
        if self._w0_fp is None:
            self._w0_fp = fingerprint_array(united.w)

        def project(ids: np.ndarray, out: np.ndarray) -> None:
            project_rows(self.network.embedding[ids][None], united.gate_w_ops(), out)

        def score(rows: np.ndarray) -> np.ndarray:
            return self._relevance(0, self._weights[0], dict(zip(GATE_ORDER, rows)))

        score_key = (fingerprint_weights(self._weights[0]), self.config.use_exact_relevance)
        return self._token_memo.lookup(
            (fingerprint_embedding(self.network), self._w0_fp),
            tokens,
            united.u.shape[1],
            project,
            (score_key, score) if self.config.inter_active else None,
        )

    @staticmethod
    def _staged(token_rows, rows: slice):
        """One shard's view of :meth:`_token_rows`."""
        return None if token_rows is None else (token_rows[0], token_rows[1][rows], token_rows[2])

    def _relevance(self, layer_index: int, weights, proj_b: dict[str, np.ndarray]):
        fn = exact_relevance_values if self.config.use_exact_relevance else relevance_values
        return fn(weights, proj_b, row_ranges=self._row_ranges[layer_index])

    def _build_plan(
        self,
        layer_index: int,
        weights: LSTMCellWeights,
        relevance: np.ndarray,
        seq_len: int,
    ) -> CachedLayerPlan:
        breaks = find_breakpoints(relevance, self.config.alpha_inter)
        tissues = align_tissues(divide_layer(seq_len, breaks), self.config.mts)
        return CachedLayerPlan.from_schedule(relevance, breaks, tissues)

    def _plan_inter(
        self,
        layer_index: int,
        weights: LSTMCellWeights,
        proj: dict[str, np.ndarray],
        staged: tuple | None = None,
        tokens: np.ndarray | None = None,
    ) -> list[CachedLayerPlan]:
        """Per-sequence structural plans. Layer 0 gathers its relevance from
        the token memo's per-id scores (:meth:`_token_rows`) and caches its
        plans keyed on the ids and the embedding's fingerprint; layers >= 1
        plan uncached (a digest of their input would cost what it saves)."""
        cfg = self.config
        plan_start = time.perf_counter()
        batch, seq_len = proj["f"].shape[:2]
        cache = self.plan_cache if tokens is not None else None
        if cache is not None:
            weights_fp = fingerprint_weights(weights)
            embedding_fp = fingerprint_embedding(self.network)
            ids = tokens.astype(np.int64, copy=False)  # equal ids, equal bytes
        plans = []
        for b in range(batch):
            def compute_relevance(b=b):
                if staged is not None:  # layer 0's per-id relevance, gathered
                    return staged[2][staged[1][b]]
                return self._relevance(layer_index, weights, {g: proj[g][b] for g in GATE_ORDER})

            if cache is None:
                plans.append(
                    self._build_plan(layer_index, weights, compute_relevance(), seq_len)
                )
                continue
            row = (embedding_fp, ids[b].tobytes())
            relevance_key = ("rel", weights_fp, row, cfg.use_exact_relevance)
            plans.append(
                cache.layer_plan(
                    relevance_key + (cfg.alpha_inter, cfg.mts),
                    relevance_key,
                    compute_relevance,
                    lambda s: self._build_plan(layer_index, weights, s, seq_len),
                )
            )
        self._plan_wall += time.perf_counter() - plan_start
        return plans

    def _run_layer_stepwise(
        self,
        layer_index: int,
        weights: LSTMCellWeights,
        united: _UnitedWeights,
        xs: np.ndarray,
        collect_states: bool,
        staged: tuple | None = None,
        tokens: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[LayerPlanRecord], np.ndarray | None]:
        """Timestep loop of every mode except COMBINED: one cached program
        per (shapes, weights).

        Mode differences are run-time inputs to the program — INTER passes
        breakpoint reset columns resolved from the sequence plans (numpy
        programs only: cgen never runs an inter level), DRS reads its
        threshold out of the program — so BASELINE / ZERO_PRUNE / INTER /
        INTRA at one ``(B, T)`` all replay the same compiled object. INTRA
        never divides the layer (inter level off), so DRS needs no
        breakpoint handling. Bit-identical to the frozen reference walk
        under the numpy backend (property-tested in
        ``tests/test_program.py``).
        """
        cfg = self.config
        drs = cfg.intra_active and cfg.alpha_intra > 0.0
        batch, seq_len, _ = xs.shape
        hidden = weights.hidden_size
        program = self._compiled_stepwise(layer_index, united, batch, seq_len, drs)
        if staged is None:
            proj = program.project(xs)
        else:
            proj = program.gather(*staged[:2])  # numpy programs only, see _memo_layer0
        hs = np.empty((batch, seq_len, hidden))
        cs = np.empty((batch, seq_len, hidden)) if collect_states else None

        if cfg.inter_active:
            plans = self._plan_inter(layer_index, weights, proj, staged, tokens)
            break_mask = np.zeros((batch, seq_len), dtype=bool)
            for b, plan in enumerate(plans):
                for start in plan.breakpoints:
                    break_mask[b, start] = True
            reset_cols = None
            if break_mask.any():
                reset_cols = [
                    break_mask[:, t : t + 1] if break_mask[:, t].any() else None
                    for t in range(seq_len)
                ]
            program.execute(hs, reset_cols=reset_cols, cs=cs)
            return hs, _layer_records(layer_index, weights, plans), cs

        program.execute(hs, cs=cs)
        plans = [single_cell_plan(seq_len)] * batch
        if not drs:
            return hs, _layer_records(layer_index, weights, plans), cs
        # The masks are arena memory (the next program's workspace), so
        # they are reduced now: (B, T) statistics, one row per sequence.
        masks = program.masks_all
        skip = np.count_nonzero(masks, axis=2) / hidden
        warp = warp_skip_fractions(masks)
        return hs, _layer_records(layer_index, weights, plans, skip.ravel(), warp.ravel()), cs

    def _run_layer_combined(
        self,
        layer_index: int,
        weights: LSTMCellWeights,
        united: _UnitedWeights,
        proj_u: np.ndarray,
        plans: list[CachedLayerPlan],
    ) -> tuple[np.ndarray, list[LayerPlanRecord]]:
        """Tissue-ordered walk of the whole shard (inter + intra together).

        One cached program per layer and shape walks every sequence's
        plan at once (:class:`~repro.core.program.CombinedGroupProgram`):
        the ``w``-th tissues of all sequences step together as one GEMM.
        """
        batch, seq_len, _ = proj_u.shape
        hidden = weights.hidden_size
        program = self._compiled_combined(layer_index, united, batch, seq_len)
        hs = np.empty((batch, seq_len, hidden))
        shared = program.execute(proj_u, plans, hs)
        if shared is None:
            return hs, _layer_records(layer_index, weights, plans)
        skip, warp = shared.mean(axis=1), warp_skip_fractions(shared)
        return hs, _layer_records(layer_index, weights, plans, skip, warp)

    # -------------------------------------------------------- program cache

    def _link_fingerprint(self, layer_index: int) -> str:
        """Content fingerprint of one layer's predicted link (memoized)."""
        fp = self._link_fps[layer_index]
        if fp is None:
            link = self.predicted_links[layer_index]
            fp = fingerprint_array(link.h_bar) + fingerprint_array(link.c_bar)
            self._link_fps[layer_index] = fp
        return fp

    def _weights_fingerprint(self, layer_index: int) -> str:
        """Content fingerprint of one layer's weights (memoized — the
        executor's weights are fixed at construction, so hashing them once
        keeps program-cache keys off the steady-state path)."""
        fp = self._weights_fps[layer_index]
        if fp is None:
            fp = fingerprint_weights(self._weights[layer_index])
            self._weights_fps[layer_index] = fp
        return fp

    def _program(self, kind: str, layer_index: int, shape: tuple, build):
        """Program-cache lookup; build time lands in ``compile_wall_s``.

        Programs are keyed on content (weights + link fingerprints), the
        resolved backend, and ``shape`` — sizes and thresholds — never on
        breakpoints or plans, which are run-time inputs: every run at one
        shape replays one program per layer. On dispatcher threads the key
        additionally carries the dispatch slot: a program computes in its
        slot's workspace arena, which ``build(arena)`` receives, so
        equal-shape shards running concurrently must not share one
        instance. Serial runs (``slot is None``) keep the unsuffixed key.
        """
        key = (
            kind,
            self.backend,
            self._weights_fingerprint(layer_index),
            self._link_fingerprint(layer_index),
            *shape,
        )
        if self._slot is not None:
            key += (("slot", self._slot),)

        def timed_build():
            start = time.perf_counter()
            program = build(self.program_cache.arena(self._slot))
            self._compile_wall += time.perf_counter() - start
            return program

        return self.program_cache.get(key, timed_build)

    def _compiled_stepwise(
        self,
        layer_index: int,
        united: _UnitedWeights,
        batch: int,
        seq_len: int,
        drs: bool,
    ) -> StepwiseProgram:  # or a backend twin with the same interface
        """Cached stepwise program for this layer at ``(batch, seq_len)``;
        every stepwise mode at one shape shares it."""
        alpha = self.config.alpha_intra if drs else 0.0
        link = self.predicted_links[layer_index]
        return self._program(
            "stepwise",
            layer_index,
            (batch, seq_len, alpha),
            lambda arena: make_stepwise_program(
                self.backend, united, link, batch, seq_len, drs_alpha=alpha, arena=arena
            ),
        )

    def _compiled_combined(
        self,
        layer_index: int,
        united: _UnitedWeights,
        batch: int,
        seq_len: int,
    ):
        """Cached wave-walk program for this layer at ``(batch, seq_len)``;
        fresh sequences replay it, however they plan."""
        cfg = self.config
        link = self.predicted_links[layer_index]
        return self._program(
            "combined",
            layer_index,
            (batch, seq_len, cfg.mts, cfg.alpha_intra),
            lambda arena: make_combined_program(
                united, link, batch, seq_len, cfg.mts, alpha_intra=cfg.alpha_intra, arena=arena
            ),
        )
