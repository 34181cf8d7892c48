"""The top-level public API: :class:`OptimizedLSTM`.

Typical use::

    from repro import OptimizedLSTM, ExecutionMode

    app = OptimizedLSTM.from_app("BABI", seed=0)
    app.calibrate(num_sequences=16)                  # offline (Fig. 10)
    base = app.run(tokens, mode=ExecutionMode.BASELINE)
    fast = app.run(tokens, mode=ExecutionMode.COMBINED, threshold_index=4)
    print(fast.speedup_vs(base), fast.agreement_with(base))

``run`` = execute + price: ``run_batch`` computes the exact numerics of the
scheme and its plans, which are then replayed on the GPU timing model (the
app's ``spec``, hardware DRS) for simulated latency and energy. ``price``
re-prices a kept outcome under another GPU or DRS style, executing nothing:
``app.price(fast, spec=TESLA_M40)``, ``app.price(fast, drs_style="software")``.

A sweep — the same tokens under several modes or threshold sets, which is
what ``repro run`` and the figure harness do — pays for each derived
thing once: the app keeps the executors it builds (pruned / dequantized
weights, row ranges, digests), one program cache and one plan cache under
all of them, and through the plan cache the layer-0 projections of the
last call's distinct tokens. What is kept, keyed on what, dropped when and
bounded by what is tabled in ``docs/architecture.md`` ("What an app keeps
between runs").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.config import AppConfig, get_app
from repro.core.executor import (
    ExecutionConfig,
    ExecutionMode,
    ExecutionResult,
    LSTMExecutor,
    reusable_quantized_cells,
)
from repro.core.plan import PlanCache, SequencePlan, fingerprint_array, fingerprint_weights
from repro.core.program import ProgramCache
from repro.core.tuner import OfflineCalibration, calibrate_offline
from repro.errors import CalibrationError, ConfigurationError, ShapeError
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import GPUSpec, TEGRA_X1
from repro.gpu.trace import TraceSummary
from repro.nn.model_zoo import build_calibrated_network
from repro.nn.network import LSTMNetwork
from repro.nn.quantize import Precision

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder


@dataclass
class InferenceOutcome:
    """Numerics plus simulated platform behaviour of one batched inference:
    the execution (``config`` to ``plans``, ``result``) and its pricing
    (``times``, ``energies``, ``traces``; see :meth:`OptimizedLSTM.price`).
    ``logits`` is ``None`` in the copy a sweep's evaluation keeps."""

    config: ExecutionConfig
    logits: np.ndarray | None
    predictions: np.ndarray
    plans: list[SequencePlan]
    times: np.ndarray
    energies: np.ndarray
    traces: list[TraceSummary] = field(default_factory=list)
    result: ExecutionResult | None = None

    @property
    def mode(self) -> ExecutionMode:
        """The scheme that ran."""
        return self.config.mode

    @property
    def mean_tissue_size(self) -> float:
        """Mean tissue size over the batch's sequences."""
        return float(np.mean([p.mean_tissue_size for p in self.plans]))

    @property
    def mean_skip_fraction(self) -> float:
        """Mean DRS row-skip fraction over the batch's sequences."""
        return float(np.mean([p.mean_skip_fraction for p in self.plans]))

    @property
    def mean_breakpoints(self) -> float:
        """Mean breakpoints per sequence."""
        return float(np.mean([p.total_breakpoints for p in self.plans]))

    @property
    def mean_time(self) -> float:
        """Mean simulated latency per sequence (s)."""
        return float(self.times.mean())

    @property
    def mean_energy(self) -> float:
        """Mean simulated whole-system energy per sequence (J)."""
        return float(self.energies.mean())

    def speedup_vs(self, baseline: "InferenceOutcome") -> float:
        """Latency speedup relative to another outcome."""
        return baseline.mean_time / self.mean_time

    def energy_saving_vs(self, baseline: "InferenceOutcome") -> float:
        """Fractional energy saving relative to another outcome."""
        return 1.0 - self.mean_energy / baseline.mean_energy

    def agreement_with(self, baseline: "InferenceOutcome") -> float:
        """Fraction of matching predictions (per token for LM/MT heads).

        This is the paper's Δ-accuracy metric: the baseline is exact, so
        ``1 - agreement`` is the accuracy loss of the approximation.
        """
        if self.predictions.shape != baseline.predictions.shape:
            raise ConfigurationError("outcomes were produced on different batches")
        return float(np.mean(self.predictions == baseline.predictions))


#: Executors one app keeps (an executor is views of the network's weights
#: plus, under ZERO_PRUNE or a quantized precision, its own derived ``U`` /
#: dequantized blocks — a sweep's five modes fit with room for threshold
#: sets).
_MAX_EXECUTORS = 8


class OptimizedLSTM:
    """Memory-friendly LSTM inference on a simulated mobile GPU."""

    def __init__(
        self,
        network: LSTMNetwork,
        spec: GPUSpec = TEGRA_X1,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.network = network
        self.spec = spec
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        # One program cache under every executor of this app: modes and
        # threshold sets at one shape replay the same compiled programs,
        # and every program of every mode leases the same workspace arena.
        self.program_cache = ProgramCache()
        #: The executors :meth:`run` has built, least recently used out
        #: first (the same bounded single-flight store the programs use;
        #: ``stats.misses`` counts constructions).
        self.executor_cache = ProgramCache(max_entries=_MAX_EXECUTORS)
        self.calibration: OfflineCalibration | None = None
        self._calibration_tokens: np.ndarray | None = None
        self._rng = np.random.default_rng(0xA11CE)

    @classmethod
    def from_app(
        cls,
        app: str | AppConfig,
        seed: int = 0,
        spec: GPUSpec = TEGRA_X1,
        plan_cache: PlanCache | None = None,
    ) -> "OptimizedLSTM":
        """Build a Table II application from the calibrated model zoo."""
        app_config = get_app(app) if isinstance(app, str) else app
        network = build_calibrated_network(app_config, seed=seed)
        instance = cls(network, spec=spec, plan_cache=plan_cache)
        instance._app_config = app_config
        return instance

    def sample_tokens(self, num_sequences: int, seed: int | None = None) -> np.ndarray:
        """Draw a synthetic token batch matching the model geometry."""
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        return rng.integers(
            0,
            self.network.vocab_size,
            size=(num_sequences, self.network.config.seq_length),
        )

    def calibrate(
        self,
        tokens: np.ndarray | None = None,
        num_sequences: int = 8,
        mts: int | None = None,
    ) -> OfflineCalibration:
        """Run the offline operations of Fig. 10 and cache the result."""
        if tokens is None:
            tokens = self.sample_tokens(num_sequences, seed=0xCA11B)
        self._calibration_tokens = np.asarray(tokens)
        self.calibration = calibrate_offline(
            self.network, self._calibration_tokens, spec=self.spec, mts=mts
        )
        return self.calibration

    def resident_bytes(self) -> dict[str, int]:
        """What this app keeps resident, in bytes by owner — the rows of
        the "what is resident" table in ``docs/architecture.md``. Each
        figure is the owner's own ``nbytes`` (array bytes; interpreter
        objects are not counted), read at the time of the call."""
        return {
            "weights": sum(array.nbytes for array in self.network.parameters()),
            "workspace_arenas": self.program_cache.nbytes,
            "plan_cache": self.plan_cache.nbytes,
            "token_row_memo": self.plan_cache.token_rows.nbytes,
            "executor_cache": self.executor_cache.nbytes,
        }

    def _require_calibration(self, mode: ExecutionMode | None = None) -> OfflineCalibration:
        if self.calibration is None:
            wanted = f" in {mode.value.upper()} mode" if mode is not None else ""
            raise CalibrationError(
                f"running{wanted} needs the offline calibration (thresholds, MTS, "
                "predicted context links) — call calibrate() once after "
                "construction, e.g. app.calibrate(num_sequences=16)"
            )
        return self.calibration

    def execution_config(
        self,
        mode: ExecutionMode,
        alpha_inter: float | None = None,
        alpha_intra: float | None = None,
        threshold_index: int | None = None,
        precision: "Precision | str" = "fp64",
        backend: str = "numpy",
        threads: int = 1,
    ) -> ExecutionConfig:
        """Resolve thresholds (explicit, by schedule index, or maxima).
        Only the knobs ``mode`` reads are set; the rest keep their defaults."""
        levels = ExecutionConfig(mode=mode)
        knobs: dict = {}
        if levels.inter_active or levels.intra_active:
            calibration = self._require_calibration(mode)
            if threshold_index is not None:
                schedule = calibration.schedule()
                if not 0 <= threshold_index < len(schedule):
                    raise ConfigurationError(
                        f"threshold_index {threshold_index} out of range "
                        f"(schedule has sets 0..{len(schedule) - 1})"
                    )
                ts = schedule[threshold_index]
                alpha_inter = ts.alpha_inter if alpha_inter is None else alpha_inter
                alpha_intra = ts.alpha_intra if alpha_intra is None else alpha_intra
            if alpha_inter is None:
                alpha_inter = calibration.alpha_inter_max
            if alpha_intra is None:
                alpha_intra = calibration.alpha_intra_max
            knobs.update(
                alpha_inter=alpha_inter if levels.inter_active else 0.0,
                alpha_intra=alpha_intra if levels.intra_active else 0.0,
                mts=calibration.mts,
            )
        return ExecutionConfig(
            mode=mode,
            precision=Precision.parse(precision),
            backend=backend,
            threads=threads,
            **knobs,
        )

    def _executor_for(self, config: ExecutionConfig) -> LSTMExecutor:
        """The executor for ``config``, built on first use and kept.

        Construction is where a scheme's derived weights are made
        (ZERO_PRUNE's pruned ``U``, a quantized precision's dequantized
        blocks, row ranges, digests), so a repeated :meth:`run` goes
        straight to ``run_batch``. The key is content: the frozen config,
        every layer's weight digest and the predicted links' digests — a
        second ``calibrate()`` or a weight update followed by
        :func:`~repro.core.plan.invalidate_weight_fingerprints` reaches a
        fresh executor, never a stale one. The embedding and the head are
        read live from the network and need no key. A quantized config
        runs on the cells of a kept executor over the same content where
        :func:`~repro.core.executor.reusable_quantized_cells` allows, so a
        threshold sweep at int8 holds one dequantized copy.
        """
        links = self.calibration.predicted_links if self.calibration is not None else None
        content = (
            *(fingerprint_weights(layer.weights) for layer in self.network.layers),
            *(
                fingerprint_array(vector)
                for link in links or ()
                for vector in (link.h_bar, link.c_bar)
            ),
        )
        return self.executor_cache.get(
            (config, content),
            lambda: LSTMExecutor(
                self.network,
                config,
                predicted_links=links,
                plan_cache=self.plan_cache,
                program_cache=self.program_cache,
                quantized_cells=reusable_quantized_cells(
                    config,
                    (
                        executor
                        for (_, other_content), executor in self.executor_cache.items()
                        if other_content == content
                    ),
                ),
            ),
        )

    def run(
        self,
        tokens: np.ndarray,
        mode: ExecutionMode = ExecutionMode.COMBINED,
        alpha_inter: float | None = None,
        alpha_intra: float | None = None,
        threshold_index: int | None = None,
        precision: "Precision | str" = "fp64",
        backend: str = "numpy",
        threads: int = 1,
        keep_traces: bool = False,
        keep_result: bool = False,
        recorder: "Recorder | None" = None,
        label: str | None = None,
    ) -> InferenceOutcome:
        """Execute a batch under one scheme (one ``run_batch`` on the kept
        executor) and price it on :attr:`spec` with hardware DRS.

        Args:
            precision: Weight-storage policy (``"fp64"`` / ``"fp16"`` /
                ``"int8"`` or a :class:`~repro.nn.quantize.Precision`).
                Quantized runs compute on dequantized weights and report
                quantized weight traffic in trace records.
            recorder: Optional :class:`~repro.obs.recorder.Recorder`; when
                enabled, the run emits a full :class:`~repro.obs.record.
                RunRecord` — per-kernel launches with stall attribution,
                per-layer structural counters, the plan-cache hit/miss
                delta, and wall-clock vs simulated time. Recording never
                changes the numerics: the executor runs identically with
                and without it.
            label: Free-form label stamped on the run record (defaults to
                the application name when built via :meth:`from_app`).
        """
        wall_start = time.perf_counter()
        config = self.execution_config(
            mode,
            alpha_inter=alpha_inter,
            alpha_intra=alpha_intra,
            threshold_index=threshold_index,
            precision=precision,
            backend=backend,
            threads=threads,
        )
        executor = self._executor_for(config)
        cache_before = self.plan_cache.stats.as_dict()
        program_before = self.program_cache.stats.as_dict()
        tokens = np.asarray(tokens)
        if label is None:
            app_config = getattr(self, "_app_config", None)
            label = app_config.name if app_config is not None else ""
        builder = (
            recorder.start_run(
                label=label,
                mode=mode.value,
                spec=self.spec.name,
                batch=int(tokens.shape[0]),
                seq_length=int(tokens.shape[-1]),
                config={
                    **executor.record_config(),
                    "drs_style": "hardware",
                    "threshold_index": threshold_index,
                },
            )
            if recorder is not None
            else None
        )
        result = executor.run_batch(tokens)
        sim_start = time.perf_counter()
        outcome = InferenceOutcome(
            config=config,
            logits=result.logits,
            predictions=result.predictions(),
            plans=result.plans,
            result=result if keep_result else None,
            **self._price(
                executor, result.plans, self.spec, "hardware", keep_traces, builder
            ),
        )
        if builder is not None:
            builder.observe_cache_delta(cache_before, self.plan_cache.stats.as_dict())
            builder.observe_program_cache_delta(
                program_before, self.program_cache.stats.as_dict()
            )
            builder.set_timing(
                wall_s=time.perf_counter() - wall_start,
                sim_wall_s=time.perf_counter() - sim_start,
                **result.timings,
            )
            builder.finish()
        return outcome

    def price(
        self,
        outcome: InferenceOutcome,
        spec: GPUSpec | None = None,
        drs_style: str = "hardware",
        keep_traces: bool = False,
    ) -> InferenceOutcome:
        """A copy of ``outcome`` with ``times`` / ``energies`` / ``traces``
        re-priced on ``spec`` (default :attr:`spec`) with DRS on the CRM
        (``"hardware"``) or in software. Nothing executes: neither changes
        a host bit. Raises :class:`ConfigurationError` on an unknown style
        and :class:`ShapeError` on an empty batch."""
        executor = self._executor_for(outcome.config)
        spec = self.spec if spec is None else spec
        return replace(
            outcome, **self._price(executor, outcome.plans, spec, drs_style, keep_traces)
        )

    @staticmethod
    def _price(
        executor: LSTMExecutor,
        plans: list[SequencePlan],
        spec: GPUSpec,
        drs_style: str,
        keep_traces: bool,
        builder=None,
    ) -> dict:
        """The pricing step of :meth:`run` and :meth:`price`: the
        ``times`` / ``energies`` / ``traces`` of ``plans`` on ``spec``."""
        if not plans:
            raise ShapeError("cannot price an empty batch: it has no sequence to time")
        simulator = TimingSimulator(spec)
        times, energies, traces = [], [], []
        # With neither level live (BASELINE, ZERO_PRUNE) every sequence's
        # plan is the same by construction — T single cells per layer,
        # nothing skipped — so one trace is built and simulated for all.
        config = executor.config
        one_trace = not (config.inter_active or config.intra_active)
        trace = None
        for seq_index, plan in enumerate(plans):
            if trace is None or not one_trace:
                trace = simulator.run_trace(executor.kernel_trace(plan, spec, drs_style))
            times.append(trace.total_time)
            energies.append(trace.total_energy)
            if keep_traces:
                traces.append(trace)
            if builder is not None:
                builder.observe_plan(seq_index, plan)
                builder.observe_trace(seq_index, trace)
        return {
            "times": np.asarray(times),
            "energies": np.asarray(energies),
            "traces": traces,
        }
