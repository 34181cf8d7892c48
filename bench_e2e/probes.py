"""Layer probes: each layer's public functions, timed from outside.

The probes always run on the BABI geometry (H=256, L=3, T=86; zoo seed
0, calibrated, threshold set 5) plus a PTB-shaped head, on constant
inputs, so a per-layer number means the same thing whichever workload's
traced run produced it. ``.b1`` / ``.b8`` name the batch. The traced
window of the workload itself then overrides the metrics it can observe
directly (see ``Window.observed``).

Counts and simulated numbers here are exact and repeat across runs;
times are host wall clock, medians over the stated repetitions.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from repro import ExecutionMode, OptimizedLSTM
from repro.core.backends import make_stepwise_program
from repro.core.executor import LSTMExecutor, _UnitedWeights
from repro.core.plan import PlanCache
from repro.core.program import ProgramCache
from repro.core.reference import ReferenceExecutor
from repro.obs import Recorder

from bench_e2e.hostenv import ROOT
from bench_e2e.metrics import THRESHOLD_SET
from bench_e2e.tracing import Tracer
from bench_e2e.workloads import (
    QUALITY_SEED,
    StreamMulti,
    cache_hit_rate,
    program_observed,
    compare,
)

#: PTB head geometry (10 000 classes over H=650).
LM_HEAD = (10_000, 650)
STREAM_CHUNK = 4


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_time(fn, budget_s: float, min_reps: int = 3) -> float:
    """Median seconds per call: at least ``min_reps`` calls, then until the budget is spent."""
    samples = []
    stop = time.perf_counter() + budget_s
    while len(samples) < min_reps or time.perf_counter() < stop:
        samples.append(timed(fn))
    return statistics.median(samples)


def weights_mb(network) -> float:
    """Model size computed from array shapes (fp64), not measured."""
    arrays = [network.embedding, network.head_weight, network.head_bias]
    for layer in network.layers:
        arrays += [getattr(layer.weights, f"{kind}_{gate}") for kind in "wub" for gate in "fico"]
    return sum(array.nbytes for array in arrays) / 1e6


class Probes:
    def __init__(self, app: OptimizedLSTM, tracer: Tracer, seed: int, smoke: bool) -> None:
        self.app = app
        self.net = app.network
        self.links = app.calibration.predicted_links
        self.tracer = tracer
        self.seed = seed
        self.smoke = smoke
        #: Per-probe time budget; each probe still takes its minimum repetitions.
        self.budget_s = 0.02 if smoke else 0.1
        self.rng = np.random.default_rng(QUALITY_SEED + 1)
        self.out: dict[str, float] = {}

    def _tokens(self, batch: int) -> np.ndarray:
        return self.rng.integers(0, self.net.vocab_size, size=(batch, self.net.config.seq_length))

    def _config(self, mode: ExecutionMode, **kwargs):
        return self.app.execution_config(mode, threshold_index=THRESHOLD_SET, **kwargs)

    def _executor(self, mode: ExecutionMode, recorder=None, **config_kwargs) -> LSTMExecutor:
        return LSTMExecutor(
            self.net, self._config(mode, **config_kwargs), predicted_links=self.links,
            plan_cache=PlanCache(), program_cache=ProgramCache(), recorder=recorder,
        )

    def run_all(self, skip_streaming: bool) -> dict[str, float]:
        self.stepwise_programs()
        self.cgen_build()
        self.executor_modes()
        self.run_stream()
        self.nn()
        self.pipeline()
        self.parallel()
        self.recorder()
        if not skip_streaming:
            self.streaming()
        return self.out

    # ------------------------------------------------------- program / cgen

    def stepwise_programs(self) -> None:
        """One layer's compiled step at the serving shapes, DRS on (INTRA set 5)."""
        hidden = self.net.config.hidden_size
        united = _UnitedWeights.from_weights(self.net.layers[0].weights)
        alpha = self._config(ExecutionMode.INTRA).alpha_intra
        # b1 is the token-by-token shape, b8 the full stream_multi tick.
        for tag, batch, steps in (("b1", 1, 1), ("b8", 8, STREAM_CHUNK)):
            xs = self.rng.normal(size=(batch, steps, hidden)) * 0.3
            h0 = self.rng.normal(size=(batch, hidden)) * 0.1
            c0 = self.rng.normal(size=(batch, hidden)) * 0.1
            hs = np.empty((batch, steps, hidden))
            per_step = {}
            for backend in ("numpy", "cgen"):
                program = make_stepwise_program(
                    backend, united, self.links[0], batch, steps, drs_alpha=alpha
                )
                program.project(xs)
                per_step[backend] = (
                    median_time(lambda: program.execute(hs, h0=h0, c0=c0), self.budget_s, 20)
                    / steps
                )
                if backend == "numpy" and tag == "b8":
                    self.out["program.project.us_per_token"] = (
                        median_time(lambda: program.project(xs), self.budget_s, 20)
                        / (batch * steps) * 1e6
                    )
            self.out[f"program.execute.us_per_step.{tag}"] = per_step["numpy"] * 1e6
            self.out[f"cgen.execute.us_per_step.{tag}"] = per_step["cgen"] * 1e6
            # Base: the numpy lowering at the same shape.
            self.out[f"cgen.speedup.{tag}"] = per_step["numpy"] / per_step["cgen"]

    def cgen_build(self) -> None:
        """The ``cc`` build alone, in a child (this process already holds the library)."""
        scratch = os.path.join(os.environ["REPRO_CGEN_CACHE"], "cgen-build-probe")
        env = dict(os.environ, REPRO_CGEN_CACHE=scratch, PYTHONPATH=str(ROOT / "src"))
        code = (
            "import time; from repro.core import cgen; t = time.perf_counter(); "
            "cgen.load_library(); print(time.perf_counter() - t)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        self.out["cgen.build.s"] = float(proc.stdout.strip())

    # ------------------------------------------------------------- executor

    def executor_modes(self) -> None:
        """``run_batch`` per mode at batch 1 and 8, and each mode's oracle grade."""
        seq_len = self.net.config.seq_length
        fixed = np.random.default_rng(QUALITY_SEED).integers(
            0, self.net.vocab_size, size=(8, seq_len)
        )
        for mode in ExecutionMode:
            executor = self._executor(mode)
            # The warm-up call doubles as the comparison against the oracle.
            logits = executor.run_batch(fixed).logits
            reference = ReferenceExecutor(self.net, executor.config, predicted_links=self.links)
            check = compare(logits, reference.run_batch(fixed).logits, exact=True)
            self.out[f"executor.bit_identical.{mode.value}"] = float(check.bit_identical)
            self.out[f"executor.max_abs_err.{mode.value}"] = check.max_abs_err
            executor.run_batch(fixed[:1])
            for tag, batch in (("b1", 1), ("b8", 8)):
                if mode is ExecutionMode.COMBINED and batch == 8:
                    seconds = self.combined_b8(executor)
                else:
                    seconds = median_time(
                        lambda: executor.run_batch(self._tokens(batch)), self.budget_s, 2
                    )
                self.out[f"executor.run_batch.{mode.value}.us_per_token.{tag}"] = (
                    seconds / (batch * seq_len) * 1e6
                )

    def combined_b8(self, executor: LSTMExecutor) -> float:
        """The paper's full scheme, decomposed: timings, plan spans, plan counts.

        Fresh tokens each call, as in ``batch_combined``; the tracer is on so
        the PlanCache calls and the executor's self time come from spans.
        """
        # Their own stream: how many calls the timed probes before this one
        # made depends on the host's speed, and the plan counts must not.
        rng = np.random.default_rng(QUALITY_SEED + 2)
        shape = (8, self.net.config.seq_length)
        plan_before = executor.plan_cache.stats.as_dict()
        program_before = executor.program_cache.stats.as_dict()
        walls, results = [], []
        reps = 2
        with self.tracer.recording() as spans:
            for _ in range(reps):
                tokens = rng.integers(0, self.net.vocab_size, size=shape)
                walls.append(timed(lambda: results.append(executor.run_batch(tokens))))
        sequences = 8 * reps
        plans = [plan for result in results for plan in result.plans]
        self.out.update(program_observed(executor.program_cache, program_before, reps))
        self.out.update(
            {
                "executor.run_batch.combined.exec_ms": statistics.median(
                    r.timings["exec_wall_s"] for r in results) * 1e3,
                "executor.run_batch.combined.plan_ms": statistics.median(
                    r.timings["plan_wall_s"] for r in results) * 1e3,
                "executor.run_batch.self_ms": spans["executor.run_batch"]["self_s"] / reps * 1e3,
                # layer_plan includes the relevance pass it triggers on a miss.
                "plan.relevance.ms_per_seq": spans["plan.relevance"]["total_s"] / sequences * 1e3,
                "plan.layer_plan.ms_per_seq": (
                    spans["plan.layer_plan"]["total_s"] / sequences * 1e3
                ),
                "plan.cache.plan_hit_rate": cache_hit_rate(
                    plan_before, executor.plan_cache.stats.as_dict(), "plan_hits", "plan_misses"
                ),
                "plan.breakpoints_per_seq": float(np.mean([p.total_breakpoints for p in plans])),
                "plan.mean_tissue_size": float(np.mean([p.mean_tissue_size for p in plans])),
                "plan.skip_fraction": float(np.mean([p.mean_skip_fraction for p in plans])),
                "program.compile.ms_per_request": statistics.median(
                    r.timings["compile_wall_s"] for r in results) * 1e3,
            }
        )
        return statistics.median(walls)

    def run_stream(self) -> None:
        """One streamed chunk of 4 through the stream_multi scheme (INTRA, cgen)."""
        net = self.net
        executor = self._executor(ExecutionMode.INTRA, backend="cgen")
        for tag, batch in (("b1", 1), ("b8", 8)):
            tokens = self.rng.integers(0, net.vocab_size, size=(batch, STREAM_CHUNK))
            h = np.zeros((net.num_layers, batch, net.config.hidden_size))
            c = np.zeros_like(h)
            executor.run_stream(tokens, h, c)
            self.out[f"executor.run_stream.ms.{tag}"] = (
                median_time(lambda: executor.run_stream(tokens, h, c), self.budget_s, 20) * 1e3
            )

    # ------------------------------------------------------------------- nn

    def nn(self) -> None:
        net = self.net
        tokens = self.rng.integers(0, net.vocab_size, size=4096)
        self.out["nn.embed.us_per_token"] = (
            median_time(lambda: net.embed(tokens), self.budget_s, 20) / tokens.size * 1e6
        )
        # The per-row lift the executor and the streaming server use.
        rows = self.rng.normal(size=(8, 1, net.config.hidden_size))
        self.out["nn.head_logits.us_per_row.cls"] = (
            median_time(lambda: net.head_logits(rows), self.budget_s, 20) / 8 * 1e6
        )
        # A PTB-shaped head on the BABI network object: head time depends on
        # the shape only, and building the real PTB model costs 3.5 s.
        saved = net.head_weight, net.head_bias
        net.head_weight = self.rng.normal(size=LM_HEAD)
        net.head_bias = np.zeros(LM_HEAD[0])
        try:
            row = self.rng.normal(size=(1, 1, LM_HEAD[1]))
            self.out["nn.head_logits.us_per_row.lm"] = (
                median_time(lambda: net.head_logits(row), self.budget_s, 10) * 1e6
            )
        finally:
            net.head_weight, net.head_bias = saved

    # ------------------------------------- trace_builder / simulator / pipeline

    def pipeline(self) -> None:
        """One five-mode sweep of ``OptimizedLSTM.run`` (batch 4), from spans."""
        tokens = np.random.default_rng(QUALITY_SEED).integers(
            0, self.net.vocab_size, size=(2 if self.smoke else 4, self.net.config.seq_length)
        )
        self.app.run(tokens, mode=ExecutionMode.BASELINE)  # programs at this shape
        with self.tracer.recording() as spans:
            outcomes = {
                mode: self.app.run(
                    tokens, mode=mode, threshold_index=THRESHOLD_SET, keep_traces=True
                )
                for mode in ExecutionMode
            }
        kernels = sum(t.num_launches for o in outcomes.values() for t in o.traces)
        sequences = len(tokens) * len(outcomes)
        sim_s = spans["simulator.run_trace"]["total_s"]
        self.out.update(
            {
                "trace_builder.build.ms_per_seq": (
                    spans["trace_builder.build"]["total_s"] / sequences * 1e3
                ),
                "trace_builder.kernels_per_seq": kernels / sequences,
                "simulator.run_trace.ms_per_seq": sim_s / sequences * 1e3,
                "simulator.kernels_per_s": kernels / sim_s,
                # run wall minus executor, trace building and simulation:
                # per-run executor construction (ZERO_PRUNE re-prunes) and glue.
                "pipeline.run.overhead_ms": (
                    spans["pipeline.run"]["self_s"] / len(outcomes) * 1e3
                ),
            }
        )
        for mode, outcome in outcomes.items():
            self.out[f"simulator.sim_ms_per_seq.{mode.value}"] = outcome.mean_time * 1e3
            self.out[f"simulator.dram_mb_per_seq.{mode.value}"] = float(
                np.mean([t.total_dram_bytes for t in outcome.traces]) / 1e6
            )
        self.out["pipeline.calibrate.s"] = timed(OptimizedLSTM(self.net).calibrate)

    # ------------------------------------------------------------- parallel

    def parallel(self) -> None:
        """BASELINE batch 8, ``threads=2`` against ``threads=1``, no dwell.

        With fewer than two cores the two threads time-slice; the number
        is still measured and ``os.cpu_count()`` is in the output.
        """
        tokens = self._tokens(8)
        serial = self._executor(ExecutionMode.BASELINE)
        threaded = self._executor(ExecutionMode.BASELINE, threads=2)
        serial.run_batch(tokens)
        threaded.run_batch(tokens)
        timings = []
        t1 = median_time(lambda: serial.run_batch(tokens), self.budget_s, 3)
        t2 = median_time(
            lambda: timings.append(threaded.run_batch(tokens).timings), self.budget_s, 3
        )
        # Base: threads=1 on the same batch.
        self.out["parallel.run_batch.speedup_t2"] = t1 / t2
        self.out["parallel.dispatch.queue_wait_ms"] = (
            statistics.median(t["queue_wait_s"] for t in timings) * 1e3
        )
        self.out["parallel.dispatch.busy_ms"] = (
            statistics.median(t["thread_busy_s"] for t in timings) * 1e3
        )

    # ------------------------------------------------------------------ obs

    def recorder(self) -> None:
        """An enabled ``Recorder`` against none (the <5 % contract of repro.obs)."""
        tokens = self._tokens(8)
        plain = self._executor(ExecutionMode.BASELINE)
        recorded = self._executor(ExecutionMode.BASELINE, recorder=Recorder(enabled=True))
        plain.run_batch(tokens)
        recorded.run_batch(tokens)
        with_s, without_s = [], []
        for _ in range(4):  # alternate, so drift hits both sides alike
            without_s.append(timed(lambda: plain.run_batch(tokens)))
            with_s.append(timed(lambda: recorded.run_batch(tokens)))
        self.out["obs.recorder.overhead_frac"] = (
            statistics.median(with_s) / statistics.median(without_s) - 1.0
        )

    # ------------------------------------------------------------ streaming

    def streaming(self) -> None:
        """A short stream_multi window, for workloads that never stream."""
        mini = StreamMulti(self.seed, smoke=True)
        mini.setup(app=self.app)
        window = mini.run(0.5 if self.smoke else 1.5, self.tracer)
        self.out.update(
            {k: v for k, v in window.observed.items() if k.startswith("streaming.")}
        )
