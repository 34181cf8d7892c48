"""Benchmark-regression gate: batched executor vs the seed per-sequence walk.

Times :class:`repro.core.executor.LSTMExecutor` against
:class:`repro.core.reference.ReferenceExecutor` (the frozen seed
arithmetic) on the same workloads, verifies each mode's output at its
oracle grade (bit-identical in the exact tier, ``1e-9`` with equal
predictions for COMBINED; :func:`repro.core.backends.is_exact`), writes
``BENCH_executor.json``, and exits non-zero if the executor regresses:

* every mode must be at least as fast as the reference (guard band below),
* combined mode on the 64-sequence workload must be >= 2x faster and the
  DRS (intra) mode >= 1.2x (the compiled-program bar),
* graded COMBINED must beat exact BASELINE by >= 1.3x on ``exec_wall_s``
  at serving geometry (``combined_vs_baseline``: calibrated BABI, set 5,
  batch 8, fresh tokens per sample, the two interleaved, min-of-N) — the
  paper's scheme on the real clock,
* combined mode on *fresh* inputs (``combined_fresh``: new tokens per
  sample, unlike plans inside every batch, plan cache cold) must compile
  nothing after warm-up — the replayed 64-sequence batch above has one
  plan for all sequences and cannot see a per-plan program key,
* one executor plus its warmed streaming programs must hold at most a
  quarter of the network's weight bytes (``resident_bytes``, numpy and
  cgen): weights exist once, in the network — and, with a ``(16, 64)``
  batch shape warmed in two more modes through the same cache, the
  workspace arenas must hold no more than the largest single program
  layout per dispatch slot: workspaces exist once too,
* the four exact modes must stay bit-identical to the reference where
  their products take weight slabs (``exact_slabs``: calibrated IMDB,
  ``H = 512``, batch 4, fresh tokens), and take them there and not at
  BABI width; min ``exec_wall_s`` per mode is reported ungated,
* a five-mode ``OptimizedLSTM.run`` sweep over one token batch
  (``sweep_overhead``) must, once warm, construct no executor and project
  no more layer-0 rows than the batch has distinct tokens — the share of
  the sweep's wall spent outside ``run_batch`` is reported beside them,
* attaching an enabled :class:`repro.obs.recorder.Recorder` must not
  change a logits bit and must stay under a 5 % wall-clock overhead.

Program-compile wall time is recorded separately (``compile_wall_cold_s``
per mode) and **excluded from every speedup gate**: the warm-up
iterations populate the program cache before sampling starts, and the
gate asserts that no timed sample recompiled anything
(``compile_wall_steady_s`` must be exactly 0).

Timing discipline (anti-flake): each executor gets ``WARMUP`` untimed
iterations (allocator/cache warm-up), then the reported number is the
*minimum* of ``REPEATS`` interleaved samples over ``CONSTRUCTIONS``
independently constructed executor sets — all counts are recorded in
``BENCH_executor.json`` so a reader can judge the measurement. The min
is the right estimator because the noise is one-sided: a descheduled
sample is only ever slower, and an unlucky heap placement of an
executor's preallocated workspace (cache-set conflicts persist for that
instance's lifetime) only ever adds time, so re-rolling the placement
across constructions and keeping the fastest sample per executor
estimates the true cost. A median still wobbles with machine load and a
single construction bakes placement luck into the ratios. The cyclic
garbage collector is paused during the timed region (pyperf-style): the
executors build ~8k plan-record objects per run, and the resulting gen-2
collection pauses land in whichever executor happens to cross the
threshold, adding 10-20 ms of bimodal noise that swamps a 1.0x gate.

Run directly (CI does) or under pytest-benchmark via ``benchmarks/``::

    PYTHONPATH=src python benchmarks/bench_executor_regression.py

``--only ROW`` runs one row and its gates and writes no JSON — e.g.
``--only combined_vs_baseline`` reads the headline gate in seconds.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
import time
import tracemalloc

import numpy as np

from dataclasses import replace

from repro.config import AppConfig, LSTMConfig, TaskFamily
from repro.core.backends import backend_availability
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.bench.deflake import REPEATS, WARMUP, gc_paused, pick
from repro.bench.gates import GateSet, grade_check
from repro.core.pipeline import OptimizedLSTM
from repro.core.plan import PlanCache
from repro.core.reference import ReferenceExecutor
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import TEGRA_X1
from repro.nn.model_zoo import build_calibrated_network
from repro.nn.network import LSTMNetwork
from repro.obs import Recorder

#: Mode gates: minimum acceptable speedup of the (compiled) batched
#: executor over the reference. Baseline/inter were already vectorized in
#: the seed, so their gate is a no-regression guard band sized for noisy
#: shared CI runners, not a speedup claim. Intra (DRS) carries a 1.2x bar:
#: the compiled program collapses its per-step work into one stacked
#: matmul plus in-place chains. Combined mode keeps the hard 2x
#: requirement from the batch-wide wave walk + fused projections (the
#: per-plan constant folding it replaced read 4.3-4.5x on this one
#: replayed, fully divided batch; the wave walk reads 2.8-2.9x).
MIN_SPEEDUP: dict[str, float] = {
    "baseline": 0.8,
    "inter": 0.8,
    "intra": 1.2,
    "combined": 2.0,
}

#: Weight-traffic gate: int8 storage must cut the measured weight bytes
#: moved on the combined workload by at least this factor vs fp64 (per-row
#: scale vectors and the never-skipped o-gate rows keep it under the raw
#: 8x storage ratio).
MIN_INT8_COMBINED_TRAFFIC_REDUCTION = 3.0

#: Recorder-enabled wall-clock must stay within this factor of recorder-off.
MAX_RECORDER_OVERHEAD = 1.05

#: Bytes held by one executor and its warmed programs, as a share of the
#: network's weight bytes. Copying executors read 0.7-1.0 here (a united
#: copy per executor, a restacked ``U`` per program); the cgen backend's
#: dense ``W^T`` per layer read 0.18 until its kernel read ``W`` in place.
MAX_RESIDENT_SHARE = 0.25
#: The ``(batch, chunk)`` shapes the resident-bytes row warms: token by
#: token, and a full streaming tick.
RESIDENT_SHAPES = ((1, 1), (8, 4))
#: The batch shape it then warms in two modes through the same program
#: cache, for the workspace gate: the arena must hold the largest single
#: program layout, not one workspace per cached program.
RESIDENT_BATCH_SHAPE = (16, 64)

#: The paper's scheme on the real clock: graded COMBINED over exact
#: BASELINE on ``exec_wall_s`` at serving geometry (calibrated BABI,
#: threshold set 5, batch 8, fresh tokens per sample).
MIN_COMBINED_VS_BASELINE = 1.3
VS_BASELINE_SAMPLES = pick(15, 7)

#: The exact modes where their products take weight slabs: calibrated IMDB
#: at this batch (paper_sweep's), min-of-N fresh-token samples per mode.
SLAB_BATCH = 4
SLAB_SAMPLES = pick(5, 3)

NUM_SEQUENCES = 64
#: The fresh-input row serves shards of this many sequences.
FRESH_BATCH = 8
#: Warm-up/timed-sample discipline comes from the shared de-flake module
#: (repro.bench.deflake): WARMUP untimed iterations, then the reported
#: time is the minimum over REPEATS samples per executor per construction.
#: Independent executor constructions per mode (re-rolls heap placement).
CONSTRUCTIONS = 2
#: The recorder gate compares two near-identical wall times (the true
#: overhead is well under a millisecond), so its min needs more samples
#: than the mode gates to keep sampling jitter out of a 5 % band.
RECORDER_REPEATS = pick(15, 7)


def build_case() -> tuple[LSTMNetwork, np.ndarray]:
    """A mid-size 64-sequence workload (the acceptance workload)."""
    config = LSTMConfig(hidden_size=64, num_layers=2, seq_length=64, input_size=64)
    network = LSTMNetwork(config, vocab_size=200, num_classes=8, seed=11)
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 200, size=(NUM_SEQUENCES, config.seq_length))
    return network, tokens


def mode_config(mode: ExecutionMode) -> ExecutionConfig:
    if mode is ExecutionMode.COMBINED:
        # A threshold above every relevance value divides the layer fully:
        # all 64 sequences share one plan and every wave is 64 tissues
        # wide. The opposite regime is the ``combined_fresh`` row.
        return ExecutionConfig(
            mode=mode, alpha_inter=1e12, alpha_intra=0.05, mts=5
        )
    if mode is ExecutionMode.INTER:
        return ExecutionConfig(mode=mode, alpha_inter=1e12, mts=5)
    if mode is ExecutionMode.INTRA:
        return ExecutionConfig(mode=mode, alpha_intra=0.05)
    return ExecutionConfig(mode=mode)


def time_group(executors, tokens: np.ndarray, repeats: int = REPEATS) -> list[float]:
    """Min-of-N wall times of several executors, interleaved.

    Interleaving the executors inside each repeat cancels slow clock /
    thermal drift that would otherwise bias whichever one runs last, and
    the min discards descheduling spikes entirely — scheduler noise only
    ever *adds* time, so the fastest sample is the best estimate of each
    executor's true cost. The warm-up pass also populates plan and
    program caches, so compile time never lands in a timed sample (the
    caller asserts this via ``compile_wall_s``).
    """
    samples: list[list[float]] = [[] for _ in executors]
    for _ in range(WARMUP):
        for executor in executors:
            executor.run_batch(tokens)
    with gc_paused():
        for _ in range(repeats):
            for slot, executor in enumerate(executors):
                start = time.perf_counter()
                executor.run_batch(tokens)
                samples[slot].append(time.perf_counter() - start)
    return [min(s) for s in samples]


def weight_traffic(
    network: LSTMNetwork, tokens: np.ndarray, config: ExecutionConfig
) -> dict:
    """Measured host weight bytes of one mode: fp64 storage vs int8.

    Runs the workload once under the int8 policy and sums the per-kernel
    byte counters over every sequence's simulated trace.
    ``bytes_moved_fp64`` is what the same kernels — same skips, same
    surviving rows — would stream at float64 storage, so the ratio
    isolates the storage policy from the row skipping it compounds with.
    """
    executor = LSTMExecutor(
        network, replace(config, precision="int8"), plan_cache=PlanCache()
    )
    out = executor.run_batch(tokens)
    simulator = TimingSimulator(TEGRA_X1)
    fp64 = moved = 0.0
    for plan in out.plans:
        trace = simulator.run_trace(executor.kernel_trace(plan, TEGRA_X1))
        fp64 += trace.total_weight_bytes_fp64
        moved += trace.total_weight_bytes_moved
    return {
        "precision": "int8",
        "bytes_moved_fp64": fp64,
        "bytes_moved_quant": moved,
        "traffic_reduction": fp64 / moved if moved > 0.0 else 1.0,
    }


def calibrated_case() -> tuple[AppConfig, LSTMNetwork]:
    """The calibrated H=64 model of the fresh-input rows (random weights
    saturate Algorithm 2, so every sequence would plan alike)."""
    model = LSTMConfig(hidden_size=64, num_layers=2, seq_length=64, input_size=64)
    app = AppConfig(
        name="FRESH",
        family=TaskFamily.SENTIMENT_CLASSIFICATION,
        model=model,
        vocab_size=200,
        num_classes=8,
    )
    return app, build_calibrated_network(app, seed=11)


def combined_fresh(gates: GateSet) -> dict:
    """COMBINED as a server sees it: new tokens in every batch.

    A calibrated network with ``alpha_inter`` at the median link
    relevance: each batch of ``FRESH_BATCH`` holds unlike plans, every
    sample draws new tokens (plan cache cold on every lookup), and only
    the program cache can be warm. Reports microseconds per token beside
    the reference walk's on the same batches (totals over all samples —
    the samples differ in work, so a min would pick the easiest batch)
    and gates on the program cache: nothing compiles after warm-up.
    """
    app, network = calibrated_case()
    model = app.model
    rng = np.random.default_rng(29)

    def draw() -> np.ndarray:
        return rng.integers(0, app.vocab_size, size=(FRESH_BATCH, model.seq_length))

    probe = LSTMExecutor(
        network, ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1.0)
    ).run_batch(draw())
    alpha_inter = float(
        np.median([plan.layers[0].relevance[1:] for plan in probe.plans])
    )
    config = ExecutionConfig(
        mode=ExecutionMode.COMBINED, alpha_inter=alpha_inter, alpha_intra=0.05, mts=5
    )
    executor = LSTMExecutor(network, config, plan_cache=PlanCache())
    reference = ReferenceExecutor(network, config)
    for _ in range(WARMUP):
        executor.run_batch(draw())
    misses_warm = executor.program_cache.stats.misses
    plan_hits_warm = executor.plan_cache.stats.plan_hits

    t_executor = t_reference = 0.0
    max_abs_err = 0.0
    distinct_plans = FRESH_BATCH
    with gc_paused():
        for _ in range(REPEATS):
            tokens = draw()
            start = time.perf_counter()
            out = executor.run_batch(tokens)
            t_executor += time.perf_counter() - start
            start = time.perf_counter()
            out_r = reference.run_batch(tokens)
            t_reference += time.perf_counter() - start
            max_abs_err = max(max_abs_err, float(np.abs(out.logits - out_r.logits).max()))
            distinct_plans = min(
                distinct_plans,
                len({tuple(plan.layers[0].breakpoints) for plan in out.plans}),
            )
    tokens_timed = REPEATS * FRESH_BATCH * model.seq_length
    misses_after_warmup = executor.program_cache.stats.misses - misses_warm
    gates.require_at_most(
        "combined_fresh/program-misses-after-warmup",
        misses_after_warmup,
        0,
        "fresh tokens at a warm shape compiled a program",
    )
    gates.require_at_most(
        "combined_fresh/max-abs-err", max_abs_err, 1e-9, "logits vs reference"
    )
    gates.require_at_least(
        "combined_fresh/distinct-plans-per-batch",
        distinct_plans,
        2,
        "the workload no longer mixes plans",
    )
    row = {
        "batch": FRESH_BATCH,
        "samples": REPEATS,
        "alpha_inter": alpha_inter,
        "batched_us_per_token": t_executor / tokens_timed * 1e6,
        "reference_us_per_token": t_reference / tokens_timed * 1e6,
        "speedup": t_reference / t_executor,
        "statistic": "total over samples",
        "program_misses_warmup": misses_warm,
        "program_misses_after_warmup": misses_after_warmup,
        "program_evictions": executor.program_cache.stats.evictions,
        "plan_hits_after_warmup": executor.plan_cache.stats.plan_hits - plan_hits_warm,
        "min_distinct_plans_per_batch": distinct_plans,
        "max_abs_err": max_abs_err,
    }
    print(
        f"{'comb_fresh':10s} compiled {row['batched_us_per_token']:8.2f} us/tok "
        f"reference {row['reference_us_per_token']:8.2f} us/tok "
        f"{row['speedup']:5.2f}x (no gate)    "
        f"program misses after warm-up {misses_after_warmup} (gate 0)   "
        f"distinct plans/batch >= {distinct_plans}"
    )
    return row


def combined_vs_baseline(gates: GateSet) -> dict:
    """The paper's scheme against BASELINE, on the host's real clock.

    Calibrated BABI (``H = 256``, ``T = 86``) at threshold set 5, batch
    :data:`FRESH_BATCH`, new tokens every sample. Exact BASELINE and graded
    COMBINED run interleaved on the same tokens, each through its own plan
    cache (so neither gathers layer-0 rows the other projected), and each
    reports the minimum ``exec_wall_s`` — planning included — over
    :data:`VS_BASELINE_SAMPLES` samples after one warm-up batch, with the
    ``plan_wall_s`` of that same sample, so a reading of the gate can be
    attributed: COMBINED's planning share is its plan wall over its exec
    wall at the minimum.
    """
    app = OptimizedLSTM.from_app("BABI", seed=0)
    app.calibrate()
    network = app.network
    rng = np.random.default_rng(37)
    modes = (ExecutionMode.BASELINE, ExecutionMode.COMBINED)
    executors = [
        LSTMExecutor(
            network,
            app.execution_config(mode, threshold_index=5),
            predicted_links=app.calibration.predicted_links,
            plan_cache=PlanCache(),
        )
        for mode in modes
    ]

    def draw() -> np.ndarray:
        return rng.integers(0, network.vocab_size, size=(FRESH_BATCH, network.config.seq_length))

    walls: list[list[tuple[float, float]]] = [[] for _ in modes]
    for _ in range(WARMUP):
        tokens = draw()
        for executor in executors:
            executor.run_batch(tokens)
    with gc_paused():
        for _ in range(VS_BASELINE_SAMPLES):
            tokens = draw()
            for executor, samples in zip(executors, walls):
                timings = executor.run_batch(tokens).timings
                samples.append((timings["exec_wall_s"], timings["plan_wall_s"]))
    # (exec_wall_s, plan_wall_s) of each mode's fastest sample.
    (baseline, baseline_plan), (combined, combined_plan) = (min(samples) for samples in walls)
    speedup = baseline / combined
    plan_share = combined_plan / combined
    gates.require_at_least(
        "combined_vs_baseline/speedup",
        speedup,
        MIN_COMBINED_VS_BASELINE,
        "graded COMBINED over exact BASELINE, exec_wall_s",
    )
    row = {
        "app": "BABI",
        "hidden_size": network.config.hidden_size,
        "seq_length": network.config.seq_length,
        "batch": FRESH_BATCH,
        "threshold_index": 5,
        "samples": VS_BASELINE_SAMPLES,
        "statistic": "min exec_wall_s",
        "baseline_exec_wall_s": baseline,
        "combined_exec_wall_s": combined,
        "baseline_plan_wall_s": baseline_plan,
        "combined_plan_wall_s": combined_plan,
        "combined_plan_share": plan_share,
        "speedup": speedup,
        "min_speedup": MIN_COMBINED_VS_BASELINE,
        "exact": [executor.exact for executor in executors],
    }
    print(
        f"{'comb_vs_bl':10s} baseline {baseline * 1e3:8.2f} ms   "
        f"combined {combined * 1e3:8.2f} ms   "
        f"{speedup:5.2f}x (gate {MIN_COMBINED_VS_BASELINE:.1f}x)   "
        f"combined planning {combined_plan * 1e3:6.2f} ms ({plan_share:.0%})"
    )
    return row


def exact_slabs(gates: GateSet) -> dict:
    """The exact modes where their products take weight slabs.

    Calibrated IMDB (``H = 512``: 2 MiB gate blocks, above
    :data:`~repro.core.program.SLAB_MIN_BYTES`) at threshold set 5, batch
    :data:`SLAB_BATCH`, fresh tokens per sample: each exact mode must stay
    bit-identical to the reference (gated on one draw per mode), and its
    minimum ``exec_wall_s`` over :data:`SLAB_SAMPLES` samples is reported
    beside BASELINE at BABI width (``H = 256``, 512 KiB gates), which lifts
    whole gates. Whether each run's programs took slabs is gated too: the
    rule follows gate size and row count, so a moved threshold shows here.
    """
    rng = np.random.default_rng(41)
    row: dict = {"batch": SLAB_BATCH, "samples": SLAB_SAMPLES, "statistic": "min exec_wall_s"}
    for name, modes in (
        ("IMDB", [m for m in ExecutionMode if m is not ExecutionMode.COMBINED]),
        ("BABI", [ExecutionMode.BASELINE]),
    ):
        app = OptimizedLSTM.from_app(name, seed=0)
        app.calibrate()
        network = app.network

        def draw() -> np.ndarray:
            return rng.integers(
                0, network.vocab_size, size=(SLAB_BATCH, network.config.seq_length)
            )

        for mode in modes:
            config = app.execution_config(mode, threshold_index=5)
            links = app.calibration.predicted_links
            executor = LSTMExecutor(network, config, predicted_links=links, plan_cache=PlanCache())
            tokens = draw()
            out = executor.run_batch(tokens)
            out_r = ReferenceExecutor(network, config, predicted_links=links).run_batch(tokens)
            key = f"{name.lower()}_{mode.value}"
            if name == "IMDB":
                grade, identical = grade_check(out, out_r, executor.exact)
                gates.require_true(
                    f"exact_slabs/{grade}/{mode.value}",
                    identical,
                    "a slabbed exact mode left the reference's bits",
                )
                row[f"{key}_{grade}"] = identical
            slabbed = [entry._cut > 0 for _, entry in executor.program_cache.items()]
            gates.require_true(
                f"exact_slabs/slab-path/{key}",
                all(slabbed) if name == "IMDB" else not any(slabbed),
                "the slab rule no longer follows gate size",
            )
            with gc_paused():
                wall = min(
                    executor.run_batch(draw()).timings["exec_wall_s"]
                    for _ in range(SLAB_SAMPLES)
                )
            row[f"{key}_exec_wall_s"] = wall
            row[f"{key}_slabbed"] = all(slabbed)
            print(
                f"{'slabs':10s} {name:4s} H={network.config.hidden_size} "
                f"{mode.value:10s} {wall * 1e3:8.2f} ms   slabbed={all(slabbed)}"
                + (f"   {grade}={identical}" if name == "IMDB" else "")
            )
    return row


def sweep_overhead(gates: GateSet) -> dict:
    """What a five-mode sweep pays beside its arithmetic.

    ``OptimizedLSTM.run`` in all five modes over one token batch, new
    tokens per sweep, after one warm-up sweep. ``overhead_share`` is
    ``(run wall - exec_wall_s) / run wall`` summed over the timed sweeps:
    executor look-up, trace building and simulation. The two counts are
    exact: executors constructed after warm-up (gate 0 — a sweep goes
    straight to ``run_batch``) and layer-0 rows projected per sweep
    (gate: at most the batch's distinct tokens — the first mode projects
    them, the other four gather).
    """
    config, network = calibrated_case()
    app = OptimizedLSTM(network)
    app.calibrate(num_sequences=FRESH_BATCH)
    rng = np.random.default_rng(31)

    def sweep() -> tuple[float, float, int, int]:
        tokens = rng.integers(
            0, config.vocab_size, size=(FRESH_BATCH, config.model.seq_length)
        )
        projected = app.plan_cache.token_rows.projected
        wall = exec_wall = 0.0
        for mode in ExecutionMode:
            start = time.perf_counter()
            outcome = app.run(tokens, mode=mode, threshold_index=5, keep_result=True)
            wall += time.perf_counter() - start
            exec_wall += outcome.result.timings["exec_wall_s"]
        rows = app.plan_cache.token_rows.projected - projected
        return wall, exec_wall, rows, int(np.unique(tokens).size)

    sweep()
    constructed_warmup = app.executor_cache.stats.misses
    samples = [sweep() for _ in range(REPEATS)]
    constructed_after = app.executor_cache.stats.misses - constructed_warmup
    wall, exec_wall = (sum(column) for column in list(zip(*samples))[:2])
    excess_rows = max(rows - distinct for _, _, rows, distinct in samples)
    gates.require_at_most(
        "sweep_overhead/executors-constructed-after-warmup",
        constructed_after,
        0,
        "a warm sweep rebuilt an executor",
    )
    gates.require_at_most(
        "sweep_overhead/rows-projected-over-distinct-tokens",
        excess_rows,
        0,
        "a sweep projected a token more than once",
    )
    row = {
        "batch": FRESH_BATCH,
        "modes": len(ExecutionMode),
        "samples": REPEATS,
        "run_wall_s": wall / REPEATS,
        "exec_wall_s": exec_wall / REPEATS,
        "overhead_share": (wall - exec_wall) / wall,
        "statistic": "mean per sweep",
        "tokens_per_sweep": FRESH_BATCH * config.model.seq_length,
        "distinct_tokens_per_sweep": [distinct for *_, distinct in samples],
        "rows_projected_per_sweep": [rows for _, _, rows, _ in samples],
        "executors_constructed_warmup": constructed_warmup,
        "executors_constructed_after_warmup": constructed_after,
    }
    print(
        f"{'sweep':10s} five modes {row['run_wall_s'] * 1e3:8.2f} ms   "
        f"outside run_batch {row['overhead_share']:5.3f} of it (no gate)   "
        f"rows projected {max(row['rows_projected_per_sweep'])} of "
        f"{row['tokens_per_sweep']} tokens x 5 modes "
        f"(gate <= distinct {min(row['distinct_tokens_per_sweep'])})   "
        f"executors built after warm-up {constructed_after} (gate 0)"
    )
    return row


def resident_bytes(gates: GateSet) -> dict:
    """What an executor adds to the memory its network already holds.

    A small LM-shaped server model (H=256, two layers, 4096-word embedding
    and per-timestep head: 25 MB of fp64 parameters) run in streaming INTRA
    at :data:`RESIDENT_SHAPES`. ``held_bytes`` is ``tracemalloc``'s count
    of everything still alive after construction and warm-up — the
    executor, its program cache and every compiled program — with the
    outputs dropped. A count, not a timing: it repeats exactly.

    The same cache then serves :data:`RESIDENT_BATCH_SHAPE` batches in two
    modes (INTRA and BASELINE: two more programs per layer), and the
    second gate reads its workspace arenas: their bytes must not exceed
    the largest single program layout times the dispatch slots in use —
    beside it, ``layout_sum_bytes`` is what the same programs would hold
    if each owned its workspace.
    """
    config = LSTMConfig(hidden_size=256, num_layers=2, seq_length=64, input_size=256)
    network = LSTMNetwork(
        config, vocab_size=4096, num_classes=4096, seed=11, per_timestep_head=True
    )
    weight_bytes = sum(array.nbytes for array in network.parameters())
    row: dict = {
        "hidden_size": config.hidden_size,
        "num_layers": config.num_layers,
        "shapes": [list(shape) for shape in RESIDENT_SHAPES],
        "weight_bytes": weight_bytes,
        "max_share": MAX_RESIDENT_SHARE,
    }
    states = np.zeros((config.num_layers, 8, config.hidden_size))
    for backend, (available, reason) in backend_availability().items():
        if not available:
            row[backend] = {"skipped": reason}
            continue
        execution = ExecutionConfig(
            mode=ExecutionMode.INTRA, alpha_intra=0.05, backend=backend
        )
        # Untraced first: the cgen library build/load is per process, not
        # per executor.
        LSTMExecutor(network, execution).run_stream(
            np.zeros((1, 1), dtype=np.int64), states[:, :1].copy(), states[:, :1].copy()
        )
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        executor = LSTMExecutor(network, execution)
        for batch, chunk in RESIDENT_SHAPES:
            executor.run_stream(
                np.zeros((batch, chunk), dtype=np.int64),
                states[:, :batch].copy(),
                states[:, :batch].copy(),
            )
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        share = held / weight_bytes
        gates.require_at_most(
            f"resident-bytes/{backend}",
            share,
            MAX_RESIDENT_SHARE,
            "executor + warmed programs over the network's weight bytes",
        )
        cache = executor.program_cache
        batch_tokens = np.zeros(RESIDENT_BATCH_SHAPE, dtype=np.int64)
        for config_of_mode in (execution, replace(execution, mode=ExecutionMode.BASELINE)):
            LSTMExecutor(network, config_of_mode, program_cache=cache).run_batch(batch_tokens)
        layouts = [program.workspace_nbytes for _, program in cache.items()]
        arenas = cache.arenas()
        workspace = sum(arena.nbytes for arena in arenas.values())
        gates.require_at_most(
            f"resident-bytes/{backend}/workspace",
            workspace,
            max(layouts) * len(arenas),
            "arena bytes over the largest single program layout x slots used "
            "(slab alignment is part of a layout)",
        )
        row[backend] = {
            "held_bytes": held,
            "share": share,
            "programs": len(cache),
            "workspace_bytes": workspace,
            "largest_layout_bytes": max(layouts),
            "layout_sum_bytes": sum(layouts),
            "slots": len(arenas),
        }
        print(
            f"{'resident':10s} {backend:6s} holds {held / 1e6:6.2f} MB beside "
            f"{weight_bytes / 1e6:6.2f} MB of weights   "
            f"{share:5.3f} (gate <= {MAX_RESIDENT_SHARE})   "
            f"workspace {workspace / 1e6:5.2f} MB in {len(arenas)} arena(s) "
            f"(gate <= largest layout {max(layouts) / 1e6:5.2f} MB x slots; "
            f"the {len(cache)} programs' layouts sum to {sum(layouts) / 1e6:5.2f} MB)"
        )
    return row


def recorder_overhead(
    network: LSTMNetwork, tokens: np.ndarray, repeats: int = RECORDER_REPEATS
) -> dict:
    """Measure the enabled-Recorder overhead on the combined workload.

    Times **one** executor instance with its recorder detached and
    attached on alternating repeats (warmed up, min-of-N like
    :func:`time_group`), and checks that recording never changes a
    logits bit relative to the same executor run without it (the run's
    grade against the reference is the mode gates' business). A single
    toggled instance matters here: two separately
    constructed executors land their workspaces at different heap
    offsets and carry a persistent few-percent wall-clock bias either
    way — larger than the sub-millisecond recording cost this gate
    bounds. Toggling ``executor.recorder`` on one instance keeps every
    buffer, cache, and program identical between the two phases, so the
    difference is exactly the recording work.
    """
    config = mode_config(ExecutionMode.COMBINED)
    recorder = Recorder()
    executor = LSTMExecutor(
        network, config, plan_cache=PlanCache(), recorder=recorder
    )

    out_recorded = executor.run_batch(tokens)
    executor.recorder = None
    out_plain = executor.run_batch(tokens)
    bit_identical = bool(np.array_equal(out_recorded.logits, out_plain.logits))

    samples_plain: list[float] = []
    samples_recorded: list[float] = []
    for _ in range(WARMUP):
        executor.recorder = None
        executor.run_batch(tokens)
        executor.recorder = recorder
        executor.run_batch(tokens)
    with gc_paused():
        for _ in range(repeats):
            recorder.clear()
            executor.recorder = None
            start = time.perf_counter()
            executor.run_batch(tokens)
            samples_plain.append(time.perf_counter() - start)
            executor.recorder = recorder
            start = time.perf_counter()
            executor.run_batch(tokens)
            samples_recorded.append(time.perf_counter() - start)
    t_plain = min(samples_plain)
    t_recorded = min(samples_recorded)
    return {
        "plain_s": t_plain,
        "recorded_s": t_recorded,
        "overhead_ratio": t_recorded / t_plain,
        "max_overhead_ratio": MAX_RECORDER_OVERHEAD,
        "bit_identical": bit_identical,
    }


def mode_row(
    mode: ExecutionMode, network: LSTMNetwork, tokens: np.ndarray, gates: GateSet
) -> dict:
    """One mode on the replayed 64-sequence batch against the reference:
    speedup, oracle grade, steady recompiles and int8 weight traffic."""
    config = mode_config(mode)
    times: list[float] | None = None
    compile_wall_cold = 0.0
    identical = True
    for attempt in range(CONSTRUCTIONS):
        compiled = LSTMExecutor(network, config, plan_cache=PlanCache())
        reference = ReferenceExecutor(network, config)

        out_c = compiled.run_batch(tokens)
        if attempt == 0:
            compile_wall_cold = out_c.timings["compile_wall_s"]
            out_r = reference.run_batch(tokens)
            grade, identical = grade_check(out_c, out_r, compiled.exact)
            gates.require_true(
                f"{mode.value}/{grade}",
                identical,
                "compiled output differs from reference beyond its oracle grade",
            )

        sample = time_group([compiled, reference], tokens)
        times = (
            sample
            if times is None
            else [min(a, b) for a, b in zip(times, sample)]
        )
        # Compile time must never contaminate the gates: every program
        # was built during warm-up, so a steady-state run recompiles
        # nothing.
        compile_wall_steady = compiled.run_batch(tokens).timings[
            "compile_wall_s"
        ]
        gates.require_at_most(
            f"{mode.value}/steady-recompile-s",
            compile_wall_steady,
            0.0,
            "a timed steady-state run recompiled a program",
        )
    t_compiled, t_reference = times

    speedup = t_reference / t_compiled
    gate = MIN_SPEEDUP[mode.value]
    gates.require_at_least(
        f"{mode.value}/speedup", speedup, gate, "compiled vs reference"
    )
    traffic = weight_traffic(network, tokens, config)
    traffic_gate = (
        MIN_INT8_COMBINED_TRAFFIC_REDUCTION
        if mode is ExecutionMode.COMBINED
        else None
    )
    traffic["min_traffic_reduction"] = traffic_gate
    if traffic_gate is not None:
        gates.require_at_least(
            f"{mode.value}/int8-traffic-reduction",
            traffic["traffic_reduction"],
            traffic_gate,
        )
    row = {
        "batched_s": t_compiled,
        "reference_s": t_reference,
        "speedup": speedup,
        "min_speedup": gate,
        "compile_wall_cold_s": compile_wall_cold,
        "compile_wall_steady_s": compile_wall_steady,
        "compile_excluded_from_gates": True,
        "oracle_grade": grade,
        "meets_grade": identical,
        "weight_traffic": traffic,
    }
    print(
        f"{mode.value:10s} compiled {t_compiled * 1e3:8.2f} ms   "
        f"reference {t_reference * 1e3:8.2f} ms   "
        f"{speedup:5.2f}x (gate {gate:.1f}x)   "
        f"compile {compile_wall_cold * 1e3:6.2f} ms cold   "
        f"int8 traffic {traffic['traffic_reduction']:4.2f}x less   "
        f"{grade}={identical}"
    )
    return row


def recorder_row(network: LSTMNetwork, tokens: np.ndarray, gates: GateSet) -> dict:
    """The recorder gates on the replayed 64-sequence batch."""
    recorder = recorder_overhead(network, tokens)
    gates.require_true(
        "recorder/bit-identical",
        recorder["bit_identical"],
        "recording changed the logits",
    )
    gates.require_at_most(
        "recorder/overhead-ratio",
        recorder["overhead_ratio"],
        recorder["max_overhead_ratio"],
        "wall-clock overhead of an enabled recorder",
    )
    print(
        f"{'recorder':10s} off      {recorder['plain_s'] * 1e3:8.2f} ms   "
        f"on          {recorder['recorded_s'] * 1e3:8.2f} ms   "
        f"{recorder['overhead_ratio']:5.3f}x (gate {recorder['max_overhead_ratio']:.2f}x)   "
        f"bit-identical={recorder['bit_identical']}"
    )
    return recorder


#: The modes timed against the reference on the replayed batch.
MODES = (ExecutionMode.BASELINE, ExecutionMode.INTER, ExecutionMode.INTRA, ExecutionMode.COMBINED)

#: Every row's name, in report order: the mode rows, the standalone rows,
#: then the recorder.
ROW_NAMES = (
    *(mode.value for mode in MODES),
    "combined_fresh",
    "combined_vs_baseline",
    "exact_slabs",
    "resident_bytes",
    "sweep_overhead",
    "recorder",
)


def run(only: str | None = None) -> tuple[dict, GateSet]:
    """Run every row (or just ``only``) and check its gates."""
    network, tokens = build_case()
    gates = GateSet("executor")
    rows = {mode.value: functools.partial(mode_row, mode, network, tokens) for mode in MODES}
    rows.update(
        combined_fresh=combined_fresh,
        combined_vs_baseline=combined_vs_baseline,
        exact_slabs=exact_slabs,
        resident_bytes=resident_bytes,
        sweep_overhead=sweep_overhead,
        recorder=functools.partial(recorder_row, network, tokens),
    )
    results = {name: rows[name](gates) for name in ROW_NAMES if only in (None, name)}
    recorder = results.pop("recorder", None)
    return {
        "workload": {
            "num_sequences": NUM_SEQUENCES,
            "hidden_size": 64,
            "num_layers": 2,
            "seq_length": 64,
        },
        "timing": {
            "warmup_iterations": WARMUP,
            "repeats": REPEATS,
            "constructions": CONSTRUCTIONS,
            "recorder_repeats": RECORDER_REPEATS,
            "statistic": "min",
            "gc_paused_during_sampling": True,
            "compile_excluded_from_gates": True,
        },
        "results": results,
        "recorder": recorder,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }, gates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        metavar="ROW",
        choices=ROW_NAMES,
        help="run just this row and its gates and write no JSON (rows: %(choices)s)",
    )
    args = parser.parse_args(argv)
    report, gates = run(args.only)
    if args.only is None:
        out_path = pathlib.Path(__file__).parent.parent / "BENCH_executor.json"
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
