"""Normative names of the benchmark: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is the copy the driver reads;
``test_smoke.py`` checks that the two agree. Anything simulated (TX1
model time, energy, DRAM traffic) carries a ``sim_`` / ``simulator.``
name and a ``sim_*`` unit; every other number is host wall clock or a
host-side count.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

MODES = ("baseline", "inter", "intra", "combined", "zero_prune")

#: Threshold set every optimized mode runs at (``--set 5`` on the CLI).
THRESHOLD_SET = 5

#: How long one run measures, and how many process-level set-ups a run
#: takes the median of (the copy in BENCHMARK.json is ``run_seconds``).
RUN_SECONDS = 15
SETUP_SAMPLES = 2

WORKLOADS = {
    "batch_combined": (
        "closed loop, 1 client: run_batch on BABI batch 8, COMBINED set 5, fresh tokens per "
        "request; plan + CombinedGroupProgram + row projection work, streaming and cgen idle"
    ),
    "stream_multi": (
        "open loop on the real clock: 75 sessions/s into StreamingServer (BABI, INTRA set 5, "
        "cgen, max_batch 8, chunk 4); admission, batching and cgen stepwise work, plan idle"
    ),
    "stream_lm_single": (
        "closed loop, 1 session, token by token on PTB (H=650, 10k-class head), BASELINE numpy; "
        "weight streaming and the head dominate, batching and planning are bypassed"
    ),
    "paper_sweep": (
        "closed loop, 1 client: OptimizedLSTM.run over all five modes on IMDB batch 4; the only "
        "workload through trace_builder, simulator and per-run executor construction"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen;
    #: ``None`` for per-layer metrics, which have no bound.
    bound: float | None = None


#: ``agreement`` and ``sim_*`` are deterministic for a given code base, so
#: their bound only has to absorb float printing; any real change in them
#: is far larger (one flipped prediction moves ``agreement`` by >= 6 %).
EXACT = 0.001

#: The issue asks for 10 / 10 / 20 % on the first three. The sandbox does
#: not resolve that: ten runs of one commit spread up to 18 % on these
#: (24 % on the open loop's p99) after the host correction, and 20-33 %
#: before it, and the driver's time cap leaves no room to lengthen the run.
#: 0.25 is the widest bound the contract allows (README: measured spread).
END_TO_END = (
    Metric("tokens_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("agreement", "share", "higher", EXACT),
    Metric("sim_speedup", "sim_x", "higher", EXACT),
    Metric("sim_energy_saving", "sim_share", "higher", EXACT),
)

#: ``failed_fraction`` is the ninth end-to-end number. It is 0 on a healthy
#: run, which a relative bound cannot express, so the driver reads it from
#: the ``attempted`` / ``failed`` keys of the result line instead and the
#: runner's own reports print it with this absolute bound.
FAILED_FRACTION_BOUND = 0.005

#: p99 needs this many timed requests to have ten samples beyond it.
P99_MIN_SAMPLES = 1000


def _per_mode(template: str, unit: str, better: str) -> list[Metric]:
    return [Metric(template.format(mode=mode), unit, better) for mode in MODES]


PER_LAYER = (
    # program (numpy lowering)
    Metric("program.project.us_per_token", "us", "lower"),
    Metric("program.execute.us_per_step.b1", "us", "lower"),
    Metric("program.execute.us_per_step.b8", "us", "lower"),
    Metric("program.cache.hit_rate", "share", "higher"),
    Metric("program.cache.evictions_per_request", "count", "lower"),
    Metric("program.compile.ms_per_request", "ms", "lower"),
    # cgen (generated-C lowering)
    Metric("cgen.execute.us_per_step.b1", "us", "lower"),
    Metric("cgen.execute.us_per_step.b8", "us", "lower"),
    Metric("cgen.speedup.b1", "x", "higher"),
    Metric("cgen.speedup.b8", "x", "higher"),
    Metric("cgen.build.s", "s", "lower"),
    # plan
    Metric("plan.relevance.ms_per_seq", "ms", "lower"),
    Metric("plan.layer_plan.ms_per_seq", "ms", "lower"),
    Metric("plan.cache.plan_hit_rate", "share", "higher"),
    Metric("plan.breakpoints_per_seq", "count", "higher"),
    Metric("plan.mean_tissue_size", "count", "higher"),
    Metric("plan.skip_fraction", "share", "higher"),
    # executor
    *_per_mode("executor.run_batch.{mode}.us_per_token.b1", "us", "lower"),
    *_per_mode("executor.run_batch.{mode}.us_per_token.b8", "us", "lower"),
    Metric("executor.run_batch.combined.exec_ms", "ms", "lower"),
    Metric("executor.run_batch.combined.plan_ms", "ms", "lower"),
    Metric("executor.run_batch.self_ms", "ms", "lower"),
    Metric("executor.run_stream.ms.b1", "ms", "lower"),
    Metric("executor.run_stream.ms.b8", "ms", "lower"),
    *_per_mode("executor.bit_identical.{mode}", "bool", "higher"),
    *_per_mode("executor.max_abs_err.{mode}", "abs", "lower"),
    # nn
    Metric("nn.embed.us_per_token", "us", "lower"),
    Metric("nn.head_logits.us_per_row.cls", "us", "lower"),
    Metric("nn.head_logits.us_per_row.lm", "us", "lower"),
    Metric("nn.weights.mb", "MB", "lower"),
    # streaming
    Metric("streaming.submit.us", "us", "lower"),
    Metric("streaming.tick.ms", "ms", "lower"),
    Metric("streaming.tick.exec_share", "share", "higher"),
    Metric("streaming.tick.batch_mean", "count", "higher"),
    Metric("streaming.tick.count", "count", "lower"),
    Metric("streaming.queue_wait_ms_mean", "ms", "lower"),
    Metric("streaming.busy_fraction", "share", "lower"),
    Metric("streaming.shed_chunks", "count", "lower"),
    Metric("streaming.session_evictions", "count", "lower"),
    Metric("streaming.slo_miss_fraction", "share", "lower"),
    # trace_builder / simulator / pipeline
    Metric("trace_builder.build.ms_per_seq", "ms", "lower"),
    Metric("trace_builder.kernels_per_seq", "count", "lower"),
    Metric("simulator.run_trace.ms_per_seq", "ms", "lower"),
    Metric("simulator.kernels_per_s", "1/s", "higher"),
    *_per_mode("simulator.sim_ms_per_seq.{mode}", "sim_ms", "lower"),
    *_per_mode("simulator.dram_mb_per_seq.{mode}", "sim_MB", "lower"),
    Metric("pipeline.run.overhead_ms", "ms", "lower"),
    Metric("pipeline.calibrate.s", "s", "lower"),
    # parallel
    Metric("parallel.run_batch.speedup_t2", "x", "higher"),
    Metric("parallel.dispatch.queue_wait_ms", "ms", "lower"),
    Metric("parallel.dispatch.busy_ms", "ms", "lower"),
    # obs / the benchmark's own driver
    Metric("obs.recorder.overhead_frac", "share", "lower"),
    Metric("trace.overhead_frac", "share", "lower"),
    Metric("loadgen.lateness_p99_ms", "ms", "lower"),
    Metric("loadgen.offered", "count", "higher"),
    Metric("loadgen.completed", "count", "higher"),
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) — always a measured sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's statistic)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else float("inf")
