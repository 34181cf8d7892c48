"""Benchmark harness: one experiment function per paper table/figure.

The functions here are consumed by the ``benchmarks/`` pytest-benchmark
suite and by the examples; they cache workloads and threshold sweeps so a
full benchmark session builds each application once.
"""

from repro.bench.harness import (
    ExperimentContext,
    ablation_exact_relevance,
    ablation_large_gpu,
    ablation_predicted_link,
    ablation_tissue_alignment,
    fig04_stall_breakdown,
    fig06_bandwidth_utilization,
    fig09_tissue_size_sweep,
    fig14_overall,
    fig15_per_layer,
    fig16_compression_schemes,
    fig17_model_capacity,
    fig18_user_study,
    fig19_threshold_sweep,
    overheads_section6f,
    table1_platform,
    table2_applications,
)
from repro.bench.deflake import (
    REPEATS,
    SHORT,
    WARMUP,
    gc_paused,
    pick,
    short_mode,
)
from repro.bench.gates import GateCheck, GateSet
from repro.bench.reporting import format_series, format_table

__all__ = [
    "ExperimentContext",
    "GateCheck",
    "GateSet",
    "REPEATS",
    "SHORT",
    "WARMUP",
    "ablation_exact_relevance",
    "ablation_large_gpu",
    "ablation_predicted_link",
    "ablation_tissue_alignment",
    "fig04_stall_breakdown",
    "fig06_bandwidth_utilization",
    "fig09_tissue_size_sweep",
    "fig14_overall",
    "fig15_per_layer",
    "fig16_compression_schemes",
    "fig17_model_capacity",
    "fig18_user_study",
    "fig19_threshold_sweep",
    "format_series",
    "format_table",
    "gc_paused",
    "pick",
    "short_mode",
    "overheads_section6f",
    "table1_platform",
    "table2_applications",
]
