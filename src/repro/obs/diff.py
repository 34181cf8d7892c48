"""Summarize one run record and diff two of them.

The diff answers the question every perf PR must answer: *which kernel
class moved?* Given a baseline and an optimized :class:`~repro.obs.
record.RunRecord` it attributes the simulated-time delta per kernel
family, compares the Fig. 4 stall mix, and reports the structural-counter
shifts (breakpoints found, tissues formed, rows skipped) that explain the
move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.record import RunRecord


@dataclass
class KernelClassDelta:
    """Per-kernel-family time and launch-count movement."""

    name: str
    base_time_s: float
    other_time_s: float
    base_launches: int
    other_launches: int

    @property
    def delta_s(self) -> float:
        """Signed time change (negative = the optimized run is faster)."""
        return self.other_time_s - self.base_time_s


@dataclass
class RunDiff:
    """Structured comparison of two run records."""

    base: RunRecord
    other: RunRecord
    kernel_deltas: list[KernelClassDelta] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Baseline simulated time over optimized simulated time."""
        if self.other.simulated_time_s == 0:
            raise ConfigurationError("cannot diff against a zero-time run")
        return self.base.simulated_time_s / self.other.simulated_time_s

    @property
    def energy_saving(self) -> float:
        """Fractional simulated energy saving of ``other`` vs ``base``."""
        if self.base.simulated_energy_j == 0:
            return 0.0
        return 1.0 - self.other.simulated_energy_j / self.base.simulated_energy_j


def diff_runs(base: RunRecord, other: RunRecord) -> RunDiff:
    """Diff two records down to the kernel class that moved.

    Deltas are sorted by absolute time movement, largest first.
    """
    base_times = base.time_by_kernel()
    other_times = other.time_by_kernel()
    base_counts = base.launches_by_kernel()
    other_counts = other.launches_by_kernel()
    names = sorted(set(base_times) | set(other_times))
    deltas = [
        KernelClassDelta(
            name=name,
            base_time_s=base_times.get(name, 0.0),
            other_time_s=other_times.get(name, 0.0),
            base_launches=base_counts.get(name, 0),
            other_launches=other_counts.get(name, 0),
        )
        for name in names
    ]
    deltas.sort(key=lambda d: abs(d.delta_s), reverse=True)
    return RunDiff(base=base, other=other, kernel_deltas=deltas)


def _split_cache_groups(
    cache: dict[str, int],
) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """Separate flat cache counters from ``group/metric`` namespaced ones.

    Multi-tenant merged records (:func:`repro.obs.merge.merge_run_records`
    with ``group_cache_by_label``) carry per-tenant attribution as keys
    like ``tenantA/program_hits``; single-run records carry flat keys.
    """
    flat: dict[str, int] = {}
    groups: dict[str, dict[str, int]] = {}
    for key, value in cache.items():
        if "/" in key:
            group, metric = key.rsplit("/", 1)
            groups.setdefault(group, {})[metric] = value
        else:
            flat[key] = value
    return flat, groups


def _cache_group_table(groups: dict[str, dict[str, int]], title: str) -> str:
    """Aligned per-group (tenant/model) cache-counter table."""
    from repro.bench.reporting import format_table

    metrics: list[str] = []
    for counters in groups.values():
        for metric in counters:
            if metric not in metrics:
                metrics.append(metric)
    metrics.sort()
    rows = [
        (group, *(str(groups[group].get(metric, 0)) for metric in metrics))
        for group in sorted(groups)
    ]
    return format_table(["Group", *metrics], rows, title=title)


def format_run_summary(record: RunRecord) -> str:
    """Human-readable summary of one run record."""
    from repro.bench.reporting import format_table

    header = (
        f"run {record.label or '(unlabelled)'} — mode={record.mode} "
        f"spec={record.spec} batch={record.batch} seq_length={record.seq_length}"
    )
    timing_bits = [f"{k}={v * 1e3:.2f}ms" for k, v in sorted(record.timing.items())]
    lines = [
        header,
        f"simulated: {record.simulated_time_s * 1e3:.3f} ms, "
        f"{record.simulated_energy_j * 1e3:.2f} mJ, "
        f"{record.num_launches} launches",
    ]
    if timing_bits:
        lines.append("wall-clock: " + "  ".join(timing_bits))
    counters = record.mean_counters()
    lines.append(
        "counters/seq: "
        f"breakpoints={counters['breakpoints']:.1f} "
        f"tissues={counters['tissues']:.1f} "
        f"mean_tissue_size={counters['tissue_size']:.2f} "
        f"skip_fraction={counters['skip_fraction']:.1%}"
    )
    if record.cache is not None:
        flat, groups = _split_cache_groups(record.cache)
        if flat:
            cache_bits = [f"{k}={v}" for k, v in sorted(flat.items())]
            lines.append("plan cache delta: " + "  ".join(cache_bits))
        if groups:
            lines.append(
                _cache_group_table(groups, title="Per-tenant cache hit/miss delta")
            )
    weight_bytes = record.weight_bytes_totals()
    if weight_bytes["fp64"] > 0:
        precision = record.config.get("precision", "fp64")
        reduction = (
            weight_bytes["fp64"] / weight_bytes["moved"]
            if weight_bytes["moved"] > 0
            else float("inf")
        )
        lines.append(
            f"weight bytes [{precision}]: "
            f"moved={weight_bytes['moved'] / 1e6:.3f}MB "
            f"skipped={weight_bytes['skipped'] / 1e6:.3f}MB "
            f"fp64-equivalent={weight_bytes['fp64'] / 1e6:.3f}MB "
            f"(reduction {reduction:.2f}x)"
        )

    times = record.time_by_kernel()
    counts = record.launches_by_kernel()
    total = record.simulated_time_s or 1.0
    rows = [
        (name, counts[name], f"{times[name] * 1e3:.3f}", f"{times[name] / total:.1%}")
        for name in sorted(times, key=times.get, reverse=True)
    ]
    lines.append(
        format_table(
            ["Kernel", "Launches", "Time (ms)", "Share"],
            rows,
            title="Per-kernel-class time",
        )
    )
    stalls = record.stall_totals()
    stall_total = sum(stalls.values())
    if stall_total > 0:
        rows = [
            (cat, f"{cycles:.3g}", f"{cycles / stall_total:.1%}")
            for cat, cycles in sorted(stalls.items(), key=lambda kv: -kv[1])
        ]
        lines.append(
            format_table(
                ["Stall category", "Cycles", "Share"],
                rows,
                title="Stall attribution (Fig. 4 categories)",
            )
        )
    return "\n".join(lines)


def format_diff(diff: RunDiff) -> str:
    """Render a :class:`RunDiff` as an aligned report."""
    from repro.bench.reporting import format_table

    base, other = diff.base, diff.other
    lines = [
        f"baseline:  {base.label or '(unlabelled)'} [{base.mode}] "
        f"{base.simulated_time_s * 1e3:.3f} ms",
        f"optimized: {other.label or '(unlabelled)'} [{other.mode}] "
        f"{other.simulated_time_s * 1e3:.3f} ms",
        f"speedup: {diff.speedup:.2f}x   energy saving: {diff.energy_saving:.1%}",
    ]
    base_wb = base.weight_bytes_totals()
    other_wb = other.weight_bytes_totals()
    if base_wb["moved"] > 0 and other_wb["moved"] > 0:
        lines.append(
            f"weight bytes moved: {base_wb['moved'] / 1e6:.3f}MB -> "
            f"{other_wb['moved'] / 1e6:.3f}MB "
            f"({base_wb['moved'] / other_wb['moved']:.2f}x reduction)"
        )
    base_groups = _split_cache_groups(base.cache or {})[1]
    other_groups = _split_cache_groups(other.cache or {})[1]
    if base_groups or other_groups:
        metrics: list[str] = []
        for groups in (base_groups, other_groups):
            for counters in groups.values():
                for metric in counters:
                    if metric not in metrics:
                        metrics.append(metric)
        metrics.sort()
        cache_rows = [
            (
                group,
                *(
                    f"{base_groups.get(group, {}).get(metric, 0)} -> "
                    f"{other_groups.get(group, {}).get(metric, 0)}"
                    for metric in metrics
                ),
            )
            for group in sorted(set(base_groups) | set(other_groups))
        ]
        lines.append(
            format_table(
                ["Group", *metrics],
                cache_rows,
                title="Per-tenant cache movement (base -> opt)",
            )
        )
    rows = [
        (
            d.name,
            f"{d.base_time_s * 1e3:.3f}",
            f"{d.other_time_s * 1e3:.3f}",
            f"{d.delta_s * 1e3:+.3f}",
            f"{d.base_launches} -> {d.other_launches}",
        )
        for d in diff.kernel_deltas
    ]
    lines.append(
        format_table(
            ["Kernel", "Base (ms)", "Opt (ms)", "Delta (ms)", "Launches"],
            rows,
            title="Per-kernel-class movement (largest first)",
        )
    )
    base_counters = base.mean_counters()
    other_counters = other.mean_counters()
    rows = [
        (key, f"{base_counters[key]:.2f}", f"{other_counters[key]:.2f}")
        for key in ("breakpoints", "tissues", "tissue_size", "skip_fraction")
    ]
    lines.append(
        format_table(
            ["Counter (per seq)", "Base", "Opt"], rows, title="Structural counters"
        )
    )
    return "\n".join(lines)
