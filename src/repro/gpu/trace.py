"""Result containers for the timing simulator.

:class:`KernelStats` carries the timing, stall, bandwidth and energy
breakdown of one launch; :class:`TraceSummary` aggregates a whole execution
(and is what the benchmark harness reports from).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import SimulationError

#: Stall categories attributed by the simulator (Fig. 4's x-axis).
STALL_CATEGORIES: tuple[str, ...] = (
    "off_chip_memory",
    "on_chip_memory",
    "synchronization",
    "other",
)


@dataclass
class KernelStats:
    """Simulated outcome of one kernel launch.

    Attributes:
        name / tag: Copied from the :class:`~repro.gpu.kernels.KernelLaunch`.
        time: Total wall time including launch overhead (s).
        exec_time: On-GPU execution time (s).
        t_compute / t_dram / t_onchip: The three roofline times (s).
        dram_bytes: Effective off-chip traffic after L2 reuse (bytes).
        compulsory_bytes: Off-chip traffic assuming an infinite L2 (bytes).
        onchip_bytes: Shared-memory traffic (bytes).
        flops: Useful flops.
        stall_cycles: Per-category pipeline stall cycles (Fig. 4).
        energy: Total energy (J), filled by the energy model.
        energy_parts: Energy per component (static/dram/compute/...).
        weight_bytes_fp64: Host bytes this kernel's surviving weight
            elements would stream at float64 storage (zero for kernels
            that read no weights).
        weight_bytes_moved: Host weight bytes actually streamed at the
            active precision (payload + scale vectors, after row skip).
        weight_bytes_skipped: Dense-at-precision weight bytes the DRS
            row skip avoided loading.
    """

    name: str
    tag: str
    time: float
    exec_time: float
    t_compute: float
    t_dram: float
    t_onchip: float
    dram_bytes: float
    compulsory_bytes: float
    onchip_bytes: float
    flops: float
    stall_cycles: dict[str, float] = field(default_factory=dict)
    energy: float = 0.0
    energy_parts: dict[str, float] = field(default_factory=dict)
    weight_bytes_fp64: float = 0.0
    weight_bytes_moved: float = 0.0
    weight_bytes_skipped: float = 0.0

    @property
    def dram_utilization(self) -> float:
        """Fraction of the kernel's execution spent at the DRAM roof."""
        return 0.0 if self.exec_time == 0 else min(1.0, self.t_dram / self.exec_time)

    def as_dict(self) -> dict:
        """Flat JSON-serializable form (consumed by :mod:`repro.obs`)."""
        return {
            "name": self.name,
            "tag": self.tag,
            "time_s": self.time,
            "exec_s": self.exec_time,
            "t_compute_s": self.t_compute,
            "t_dram_s": self.t_dram,
            "t_onchip_s": self.t_onchip,
            "dram_bytes": self.dram_bytes,
            "compulsory_bytes": self.compulsory_bytes,
            "onchip_bytes": self.onchip_bytes,
            "flops": self.flops,
            "energy_j": self.energy,
            "stall_cycles": dict(self.stall_cycles),
            "energy_parts": dict(self.energy_parts),
            "weight_bytes_fp64": self.weight_bytes_fp64,
            "weight_bytes_moved": self.weight_bytes_moved,
            "weight_bytes_skipped": self.weight_bytes_skipped,
        }

    @property
    def onchip_utilization(self) -> float:
        """Fraction of the kernel's execution spent at the shared-memory roof."""
        return 0.0 if self.exec_time == 0 else min(1.0, self.t_onchip / self.exec_time)


@dataclass
class TraceSummary:
    """Aggregate of a simulated kernel sequence."""

    kernels: list[KernelStats]

    @property
    def total_time(self) -> float:
        """End-to-end time (s) — kernels are serialized on mobile GPUs."""
        return sum(k.time for k in self.kernels)

    @property
    def total_energy(self) -> float:
        """Whole-system energy (J)."""
        return sum(k.energy for k in self.kernels)

    @property
    def total_dram_bytes(self) -> float:
        """Effective off-chip traffic (bytes)."""
        return sum(k.dram_bytes for k in self.kernels)

    @property
    def total_weight_bytes_fp64(self) -> float:
        """Host weight bytes the run would stream at float64 storage."""
        return sum(k.weight_bytes_fp64 for k in self.kernels)

    @property
    def total_weight_bytes_moved(self) -> float:
        """Host weight bytes actually streamed at the active precision."""
        return sum(k.weight_bytes_moved for k in self.kernels)

    @property
    def num_launches(self) -> int:
        """Number of kernel launches."""
        return len(self.kernels)

    def time_by_kernel(self) -> dict[str, float]:
        """Total time per kernel family."""
        acc: dict[str, float] = defaultdict(float)
        for k in self.kernels:
            acc[k.name] += k.time
        return dict(acc)

    def time_fraction(self, name: str) -> float:
        """Fraction of total time spent in one kernel family."""
        total = self.total_time
        if total == 0:
            raise SimulationError("empty trace has no time distribution")
        return self.time_by_kernel().get(name, 0.0) / total

    def stall_breakdown(self, name: str | None = None) -> dict[str, float]:
        """Normalized stall-cycle contributions (Fig. 4).

        Args:
            name: Restrict to one kernel family (e.g. ``"sgemv"``);
                ``None`` aggregates over all kernels.
        """
        acc: dict[str, float] = defaultdict(float)
        for k in self.kernels:
            if name is not None and k.name != name:
                continue
            for cat, cycles in k.stall_cycles.items():
                acc[cat] += cycles
        total = sum(acc.values())
        if total == 0:
            return {cat: 0.0 for cat in acc} or {}
        return {cat: cycles / total for cat, cycles in acc.items()}

    def mean_utilization(self, which: str, name: str | None = None) -> float:
        """Time-weighted mean DRAM (``"dram"``) or shared-memory
        (``"onchip"``) bandwidth utilization."""
        selected = [k for k in self.kernels if name is None or k.name == name]
        total = sum(k.exec_time for k in selected)
        if total == 0:
            return 0.0
        if which == "dram":
            return sum(k.dram_utilization * k.exec_time for k in selected) / total
        if which == "onchip":
            return sum(k.onchip_utilization * k.exec_time for k in selected) / total
        raise SimulationError(f"unknown utilization kind {which!r}")

    def speedup_vs(self, baseline: "TraceSummary") -> float:
        """Baseline time divided by this trace's time."""
        if self.total_time == 0:
            raise SimulationError("cannot compute speedup for a zero-time trace")
        return baseline.total_time / self.total_time

    def energy_saving_vs(self, baseline: "TraceSummary") -> float:
        """Fractional whole-system energy saving relative to ``baseline``."""
        if baseline.total_energy == 0:
            raise SimulationError("baseline trace has zero energy")
        return 1.0 - self.total_energy / baseline.total_energy
