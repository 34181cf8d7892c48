"""The :class:`RunRecord` schema — one auditable record per execution.

A record is a plain-data tree (dataclasses of floats/ints/strings) so it
serializes losslessly to JSON and back. Field semantics:

* :class:`KernelEvent` — one simulated kernel launch with its roofline
  times and Fig. 4 stall attribution, flattened across sequences.
* :class:`LayerObservation` — the structural counters of one layer of one
  sequence (breakpoints, tissues, skip fractions).
* :class:`SequenceObservation` — per-sequence simulated totals plus its
  layer observations.
* :class:`RunRecord` — the whole execution: configuration, wall-clock vs
  simulated time, plan-cache delta, sequences, kernels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.errors import ConfigurationError

#: Schema identifier stamped on every serialized record.
SCHEMA_ID: str = "repro.obs/run/v1"


@dataclass
class KernelEvent:
    """One simulated kernel launch inside a run.

    Attributes:
        seq_index: Which sequence of the batch launched it.
        index: Launch position within the sequence's serialized trace.
        name / tag: Kernel family and free-form label (layer index).
        time_s: Wall time including launch overhead (s).
        exec_s: On-GPU execution time (s).
        t_compute_s / t_dram_s / t_onchip_s: The three roofline times (s).
        flops: Useful floating-point operations.
        dram_bytes: Effective off-chip traffic after L2 reuse.
        onchip_bytes: Shared-memory traffic.
        energy_j: Whole-system energy (J).
        stall_cycles: Fig. 4 stall attribution (category -> cycles).
        weight_bytes_fp64: Host bytes the surviving weight elements would
            stream at float64 storage (0 for weight-free kernels).
        weight_bytes_moved: Host weight bytes streamed at the active
            precision (payload + scales, after row skip).
        weight_bytes_skipped: Dense-at-precision weight bytes DRS row
            skipping avoided loading.
    """

    seq_index: int
    index: int
    name: str
    tag: str
    time_s: float
    exec_s: float
    t_compute_s: float
    t_dram_s: float
    t_onchip_s: float
    flops: float
    dram_bytes: float
    onchip_bytes: float
    energy_j: float
    stall_cycles: dict[str, float] = field(default_factory=dict)
    weight_bytes_fp64: float = 0.0
    weight_bytes_moved: float = 0.0
    weight_bytes_skipped: float = 0.0


@dataclass
class LayerObservation:
    """Structural counters of one layer of one executed sequence."""

    layer_index: int
    hidden_size: int
    seq_length: int
    num_breakpoints: int
    num_sublayers: int
    num_tissues: int
    mean_tissue_size: float
    mean_skip_fraction: float
    mean_warp_skip_fraction: float


@dataclass
class SequenceObservation:
    """Per-sequence simulated totals plus layer-level structure."""

    seq_index: int
    simulated_time_s: float = 0.0
    simulated_energy_j: float = 0.0
    num_launches: int = 0
    layers: list[LayerObservation] = field(default_factory=list)


@dataclass
class RunRecord:
    """One execution, recorded end to end.

    ``timing`` holds host-side wall-clock figures (``wall_s`` overall,
    ``exec_wall_s`` numerics, ``plan_wall_s`` structural planning,
    ``compile_wall_s`` program lowering on cache misses, ``sim_wall_s``
    simulator); ``simulated`` holds the platform-plane totals the
    simulator produced. ``cache`` is an open counter mapping of per-run
    cache *deltas* — plan-cache counters (``relevance_*``/``plan_*``/
    ``evictions``) and program-cache counters (``program_*``) share it —
    or ``None`` when no cache was wired.
    """

    label: str = ""
    mode: str = ""
    spec: str = ""
    batch: int = 0
    seq_length: int = 0
    config: dict[str, object] = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)
    simulated: dict[str, float] = field(default_factory=dict)
    cache: dict[str, int] | None = None
    sequences: list[SequenceObservation] = field(default_factory=list)
    kernels: list[KernelEvent] = field(default_factory=list)

    # ------------------------------------------------------------- queries

    @property
    def simulated_time_s(self) -> float:
        """Total simulated time across the batch (s)."""
        return float(self.simulated.get("time_s", 0.0))

    @property
    def simulated_energy_j(self) -> float:
        """Total simulated energy across the batch (J)."""
        return float(self.simulated.get("energy_j", 0.0))

    @property
    def num_launches(self) -> int:
        """Total kernel launches across the batch."""
        return len(self.kernels)

    def time_by_kernel(self) -> dict[str, float]:
        """Simulated time per kernel family, over every sequence."""
        acc: dict[str, float] = {}
        for event in self.kernels:
            acc[event.name] = acc.get(event.name, 0.0) + event.time_s
        return acc

    def launches_by_kernel(self) -> dict[str, int]:
        """Launch count per kernel family."""
        acc: dict[str, int] = {}
        for event in self.kernels:
            acc[event.name] = acc.get(event.name, 0) + 1
        return acc

    def stall_totals(self) -> dict[str, float]:
        """Total stall cycles per Fig. 4 category, over every kernel."""
        acc: dict[str, float] = {}
        for event in self.kernels:
            for cat, cycles in event.stall_cycles.items():
                acc[cat] = acc.get(cat, 0.0) + cycles
        return acc

    def weight_bytes_totals(self) -> dict[str, float]:
        """Total weight-byte counters over every kernel event.

        Keys: ``fp64`` (surviving elements at float64 storage), ``moved``
        (streamed at the active precision) and ``skipped`` (avoided by
        DRS row skipping). ``fp64 / moved`` is the traffic-reduction
        factor of the active precision policy.
        """
        fp64 = moved = skipped = 0.0
        for event in self.kernels:
            fp64 += event.weight_bytes_fp64
            moved += event.weight_bytes_moved
            skipped += event.weight_bytes_skipped
        return {"fp64": fp64, "moved": moved, "skipped": skipped}

    def mean_counters(self) -> dict[str, float]:
        """Batch-averaged structural counters (breakpoints, tissues, skips)."""
        if not self.sequences:
            return {
                "breakpoints": 0.0,
                "tissues": 0.0,
                "tissue_size": 0.0,
                "skip_fraction": 0.0,
            }
        per_seq = []
        for seq in self.sequences:
            layers = seq.layers
            if not layers:
                per_seq.append((0.0, 0.0, 0.0, 0.0))
                continue
            n = len(layers)
            per_seq.append(
                (
                    float(sum(rec.num_breakpoints for rec in layers)),
                    float(sum(rec.num_tissues for rec in layers)),
                    sum(rec.mean_tissue_size for rec in layers) / n,
                    sum(rec.mean_skip_fraction for rec in layers) / n,
                )
            )
        count = len(per_seq)
        sums = [sum(col) for col in zip(*per_seq)]
        keys = ("breakpoints", "tissues", "tissue_size", "skip_fraction")
        return {k: s / count for k, s in zip(keys, sums)}

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Plain-dict form (schema-stamped, JSON-serializable)."""
        data = asdict(self)
        data["schema"] = SCHEMA_ID
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        schema = data.get("schema")
        if schema != SCHEMA_ID:
            raise ConfigurationError(
                f"unsupported run-record schema {schema!r} (expected {SCHEMA_ID!r})"
            )
        sequences = [
            SequenceObservation(
                seq_index=seq["seq_index"],
                simulated_time_s=seq["simulated_time_s"],
                simulated_energy_j=seq["simulated_energy_j"],
                num_launches=seq["num_launches"],
                layers=[LayerObservation(**layer) for layer in seq["layers"]],
            )
            for seq in data.get("sequences", [])
        ]
        kernels = [KernelEvent(**event) for event in data.get("kernels", [])]
        return cls(
            label=data.get("label", ""),
            mode=data.get("mode", ""),
            spec=data.get("spec", ""),
            batch=data.get("batch", 0),
            seq_length=data.get("seq_length", 0),
            config=dict(data.get("config", {})),
            timing=dict(data.get("timing", {})),
            simulated=dict(data.get("simulated", {})),
            cache=dict(data["cache"]) if data.get("cache") is not None else None,
            sequences=sequences,
            kernels=kernels,
        )
