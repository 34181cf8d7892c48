"""The recorder API — zero overhead when disabled.

A :class:`Recorder` is handed to :meth:`repro.core.pipeline.OptimizedLSTM.
run` (or attached to a standalone :class:`~repro.core.executor.
LSTMExecutor`). Instrumented code asks it for a :class:`RunBuilder` via
:meth:`Recorder.start_run`; a disabled recorder returns ``None`` from that
single call, so the instrumented hot paths reduce to one ``is not None``
check and **no observation objects are ever allocated**. All conversion
from live simulator/executor state into plain-data records happens inside
the builder, only when recording is on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs import record as _record

if TYPE_CHECKING:
    from repro.core.plan import SequencePlan
    from repro.gpu.trace import TraceSummary


class Recorder:
    """Collects :class:`~repro.obs.record.RunRecord` objects.

    Args:
        enabled: When ``False`` the recorder is inert: :meth:`start_run`
            returns ``None`` and nothing is allocated or stored.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list[_record.RunRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def start_run(
        self,
        label: str = "",
        mode: str = "",
        spec: str = "",
        batch: int = 0,
        seq_length: int = 0,
        config: dict | None = None,
    ) -> "RunBuilder | None":
        """Begin recording one execution; ``None`` when disabled."""
        if not self.enabled:
            return None
        return RunBuilder(
            self,
            label=label,
            mode=mode,
            spec=spec,
            batch=batch,
            seq_length=seq_length,
            config=config,
        )

    def last(self) -> _record.RunRecord:
        """The most recently finished record."""
        if not self.records:
            raise ConfigurationError("recorder holds no records yet")
        return self.records[-1]

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()


class RunBuilder:
    """Accumulates one :class:`~repro.obs.record.RunRecord`.

    Obtained from :meth:`Recorder.start_run`; call the ``observe_*``
    methods as the run progresses and :meth:`finish` once, which appends
    the completed record to the owning recorder.
    """

    def __init__(
        self,
        recorder: Recorder,
        label: str = "",
        mode: str = "",
        spec: str = "",
        batch: int = 0,
        seq_length: int = 0,
        config: dict | None = None,
    ) -> None:
        self._recorder = recorder
        self._run = _record.RunRecord(
            label=label,
            mode=mode,
            spec=spec,
            batch=batch,
            seq_length=seq_length,
            config=dict(config) if config else {},
        )
        self._sequences: dict[int, _record.SequenceObservation] = {}
        self._finished = False

    def _sequence(self, seq_index: int) -> _record.SequenceObservation:
        seq = self._sequences.get(seq_index)
        if seq is None:
            seq = _record.SequenceObservation(seq_index=seq_index)
            self._sequences[seq_index] = seq
        return seq

    def observe_plan(self, seq_index: int, plan: "SequencePlan") -> None:
        """Record one sequence's structural plan (per-layer counters)."""
        seq = self._sequence(seq_index)
        for rec in plan.layers:
            seq.layers.append(
                _record.LayerObservation(
                    layer_index=rec.layer_index,
                    hidden_size=rec.hidden_size,
                    seq_length=rec.seq_length,
                    num_breakpoints=len(rec.breakpoints),
                    num_sublayers=rec.num_sublayers,
                    num_tissues=rec.num_tissues,
                    mean_tissue_size=rec.mean_tissue_size,
                    mean_skip_fraction=rec.mean_skip_fraction,
                    mean_warp_skip_fraction=rec.mean_warp_skip_fraction,
                )
            )

    def observe_trace(self, seq_index: int, summary: "TraceSummary") -> None:
        """Record one sequence's simulated kernel trace."""
        seq = self._sequence(seq_index)
        base = seq.num_launches
        for k, stats in enumerate(summary.kernels):
            self._run.kernels.append(
                _record.KernelEvent(
                    seq_index=seq_index,
                    index=base + k,
                    name=stats.name,
                    tag=stats.tag,
                    time_s=stats.time,
                    exec_s=stats.exec_time,
                    t_compute_s=stats.t_compute,
                    t_dram_s=stats.t_dram,
                    t_onchip_s=stats.t_onchip,
                    flops=stats.flops,
                    dram_bytes=stats.dram_bytes,
                    onchip_bytes=stats.onchip_bytes,
                    energy_j=stats.energy,
                    stall_cycles=dict(stats.stall_cycles),
                    weight_bytes_fp64=stats.weight_bytes_fp64,
                    weight_bytes_moved=stats.weight_bytes_moved,
                    weight_bytes_skipped=stats.weight_bytes_skipped,
                )
            )
        seq.num_launches += len(summary.kernels)
        seq.simulated_time_s += summary.total_time
        seq.simulated_energy_j += summary.total_energy

    def _merge_cache_delta(self, counters: tuple[str, ...], before: dict, after: dict) -> None:
        """Merge per-run counter deltas into the record's ``cache`` dict.

        Merging (instead of replacing) lets the plan-cache and
        program-cache deltas share one flat dict — the schema keeps
        ``cache`` as an open counter mapping, so new families of counters
        need no version bump and :func:`repro.obs.merge.merge_run_records`
        sums them key-wise like any other.
        """
        if self._run.cache is None:
            self._run.cache = {}
        for key in counters:
            self._run.cache[key] = int(after.get(key, 0)) - int(before.get(key, 0))

    def observe_cache_delta(self, before: dict, after: dict) -> None:
        """Record the plan-cache counter delta attributable to this run.

        Args:
            before / after: Snapshots of :meth:`repro.core.plan.
                PlanCacheStats.as_dict` taken around the run.
        """
        self._merge_cache_delta(
            (
                "relevance_hits",
                "relevance_misses",
                "plan_hits",
                "plan_misses",
                "evictions",
            ),
            before,
            after,
        )

    def observe_program_cache_delta(self, before: dict, after: dict) -> None:
        """Record the program-cache counter delta attributable to this run.

        Args:
            before / after: Snapshots of :meth:`repro.core.program.
                ProgramCacheStats.as_dict` taken around the run.
        """
        self._merge_cache_delta(
            ("program_hits", "program_misses", "program_evictions"),
            before,
            after,
        )

    def set_timing(self, **timings: float) -> None:
        """Merge wall-clock figures (``wall_s``, ``exec_wall_s``, ...)."""
        for key, value in timings.items():
            self._run.timing[key] = float(value)

    def finish(self) -> _record.RunRecord:
        """Seal the record and append it to the recorder."""
        if self._finished:
            raise ConfigurationError("run builder already finished")
        self._finished = True
        run = self._run
        run.sequences = [self._sequences[i] for i in sorted(self._sequences)]
        run.simulated = {
            "time_s": sum(s.simulated_time_s for s in run.sequences),
            "energy_j": sum(s.simulated_energy_j for s in run.sequences),
            "num_launches": sum(s.num_launches for s in run.sequences),
        }
        self._recorder.records.append(run)
        return run
