"""Experiment functions regenerating every table and figure of the paper.

Each ``figXX_*`` function returns plain data (dicts/lists) and a rendered
text report; the ``benchmarks/`` suite calls them under pytest-benchmark and
prints the reports, and ``EXPERIMENTS.md`` records the paper-vs-measured
comparison. An :class:`ExperimentContext` caches workloads and threshold
sweeps so one benchmark session builds each application exactly once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.config import APP_NAMES, TABLE2_APPS, USER_IMPERCEPTIBLE_ACCURACY
from repro.core.executor import ZERO_PRUNE_FRACTION, ExecutionMode
from repro.core.plan import PlanCache
from repro.core.trace_builder import forced_tissue_layer_trace
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import GPUSpec, TEGRA_X1
from repro.workloads.apps import Workload, WorkloadEvaluation, build_workload
from repro.workloads.userstudy import ReplayProgram, UserStudy, sample_participants
from repro.bench.reporting import format_cache_stats, format_series, format_table

if TYPE_CHECKING:
    from repro.obs.recorder import Recorder

#: Sequences used when a figure needs kernel traces (stall/bandwidth/layer
#: breakdowns) — traces are deterministic per sequence, so few are needed.
TRACE_SEQUENCES: int = 3


def default_apps() -> tuple[str, ...]:
    """Applications exercised by the harness.

    ``REPRO_BENCH_APPS`` (comma separated) restricts the set — useful for
    quick runs; the default is all six Table II applications.
    """
    env = os.environ.get("REPRO_BENCH_APPS")
    if env:
        return tuple(name.strip().upper() for name in env.split(",") if name.strip())
    return APP_NAMES


@dataclass
class ExperimentContext:
    """Shared, cached state for one benchmark session.

    ``seed`` is the *single* reproducibility root: workload construction,
    threshold sweeps, and the user-study panel/replay randomness are all
    derived from it, so two contexts with the same seed regenerate every
    figure identically. ``recorder`` optionally captures the traced
    experiment runs as :class:`~repro.obs.record.RunRecord` objects.
    """

    seed: int = 0
    spec: GPUSpec = TEGRA_X1
    target_accuracy: float = USER_IMPERCEPTIBLE_ACCURACY
    plan_cache: PlanCache = field(default_factory=PlanCache)
    recorder: "Recorder | None" = None
    _workloads: dict[str, Workload] = field(default_factory=dict)
    _sweeps: dict[tuple, list[WorkloadEvaluation]] = field(default_factory=dict)
    _tuned_combined: dict[str, WorkloadEvaluation] = field(default_factory=dict)

    def derived_seed(self, *scope: object) -> int:
        """A child seed deterministically derived from ``seed`` and a scope.

        Every experiment needing its own random stream (e.g. the Fig. 18
        user study) draws from here instead of hard-coding a free-floating
        seed, keeping the whole session reproducible from ``self.seed``.
        """
        entropy = [int(self.seed)] + [
            s if isinstance(s, int) else int.from_bytes(str(s).encode(), "little")
            for s in scope
        ]
        return int(np.random.SeedSequence(entropy).generate_state(1)[0])

    def workload(self, name: str) -> Workload:
        """Build (once) and return one application workload."""
        key = name.upper()
        if key not in self._workloads:
            self._workloads[key] = build_workload(
                key, seed=self.seed, spec=self.spec, plan_cache=self.plan_cache
            )
        return self._workloads[key]

    def cache_report(self) -> str:
        """Rendered hit/miss statistics of the session's shared plan cache."""
        return format_cache_stats(self.plan_cache.stats)

    def sweep(self, name: str, mode: ExecutionMode) -> list[WorkloadEvaluation]:
        """Threshold sweep (cached) for one app and mode."""
        key = (name.upper(), mode)
        if key not in self._sweeps:
            self._sweeps[key] = self.workload(name).threshold_sweep(mode)
        return self._sweeps[key]

    def ao_evaluation(
        self, name: str, mode: ExecutionMode
    ) -> WorkloadEvaluation:
        """The AO (accuracy-oriented) operating point of one mode."""
        sweep = self.sweep(name, mode)
        return sweep[Workload.ao_index(sweep, self.target_accuracy)]

    def combined_tuned(self, name: str) -> WorkloadEvaluation:
        """The combined system at per-knob AO thresholds (Fig. 14).

        The two thresholds are tuned independently (the Fig. 10 offline flow
        adjusts each knob against the accuracy budget), then verified
        together; on a miss, the knob whose back-off costs the least
        speedup is relaxed until the measured accuracy meets the target.
        """
        key = name.upper()
        if key in self._tuned_combined:
            return self._tuned_combined[key]
        workload = self.workload(name)
        schedule = workload.app.calibration.schedule()
        inter_sweep = self.sweep(name, ExecutionMode.INTER)
        intra_sweep = self.sweep(name, ExecutionMode.INTRA)
        j = Workload.ao_index(inter_sweep, self.target_accuracy)
        k = Workload.ao_index(intra_sweep, self.target_accuracy)
        best = None
        while True:
            candidate = workload.evaluate(
                ExecutionMode.COMBINED,
                alpha_inter=schedule[j].alpha_inter,
                alpha_intra=schedule[k].alpha_intra,
            )
            if candidate.accuracy >= self.target_accuracy:
                best = candidate
                break
            if j == 0 and k == 0:
                best = workload.evaluate(ExecutionMode.BASELINE)
                break
            # Back off the knob with the cheaper speedup sacrifice.
            inter_cost = (
                inter_sweep[j].speedup - inter_sweep[j - 1].speedup if j > 0 else np.inf
            )
            intra_cost = (
                intra_sweep[k].speedup - intra_sweep[k - 1].speedup if k > 0 else np.inf
            )
            if inter_cost <= intra_cost:
                j -= 1
            else:
                k -= 1
        self._tuned_combined[key] = best
        return best

    def traced_outcomes(self, name: str, mode: ExecutionMode, **kwargs):
        """(baseline, optimized) outcomes with kernel traces retained.

        When the context carries a :attr:`recorder`, both runs emit
        :class:`~repro.obs.record.RunRecord` objects (labelled with the
        application name), so a figure regeneration doubles as a trace
        capture session.
        """
        workload = self.workload(name)
        tokens = workload.dataset.tokens[:TRACE_SEQUENCES]
        base = workload.app.run(
            tokens,
            mode=ExecutionMode.BASELINE,
            keep_traces=True,
            recorder=self.recorder,
            label=name,
        )
        if mode is ExecutionMode.BASELINE:
            return base, base
        out = workload.app.run(
            tokens,
            mode=mode,
            keep_traces=True,
            recorder=self.recorder,
            label=name,
            **kwargs,
        )
        return base, out


_DEFAULT_CONTEXT: ExperimentContext | None = None


def get_context() -> ExperimentContext:
    """The session-wide shared context (created on first use)."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ExperimentContext()
    return _DEFAULT_CONTEXT


# --------------------------------------------------------------------- T1/T2


def table1_platform(ctx: ExperimentContext | None = None) -> str:
    """Table I: the simulated platform specification."""
    ctx = ctx or get_context()
    spec = ctx.spec
    rows = [
        ("System", spec.name),
        ("GPU", f"{spec.num_sms * spec.cores_per_sm} cores @ {spec.clock_hz / 1e6:.0f} MHz"),
        ("Peak FP32", f"{spec.peak_flops / 1e9:.0f} GFLOP/s"),
        ("Memory BW", f"{spec.dram_bandwidth / 1e9:.1f} GB/s"),
        ("L2 cache", f"{spec.l2_bytes // 1024} KB"),
        ("Shared mem/SM", f"{spec.shared_mem_per_sm // 1024} KB"),
    ]
    return format_table(["Item", "Value"], rows, title="Table I — platform")


def table2_applications(ctx: ExperimentContext | None = None) -> str:
    """Table II: the evaluated NLP applications."""
    rows = [
        (a.name, a.family.value, a.model.hidden_size, a.model.num_layers, a.model.seq_length)
        for a in TABLE2_APPS.values()
    ]
    return format_table(
        ["Name", "Task", "Hidden_Size", "Layers", "Length"],
        rows,
        title="Table II — applications",
    )


# ----------------------------------------------------------------- Fig 4 / 6


def fig04_stall_breakdown(ctx: ExperimentContext | None = None, apps=None):
    """Fig. 4: contribution of each factor to Sgemv pipeline stalls."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    data = {}
    for name in apps:
        base, _ = ctx.traced_outcomes(name, ExecutionMode.BASELINE)
        stalls = base.traces[0].stall_breakdown("sgemv")
        stalls["sgemv_time_share"] = base.traces[0].time_fraction("sgemv")
        data[name] = stalls
    headers = ["App", "off-chip mem", "on-chip mem", "sync", "other", "Sgemv time share"]
    rows = [
        (
            name,
            f"{d['off_chip_memory']:.1%}",
            f"{d['on_chip_memory']:.1%}",
            f"{d['synchronization']:.1%}",
            f"{d['other']:.1%}",
            f"{d['sgemv_time_share']:.1%}",
        )
        for name, d in data.items()
    ]
    return data, format_table(headers, rows, title="Fig. 4 — Sgemv stall-cycle breakdown")


def fig06_bandwidth_utilization(ctx: ExperimentContext | None = None, apps=None):
    """Fig. 6: off-chip vs on-chip bandwidth utilization during Sgemv."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    data = {}
    for name in apps:
        base, _ = ctx.traced_outcomes(name, ExecutionMode.BASELINE)
        trace = base.traces[0]
        data[name] = {
            "off_chip": trace.mean_utilization("dram", "sgemv"),
            "on_chip": trace.mean_utilization("onchip", "sgemv"),
        }
    rows = [
        (name, f"{d['off_chip']:.1%}", f"{d['on_chip']:.1%}") for name, d in data.items()
    ]
    return data, format_table(
        ["App", "off-chip util", "on-chip util"],
        rows,
        title="Fig. 6 — bandwidth utilization during Sgemv",
    )


# --------------------------------------------------------------------- Fig 9


def fig09_tissue_size_sweep(
    ctx: ExperimentContext | None = None, apps=None, max_tissue_size: int = 10
):
    """Fig. 9: normalized layer performance vs tissue size; MTS knee."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    simulator = TimingSimulator(ctx.spec)
    data = {}
    blocks = []
    for name in apps:
        model = TABLE2_APPS[name].model
        times, utils = [], []
        for size in range(1, max_tissue_size + 1):
            trace = simulator.run_trace(
                forced_tissue_layer_trace(ctx.spec, model.hidden_size, model.seq_length, size)
            )
            times.append(trace.total_time)
            utils.append(trace.mean_utilization("onchip", "sgemm"))
        perf = [times[0] / t for t in times]
        mts = int(np.argmax(perf)) + 1
        data[name] = {"performance": perf, "onchip_utilization": utils, "mts": mts}
        blocks.append(
            format_series(
                f"{name} (MTS={mts})",
                list(range(1, max_tissue_size + 1)),
                [round(p, 2) for p in perf],
                x_label="tissue",
                y_label="perf",
            )
        )
    return data, "Fig. 9 — layer performance vs tissue size\n" + "\n".join(blocks)


# -------------------------------------------------------------------- Fig 14


def fig14_overall(ctx: ExperimentContext | None = None, apps=None):
    """Fig. 14: speedup and energy saving of inter / intra / combined."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    data = {}
    for name in apps:
        inter = ctx.ao_evaluation(name, ExecutionMode.INTER)
        intra = ctx.ao_evaluation(name, ExecutionMode.INTRA)
        combined = ctx.combined_tuned(name)
        data[name] = {"inter": inter, "intra": intra, "combined": combined}
    rows = []
    for name, d in data.items():
        rows.append(
            (
                name,
                f"{d['inter'].speedup:.2f}x/{d['inter'].energy_saving:.1%}",
                f"{d['intra'].speedup:.2f}x/{d['intra'].energy_saving:.1%}",
                f"{d['combined'].speedup:.2f}x/{d['combined'].energy_saving:.1%}",
                f"{d['combined'].accuracy:.1%}",
            )
        )
    means = {
        mode: (
            float(np.mean([d[mode].speedup for d in data.values()])),
            float(np.mean([d[mode].energy_saving for d in data.values()])),
        )
        for mode in ("inter", "intra", "combined")
    }
    rows.append(
        (
            "MEAN",
            f"{means['inter'][0]:.2f}x/{means['inter'][1]:.1%}",
            f"{means['intra'][0]:.2f}x/{means['intra'][1]:.1%}",
            f"{means['combined'][0]:.2f}x/{means['combined'][1]:.1%}",
            "",
        )
    )
    report = format_table(
        ["App", "inter (speed/energy)", "intra", "combined", "combined acc."],
        rows,
        title="Fig. 14 — overall speedup and energy saving (98% accuracy target)",
    )
    return data, means, report


# -------------------------------------------------------------------- Fig 15


def fig15_per_layer(ctx: ExperimentContext | None = None, apps=None):
    """Fig. 15: per-layer inter-cell speedup and energy saving."""
    ctx = ctx or get_context()
    apps = apps or [n for n in default_apps() if TABLE2_APPS[n].model.num_layers > 1]
    data = {}
    rows = []
    for name in apps:
        inter = ctx.ao_evaluation(name, ExecutionMode.INTER)
        base, out = ctx.traced_outcomes(
            name, ExecutionMode.INTER, alpha_inter=inter.alpha_inter
        )
        layers = TABLE2_APPS[name].model.num_layers
        per_layer = []
        for layer in range(layers):
            tag = f"layer{layer}"
            bt = sum(k.time for tr in base.traces for k in tr.kernels if k.tag == tag)
            be = sum(k.energy for tr in base.traces for k in tr.kernels if k.tag == tag)
            ot = sum(k.time for tr in out.traces for k in tr.kernels if k.tag == tag)
            oe = sum(k.energy for tr in out.traces for k in tr.kernels if k.tag == tag)
            per_layer.append({"speedup": bt / ot, "energy_saving": 1.0 - oe / be})
        data[name] = per_layer
        for layer, stats in enumerate(per_layer):
            rows.append(
                (name, layer + 1, f"{stats['speedup']:.2f}x", f"{stats['energy_saving']:.1%}")
            )
    return data, format_table(
        ["App", "Layer", "Speedup", "Energy saving"],
        rows,
        title="Fig. 15 — per-layer inter-cell gains (earlier layers divide more)",
    )


# -------------------------------------------------------------------- Fig 16


def fig16_compression_schemes(ctx: ExperimentContext | None = None, apps=None):
    """Fig. 16: zero-pruning vs software DRS vs hardware DRS."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    data = {}
    for name in apps:
        workload = ctx.workload(name)
        intra_sweep = ctx.sweep(name, ExecutionMode.INTRA)
        ao = Workload.ao_index(intra_sweep, ctx.target_accuracy)
        hardware = intra_sweep[ao]
        # Software DRS skips the rows the CRM skips: the bar is the sweep's
        # INTRA execution at the AO threshold, priced with DRS in software.
        # Set 0 is the baseline's execution, which is INTRA's at alpha 0.
        executed = hardware.outcome
        if ao == 0:
            intra = workload.app.execution_config(ExecutionMode.INTRA, alpha_intra=0.0)
            executed = replace(executed, config=intra)
        software = workload.app.price(executed, drs_style="software")
        pruned = workload.evaluate(ExecutionMode.ZERO_PRUNE)
        from repro.nn.pruning import prune_cell_weights

        _, prune_stats = prune_cell_weights(
            workload.app.network.layers[0].weights, ZERO_PRUNE_FRACTION
        )
        data[name] = {
            "zero_pruning": {
                "compression": prune_stats.compression_ratio,
                "speedup": pruned.speedup,
                "energy_saving": pruned.energy_saving,
            },
            "software_drs": {
                "compression": 0.75 * software.mean_skip_fraction,
                "speedup": software.speedup_vs(workload.baseline),
                "energy_saving": software.energy_saving_vs(workload.baseline),
            },
            "hardware_drs": {
                "compression": 0.75 * hardware.mean_skip_fraction,
                "speedup": hardware.speedup,
                "energy_saving": hardware.energy_saving,
            },
        }
    rows = []
    for name, d in data.items():
        for scheme in ("zero_pruning", "software_drs", "hardware_drs"):
            s = d[scheme]
            rows.append(
                (
                    name,
                    scheme,
                    f"{s['compression']:.1%}",
                    f"{s['speedup']:.2f}x",
                    f"{s['energy_saving']:.1%}",
                )
            )
    means = {
        scheme: {
            metric: float(np.mean([d[scheme][metric] for d in data.values()]))
            for metric in ("compression", "speedup", "energy_saving")
        }
        for scheme in ("zero_pruning", "software_drs", "hardware_drs")
    }
    for scheme, m in means.items():
        rows.append(
            (
                "MEAN",
                scheme,
                f"{m['compression']:.1%}",
                f"{m['speedup']:.2f}x",
                f"{m['energy_saving']:.1%}",
            )
        )
    report = format_table(
        ["App", "Scheme", "Compression", "Speedup", "Energy saving"],
        rows,
        title="Fig. 16 — weight-compression schemes",
    )
    return data, means, report


# -------------------------------------------------------------------- Fig 17


def fig17_model_capacity(
    ctx: ExperimentContext | None = None,
    hidden_sizes=(128, 256, 512),
    lengths=(43, 86, 172),
    indices=(0, 2, 4, 6, 8, 10),
):
    """Fig. 17: BABI performance-accuracy trade-offs vs model capacity."""
    from repro.workloads.apps import build_scaled_workload

    ctx = ctx or get_context()
    data = {"hidden": {}, "length": {}}
    blocks = []
    base_app = TABLE2_APPS["BABI"]
    for hidden in hidden_sizes:
        workload = build_scaled_workload(
            "BABI", hidden_size=hidden, seed=ctx.seed, spec=ctx.spec, num_sequences=24
        )
        sweep = workload.threshold_sweep(ExecutionMode.COMBINED, indices=list(indices))
        series = [(e.speedup, e.accuracy) for e in sweep]
        data["hidden"][hidden] = series
        blocks.append(
            format_series(
                f"hidden={hidden} length={base_app.model.seq_length}",
                [f"{s:.2f}x" for s, _ in series],
                [f"{a:.2f}" for _, a in series],
                x_label="speedup",
                y_label="accuracy",
            )
        )
    for length in lengths:
        workload = build_scaled_workload(
            "BABI", seq_length=length, seed=ctx.seed, spec=ctx.spec, num_sequences=24
        )
        sweep = workload.threshold_sweep(ExecutionMode.COMBINED, indices=list(indices))
        series = [(e.speedup, e.accuracy) for e in sweep]
        data["length"][length] = series
        blocks.append(
            format_series(
                f"hidden={base_app.model.hidden_size} length={length}",
                [f"{s:.2f}x" for s, _ in series],
                [f"{a:.2f}" for _, a in series],
                x_label="speedup",
                y_label="accuracy",
            )
        )
    return data, "Fig. 17 — BABI capacity trade-offs\n" + "\n".join(blocks)


# -------------------------------------------------------------------- Fig 18


def fig18_user_study(
    ctx: ExperimentContext | None = None, apps=None, seed: int | None = None
):
    """Fig. 18: simulated user-satisfaction scores per scheme.

    The participant panel and the replay-rating stream are seeded from
    ``ctx.seed`` (via :meth:`ExperimentContext.derived_seed`), so the
    experiment is reproducible from the single context seed like every
    other figure; pass ``seed`` only to override the derivation.
    """
    ctx = ctx or get_context()
    apps = apps or default_apps()
    if seed is not None:
        participant_seed = replay_seed = seed
    else:
        participant_seed = ctx.derived_seed("fig18", "participants")
        replay_seed = ctx.derived_seed("fig18", "replays")
    participants = sample_participants(seed=participant_seed)
    data = {}
    for name in apps:
        sweep = ctx.sweep(name, ExecutionMode.COMBINED)
        replay = ReplayProgram(sweep)
        study = UserStudy(replay, participants=participants, seed=replay_seed)
        result = study.run(
            ao_index=Workload.ao_index(sweep, ctx.target_accuracy),
            bpa_index=Workload.bpa_index(sweep),
        )
        data[name] = result.scores
    schemes = ("baseline", "AO", "BPA", "UO")
    rows = [
        (name, *(f"{scores[s]:.2f}" for s in schemes)) for name, scores in data.items()
    ]
    rows.append(
        ("MEAN", *(f"{np.mean([d[s] for d in data.values()]):.2f}" for s in schemes))
    )
    return data, format_table(
        ["App", *schemes], rows, title="Fig. 18 — user satisfaction (1-5)"
    )


# -------------------------------------------------------------------- Fig 19


def fig19_threshold_sweep(ctx: ExperimentContext | None = None, apps=None):
    """Fig. 19: speedup and accuracy across threshold sets 0..10."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    data = {}
    blocks = []
    for name in apps:
        sweep = ctx.sweep(name, ExecutionMode.COMBINED)
        ao = Workload.ao_index(sweep, ctx.target_accuracy)
        bpa = Workload.bpa_index(sweep)
        data[name] = {"sweep": sweep, "ao": ao, "bpa": bpa}
        blocks.append(
            format_series(
                f"{name} (AO=set{ao}, BPA=set{bpa})",
                [f"{e.speedup:.2f}x" for e in sweep],
                [f"{e.accuracy:.2f}" for e in sweep],
                x_label="speedup",
                y_label="accuracy",
            )
        )
    return data, "Fig. 19 — threshold sets 0..10 (combined system)\n" + "\n".join(blocks)


# -------------------------------------------------------------- Section VI-F


def overheads_section6f(ctx: ExperimentContext | None = None, apps=None):
    """Section VI-F: optimization overheads (time and energy)."""
    ctx = ctx or get_context()
    apps = apps or default_apps()
    data = {}
    for name in apps:
        base, inter0 = ctx.traced_outcomes(
            name, ExecutionMode.INTER, alpha_inter=1e-300
        )
        _, intra0 = ctx.traced_outcomes(name, ExecutionMode.INTRA, alpha_intra=0.0)
        inter_time = inter0.mean_time / base.mean_time - 1.0
        inter_energy = inter0.mean_energy / base.mean_energy - 1.0
        intra_time = intra0.mean_time / base.mean_time - 1.0
        intra_energy = intra0.mean_energy / base.mean_energy - 1.0
        # CRM overhead of the actual AO intra run, measured from traces.
        intra_ao = ctx.ao_evaluation(name, ExecutionMode.INTRA)
        _, intra_run = ctx.traced_outcomes(
            name, ExecutionMode.INTRA, alpha_intra=intra_ao.alpha_intra
        )
        crm_time = 0.0
        crm_energy = 0.0
        total = sum(tr.total_time for tr in intra_run.traces)
        total_e = sum(tr.total_energy for tr in intra_run.traces)
        frac = ctx.spec.crm_time_overhead
        for tr in intra_run.traces:
            for k in tr.kernels:
                crm_time += k.exec_time * frac / (1.0 + frac) if k.energy_parts.get("crm") else 0.0
                crm_energy += k.energy_parts.get("crm", 0.0)
        data[name] = {
            "inter_time": inter_time,
            "inter_energy": inter_energy,
            "intra_time": intra_time,
            "intra_energy": intra_energy,
            "crm_time": crm_time / total,
            "crm_energy": crm_energy / total_e,
        }
    rows = [
        (
            name,
            f"{d['inter_time']:.2%}",
            f"{d['inter_energy']:.2%}",
            f"{d['intra_time']:.2%}",
            f"{d['intra_energy']:.2%}",
            f"{d['crm_time']:.2%}",
            f"{d['crm_energy']:.2%}",
        )
        for name, d in data.items()
    ]
    mean_keys = (
        "inter_time", "inter_energy", "intra_time", "intra_energy", "crm_time", "crm_energy"
    )
    means = [f"{np.mean([d[k] for d in data.values()]):.2%}" for k in mean_keys]
    rows.append(("MEAN", *means))
    return data, format_table(
        ["App", "inter t", "inter E", "intra t", "intra E", "CRM t", "CRM E"],
        rows,
        title="Section VI-F — optimization overheads",
    )


# ----------------------------------------------------------------- ablations


def ablation_tissue_alignment(ctx: ExperimentContext | None = None, app: str = "PTB"):
    """DESIGN.md §6: tissue alignment on/off.

    Naive formation (Fig. 8 b1) produces fat tissues that oversubscribe the
    shared-memory bandwidth and thin tissues that barely reuse the weights;
    alignment balances them under the MTS. Compares the simulated time of
    the same division executed both ways.
    """
    from repro.core.plan import CachedLayerPlan, LayerPlanRecord, SequencePlan
    from repro.core.trace_builder import build_kernel_trace

    ctx = ctx or get_context()
    model = TABLE2_APPS[app].model
    seq = model.seq_length
    # An uneven division: many short sub-layers plus one long tail.
    breaks = list(range(2, seq // 2, 2))
    relevance = np.ones(seq)
    relevance[breaks] = 0.0  # the only links below the threshold of 0.5
    mts = ctx.workload(app).app.calibration.mts

    def run(tissue_size):
        plan = CachedLayerPlan.from_relevance(relevance, seq, 0.5, tissue_size)
        zeros = np.zeros(plan.num_tissues)  # no DRS: nothing skips
        record = LayerPlanRecord(
            layer_index=0,
            hidden_size=model.hidden_size,
            input_size=model.effective_input_size,
            plan=plan,
            skip=zeros,
            warp=zeros,
        )
        trace = build_kernel_trace(SequencePlan(layers=[record]), ctx.spec, inter=True, intra=False)
        return simulator.run_trace(trace), plan.num_tissues

    simulator = TimingSimulator(ctx.spec)
    # Naive formation (Fig. 8 b1) is alignment with room for every sub-layer.
    (naive, naive_tissues), (aligned, aligned_tissues) = run(len(breaks) + 1), run(mts)
    gain = naive.total_time / aligned.total_time
    report = format_table(
        ["Scheme", "Time (ms)", "Tissues"],
        [
            ("naive formation", naive.total_time * 1e3, naive_tissues),
            ("aligned (MTS)", aligned.total_time * 1e3, aligned_tissues),
            ("alignment gain", f"{gain:.2f}x", ""),
        ],
        title=f"Ablation — tissue alignment ({app}, MTS={mts})",
    )
    return {"naive": naive.total_time, "aligned": aligned.total_time, "gain": gain}, report


def ablation_predicted_link(ctx: ExperimentContext | None = None, app: str = "MT"):
    """DESIGN.md §6: Eq. 6 predicted link vs a zero vector at breakpoints."""
    from repro.core.context_prediction import PredictedLink
    from repro.core.executor import ExecutionConfig, LSTMExecutor

    ctx = ctx or get_context()
    workload = ctx.workload(app)
    calibration = workload.app.calibration
    schedule = calibration.schedule()
    alpha = schedule[6].alpha_inter
    config = ExecutionConfig(
        mode=ExecutionMode.INTER,
        alpha_inter=alpha,
        mts=calibration.mts,
    )
    hidden = workload.app.network.config.hidden_size
    tokens = workload.dataset.tokens

    with_pred = LSTMExecutor(
        workload.app.network, config, predicted_links=calibration.predicted_links
    ).run_batch(tokens)
    with_zero = LSTMExecutor(
        workload.app.network,
        config,
        predicted_links=[PredictedLink.zeros(hidden)] * workload.app.network.num_layers,
    ).run_batch(tokens)

    acc_pred = workload.dataset.accuracy(with_pred.predictions())
    acc_zero = workload.dataset.accuracy(with_zero.predictions())
    report = format_table(
        ["Link at breakpoints", "Accuracy"],
        [
            ("Eq. 6 predicted vector", f"{acc_pred:.1%}"),
            ("zero vector", f"{acc_zero:.1%}"),
        ],
        title=f"Ablation — accuracy recovery ({app}, threshold set 6)",
    )
    return {"predicted": acc_pred, "zero": acc_zero}, report


def ablation_large_gpu(ctx: ExperimentContext | None = None, app: str = "MR"):
    """Section II-C: on a large GPU the weights fit on-chip, so the
    per-cell re-load problem (and hence the inter-cell gain) shrinks."""
    from repro.gpu.specs import TESLA_M40

    ctx = ctx or get_context()
    workload = ctx.workload(app)
    tokens = workload.dataset.tokens[:TRACE_SEQUENCES]
    # One execution, priced on the mobile GPU by the run and on the M40 after.
    mobile = workload.app.run(tokens, mode=ExecutionMode.BASELINE, keep_traces=True)
    server = workload.app.price(mobile, TESLA_M40, keep_traces=True)

    def reload_ratio(outcome) -> float:
        trace = outcome.traces[0]
        weight_bytes = TABLE2_APPS[app].model.recurrent_weight_bytes
        sgemv_bytes = sum(k.dram_bytes for k in trace.kernels if k.name == "sgemv")
        return sgemv_bytes / weight_bytes

    mobile_ratio = reload_ratio(mobile)
    server_ratio = reload_ratio(server)
    report = format_table(
        ["Platform", "U re-load amplification"],
        [
            (ctx.spec.name, f"{mobile_ratio:.1f}x"),
            (TESLA_M40.name, f"{server_ratio:.1f}x"),
        ],
        title=f"Ablation — mobile vs large GPU ({app}): per-cell weight re-loads",
    )
    return {"mobile": mobile_ratio, "server": server_ratio}, report


def ablation_exact_relevance(ctx: ExperimentContext | None = None, app: str = "MR"):
    """DESIGN.md §6: the paper's Algorithm 2 vs exact interval overlaps."""
    from repro.core.executor import ExecutionConfig, LSTMExecutor

    ctx = ctx or get_context()
    workload = ctx.workload(app)
    calibration = workload.app.calibration
    tokens = workload.dataset.tokens[:4]

    def breakpoints_with(exact: bool) -> float:
        config = ExecutionConfig(
            mode=ExecutionMode.INTER,
            alpha_inter=calibration.alpha_inter_max,
            mts=calibration.mts,
            use_exact_relevance=exact,
        )
        executor = LSTMExecutor(
            workload.app.network, config, predicted_links=calibration.predicted_links
        )
        result = executor.run_batch(tokens)
        return float(np.mean([p.total_breakpoints for p in result.plans]))

    paper = breakpoints_with(False)
    exact = breakpoints_with(True)
    report = format_table(
        ["Relevance formula", "Breakpoints/sequence"],
        [("Algorithm 2 (paper)", f"{paper:.1f}"), ("exact overlap", f"{exact:.1f}")],
        title=f"Ablation — relevance formula ({app}, alpha at upper limit)",
    )
    return {"paper": paper, "exact": exact}, report

