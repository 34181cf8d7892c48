"""Quantization regression gate: accuracy and bytes-moved vs the fp64 policy.

Runs the acceptance workload of ``bench_executor_regression`` under every
weight-storage policy x execution mode combination and enforces the
quantized-weight-memory contract:

* the **fp64 policy is a strict no-op** — logits meet the oracle grade
  against the frozen :class:`repro.core.reference.ReferenceExecutor` in
  all five modes: bit-identical in the stepwise modes, graded in COMBINED
  (quantization must never perturb the default path),
* **end-task accuracy** under fp16/int8 storage stays within the
  documented tolerance of the fp64 predictions per mode (prediction
  agreement; the paper's Δ-accuracy metric),
* **per-element error bound** — ``|deq(q(x)) - x| <= scale / 2`` holds
  for every int8-quantized weight matrix of the network (the symmetric
  per-row scheme's worst case is half a quantization step),
* **weight traffic**: int8 storage must cut the measured host weight
  bytes moved by >= 3x in combined mode (scale vectors and the
  never-skipped o-gate rows keep it below the raw 8x storage ratio).

Writes ``BENCH_quant.json`` and exits non-zero on any gate failure::

    PYTHONPATH=src python benchmarks/bench_quantization.py
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import replace

import numpy as np

from repro.bench.gates import GateSet, grade_check
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.plan import PlanCache
from repro.core.reference import ReferenceExecutor
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import TEGRA_X1
from repro.nn.network import LSTMNetwork
from repro.nn.quantize import Precision, quantize_matrix

#: Documented accuracy tolerance: minimum prediction agreement with the
#: fp64 policy per storage policy. fp16's 2^-11 relative rounding never
#: moves an argmax on this head; int8's per-row step can flip borderline
#: predictions, bounded at 2 % of sequences on the acceptance workload.
MIN_AGREEMENT: dict[str, float] = {
    "fp16": 1.0,
    "int8": 0.98,
}

#: int8 combined-mode traffic gate (matches bench_executor_regression).
MIN_INT8_COMBINED_TRAFFIC_REDUCTION = 3.0

NUM_SEQUENCES = 64

MODES = (
    ExecutionMode.BASELINE,
    ExecutionMode.INTER,
    ExecutionMode.INTRA,
    ExecutionMode.COMBINED,
    ExecutionMode.ZERO_PRUNE,
)


def build_case() -> tuple[LSTMNetwork, np.ndarray]:
    """The bench_executor_regression acceptance workload."""
    config = LSTMConfig(hidden_size=64, num_layers=2, seq_length=64, input_size=64)
    network = LSTMNetwork(config, vocab_size=200, num_classes=8, seed=11)
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 200, size=(NUM_SEQUENCES, config.seq_length))
    return network, tokens


def mode_config(mode: ExecutionMode) -> ExecutionConfig:
    if mode is ExecutionMode.COMBINED:
        return ExecutionConfig(mode=mode, alpha_inter=1e12, alpha_intra=0.05, mts=5)
    if mode is ExecutionMode.INTER:
        return ExecutionConfig(mode=mode, alpha_inter=1e12, mts=5)
    if mode is ExecutionMode.INTRA:
        return ExecutionConfig(mode=mode, alpha_intra=0.05)
    return ExecutionConfig(mode=mode)


def error_bound_check(network: LSTMNetwork) -> dict:
    """Worst-case int8 round-trip error over every W/U matrix vs scale/2."""
    precision = Precision.parse("int8")
    worst_ratio = 0.0
    matrices = 0
    for layer in network.layers:
        weights = layer.weights
        for name in ("w_f", "w_i", "w_c", "w_o", "u_f", "u_i", "u_c", "u_o"):
            matrix = np.asarray(getattr(weights, name))
            q = quantize_matrix(matrix, precision)
            err = np.abs(q.dequantize() - matrix)
            half_step = np.where(q.scales > 0.0, q.scales / 2.0, np.inf)
            ratio = float((err / half_step[:, None]).max()) if err.size else 0.0
            worst_ratio = max(worst_ratio, ratio)
            matrices += 1
    return {
        "matrices_checked": matrices,
        "worst_error_over_half_step": worst_ratio,
        "bound_holds": worst_ratio <= 1.0,
    }


def traffic(executor: LSTMExecutor, plans) -> tuple[float, float]:
    """Summed (fp64, moved) host weight bytes over every sequence trace."""
    simulator = TimingSimulator(TEGRA_X1)
    fp64 = moved = 0.0
    for plan in plans:
        trace = simulator.run_trace(executor.kernel_trace(plan, TEGRA_X1))
        fp64 += trace.total_weight_bytes_fp64
        moved += trace.total_weight_bytes_moved
    return fp64, moved


def run() -> tuple[dict, GateSet]:
    network, tokens = build_case()
    results: dict[str, dict] = {}
    gates = GateSet("quant")
    for mode in MODES:
        config = mode_config(mode)
        reference = ReferenceExecutor(network, config)
        out_ref = reference.run_batch(tokens)

        per_mode: dict[str, dict] = {}
        fp64_exec = LSTMExecutor(network, config, plan_cache=PlanCache())
        out_fp64 = fp64_exec.run_batch(tokens)
        grade, fp64_meets = grade_check(out_fp64, out_ref, fp64_exec.exact)
        gates.require_true(
            f"{mode.value}/fp64-{grade}",
            fp64_meets,
            "fp64 policy does not meet its oracle grade against the reference",
        )
        per_mode["fp64"] = {"oracle_grade": grade, "meets_grade": fp64_meets}

        base_pred = out_fp64.predictions()
        for tag in ("fp16", "int8"):
            executor = LSTMExecutor(
                network, replace(config, precision=tag), plan_cache=PlanCache()
            )
            out = executor.run_batch(tokens)
            agreement = float(np.mean(out.predictions() == base_pred))
            gate = MIN_AGREEMENT[tag]
            gates.require_at_least(
                f"{mode.value}/{tag}/agreement",
                agreement,
                gate,
                "prediction agreement with the fp64 policy",
            )
            bytes_fp64, bytes_moved = traffic(executor, out.plans)
            reduction = bytes_fp64 / bytes_moved if bytes_moved > 0.0 else 1.0
            per_mode[tag] = {
                "agreement_with_fp64": agreement,
                "min_agreement": gate,
                "bytes_moved_fp64": bytes_fp64,
                "bytes_moved_quant": bytes_moved,
                "traffic_reduction": reduction,
            }
            print(
                f"{mode.value:10s} {tag:5s} agreement {agreement:.4f} "
                f"(gate {gate:.2f})   traffic {reduction:4.2f}x less"
            )
        results[mode.value] = per_mode

    int8_combined = results["combined"]["int8"]["traffic_reduction"]
    gates.require_at_least(
        "combined/int8/traffic-reduction",
        int8_combined,
        MIN_INT8_COMBINED_TRAFFIC_REDUCTION,
    )

    bound = error_bound_check(network)
    gates.require_at_most(
        "int8/error-over-half-step",
        bound["worst_error_over_half_step"],
        1.0,
        "per-element |deq - x| / (scale/2)",
    )
    print(
        f"error bound: {bound['matrices_checked']} matrices, worst "
        f"|deq-x|/(scale/2) = {bound['worst_error_over_half_step']:.4f}"
    )

    return {
        "workload": {
            "num_sequences": NUM_SEQUENCES,
            "hidden_size": 64,
            "num_layers": 2,
            "seq_length": 64,
        },
        "min_int8_combined_traffic_reduction": MIN_INT8_COMBINED_TRAFFIC_REDUCTION,
        "results": results,
        "error_bound": bound,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }, gates


def main() -> int:
    report, gates = run()
    out_path = pathlib.Path(__file__).parent.parent / "BENCH_quant.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
