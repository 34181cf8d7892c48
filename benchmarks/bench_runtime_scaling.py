"""Serving-runtime scaling gate: fleet throughput vs worker count.

Serves the executor-benchmark COMBINED workload through
:class:`repro.runtime.pool.InferenceRuntime` at 1, 2, and 4 workers
(plus a queue-depth sweep at the widest fleet), writes
``BENCH_runtime.json``, and exits non-zero unless

* 4 workers deliver >= 1.7x the 1-worker throughput, and
* every configuration's outputs are bit-identical to an in-process
  :class:`~repro.core.executor.LSTMExecutor` run per dispatch group (the
  runtime's numerics contract) *and* to each other across worker counts
  (grouping never depends on parallelism).

Scaling model: each worker sleeps a fixed *dwell* per served sequence,
modeling the mobile-GPU device occupancy of the simulator plane (the
host-side control loop is idle while the device runs — exactly what a
multi-device fleet overlaps). This keeps the gate meaningful on
single-core CI runners, where raw host compute cannot parallelize; the
dwell, the host CPU count, and the model are disclosed in the JSON so a
reader can judge the measurement.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.bench.gates import GateSet
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.nn.network import LSTMNetwork
from repro.runtime import InferenceRuntime, leaked_segments, plan_dispatch

#: Throughput at WORKER_COUNTS[-1] must be at least this multiple of the
#: single-worker throughput.
MIN_SCALING = 1.7

WORKER_COUNTS = (1, 2, 4)
QUEUE_DEPTHS = (1, 4, 16)
NUM_SEQUENCES = 64
MAX_BATCH = 8
#: Modeled per-sequence device dwell (s); see the module docstring.
DWELL_S = 0.025


def build_case() -> tuple[LSTMNetwork, np.ndarray, ExecutionConfig]:
    """The 64-sequence COMBINED acceptance workload (matches the executor bench)."""
    config = LSTMConfig(hidden_size=64, num_layers=2, seq_length=64, input_size=64)
    network = LSTMNetwork(config, vocab_size=200, num_classes=8, seed=11)
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 200, size=(NUM_SEQUENCES, config.seq_length))
    exec_config = ExecutionConfig(
        mode=ExecutionMode.COMBINED, alpha_inter=1e12, alpha_intra=0.05, mts=5
    )
    return network, tokens, exec_config


def serve_once(
    network: LSTMNetwork,
    tokens: np.ndarray,
    exec_config: ExecutionConfig,
    workers: int,
    queue_depth: int,
) -> tuple[dict, np.ndarray]:
    """One fleet run; startup/teardown excluded from the timed window."""
    runtime = InferenceRuntime(
        network,
        exec_config,
        workers=workers,
        max_batch=MAX_BATCH,
        queue_depth=queue_depth,
        dwell_s=DWELL_S,
    )
    with runtime:
        start = time.perf_counter()
        fleet = runtime.run_batch(tokens)
        wall_s = time.perf_counter() - start
    stats = {
        "workers": workers,
        "queue_depth": queue_depth,
        "shards": fleet.num_shards,
        "wall_s": wall_s,
        "throughput_seq_s": NUM_SEQUENCES / wall_s,
    }
    return stats, fleet.logits


def expected_logits(
    network: LSTMNetwork, tokens: np.ndarray, exec_config: ExecutionConfig
) -> np.ndarray:
    """Per-dispatch-group executor logits, reassembled in request order."""
    runtime = InferenceRuntime(network, exec_config, workers=0, max_batch=MAX_BATCH)
    executor = LSTMExecutor(network, exec_config)
    groups = plan_dispatch(tokens, runtime.max_batch)
    first = executor.run_batch(groups[0].tokens).logits
    logits = np.empty((tokens.shape[0],) + first.shape[1:], dtype=first.dtype)
    for number, group in enumerate(groups):
        out = first if number == 0 else executor.run_batch(group.tokens).logits
        for row, index in enumerate(group.indices):
            logits[index] = out[row]
    return logits


def run() -> tuple[dict, GateSet]:
    network, tokens, exec_config = build_case()
    reference = expected_logits(network, tokens, exec_config)
    gates = GateSet("runtime")

    scaling: list[dict] = []
    for workers in WORKER_COUNTS:
        stats, logits = serve_once(network, tokens, exec_config, workers, queue_depth=16)
        stats["bit_identical"] = bool(np.array_equal(logits, reference))
        gates.require_true(
            f"workers={workers}/bit-identical",
            stats["bit_identical"],
            "fleet logits differ from the executor",
        )
        scaling.append(stats)
        print(
            f"workers={workers}  depth=16  {stats['wall_s'] * 1e3:8.1f} ms   "
            f"{stats['throughput_seq_s']:7.1f} seq/s   "
            f"bit-identical={stats['bit_identical']}"
        )

    depth_sweep: list[dict] = []
    for depth in QUEUE_DEPTHS:
        stats, logits = serve_once(
            network, tokens, exec_config, WORKER_COUNTS[-1], queue_depth=depth
        )
        stats["bit_identical"] = bool(np.array_equal(logits, reference))
        gates.require_true(
            f"depth={depth}/bit-identical",
            stats["bit_identical"],
            "fleet logits differ from the executor",
        )
        depth_sweep.append(stats)
        print(
            f"workers={WORKER_COUNTS[-1]}  depth={depth:2d}  "
            f"{stats['wall_s'] * 1e3:8.1f} ms   "
            f"{stats['throughput_seq_s']:7.1f} seq/s   "
            f"bit-identical={stats['bit_identical']}"
        )

    speedup = scaling[-1]["throughput_seq_s"] / scaling[0]["throughput_seq_s"]
    gates.require_at_least(
        f"scaling-{WORKER_COUNTS[-1]}w-vs-1w",
        speedup,
        MIN_SCALING,
        "fleet throughput scaling",
    )
    print(
        f"scaling {WORKER_COUNTS[-1]} vs 1 worker: {speedup:.2f}x "
        f"(gate {MIN_SCALING:.1f}x)"
    )

    leaks = leaked_segments()
    gates.require_true(
        "no-leaked-segments",
        not leaks,
        f"leaked shared-memory segments: {', '.join(leaks)}" if leaks else "",
    )

    return {
        "workload": {
            "mode": exec_config.mode.value,
            "num_sequences": NUM_SEQUENCES,
            "hidden_size": 64,
            "num_layers": 2,
            "seq_length": 64,
            "max_batch": MAX_BATCH,
        },
        "scaling_model": {
            "kind": "virtual-device dwell",
            "dwell_s_per_sequence": DWELL_S,
            "host_cpu_count": os.cpu_count(),
            "note": (
                "each worker sleeps dwell_s per served sequence, modeling the "
                "simulated mobile GPU's device occupancy; throughput scaling "
                "measures how well the fleet overlaps device dwell, "
                "independent of host core count"
            ),
        },
        "scaling": scaling,
        "queue_depth_sweep": depth_sweep,
        "speedup_4w_vs_1w": speedup,
        "min_scaling": MIN_SCALING,
        "bit_identical": all(s["bit_identical"] for s in scaling + depth_sweep),
        "leaked_segments": leaks,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }, gates


def main() -> int:
    report, gates = run()
    out_path = pathlib.Path(__file__).parent.parent / "BENCH_runtime.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
