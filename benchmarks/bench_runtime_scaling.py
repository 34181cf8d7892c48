"""Fleet throughput vs worker count, measured on the real clock.

Serves the executor-benchmark COMBINED workload (64 sequences) through
:class:`repro.runtime.FleetServer` at 0, 1 and 2 workers: every sequence
is submitted at once and the fleet drains its queue. A row is request-in
to logits-out wall clock (``perf_counter`` around submit + drain), the
median of ``REPEATS`` passes after one untimed pass that compiles each
worker's programs. There is no dwell or service model, so the rows are
what this host's cores deliver; ``os.cpu_count()`` and the BLAS thread
variables are disclosed beside them and they are reported, not gated.
Run it with one BLAS thread per process (``OPENBLAS_NUM_THREADS=1``, as
CI does), so the workers are the only parallelism: the workers are forked
from this process and inherit its BLAS thread setting, so with the default
each worker's BLAS runs a thread per core and two workers on two cores
oversubscribe them. Writes ``BENCH_runtime.json`` and exits non-zero
unless

* every worker count's logits are bit-identical to an in-process
  :class:`~repro.core.executor.LSTMExecutor` run per ``MAX_BATCH``-row
  shard (the fleet's numerics contract, hence identical across worker
  counts), and
* no worker process outlives the fleets.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.bench.gates import GateSet
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.nn.network import LSTMNetwork
from repro.runtime import FleetServer

WORKER_COUNTS = (0, 1, 2)
NUM_SEQUENCES = 64
MAX_BATCH = 8
REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def serve_pass(fleet: FleetServer, tokens: np.ndarray) -> tuple[float, np.ndarray]:
    """One timed pass: submit every row, drain, gather the logits."""
    start = time.perf_counter()
    tickets = [fleet.submit(f"r{i}", row) for i, row in enumerate(tokens)]
    fleet.drain()
    logits = np.stack([ticket.result.logits for ticket in tickets])
    return time.perf_counter() - start, logits


def expected_logits(
    network: LSTMNetwork, tokens: np.ndarray, exec_config: ExecutionConfig
) -> np.ndarray:
    """Executor logits per consecutive ``MAX_BATCH``-row shard, in request order."""
    executor = LSTMExecutor(network, exec_config)
    return np.concatenate(
        [
            executor.run_batch(tokens[start : start + MAX_BATCH]).logits
            for start in range(0, len(tokens), MAX_BATCH)
        ]
    )


def run() -> tuple[dict, GateSet]:
    network, tokens, exec_config = build_case()
    reference = expected_logits(network, tokens, exec_config)
    gates = GateSet("runtime")
    rows: list[dict] = []
    for workers in WORKER_COUNTS:
        with FleetServer(
            network, exec_config, workers=workers, max_batch=MAX_BATCH,
            queue_limit=NUM_SEQUENCES,
        ) as fleet:
            serve_pass(fleet, tokens)  # compiles every worker's programs
            passes = [serve_pass(fleet, tokens) for _ in range(REPEATS)]
        wall_s = statistics.median(wall for wall, _ in passes)
        identical = all(np.array_equal(logits, reference) for _, logits in passes)
        gates.require_true(
            f"workers={workers}/bit-identical",
            identical,
            "fleet logits differ from the executor",
        )
        row = {
            "workers": workers,
            "wall_s": wall_s,
            "wall_s_passes": [wall for wall, _ in passes],
            "throughput_seq_s": NUM_SEQUENCES / wall_s,
            "tokens_per_s": tokens.size / wall_s,
            "bit_identical": identical,
        }
        rows.append(row)
        print(
            f"workers={workers}  {wall_s * 1e3:8.1f} ms   "
            f"{row['throughput_seq_s']:7.1f} seq/s   bit-identical={identical}"
        )
    for row in rows:
        row["speedup_vs_workers0"] = rows[0]["wall_s"] / row["wall_s"]

    leaks = [process.pid for process in multiprocessing.active_children()]
    gates.require_true(
        "no-leaked-workers",
        not leaks,
        f"worker processes outlived their fleets: {leaks}" if leaks else "",
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
        "measurement": {
            "clock": "host wall clock (perf_counter), submit to last logits",
            "statistic": f"median of {REPEATS} passes after one warm-up pass",
            "host_cpu_count": os.cpu_count(),
            "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "gated": False,
        },
        "scaling": rows,
        "bit_identical": all(row["bit_identical"] for row in rows),
        "leaked_workers": leaks,
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
