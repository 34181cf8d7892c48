"""In-process parallel-execution gate: thread-pool dispatch over shards.

Runs the executor's threaded dispatch path (``ExecutionConfig.threads``)
through two gate families, writes ``BENCH_parallel.json``, and exits
non-zero unless

* fp64 logits at ``threads`` in {1, 2, 4} are **bit-identical** to the
  serial executor in every exact-tier mode (row sharding never changes
  the numerics — the per-row GEMV lift pins each row's bits regardless
  of batch grouping) and within the graded tier in COMBINED
  (:func:`repro.core.backends.is_exact`); and
* a concurrent cold start over a shared plan cache performs **zero
  duplicate compiles**: with every batch row identical, the four shard
  threads race on the same relevance/plan keys and single-flight must
  collapse the races to exactly ``num_layers`` misses each, plus a
  direct same-key hammer on :class:`~repro.core.program.ProgramCache`
  that must build exactly once.

The COMBINED walls at each thread count are real host compute, reported
un-gated beside the host CPU count: no scaling claim is made on a
measurement that cannot show one.

Honors ``REPRO_BENCH_SHORT=1`` — the CI parallel-gate job uses it::

    REPRO_BENCH_SHORT=1 PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
import time

import numpy as np

from repro.bench.deflake import REPEATS, SHORT, gc_paused, pick
from repro.bench.gates import GateSet, grade_check
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.plan import PlanCache
from repro.core.program import ProgramCache
from repro.nn.network import LSTMNetwork

THREAD_COUNTS = (1, 2, 4)
MODES = (
    ExecutionMode.BASELINE,
    ExecutionMode.INTER,
    ExecutionMode.INTRA,
    ExecutionMode.COMBINED,
    ExecutionMode.ZERO_PRUNE,
)

NUM_SEQUENCES = pick(32, 16)
SEQ_LEN = 32
HIDDEN = 64
LAYERS = 2
#: Same-key hammer width for the program-cache single-flight gate.
HAMMER_THREADS = 8


def build_case() -> tuple[LSTMNetwork, np.ndarray]:
    """A mid-size workload sharing the executor-bench geometry."""
    config = LSTMConfig(
        hidden_size=HIDDEN, num_layers=LAYERS, seq_length=SEQ_LEN,
        input_size=HIDDEN,
    )
    network = LSTMNetwork(config, vocab_size=200, num_classes=8, seed=11)
    rng = np.random.default_rng(23)
    tokens = rng.integers(0, 200, size=(NUM_SEQUENCES, SEQ_LEN))
    return network, tokens


def mode_config(mode: ExecutionMode, threads: int = 1) -> ExecutionConfig:
    if mode is ExecutionMode.COMBINED:
        # A threshold above every relevance value divides the layer fully:
        # every sequence gets the same plan, so parallelism has to come
        # from row sharding *within* one plan, the hard case.
        return ExecutionConfig(
            mode=mode, alpha_inter=1e12, alpha_intra=0.05, mts=5,
            threads=threads,
        )
    if mode is ExecutionMode.INTER:
        return ExecutionConfig(mode=mode, alpha_inter=1e12, mts=5, threads=threads)
    if mode is ExecutionMode.INTRA:
        return ExecutionConfig(mode=mode, alpha_intra=0.05, threads=threads)
    return ExecutionConfig(mode=mode, threads=threads)


def bit_identity_run(network, tokens, gates: GateSet) -> dict:
    """Every mode at threads in {1, 2, 4} against the serial run, at its
    oracle grade: bit-identical in the exact tier, ``1e-9`` with equal
    predictions in the graded one (COMBINED, whose wave GEMM changes shape
    with the shard)."""
    results = {}
    for mode in MODES:
        executor = LSTMExecutor(network, mode_config(mode))
        serial = executor.run_batch(tokens)
        per_mode = {}
        for threads in THREAD_COUNTS:
            out = LSTMExecutor(network, mode_config(mode, threads)).run_batch(tokens)
            grade, identical = grade_check(out, serial, executor.exact)
            gates.require_true(
                f"{grade}/{mode.value}/threads={threads}",
                identical,
                "threaded logits differ from serial beyond the oracle grade",
            )
            per_mode[str(threads)] = identical
        results[mode.value] = per_mode
        print(f"bit-identity {mode.value:10s}: " + "  ".join(
            f"t={t} {per_mode[str(t)]}" for t in THREAD_COUNTS
        ))
    return results


def _best_wall_s(executor: LSTMExecutor, tokens: np.ndarray) -> tuple[float, dict]:
    """Min-of-REPEATS warm wall plus the last run's dispatch timings."""
    result = executor.run_batch(tokens)  # warm caches / plan / programs
    best = float("inf")
    with gc_paused():
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = executor.run_batch(tokens)
            best = min(best, time.perf_counter() - start)
    return best, dict(result.timings)


def scaling_run(network, tokens) -> dict:
    """COMBINED host walls vs threads (reported, not gated)."""
    scaling: list[dict] = []
    for threads in THREAD_COUNTS:
        executor = LSTMExecutor(network, mode_config(ExecutionMode.COMBINED, threads))
        wall_s, timings = _best_wall_s(executor, tokens)
        stats = {
            "threads": threads,
            "wall_s": wall_s,
            "throughput_seq_s": NUM_SEQUENCES / wall_s,
            "dispatch_wall_s": timings.get("dispatch_wall_s", 0.0),
            "queue_wait_s": timings.get("queue_wait_s", 0.0),
            "thread_busy_s": timings.get("thread_busy_s", 0.0),
        }
        scaling.append(stats)
        print(
            f"threads={threads}  {wall_s * 1e3:8.1f} ms   "
            f"{stats['throughput_seq_s']:7.1f} seq/s   "
            f"(queue-wait {stats['queue_wait_s'] * 1e3:.2f} ms)"
        )
    speedup = scaling[-1]["throughput_seq_s"] / scaling[0]["throughput_seq_s"]
    print(
        f"{THREAD_COUNTS[-1]} vs 1 thread: {speedup:.2f}x on "
        f"{os.cpu_count()} host CPU(s) (not gated)"
    )
    return {"per_threads": scaling, "speedup_4t_vs_1t": speedup}


def cold_start_run(network, gates: GateSet) -> dict:
    """Zero duplicate compiles under a concurrent cold start.

    Every batch row is the same sequence, so all four shard threads race
    on identical relevance/plan keys against a fresh shared cache; the
    single-flight protocol must collapse each race to one build (misses
    count distinct completed builds, so misses == num_layers exactly).
    """
    rng = np.random.default_rng(7)
    same = np.repeat(rng.integers(0, 200, size=(1, SEQ_LEN)), NUM_SEQUENCES, axis=0)
    plan_cache = PlanCache()
    executor = LSTMExecutor(
        network,
        mode_config(ExecutionMode.COMBINED, THREAD_COUNTS[-1]),
        plan_cache=plan_cache,
        program_cache=ProgramCache(),
    )
    executor.run_batch(same)
    stats = plan_cache.stats.as_dict()
    gates.require_true(
        "cold-start/relevance-misses-exact",
        stats["relevance_misses"] == LAYERS,
        f"expected {LAYERS} relevance builds, saw {stats['relevance_misses']}",
    )
    gates.require_true(
        "cold-start/plan-misses-exact",
        stats["plan_misses"] == LAYERS,
        f"expected {LAYERS} plan builds, saw {stats['plan_misses']}",
    )
    print(
        f"cold-start misses: relevance {stats['relevance_misses']} "
        f"plan {stats['plan_misses']} (layers={LAYERS})"
    )

    # Direct same-key hammer: HAMMER_THREADS concurrent get()s with a
    # deliberately slow build must produce exactly one build.
    cache = ProgramCache()
    builds = []
    barrier = threading.Barrier(HAMMER_THREADS)

    def build():
        builds.append(threading.get_ident())
        time.sleep(0.02)
        return object()

    seen: list[object] = [None] * HAMMER_THREADS

    def hammer(slot: int) -> None:
        barrier.wait()
        seen[slot] = cache.get(("hammer",), build)

    threads = [
        threading.Thread(target=hammer, args=(slot,))
        for slot in range(HAMMER_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    hammer_stats = cache.stats.as_dict()
    gates.require_true(
        "cold-start/program-single-flight",
        len(builds) == 1 and len(set(id(v) for v in seen)) == 1,
        f"{len(builds)} builds across {HAMMER_THREADS} concurrent get()s",
    )
    gates.require_true(
        "cold-start/program-counters-exact",
        hammer_stats["program_misses"] == 1
        and hammer_stats["program_hits"] == HAMMER_THREADS - 1,
        f"misses {hammer_stats['program_misses']} "
        f"hits {hammer_stats['program_hits']}",
    )
    print(
        f"program hammer: {len(builds)} build(s), "
        f"misses {hammer_stats['program_misses']}, "
        f"hits {hammer_stats['program_hits']}"
    )
    return {
        "plan_cache": stats,
        "expected_builds_per_counter": LAYERS,
        "program_hammer": {
            "threads": HAMMER_THREADS,
            "builds": len(builds),
            **hammer_stats,
        },
    }


def run() -> tuple[dict, GateSet]:
    network, tokens = build_case()
    gates = GateSet("parallel")
    bit_identity = bit_identity_run(network, tokens, gates)
    scaling = scaling_run(network, tokens)
    cold_start = cold_start_run(network, gates)
    return {
        "workload": {
            "num_sequences": NUM_SEQUENCES,
            "hidden_size": HIDDEN,
            "num_layers": LAYERS,
            "seq_length": SEQ_LEN,
            "modes": [m.value for m in MODES],
            "thread_counts": list(THREAD_COUNTS),
            "short_mode": SHORT,
            "repeats": REPEATS,
        },
        "host_cpu_count": os.cpu_count(),
        "bit_identity": bit_identity,
        "scaling": scaling,
        "cold_start": cold_start,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }, gates


def main() -> int:
    report, gates = run()
    out_path = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
