"""Worker process of the serving runtime.

Each worker attaches the shared-memory weight arena (no weight copies
cross the queue), rebuilds the network on the shared pages — three united
blocks per layer — and runs a private
:class:`~repro.core.executor.LSTMExecutor` whose programs compute on those
pages themselves (an fp64 worker holds no private ``W`` / ``U``), with its own
:class:`~repro.core.plan.PlanCache`, :class:`~repro.core.program.
ProgramCache` and :class:`~repro.obs.Recorder`. The executor lives for
the whole worker lifetime, so compiled programs persist across shards:
programs are keyed on shape, never on plans, so every shard after the
first of its size replays an already-compiled program. Tasks arrive as
:class:`~repro.runtime.pool.DispatchGroup`-shaped tuples; every
shard answers with a :class:`~repro.runtime.results.ShardResult` whose
run record has ``seq_index`` remapped to the original batch positions, so
the parent can merge fleet records without bookkeeping.

The optional *dwell* models the mobile-GPU device occupancy per sequence
(the simulator plane's time, during which the host-side control loop is
idle): it is what a multi-device fleet overlaps, and what the scaling
benchmark measures. ``dwell_s == 0`` leaves pure host compute.
"""

from __future__ import annotations

import time
import traceback

from repro.core.executor import ExecutionConfig, LSTMExecutor
from repro.core.plan import PlanCache
from repro.core.program import ProgramCache
from repro.errors import ConfigurationError
from repro.obs import Recorder
from repro.runtime.arena import ArenaManifest, WeightArena
from repro.runtime.results import ShardResult

#: Result-queue message tags.
READY = "ready"
RESULT = "result"
ERROR = "error"


def worker_main(
    worker_id: int,
    manifest: ArenaManifest,
    config: ExecutionConfig,
    task_queue,
    result_queue,
    dwell_s: float = 0.0,
    record: bool = True,
) -> None:
    """Worker loop: attach arena, execute shards until the ``None`` sentinel."""
    try:
        with WeightArena.attach(manifest) as arena:
            network = arena.network()
            # A quantized arena carries the published codes and scales;
            # handing them to the executor (instead of re-quantizing the
            # rebuilt weights) makes the fleet byte-identical to the
            # parent by construction. An fp64 arena under a quantized
            # config (the zero-prune case: pruning must happen before
            # quantization) lets the executor quantize for itself —
            # deterministic from the shared fp64 bits.
            quantized_cells = None
            if manifest.precision != "fp64":
                if manifest.precision != config.precision.tag:
                    raise ConfigurationError(
                        f"arena published at precision {manifest.precision!r} "
                        f"but worker config wants {config.precision.tag!r}"
                    )
                quantized_cells = arena.quantized_cells()
            recorder = Recorder() if record else None
            executor = LSTMExecutor(
                network,
                config,
                plan_cache=PlanCache(),
                recorder=recorder,
                program_cache=ProgramCache(),
                quantized_cells=quantized_cells,
            )
            result_queue.put((READY, worker_id, None))
            while True:
                task = task_queue.get()
                if task is None:
                    break
                shard_id, indices, tokens = task
                start = time.perf_counter()
                result = executor.run_batch(tokens)
                if dwell_s > 0.0:
                    time.sleep(dwell_s * tokens.shape[0])
                shard_record = None
                if recorder is not None and recorder.records:
                    shard_record = recorder.records[-1]
                    recorder.clear()
                    for seq, orig in zip(shard_record.sequences, indices):
                        seq.seq_index = int(orig)
                    for event in shard_record.kernels:
                        event.seq_index = int(indices[event.seq_index])
                result_queue.put(
                    (
                        RESULT,
                        worker_id,
                        ShardResult(
                            shard_id=shard_id,
                            worker_id=worker_id,
                            indices=tuple(int(i) for i in indices),
                            logits=result.logits,
                            plans=result.plans,
                            record=shard_record,
                            wall_s=time.perf_counter() - start,
                        ),
                    )
                )
    except Exception:  # pragma: no cover - surfaced to the parent
        result_queue.put((ERROR, worker_id, traceback.format_exc()))
