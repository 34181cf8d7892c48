"""The serving runtime: a sharded multi-worker inference pool.

:class:`InferenceRuntime` is the front door of :mod:`repro.runtime`. It
publishes the network's weights once into a shared-memory arena
(:mod:`repro.runtime.arena`), spawns ``workers`` processes that attach
it, and drives them through a bounded task queue. Incoming batches are
cut into shards of at most ``max_batch`` sequences by the serving core's
equal-length rule (:func:`plan_dispatch`) — programs are keyed on shape
and take plans at run time, so length is all a shard needs to agree on —
then dispatched shard by shard with backpressure: at most
``queue_depth`` shards are in flight, a blocking submit waits, a
non-blocking one raises :class:`~repro.errors.BackpressureError`. Token
ids are checked in the parent before anything is dispatched, so a bad id
is the caller's :class:`~repro.errors.ShapeError`, never a dead worker.

Numerics contract (property-tested in ``tests/test_runtime.py``): each
dispatched group is executed bit-identically to calling
:meth:`~repro.core.executor.LSTMExecutor.run_batch` on that group in the
parent — the shared-memory views, the process boundary, and the worker
count change no bits. ``workers=0`` degenerates to exactly that
synchronous call (one executor in-process per group), so the fallback is
bit-identical by construction, not by luck. Grouping itself is a pure
function of the batch and ``max_batch`` — never of worker count — so a
fleet's outputs are reproducible at any parallelism. Every mode is also
bit-stable under *any* grouping: the stepwise recurrences run as stacked
per-row GEMVs (:func:`repro.core.executor._row_gemv`), so each
sequence's bits never depend on its shard-mates, and combined mode's
tissue walk dispatches per-sequence slices. (The seed's batched GEMMs
did not have this property for the stepwise modes.)
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.plan import PlanCache
from repro.core.program import ProgramCache
from repro.errors import BackpressureError, RuntimeStateError, ShapeError
from repro.nn.network import LSTMNetwork
from repro.nn.quantize import Precision
from repro.obs import Recorder, merge_run_records
from repro.obs.record import RunRecord
from repro.runtime import worker as worker_mod
from repro.runtime.arena import WeightArena
from repro.runtime.results import FleetResult, ShardResult
from repro.runtime.serving import take_batch


@dataclass(frozen=True)
class DispatchGroup:
    """One dispatchable shard.

    Attributes:
        indices: Original batch positions of the member sequences (ascending).
        tokens: ``(k, T)`` token rows, ordered like ``indices``.
    """

    indices: tuple[int, ...]
    tokens: np.ndarray


@dataclass(frozen=True)
class _Row:
    index: int
    tokens: np.ndarray


def plan_dispatch(tokens: np.ndarray, max_batch: int) -> list[DispatchGroup]:
    """Cut a ``(B, T)`` batch into shards of at most ``max_batch`` sequences.

    The rows queue FIFO and the serving core's :func:`~repro.runtime.
    serving.take_batch` forms each shard (the head sets the length), so a
    fleet batches by length exactly like a serving tick; every input index
    lands in exactly one shard, in ascending order.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be (B, T), got shape {tokens.shape}")
    queue = deque(_Row(index, row) for index, row in enumerate(tokens))
    groups = []
    while queue:
        indices = tuple(row.index for row in take_batch(queue, max_batch))
        groups.append(DispatchGroup(indices=indices, tokens=tokens[list(indices)]))
    return groups


class InferenceRuntime:
    """Parallel sharded inference over one network and one scheme.

    Args:
        network: The network to serve.
        config: Execution scheme (one per runtime, like one executor).
        workers: Worker process count; ``0`` serves synchronously in the
            parent (no arena, no processes) with identical results.
        max_batch: Largest dispatched shard.
        queue_depth: Bound on in-flight shards (backpressure window).
        dwell_s: Modeled per-sequence device dwell in the workers (see
            :mod:`repro.runtime.worker`); ``0`` for pure host compute.
        recorder: Optional recorder; when enabled, every ``run_batch``
            appends one *merged* fleet record (schema ``repro.obs/run/v1``).
        mp_context: ``multiprocessing`` start method (``spawn`` default:
            no inherited BLAS/GC state, same behavior on every platform).

    Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(
        self,
        network: LSTMNetwork,
        config: ExecutionConfig,
        workers: int = 0,
        max_batch: int = 8,
        queue_depth: int = 16,
        dwell_s: float = 0.0,
        recorder: Recorder | None = None,
        mp_context: str = "spawn",
    ) -> None:
        if max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 0:
            raise ShapeError(f"workers must be >= 0, got {workers}")
        if queue_depth < 1:
            raise ShapeError(f"queue_depth must be >= 1, got {queue_depth}")
        self.network = network
        self.config = config
        self.workers = workers
        self.max_batch = max_batch
        self.queue_depth = queue_depth
        self.dwell_s = dwell_s
        self.recorder = recorder
        self.plan_cache = PlanCache()
        # Shared by every workers=0 executor so scheduler groups of one
        # size recompile nothing across run_batch calls (the spawned
        # workers hold their own long-lived caches instead).
        self.program_cache = ProgramCache()
        self._mp_context = mp_context
        #: Liveness bounds (seconds); a stuck pool raises instead of hanging.
        self.startup_timeout_s = 120.0
        self.result_timeout_s = 300.0
        self._arena: WeightArena | None = None
        self._processes: list[multiprocessing.Process] = []
        self._task_queue = None
        self._result_queue = None
        self._started = False
        self._closed = False
        self._next_shard_id = 0
        self._in_flight = 0
        self._pending: list[ShardResult] = []

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "InferenceRuntime":
        """Publish the arena and spawn the workers (no-op at ``workers=0``)."""
        if self._started:
            return self
        if self._closed:
            raise RuntimeStateError("runtime is closed")
        self._started = True
        if self.workers == 0:
            return self
        ctx = multiprocessing.get_context(self._mp_context)
        # Publish at the serving precision so the segment itself shrinks
        # with the policy (int8 pages are ~8x smaller) and workers rebuild
        # the published codes byte-for-byte. Zero pruning is the one
        # exception: pruning must happen *before* quantization, and it
        # needs the fp64 masters — workers prune and quantize themselves,
        # deterministically, from the shared fp64 bits.
        publish_precision = self.config.precision
        if self.config.mode is ExecutionMode.ZERO_PRUNE:
            publish_precision = Precision()
        self._arena = WeightArena.publish(self.network, precision=publish_precision)
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        record = self.recorder is not None and self.recorder.enabled
        for worker_id in range(self.workers):
            process = ctx.Process(
                target=worker_mod.worker_main,
                args=(
                    worker_id,
                    self._arena.manifest,
                    self.config,
                    self._task_queue,
                    self._result_queue,
                    self.dwell_s,
                    record,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        ready = 0
        while ready < self.workers:
            try:
                tag, _, payload = self._result_queue.get(timeout=self.startup_timeout_s)
            except queue_mod.Empty:
                self.close()
                raise RuntimeStateError(
                    f"worker pool failed to come up within {self.startup_timeout_s}s"
                ) from None
            if tag == worker_mod.ERROR:
                self.close()
                raise RuntimeStateError(f"worker failed to start:\n{payload}")
            ready += 1
        return self

    def close(self) -> None:
        """Stop the workers and tear the arena down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._task_queue is not None:
            for _ in self._processes:
                self._task_queue.put(None)
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        self._processes.clear()
        for queue in (self._task_queue, self._result_queue):
            if queue is not None:
                queue.close()
                queue.join_thread()
        self._task_queue = self._result_queue = None
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()
            self._arena = None

    def __enter__(self) -> "InferenceRuntime":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- serving

    def submit(self, group: DispatchGroup, block: bool = True) -> int:
        """Dispatch one group; returns its shard ticket.

        Backpressure: with ``queue_depth`` shards in flight, ``block=True``
        waits for a result slot, ``block=False`` raises
        :class:`~repro.errors.BackpressureError`. (In-flight means
        dispatched and not yet collected — the parent-side definition, so
        the bound holds regardless of worker speed.)
        """
        self._require_serving()
        while self._in_flight >= self.queue_depth:
            if not block:
                raise BackpressureError(
                    f"request queue is full ({self._in_flight} shard(s) in "
                    f"flight, depth {self.queue_depth})"
                )
            self._pending.append(self._next_result())
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        if self.workers == 0:
            # Synchronous fallback: the "dispatch" completes inline, so the
            # queue can never fill and backpressure never engages.
            self._pending.append(self._run_sync(shard_id, group))
        else:
            self._in_flight += 1
            self._task_queue.put((shard_id, group.indices, group.tokens))
        return shard_id

    def collect(self, count: int) -> list[ShardResult]:
        """Wait for ``count`` shard results (buffered ones first)."""
        self._require_serving()
        results: list[ShardResult] = []
        while len(results) < count:
            if self._pending:
                results.append(self._pending.pop(0))
            else:
                results.append(self._next_result())
        return results

    def run_batch(self, tokens: np.ndarray) -> FleetResult:
        """Serve a whole ``(B, T)`` batch: group, dispatch, reassemble.

        Raises:
            ShapeError: ``tokens`` is not ``(B, T)`` or holds an id outside
                the vocabulary; nothing is dispatched.
        """
        self._require_serving()
        tokens = self.network.check_tokens(tokens)
        start = time.perf_counter()
        groups = plan_dispatch(tokens, self.max_batch)
        for group in groups:
            self.submit(group, block=True)
        shards = self.collect(len(groups))
        wall_s = time.perf_counter() - start
        return self._assemble(tokens, shards, wall_s)

    # ------------------------------------------------------------ internals

    def _require_serving(self) -> None:
        if not self._started:
            raise RuntimeStateError("runtime not started (use start() or a with-block)")
        if self._closed:
            raise RuntimeStateError("runtime is closed")

    def _run_sync(self, shard_id: int, group: DispatchGroup) -> ShardResult:
        """The ``workers=0`` fallback: one in-process executor call."""
        recorder = None
        if self.recorder is not None and self.recorder.enabled:
            recorder = Recorder()
        executor = LSTMExecutor(
            self.network,
            self.config,
            plan_cache=self.plan_cache,
            recorder=recorder,
            program_cache=self.program_cache,
        )
        start = time.perf_counter()
        result = executor.run_batch(group.tokens)
        record = None
        if recorder is not None and recorder.records:
            record = recorder.records[-1]
            for seq, orig in zip(record.sequences, group.indices):
                seq.seq_index = int(orig)
            for event in record.kernels:
                event.seq_index = int(group.indices[event.seq_index])
        return ShardResult(
            shard_id=shard_id,
            worker_id=-1,
            indices=group.indices,
            logits=result.logits,
            plans=result.plans,
            record=record,
            wall_s=time.perf_counter() - start,
        )

    def _next_result(self) -> ShardResult:
        if self.workers == 0:
            raise RuntimeStateError("no shard in flight to collect")
        try:
            tag, worker_id, payload = self._result_queue.get(timeout=self.result_timeout_s)
        except queue_mod.Empty:
            self.close()
            raise RuntimeStateError(
                f"no shard result within {self.result_timeout_s}s "
                f"({self._in_flight} in flight)"
            ) from None
        if tag == worker_mod.ERROR:
            self.close()
            raise RuntimeStateError(f"worker {worker_id} died:\n{payload}")
        self._in_flight -= 1
        return payload

    def _assemble(
        self, tokens: np.ndarray, shards: list[ShardResult], wall_s: float
    ) -> FleetResult:
        batch = tokens.shape[0]
        shards = sorted(shards, key=lambda s: s.shard_id)
        first = shards[0].logits
        logits = np.empty((batch,) + first.shape[1:], dtype=first.dtype)
        plans = [None] * batch
        for shard in shards:
            for row, index in enumerate(shard.indices):
                logits[index] = shard.logits[row]
                plans[index] = shard.plans[row]
        record: RunRecord | None = None
        if self.recorder is not None and self.recorder.enabled:
            shard_records = [s.record for s in shards if s.record is not None]
            if shard_records:
                record = merge_run_records(shard_records, label="fleet")
                record.timing["fleet_wall_s"] = wall_s
                self.recorder.records.append(record)
        return FleetResult(
            logits=logits,
            plans=plans,
            record=record,
            wall_s=wall_s,
            num_sequences=batch,
            num_shards=len(shards),
            workers=self.workers,
        )
