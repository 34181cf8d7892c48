"""The fleet: whole sequences, FIFO by length, sharded across forked workers.

:class:`FleetServer` is the serving core's third batch-forming policy
(:class:`~repro.runtime.serving.ServingCore` owns admission, shedding
against ``queue_limit``, tickets, tick timing, records, ``drain`` and
:func:`~repro.runtime.loadgen.run_open_loop`). A submission is one whole
sequence; a tick takes up to ``max_batch x max(workers, 1)`` queued
sequences by the core's FIFO rule (the head sets the length), cuts the
stacked ``(B, L)`` tokens into consecutive shards of at most ``max_batch``
rows and runs one shard per worker — or every shard on one in-process
:class:`~repro.core.executor.LSTMExecutor` at ``workers=0``.

The workers are only a transport. The parent builds the fleet's one
executor before it starts any worker, and forks each worker from itself
(``multiprocessing.get_context("fork")``, so the fleet runs on Linux and
other fork platforms): a worker inherits that executor — its weights, its
quantized or pruned cells and whatever programs it has compiled — as
copy-on-write pages (nothing is published, pickled or rebuilt), and
answers each shard over its own pipe with ``executor.run_batch``. The gather waits on the
pipes *and* the worker process sentinels, so a worker that dies mid-shard
fails the tick at once with :class:`~repro.errors.RuntimeStateError`,
closing the pool, instead of after ``result_timeout_s``.

Numerics contract (``tests/test_runtime.py``): a shard's logits equal
:meth:`~repro.core.executor.LSTMExecutor.run_batch` on the same rows in
the calling process, in every mode — the worker runs the parent's own
executor, so the process boundary changes no bits, and a product of one
shape is deterministic, which covers graded COMBINED's wave GEMMs. A
tick's shards are consecutive ``max_batch``-row slices of its FIFO batch,
so sequences queued together are sharded alike at any worker count (the
exact tier is bit-stable under any grouping anyway: its recurrences are
per-row GEMVs). Each shard's own executor record has ``seq_index``
remapped to the row's position in the fleet's service order; a tick's
shard records merge into one ``fleet-tick`` record and
:meth:`~repro.runtime.serving.ServingCore.merged_record` folds a window
into one record labelled ``fleet``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from multiprocessing.connection import wait
from typing import Callable

import numpy as np

from repro.core.executor import ExecutionConfig, LSTMExecutor
from repro.core.plan import PlanCache
from repro.errors import ConfigurationError, RuntimeStateError
from repro.nn.network import LSTMNetwork
from repro.obs import Recorder, merge_run_records
from repro.obs.record import RunRecord
from repro.runtime.serving import ServingCore, ServingStats, ServingTicket, take_batch

#: Worker-to-parent message tags.
OK = "ok"
ERROR = "error"


def _pop_record(recorder: Recorder | None) -> RunRecord | None:
    """The executor's record of the shard it just ran (``None`` when off)."""
    if recorder is None or not recorder.records:
        return None
    record = recorder.records[-1]
    recorder.clear()
    return record


def worker_main(executor: LSTMExecutor, conn, parent_ends: list, cpu: int) -> None:
    """Worker loop: run shards on the inherited executor until the ``None``
    sentinel."""
    try:
        for end in parent_ends:  # fork copied them; closed, a dead parent means EOF
            end.close()
        # A forked worker starts where its parent runs, and workers woken
        # together there can stay there, taking turns on one CPU. One move
        # spreads them as exec would place them; the full mask comes back.
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, allowed)
        while (tokens := conn.recv()) is not None:
            logits = executor.run_batch(tokens).logits
            conn.send((OK, (logits, _pop_record(executor.recorder))))
    except Exception:  # pragma: no cover - surfaced to the parent
        conn.send((ERROR, traceback.format_exc()))


class FleetServer(ServingCore):
    """Whole-sequence FIFO-by-length policy over a pool of forked workers.

    Args:
        network: The network to serve.
        config: Execution scheme (one per fleet, like one executor).
        workers: Worker process count; ``0`` serves in-process (no
            processes) with identical results.
        max_batch: Rows per shard; a tick serves at most
            ``max_batch x max(workers, 1)`` sequences.
        queue_limit: Bound on queued sequences; admission beyond it sheds
            with :class:`~repro.errors.BackpressureError`.
        clock: Time source used when a ``now`` argument is omitted.
        recorder: Optional recorder; when enabled, every tick appends one
            merged ``fleet-tick`` record of its shards' executor records.

    The pool forks at construction, after the executor is built; use as a
    context manager or call :meth:`close`. A closed fleet refuses to tick.
    """

    record_label = "fleet"
    #: Liveness bound (seconds) for a worker that is alive but silent; a
    #: dead worker fails the fleet at once.
    result_timeout_s = 300.0

    def __init__(
        self,
        network: LSTMNetwork,
        config: ExecutionConfig,
        workers: int = 0,
        max_batch: int = 8,
        queue_limit: int = 64,
        clock: Callable[[], float] = time.monotonic,
        recorder: Recorder | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {queue_limit}")
        super().__init__(clock, recorder)
        self.network = network
        self.config = config
        self.workers = workers
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.stats = ServingStats()
        self._queue: deque = deque()
        self._closed = False
        self._processes: list[multiprocessing.Process] = []
        self._conns: list = []
        record = recorder is not None and recorder.enabled
        self._executor = LSTMExecutor(
            network, config, plan_cache=PlanCache(), recorder=Recorder() if record else None
        )
        if workers:
            self._fork()

    # ------------------------------------------------------------ lifecycle

    def _fork(self) -> None:
        ctx = multiprocessing.get_context("fork")
        cpus = sorted(os.sched_getaffinity(0))
        for worker_id in range(self.workers):
            conn, child = ctx.Pipe()
            process = ctx.Process(
                target=worker_main,
                args=(self._executor, child, [*self._conns, conn], cpus[worker_id % len(cpus)]),
                daemon=True,
            )
            process.start()
            child.close()  # the worker holds the only other end: EOF means death
            self._processes.append(process)
            self._conns.append(conn)

    def close(self) -> None:
        """Stop the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # the worker is already gone
                pass
        for process in self._processes:
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.kill()
                process.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._processes.clear()
        self._conns.clear()

    def _fail(self, message: str) -> None:
        """Kill the pool, tear it down and raise ``RuntimeStateError``."""
        for process in self._processes:
            process.kill()
        self.close()
        raise RuntimeStateError(message)

    def _gather(self, count: int, timeout_s: float, what: str) -> list:
        """One message from each of workers ``0 .. count-1``, in worker order.

        Waits on the pipes and the process sentinels together, so a worker
        that dies before answering fails the fleet immediately.
        """
        pending = {self._conns[i]: i for i in range(count)}
        sentinels = {self._processes[i].sentinel: i for i in range(count)}
        payloads: list = [None] * count
        deadline = time.monotonic() + timeout_s
        while pending:
            ready = wait([*pending, *sentinels], timeout=max(0.0, deadline - time.monotonic()))
            if not ready:
                self._fail(f"no {what} within {timeout_s}s ({len(pending)} worker(s) silent)")
            for conn in [obj for obj in ready if obj in pending]:
                worker_id = pending.pop(conn)
                del sentinels[self._processes[worker_id].sentinel]
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):  # the worker died mid-message
                    self._died(worker_id, what)
                if tag == ERROR:
                    self._fail(f"worker {worker_id} failed during {what}:\n{payload}")
                payloads[worker_id] = payload
            for sentinel in [obj for obj in ready if obj in sentinels]:
                self._died(sentinels[sentinel], what)
        return payloads

    def _died(self, worker_id: int, what: str) -> None:
        process = self._processes[worker_id]
        process.join(timeout=5)  # reap, so the exit code is set
        self._fail(f"worker {worker_id} died (exit code {process.exitcode}) during {what}")

    # ------------------------------------------------------------ admission

    def submit(
        self, session_id: str, tokens: np.ndarray, now: float | None = None
    ) -> ServingTicket:
        """Admit one whole sequence; the ticket resolves when its tick ends.

        Raises:
            ShapeError: The tokens are not a non-empty 1-D array of ids
                inside the vocabulary; nothing is queued.
            BackpressureError: ``queue_limit`` sequences are already queued.
        """
        if now is None:
            now = self.clock()
        return self._admit(
            self._queue, self.queue_limit, self.stats, self.network,
            session_id, tokens, now,
        )

    def submit_arrival(self, arrival, now: float) -> ServingTicket:
        """Admit one :class:`~repro.runtime.loadgen.Arrival` (``run_open_loop``'s door)."""
        return self.submit(arrival.session_id, arrival.tokens, now=now)

    @property
    def queue_depth(self) -> int:
        """Sequences currently queued."""
        return len(self._queue)

    # ----------------------------------------------------------------- tick

    def _form_batch(self, report, now):
        if self._closed:
            raise RuntimeStateError("fleet is closed")
        return take_batch(self._queue, self.max_batch * max(self.workers, 1))

    def _run(self, report, picked, tokens):
        starts = range(0, len(tokens), self.max_batch)
        shards = [tokens[start : start + self.max_batch] for start in starts]
        if self.workers == 0:
            results = []
            for shard in shards:
                logits = self._executor.run_batch(shard).logits
                results.append((logits, _pop_record(self._executor.recorder)))
        else:
            for worker_id, shard in enumerate(shards):
                try:
                    self._conns[worker_id].send(shard)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # a dead worker: the gather reports it from its sentinel
            results = self._gather(len(shards), self.result_timeout_s, "a shard")
        records = []
        for start, (_, record) in zip(starts, results):
            if record is not None:
                offset = self.stats.served + start  # rows this fleet served before
                for seq in record.sequences:
                    seq.seq_index += offset
                for event in record.kernels:
                    event.seq_index += offset
                records.append(record)
        return np.concatenate([logits for logits, _ in results]), records

    def _rows(self, report, picked, out, now):
        return out[0]

    def _stats(self, report) -> ServingStats:
        return self.stats

    def _cache_stats(self) -> None:
        """Each shard's executor record already carries its cache deltas."""
        return None

    def _record_tick(self, report, before, out) -> None:
        records = out[1]
        if not records:
            return
        record = merge_run_records(records, label="fleet-tick")
        record.timing.update(
            queue_wait_s=report.queue_wait_s, ticks=1.0, fleet_wall_s=report.exec_wall_s
        )
        self._tick_records.append(record)
        self.recorder.records.append(record)
