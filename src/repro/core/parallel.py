"""In-process multicore dispatch over independent execution work units.

The fleet (:mod:`repro.runtime.fleet`) scales across *processes*;
this module scales *inside* one. A run is partitioned into independent
work units — contiguous batch-row shards, combined-mode schedule-key
groups, per-tissue programs — whose outputs land in disjoint array
slices, and the units execute on a persistent pool of plain threads.
Real core scaling comes from the hot kernels releasing the GIL: BLAS
matmuls always do, the numpy ufunc chains do above the small-buffer
threshold, and the ctypes cgen kernels release it for the whole native
walk. Unlike the fleet's forked workers, threads share the caches
in place, not as copy-on-write pages.

Why plain threads and a queue instead of ``concurrent.futures``: the
dispatcher must attribute *queue wait* (submit → start) and *busy time*
(start → finish) per unit for the recorder's dispatch accounting, keep
the workers persistent across runs (pool spin-up inside a hot loop would
dominate small batches), and stay import-light on the executor hot path.

The executor only engages a dispatcher when
:attr:`repro.core.executor.ExecutionConfig.threads` is greater than one;
``threads=1`` never touches this module, so the serial path is
bit-identical by construction — and the sharded paths are bit-identical
by the batch-composition invariance of the executor's per-row GEMV /
per-row projection lifts (each row's bits never depend on which rows
surround it).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "DispatchStats",
    "ThreadedDispatcher",
    "get_dispatcher",
    "shard_slices",
]


def shard_slices(n: int, parts: int) -> list[slice]:
    """Balanced contiguous partition of ``range(n)`` into ``<= parts`` slices.

    Sizes differ by at most one and larger shards come first, so the
    slowest unit starts earliest. Contiguity matters: contiguous row
    shards of a C-order batch are views whose writes touch disjoint
    memory, and reassembling them in shard order is exactly the unsharded
    array. Never returns an empty slice — ``parts`` is clamped to ``n``.
    """
    if n < 0:
        raise ConfigurationError(f"cannot shard a negative length ({n})")
    if n == 0:
        return []
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    slices: list[slice] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


@dataclass
class DispatchStats:
    """Timing attribution of one :meth:`ThreadedDispatcher.map` call.

    ``queue_wait_s`` sums each unit's submit → start latency (how long
    units sat behind busy workers); ``busy_s`` sums start → finish (the
    aggregate thread-seconds of useful work). Both are *sums over units*,
    so on an idle pool ``dispatch_wall_s ~= busy_s / threads``.
    """

    threads: int
    units: int
    dispatch_wall_s: float = 0.0
    queue_wait_s: float = 0.0
    busy_s: float = 0.0
    unit_busy_s: list[float] = field(default_factory=list)

    def timing_keys(self) -> dict[str, float]:
        """The keys merged into ``ExecutionResult.timings``."""
        return {
            "dispatch_wall_s": self.dispatch_wall_s,
            "queue_wait_s": self.queue_wait_s,
            "thread_busy_s": self.busy_s,
        }


class ThreadedDispatcher:
    """Persistent thread pool executing work units in submission order.

    Workers are daemon threads created once and reused for every
    :meth:`map` call; they block on an unbounded queue, so an idle
    dispatcher costs nothing but the parked threads. The pool is safe to
    share: concurrent :meth:`map` calls interleave their units on the
    same workers (each call carries its own result buffer and completion
    semaphore).
    """

    def __init__(self, threads: int) -> None:
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-dispatch-{index}", daemon=True
            )
            for index in range(threads)
        ]
        for worker in self._workers:
            worker.start()

    def _worker(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            fn, index, submitted, results, done = item
            started = time.perf_counter()
            try:
                value = fn()
                results[index] = (value, None, started - submitted, time.perf_counter() - started)
            except BaseException as exc:  # re-raised in the caller
                results[index] = (None, exc, started - submitted, time.perf_counter() - started)
            done.release()

    def map(
        self, thunks: Sequence[Callable[[], object]]
    ) -> tuple[list[object], DispatchStats]:
        """Run every thunk on the pool; return ordered results + stats.

        Blocks until all units finish. The first unit exception (in
        submission order) is re-raised in the caller after the whole map
        drains — partial results never escape.
        """
        stats = DispatchStats(threads=self.threads, units=len(thunks))
        if not thunks:
            return [], stats
        wall_start = time.perf_counter()
        results: list[tuple | None] = [None] * len(thunks)
        done = threading.Semaphore(0)
        for index, fn in enumerate(thunks):
            self._tasks.put((fn, index, time.perf_counter(), results, done))
        for _ in thunks:
            done.acquire()
        stats.dispatch_wall_s = time.perf_counter() - wall_start
        values: list[object] = []
        error: BaseException | None = None
        for value, exc, waited, busy in results:  # type: ignore[misc]
            stats.queue_wait_s += waited
            stats.busy_s += busy
            stats.unit_busy_s.append(busy)
            if exc is not None and error is None:
                error = exc
            values.append(value)
        if error is not None:
            raise error
        return values, stats

    def close(self) -> None:
        """Stop the workers (used by tests; shared pools usually live on)."""
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)


_dispatchers: dict[int, ThreadedDispatcher] = {}
_dispatchers_lock = threading.Lock()
# A forked child (a fleet worker) inherits the registry but not its threads.
os.register_at_fork(after_in_child=_dispatchers.clear)


def get_dispatcher(threads: int) -> ThreadedDispatcher:
    """Process-wide persistent dispatcher for ``threads`` workers.

    Executors share one pool per thread count, so a zoo of tenants at
    ``threads=4`` parks four worker threads total, not four per tenant.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    dispatcher = _dispatchers.get(threads)
    if dispatcher is not None:
        return dispatcher
    with _dispatchers_lock:
        dispatcher = _dispatchers.get(threads)
        if dispatcher is None:
            dispatcher = ThreadedDispatcher(threads)
            _dispatchers[threads] = dispatcher
    return dispatcher
