"""Spans recorded from outside, around the calls into each layer.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
layer's public entry points with a wrapper that records a span (name,
start, end, parent span, request id) while the tracer is enabled and is
a plain pass-through otherwise; :meth:`Tracer.uninstall` puts the
originals back. Spans and counters stay in memory until the run ends.

Single-threaded by design — every workload runs ``threads=1``. The one
probe that uses the thread pool runs with the tracer disabled.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Above this many spans the tracer keeps timing but stops storing, so a
#: long window cannot exhaust memory; the trace file says when it did.
MAX_SPANS = 400_000


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every layer boundary we time.

    Functions that a layer imported by name are patched in the importing
    module's namespace, since that is the reference the caller resolves.
    """
    from repro.core import cgen, executor, pipeline
    from repro.core.plan import PlanCache
    from repro.core.program import CombinedGroupProgram, ProgramCache, StepwiseProgram
    from repro.gpu.simulator import TimingSimulator
    from repro.nn.network import LSTMNetwork
    from repro.runtime.streaming import StreamingServer

    return [
        (pipeline.OptimizedLSTM, "run", "pipeline.run"),
        (pipeline.OptimizedLSTM, "calibrate", "pipeline.calibrate"),
        (executor.LSTMExecutor, "run_batch", "executor.run_batch"),
        (executor.LSTMExecutor, "run_stream", "executor.run_stream"),
        (executor, "build_kernel_trace", "trace_builder.build"),
        (executor, "make_stepwise_program", "program.compile.stepwise"),
        (executor, "make_combined_program", "program.compile.combined"),
        (PlanCache, "layer_plan", "plan.layer_plan"),
        (PlanCache, "relevance", "plan.relevance"),
        (ProgramCache, "get", "program.cache.get"),
        (StepwiseProgram, "project", "program.project"),
        (StepwiseProgram, "execute", "program.execute"),
        (CombinedGroupProgram, "execute", "program.execute_combined"),
        (cgen.CGenStepwiseProgram, "project", "cgen.project"),
        (cgen.CGenStepwiseProgram, "execute", "cgen.execute"),
        (cgen, "load_library", "cgen.load_library"),
        (LSTMNetwork, "head_logits", "nn.head_logits"),
        (TimingSimulator, "run_trace", "simulator.run_trace"),
        (StreamingServer, "submit", "streaming.submit"),
        (StreamingServer, "tick", "streaming.tick"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        #: Request id stamped on every span recorded while it is set.
        self.request: int | None = None
        #: (name, start_s, end_s, parent index or -1, request id)
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        #: (name, time_s, value) samples taken at the same boundaries.
        self.counters: list[tuple[str, float, float]] = []
        self.dropped = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, time.perf_counter())

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters.append((name, time.perf_counter(), float(value)))

    def _open(self) -> int:
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            self._stack.append(-1)
            return -1
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled on close
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        if index >= 0:
            parent = self._stack[-1] if self._stack else -1
            self.spans[index] = (name, start, end, parent, self.request)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start, time.perf_counter())

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    @contextmanager
    def recording(self):
        """Record during the block; the yielded dict holds the block's
        :meth:`self_times` table once the block has ended."""
        table: dict[str, dict[str, float]] = {}
        was_enabled, self.enabled = self.enabled, True
        since = len(self.spans)
        try:
            yield table
        finally:
            self.enabled = was_enabled
            table.update(self.self_times(since))

    def self_times(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the part its direct children
        cover, so the self times of a request's spans add up to its wall.
        """
        child_total: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans[since:]:
            if parent >= since:
                child_total[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for offset, (name, start, end, _, _) in enumerate(self.spans[since:]):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_total.get(since + offset, 0.0)
        return table

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "request": request},
            }
            for index, (name, start, end, parent, request) in enumerate(self.spans)
        ]
        events += [
            {
                "name": name,
                "ph": "C",
                "ts": (at - origin) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"value": value},
            }
            for name, at, value in self.counters
        ]
        metadata = dict(metadata, dropped_spans=self.dropped)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)


def format_self_times(table: dict[str, dict[str, float]], wall_s: float) -> str:
    """The layer table a reader answers "where did the time go" from."""
    lines = [f"{'span':<28}{'calls':>9}{'total ms':>12}{'self ms':>12}{'self %':>9}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<28}{row['calls']:>9}{row['total_s'] * 1e3:>12.2f}"
            f"{row['self_s'] * 1e3:>12.2f}{share:>8.1f}%"
        )
    return "\n".join(lines)
