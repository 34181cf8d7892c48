"""The four workloads: set-up, quality phase, and the timed window.

Each workload drives the package through a public entry point only
(``LSTMExecutor.run_batch``, ``StreamingServer.submit``/``tick``,
``OptimizedLSTM.run``). Model weights are always zoo seed 0 and the
quality set is a constant; ``--seed`` changes only the token contents of
the timed window, so ``agreement`` and ``sim_*`` repeat exactly on one
code base.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro import ExecutionMode, OptimizedLSTM
from repro.core.executor import LSTMExecutor
from repro.core.plan import PlanCache
from repro.core.program import ProgramCache
from repro.core.reference import ReferenceExecutor
from repro.errors import BackpressureError
from repro.runtime.loadgen import LoadSpec, generate_arrivals
from repro.runtime.streaming import StreamingServer

from bench_e2e.hostenv import MAX_LATENESS_P99_MS
from bench_e2e.hostref import HostReference
from bench_e2e.metrics import THRESHOLD_SET, percentile
from bench_e2e.tracing import Tracer

QUALITY_SEED = 20180920
#: cgen and COMBINED carry a tolerance contract, the numpy stepwise modes
#: a bit-identity one (see ``repro.core.backends``).
TOLERANCE = 1e-9
SLO_LIMIT_S = 0.100
P99_SLICES = 10
MIN_TICK_GAP_S = 0.004
#: The open loop times the host reference only in idle time, and stops
#: this long before the next thing is due (one burst takes about 2 ms).
REFERENCE_SLACK_S = 0.003


@dataclass
class Check:
    """One comparison against ``ReferenceExecutor``."""

    ok: bool
    bit_identical: bool
    max_abs_err: float
    predictions_equal: bool


def compare(logits: np.ndarray, reference: np.ndarray, exact: bool) -> Check:
    same_shape = logits.shape == reference.shape
    bit_identical = same_shape and bool(np.array_equal(logits, reference))
    err = float(np.max(np.abs(logits - reference))) if same_shape else float("inf")
    predictions_equal = same_shape and bool(
        np.array_equal(np.argmax(logits, axis=-1), np.argmax(reference, axis=-1))
    )
    ok = bit_identical if exact else (err <= TOLERANCE and predictions_equal)
    return Check(ok, bit_identical, err, predictions_equal)


@dataclass
class Quality:
    """Outcome of the untimed quality phase."""

    checks: dict[str, Check]
    agreement: float
    sim_speedup: float
    sim_energy_saving: float
    sim_detail: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks.values())


@dataclass
class Window:
    """Outcome of one timed window."""

    wall_s: float
    latencies_s: list[float]
    tokens: int
    attempted: int
    failed: int
    #: Time spent inside the system under test (request walls, or submit
    #: and tick walls); traced / untraced of this gives the trace overhead.
    service_s: float
    lateness_s: list[float]
    #: This window's host-speed factor (see ``hostref``) and the bursts behind it.
    host_factor: float = 1.0
    host_bursts_s: list[float] = field(default_factory=list)
    #: An open loop offers a fixed load, so its goodput does not scale
    #: with the host's speed; a closed loop's throughput does.
    open_loop: bool = False
    observed: dict[str, float] = field(default_factory=dict)
    valid: bool = True

    def raw(self) -> dict[str, float]:
        """The wall clock as read."""
        return {
            "tokens_per_s": self.tokens / self.wall_s,
            "latency_p50_ms": percentile(self.latencies_s, 50) * 1e3,
            "latency_p99_ms": sliced_p99(self.latencies_s) * 1e3,
        }

    def end_to_end(self) -> dict[str, float]:
        """The wall clock corrected for the host's speed during this window."""
        raw = self.raw()
        return {
            "tokens_per_s": raw["tokens_per_s"] * (1.0 if self.open_loop else self.host_factor),
            "latency_p50_ms": raw["latency_p50_ms"] / self.host_factor,
            "latency_p99_ms": raw["latency_p99_ms"] / self.host_factor,
        }


def sliced_p99(latencies_s: list[float]) -> float:
    """Median over consecutive slices of the window of each slice's p99.

    The sandbox pauses a vCPU for 30-250 ms a few times a minute. One such
    pause puts more than 1 % of a 15 s window's requests above any honest
    p99, so the whole-window p99 reads the host, not the code (measured:
    34-249 ms across ten runs of one commit). A pause lands in one slice
    and the median drops it; a tail that is worse everywhere moves every
    slice. With fewer requests than slices, each request is its own slice.
    """
    n = len(latencies_s)
    slices = min(P99_SLICES, n)
    bounds = [i * n // slices for i in range(slices + 1)]
    return statistics.median(
        percentile(latencies_s[lo:hi], 99) for lo, hi in zip(bounds, bounds[1:])
    )


def _finite(logits: np.ndarray, shape: tuple[int, ...]) -> bool:
    return logits.shape == shape and bool(np.isfinite(logits).all())


def cache_hit_rate(before: dict, after: dict, hits: str, misses: str) -> float:
    hit = after[hits] - before[hits]
    total = hit + after[misses] - before[misses]
    return hit / total if total else 0.0


def program_observed(cache: ProgramCache, before: dict, requests: int) -> dict[str, float]:
    after = cache.stats.as_dict()
    return {
        "program.cache.hit_rate": cache_hit_rate(before, after, "program_hits", "program_misses"),
        "program.cache.evictions_per_request": (
            (after["program_evictions"] - before["program_evictions"]) / max(requests, 1)
        ),
    }


def _caches_observed(
    window: Window, plan_cache, program_cache, plan_before: dict, program_before: dict,
    compile_s: float,
) -> None:
    """What a ``run_batch`` window saw of the plan and program caches."""
    window.observed.update(program_observed(program_cache, program_before, window.attempted))
    window.observed["program.compile.ms_per_request"] = compile_s * 1e3 / window.attempted
    window.observed["plan.cache.plan_hit_rate"] = cache_hit_rate(
        plan_before, plan_cache.stats.as_dict(), "plan_hits", "plan_misses"
    )


def _loadgen_observed(window: Window, offered: int, completed: int) -> None:
    window.observed["loadgen.lateness_p99_ms"] = percentile(window.lateness_s, 99) * 1e3
    window.observed["loadgen.offered"] = offered
    window.observed["loadgen.completed"] = completed


def sim_pair(app: OptimizedLSTM, tokens: np.ndarray) -> tuple[float, float, float, dict]:
    """Simulated TX1 BASELINE vs COMBINED on ``tokens`` (deterministic).

    Returns ``(agreement of COMBINED with BASELINE, speedup, energy saving,
    detail)``; everything but the agreement is model time, not host time.
    """
    base = app.run(tokens, mode=ExecutionMode.BASELINE)
    fast = app.run(tokens, mode=ExecutionMode.COMBINED, threshold_index=THRESHOLD_SET)
    detail = {
        "sim_ms_per_seq.baseline": base.mean_time * 1e3,
        "sim_ms_per_seq.combined": fast.mean_time * 1e3,
        "breakpoints_per_seq": fast.mean_breakpoints,
        "mean_tissue_size": fast.mean_tissue_size,
        "skip_fraction": fast.mean_skip_fraction,
    }
    return fast.agreement_with(base), fast.speedup_vs(base), fast.energy_saving_vs(base), detail


class Workload:
    """Common shape: ``setup`` -> ``quality`` -> ``run`` (one or more windows)."""

    name = ""
    app_name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.app: OptimizedLSTM | None = None
        #: Windows run so far: a traced run takes two, and the second must
        #: not replay the first one's tokens or continue its sessions.
        self.windows = 0
        self.hostref: HostReference | None = None

    # Token batches of the timed window come from here; the quality set never does.
    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def _host_reference(self, batch: int) -> None:
        """A bare forward step of this workload's geometry (see ``hostref``)."""
        net = self.app.network
        self.hostref = HostReference(
            self.name, net.config.hidden_size, net.num_layers, batch, net.num_classes
        )

    def _next_window(self) -> int:
        self.windows += 1
        return self.windows

    def _quality_tokens(self, sequences: int, length: int) -> np.ndarray:
        rng = np.random.default_rng(QUALITY_SEED)
        return rng.integers(0, self.app.network.vocab_size, size=(sequences, length))

    def setup(self) -> None:
        raise NotImplementedError

    def quality(self) -> Quality:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Tracer) -> Window:
        raise NotImplementedError

    def _closed_loop(self, seconds: float, tracer: Tracer, make_request, serve, tokens_each):
        """One client: the next request leaves when the previous one returned.

        ``make_request()`` builds the inputs (generator time, reported as
        lateness against the previous completion); ``serve(inputs)``
        returns ``True`` when the output passed its spot check.
        """
        latencies, lateness = [], []
        failed = 0
        reference_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while True:
            reference_s += self.hostref.maybe_group()
            previous_done = time.perf_counter()
            inputs = make_request()
            sent = time.perf_counter()
            lateness.append(sent - previous_done)
            tracer.request = index
            ok = False
            try:
                with tracer.span("loadgen.request"):
                    ok = serve(inputs)
            except Exception:  # a raised request is a failed request, not a crash
                traceback.print_exc()
            end = time.perf_counter()
            latencies.append(end - sent)
            failed += not ok
            index += 1
            if end - reference_s >= deadline:
                break
        tracer.request = None
        host_factor, host_bursts = self.hostref.take_factor()
        window = Window(
            # The reference bursts are the benchmark's own work, not the system's.
            wall_s=end - start - reference_s,
            host_factor=host_factor,
            host_bursts_s=host_bursts,
            latencies_s=latencies,
            tokens=(index - failed) * tokens_each,
            attempted=index,
            failed=failed,
            service_s=sum(latencies),
            lateness_s=lateness,
        )
        _loadgen_observed(window, offered=index, completed=index - failed)
        return window


# --------------------------------------------------------------- batch_combined


class BatchCombined(Workload):
    name = "batch_combined"
    app_name = "BABI"
    BATCH = 8

    def setup(self) -> None:
        self.app = OptimizedLSTM.from_app(self.app_name, seed=0)
        self.app.calibrate()
        self.config = self.app.execution_config(
            ExecutionMode.COMBINED, threshold_index=THRESHOLD_SET
        )
        self.links = self.app.calibration.predicted_links
        self.executor = LSTMExecutor(
            self.app.network,
            self.config,
            predicted_links=self.links,
            plan_cache=PlanCache(),
            program_cache=ProgramCache(),
        )
        self.executor.run_batch(self._batch(self._rng(0)))  # warm-up
        self._host_reference(self.BATCH)

    def _batch(self, rng: np.random.Generator) -> np.ndarray:
        net = self.app.network
        return rng.integers(0, net.vocab_size, size=(self.BATCH, net.config.seq_length))

    def quality(self) -> Quality:
        net = self.app.network
        tokens = self._quality_tokens(4 if self.smoke else 16, net.config.seq_length)
        logits = np.concatenate(
            [
                self.executor.run_batch(tokens[i : i + self.BATCH]).logits
                for i in range(0, len(tokens), self.BATCH)
            ]
        )
        reference = ReferenceExecutor(net, self.config, predicted_links=self.links)
        check = compare(logits, reference.run_batch(tokens).logits, exact=False)
        agreement, speedup, saving, detail = sim_pair(self.app, tokens)
        return Quality({"combined_vs_reference": check}, agreement, speedup, saving, detail)

    def run(self, seconds: float, tracer: Tracer) -> Window:
        net = self.app.network
        rng = self._rng(self._next_window())
        shape = (self.BATCH, net.num_classes)
        last: dict = {}
        compile_s = 0.0
        plan_before = self.executor.plan_cache.stats.as_dict()
        program_before = self.executor.program_cache.stats.as_dict()

        def serve(tokens: np.ndarray) -> bool:
            nonlocal compile_s
            result = self.executor.run_batch(tokens)
            compile_s += result.timings["compile_wall_s"]
            last.update(tokens=tokens, logits=result.logits)
            return _finite(result.logits, shape)

        window = self._closed_loop(
            seconds, tracer, lambda: self._batch(rng), serve,
            tokens_each=self.BATCH * net.config.seq_length,
        )
        # Full check of the last request, after the clock has stopped.
        reference = ReferenceExecutor(net, self.config, predicted_links=self.links)
        if not compare(
            last["logits"], reference.run_batch(last["tokens"]).logits, exact=False
        ).ok:
            window.failed += 1
        _caches_observed(
            window, self.executor.plan_cache, self.executor.program_cache,
            plan_before, program_before, compile_s,
        )
        return window


# ------------------------------------------------------------------ paper_sweep


class PaperSweep(Workload):
    name = "paper_sweep"
    app_name = "IMDB"
    MODES = tuple(ExecutionMode)

    def setup(self) -> None:
        self.batch = 1 if self.smoke else 4  # one smoke sweep must fit in 2 s
        self.app = OptimizedLSTM.from_app(self.app_name, seed=0)
        self.app.calibrate()
        self._sweep(self._batch(self._rng(0)))  # warm-up
        self._host_reference(self.batch)

    def _batch(self, rng: np.random.Generator) -> np.ndarray:
        net = self.app.network
        return rng.integers(0, net.vocab_size, size=(self.batch, net.config.seq_length))

    def _sweep(self, tokens: np.ndarray) -> dict:
        # BASELINE and ZERO_PRUNE ignore the threshold set.
        return {
            mode: self.app.run(
                tokens, mode=mode, threshold_index=THRESHOLD_SET, keep_result=True
            )
            for mode in self.MODES
        }

    def _reference(self, mode: ExecutionMode, tokens: np.ndarray) -> np.ndarray:
        config = self.app.execution_config(mode, threshold_index=THRESHOLD_SET)
        links = self.app.calibration.predicted_links
        return ReferenceExecutor(self.app.network, config, predicted_links=links).run_batch(
            tokens
        ).logits

    def quality(self) -> Quality:
        net = self.app.network
        tokens = self._quality_tokens(2 if self.smoke else self.batch, net.config.seq_length)
        outcomes = self._sweep(tokens)
        checks = {
            f"{mode.value}_vs_reference": compare(
                outcomes[mode].logits,
                self._reference(mode, tokens),
                exact=mode is not ExecutionMode.COMBINED,
            )
            for mode in self.MODES
        }
        base, fast = outcomes[ExecutionMode.BASELINE], outcomes[ExecutionMode.COMBINED]
        detail = {f"sim_ms_per_seq.{m.value}": o.mean_time * 1e3 for m, o in outcomes.items()}
        return Quality(
            checks, fast.agreement_with(base), fast.speedup_vs(base),
            fast.energy_saving_vs(base), detail,
        )

    def run(self, seconds: float, tracer: Tracer) -> Window:
        net = self.app.network
        rng = self._rng(self._next_window())
        shape = (self.batch, net.num_classes)
        last: dict = {}
        compile_s = 0.0
        plan_before = self.app.plan_cache.stats.as_dict()
        program_before = self.app.program_cache.stats.as_dict()

        def serve(tokens: np.ndarray) -> bool:
            nonlocal compile_s
            outcomes = self._sweep(tokens)
            compile_s += sum(o.result.timings["compile_wall_s"] for o in outcomes.values())
            last.update(tokens=tokens, logits=outcomes[ExecutionMode.COMBINED].logits)
            return all(_finite(o.logits, shape) for o in outcomes.values())

        window = self._closed_loop(
            seconds, tracer, lambda: self._batch(rng), serve,
            tokens_each=len(self.MODES) * self.batch * net.config.seq_length,
        )
        expected = self._reference(ExecutionMode.COMBINED, last["tokens"])
        if not compare(last["logits"], expected, exact=False).ok:
            window.failed += 1
        _caches_observed(
            window, self.app.plan_cache, self.app.program_cache,
            plan_before, program_before, compile_s,
        )
        return window


# -------------------------------------------------------------------- streaming


def _streaming_observed(
    server: StreamingServer,
    stats_before: dict,
    window: Window,
    submit_s: list[float],
    ticks: list[tuple[float, int, float, float]],
    slo_misses: int,
) -> None:
    """``streaming.*`` from one window; ``ticks`` rows are (wall, batch, exec, wait)."""
    after = server.stats.as_dict(server.max_batch)
    chunks = sum(batch for _, batch, _, _ in ticks)
    tick_wall = sum(wall for wall, _, _, _ in ticks)
    window.observed.update(
        {
            "streaming.submit.us": float(np.mean(submit_s)) * 1e6,
            "streaming.tick.ms": tick_wall / len(ticks) * 1e3,
            "streaming.tick.exec_share": sum(e for _, _, e, _ in ticks) / tick_wall,
            "streaming.tick.batch_mean": chunks / len(ticks),
            "streaming.tick.count": len(ticks),
            "streaming.queue_wait_ms_mean": sum(w for _, _, _, w in ticks) / chunks * 1e3,
            "streaming.busy_fraction": (tick_wall + sum(submit_s)) / window.wall_s,
            "streaming.shed_chunks": after["shed_chunks"] - stats_before["shed_chunks"],
            "streaming.session_evictions": (
                after["lru_evictions"] + after["ttl_evictions"]
                - stats_before["lru_evictions"] - stats_before["ttl_evictions"]
            ),
            "streaming.slo_miss_fraction": slo_misses / max(window.attempted, 1),
        }
    )


class StreamLmSingle(Workload):
    name = "stream_lm_single"
    app_name = "PTB"

    def setup(self) -> None:
        self.app = OptimizedLSTM.from_app(self.app_name, seed=0)
        self.config = self.app.execution_config(ExecutionMode.BASELINE)
        self.server = self._server()
        for token in self._rng(0).integers(0, self.app.network.vocab_size, size=5):
            self.server.submit("warm-up", np.array([token]))
            self.server.tick()
        self._host_reference(1)

    def _server(self) -> StreamingServer:
        return StreamingServer(
            self.app.network, self.config, max_batch=1, chunk_len=1,
            queue_limit=4, max_sessions=64,
        )

    def quality(self) -> Quality:
        net = self.app.network
        sequences, length = (2, 4) if self.smoke else (16, 8)
        tokens = self._quality_tokens(sequences, length)
        server = self._server()
        streamed = np.empty((sequences, length, net.num_classes))
        for s in range(sequences):
            for t in range(length):
                ticket = server.submit(f"quality-{s}", tokens[s, t : t + 1])
                server.tick()
                streamed[s, t] = ticket.result.logits[0]
        exact = ReferenceExecutor(net, self.config).run_batch(tokens).logits
        check = compare(streamed, exact, exact=True)
        agreement = float(np.mean(np.argmax(streamed, -1) == np.argmax(exact, -1)))
        # The sim_* pair needs COMBINED, so a calibration; both on a slice
        # small enough for the PTB geometry (full-length calibration: ~25 s).
        self.app.calibrate(tokens=self.app.sample_tokens(2, seed=0xCA11B)[:, :16])
        _, speedup, saving, detail = sim_pair(self.app, tokens[:2])
        return Quality({"stream_vs_reference": check}, agreement, speedup, saving, detail)

    def run(self, seconds: float, tracer: Tracer) -> Window:
        net = self.app.network
        rng = self._rng(self._next_window())
        server = self.server
        session = f"user-{self.windows}"
        shape = (1, net.num_classes)
        head: list[tuple[int, np.ndarray]] = []  # first tokens, for the full check
        submit_s: list[float] = []
        ticks: list[tuple[float, int, float, float]] = []
        slo_misses = 0
        stats_before = server.stats.as_dict(server.max_batch)
        program_before = server.executor.program_cache.stats.as_dict()

        def serve(token: np.ndarray) -> bool:
            nonlocal slo_misses
            t0 = time.perf_counter()
            ticket = server.submit(session, token)
            t1 = time.perf_counter()
            report = server.tick()
            t2 = time.perf_counter()
            submit_s.append(t1 - t0)
            ticks.append((t2 - t1, report.batch, report.exec_wall_s, report.queue_wait_s))
            slo_misses += (t2 - t0) > SLO_LIMIT_S
            if not ticket.done:
                return False
            if len(head) < 16:
                head.append((int(token[0]), ticket.result.logits[0]))
            return _finite(ticket.result.logits, shape)

        window = self._closed_loop(
            seconds, tracer, lambda: rng.integers(0, net.vocab_size, size=1), serve,
            tokens_each=1,
        )
        prefix = np.array([[token for token, _ in head]])
        expected = ReferenceExecutor(net, self.config).run_batch(prefix).logits[0]
        if not compare(np.stack([row for _, row in head]), expected, exact=True).ok:
            window.failed += 1
        slo_misses += window.failed
        _streaming_observed(server, stats_before, window, submit_s, ticks, slo_misses)
        window.observed.update(
            program_observed(server.executor.program_cache, program_before, window.attempted)
        )
        return window


class StreamMulti(Workload):
    name = "stream_multi"
    app_name = "BABI"
    SESSION_RATE = 75.0
    #: The arrival trace (times, sessions, lengths) is one constant trace
    #: per window length; ``--seed`` draws the token contents. Another
    #: trace moves the offered load by +-5 % (heavy-tailed session lengths)
    #: and the tail by far more (p99 27-44 ms across ten traces, 39-44 ms
    #: across ten replays of one), which would read as a change in the code.
    #: Trace 0 offers 714 tokens/s at 15 s, the mean over 300 traces.
    ARRIVAL_SEED = 0
    MAX_BATCH = 8
    CHUNK_LEN = 4

    def setup(self, app: OptimizedLSTM | None = None) -> None:
        """``app`` lets the layer probes reuse an already calibrated BABI model."""
        if app is None:
            app = OptimizedLSTM.from_app(self.app_name, seed=0)
            app.calibrate()
        self.app = app
        self.config = self.app.execution_config(
            ExecutionMode.INTRA, threshold_index=THRESHOLD_SET, backend="cgen"
        )
        self.server = self._server()
        # Every (batch, chunk) shape once; the common ones (full chunks,
        # small batches) last, since the default ProgramCache keeps 32.
        for length in range(1, self.CHUNK_LEN + 1):
            for batch in range(self.MAX_BATCH, 0, -1):
                for s in range(batch):
                    self.server.submit(f"warm-up-{s}", np.zeros(length, dtype=np.int64), now=0.0)
                self.server.tick(now=0.0)
        self._host_reference(2)  # the mean tick batch of this workload

    def _server(self) -> StreamingServer:
        return StreamingServer(
            self.app.network, self.config, max_batch=self.MAX_BATCH,
            chunk_len=self.CHUNK_LEN, queue_limit=256, max_sessions=4096,
        )

    def quality(self) -> Quality:
        net = self.app.network
        tokens = self._quality_tokens(4 if self.smoke else 16, net.config.seq_length)
        server = self._server()
        tickets = []
        for start in range(0, tokens.shape[1], self.CHUNK_LEN):
            tickets = [
                server.submit(f"quality-{s}", row[start : start + self.CHUNK_LEN], now=0.0)
                for s, row in enumerate(tokens)
            ]
            server.drain(now=0.0)
        streamed = np.stack([ticket.result.logits for ticket in tickets])
        links = self.app.calibration.predicted_links
        reference = ReferenceExecutor(net, self.config, predicted_links=links)
        check = compare(streamed, reference.run_batch(tokens).logits, exact=False)
        baseline = self.app.execution_config(ExecutionMode.BASELINE)
        exact = ReferenceExecutor(net, baseline).run_batch(tokens).predictions()
        agreement = float(np.mean(np.argmax(streamed, -1) == exact))
        _, speedup, saving, detail = sim_pair(self.app, tokens)
        return Quality({"stream_vs_reference": check}, agreement, speedup, saving, detail)

    def run(self, seconds: float, tracer: Tracer) -> Window:
        net = self.app.network
        server = self.server
        spec = LoadSpec(
            duration_s=seconds, session_rate=self.SESSION_RATE, chunk_len=self.CHUNK_LEN,
            think_time_s=0.05, diurnal_amplitude=0.0, seed=self.ARRIVAL_SEED,
        )
        rng = self._rng(self._next_window())
        arrivals = [
            replace(a, tokens=rng.integers(0, net.vocab_size, size=len(a.tokens)))
            for a in generate_arrivals(spec, net.vocab_size)
        ]
        prefix = f"w{self.windows}-"
        # The session whose final readout gets the full check: the longest
        # one that starts in the first half, so it finishes inside the window.
        lengths: dict[str, int] = {}
        for arrival in arrivals:
            if arrival.session_id in lengths or arrival.time_s < seconds / 2:
                lengths[arrival.session_id] = (
                    lengths.get(arrival.session_id, 0) + len(arrival.tokens)
                )
        checked = max(lengths, key=lengths.get)
        checked_logits = None

        latencies, lateness, submit_s = [], [], []
        ticks: list[tuple[float, int, float, float]] = []
        shed = completed = tokens_done = slo_misses = 0
        stats_before = server.stats.as_dict(server.max_batch)
        program_before = server.executor.program_cache.stats.as_dict()
        n = len(arrivals)
        index = 0
        last_tick_end = float("-inf")
        start = time.perf_counter()
        while index < n or server.queue_depth:
            now = time.perf_counter() - start
            while index < n and arrivals[index].time_s <= now:
                arrival = arrivals[index]
                lateness.append(now - arrival.time_s)
                tracer.request = index
                index += 1
                t0 = time.perf_counter()
                try:
                    # Admitted at its due time, so latency counts the wait a
                    # busy server imposed on it before we could even submit.
                    with tracer.span("loadgen.submit"):
                        server.submit(
                            prefix + arrival.session_id, arrival.tokens, now=arrival.time_s
                        )
                except BackpressureError:
                    shed += 1
                t1 = time.perf_counter()
                submit_s.append(t1 - t0)
                now = t1 - start
            tracer.request = None
            if server.queue_depth and now - last_tick_end >= MIN_TICK_GAP_S:
                with tracer.span("loadgen.tick"):
                    report = server.tick(now=now)
                end = time.perf_counter() - start
                ticks.append((end - now, report.batch, report.exec_wall_s, report.queue_wait_s))
                tracer.count("streaming.tick.batch", report.batch)
                tracer.count("streaming.queue_depth", server.queue_depth)
                last_tick_end = end
                for result in report.completed:
                    latency = end - result.submitted_at
                    latencies.append(latency)
                    slo_misses += latency > SLO_LIMIT_S
                    completed += 1
                    tokens_done += result.n_tokens
                    if result.session_id == prefix + checked:
                        checked_logits = result.logits
                continue
            wake = last_tick_end + MIN_TICK_GAP_S if server.queue_depth else float("inf")
            if index < n:
                wake = min(wake, arrivals[index].time_s)
            slack = wake - (time.perf_counter() - start) - REFERENCE_SLACK_S
            if slack > 0:
                self.hostref.maybe_group(limit_s=slack)  # idle time only: nothing is due
            pause = wake - (time.perf_counter() - start)
            if pause > 0:
                time.sleep(pause)
        wall = time.perf_counter() - start

        failed = shed
        session_tokens = np.concatenate([a.tokens for a in arrivals if a.session_id == checked])
        links = self.app.calibration.predicted_links
        expected = ReferenceExecutor(net, self.config, predicted_links=links).run_batch(
            session_tokens[None]
        ).logits[0]
        if checked_logits is None or not compare(checked_logits, expected, exact=False).ok:
            failed += 1
        host_factor, host_bursts = self.hostref.take_factor()
        window = Window(
            wall_s=wall, latencies_s=latencies, tokens=tokens_done, attempted=n,
            failed=failed, service_s=sum(submit_s) + sum(t[0] for t in ticks),
            lateness_s=lateness, host_factor=host_factor, host_bursts_s=host_bursts,
            open_loop=True,
        )
        _loadgen_observed(window, offered=n, completed=completed)
        window.valid = window.observed["loadgen.lateness_p99_ms"] <= MAX_LATENESS_P99_MS
        _streaming_observed(server, stats_before, window, submit_s, ticks, slo_misses + shed)
        window.observed.update(
            program_observed(server.executor.program_cache, program_before, n)
        )
        return window


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (BatchCombined, StreamMulti, StreamLmSingle, PaperSweep)
}
