"""Backend-lowering gate: numerics and speed of the generated-C backend.

Runs the acceptance workload of ``bench_executor_regression`` under every
execution mode with both compiled-program backends and enforces the
backend contract (``repro.core.backends``):

* the **numpy backend is the frozen oracle** — bit-identical logits to
  :class:`repro.core.reference.ReferenceExecutor` in the four stepwise
  modes and graded agreement in COMBINED (:func:`repro.core.backends.
  is_exact`; selecting a backend must never perturb the default path),
* the **cgen executor meets its own grade** — cgen lowers the stepwise
  loop of BASELINE / INTRA / ZERO_PRUNE, graded there; INTER and COMBINED
  run the numpy programs on every backend, so a cgen-configured INTER is
  bit-identical to the oracle (``fused_exec.exact``). On top, ``max |Δ|``
  against the oracle stays within ``FUSED_TOLERANCE`` per mode and
  prediction agreement is exact on the acceptance workload,
* **plans are backend-invariant** — the modeled weight-traffic counters
  (bytes moved on the simulated mobile GPU) are identical under every
  backend, because backends change host arithmetic, never the plan,
* the **cgen backend is actually fast** — at the per-request latency
  geometry (batch 1, the streaming hot path) it must beat the numpy
  program, the path that serves by default, by at least
  ``MIN_CGEN_SPEEDUP``×,
* the **cgen kernel reuses its weights across a tick** — at the
  streaming geometry (H = 256, chunk 4) a session's share of a layer
  call at batch 8 costs at most ``MAX_BATCH8_SESSION_RATIO`` of what it
  costs alone, because each weight row is read once for every session;
  the row also records the kernel's cold build time,
* **an unavailable backend skips cleanly** — a missing compiler surfaces
  a reason string and raises ``BackendUnavailableError`` at resolution,
  not an error mid-run.

Writes ``BENCH_backends.json`` and exits non-zero on any gate failure::

    PYTHONPATH=src python benchmarks/bench_backends.py

Honors ``REPRO_BENCH_SHORT=1`` (smaller workload, fewer timing repeats).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.bench.deflake import SHORT, gc_paused, pick
from repro.bench.gates import GateSet, grade_check
from repro.config import LSTMConfig
from repro.core.backends import backend_availability, make_stepwise_program, resolve_backend
from repro.core.context_prediction import PredictedLink
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor, _UnitedWeights
from repro.core.reference import ReferenceExecutor
from repro.errors import BackendUnavailableError
from repro.gpu.simulator import TimingSimulator
from repro.nn.network import LSTMNetwork

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fused-backend numerics bound: max absolute logit deviation from the
#: fp64 oracle. Measured ~4e-16 on the acceptance workload; the bound
#: leaves seven orders of magnitude of headroom while still catching any
#: real kernel defect.
FUSED_TOLERANCE = 1e-9

#: cgen-vs-numpy-program latency floor at batch 1 (the per-request
#: streaming geometry, where the fused single-call kernel shines).
#: Measured 1.67-3.10x (median ~2.2x) over eight runs on the development
#: host; 1.5x is the floor those runs never crossed.
MIN_CGEN_SPEEDUP = 1.5

#: Per-session cost of a cgen INTRA layer call at batch 8 over batch 1
#: (streaming geometry: H = 256, chunk 4). A kernel that streams ``U``
#: once per (session, step) reads 1.00-1.02 here; a weight-stationary one
#: pays each weight row once per tick.
MAX_BATCH8_SESSION_RATIO = 0.75
BATCH_HIDDEN = 256
BATCH_CHUNK = 4
BATCH_REPEATS = pick(60, 30)

NUM_SEQUENCES = pick(64, 16)
TIMING_REPEATS = pick(9, 5)

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


def mode_config(mode: ExecutionMode, backend: str = "numpy") -> ExecutionConfig:
    if mode is ExecutionMode.COMBINED:
        return ExecutionConfig(
            mode=mode, alpha_inter=1e12, alpha_intra=0.05, mts=5, backend=backend
        )
    if mode is ExecutionMode.INTER:
        return ExecutionConfig(mode=mode, alpha_inter=1e12, mts=5, backend=backend)
    if mode is ExecutionMode.INTRA:
        return ExecutionConfig(mode=mode, alpha_intra=0.05, backend=backend)
    return ExecutionConfig(mode=mode, backend=backend)


def weight_traffic(executor: LSTMExecutor, plans) -> float:
    """Summed modeled weight bytes moved over every sequence trace."""
    simulator = TimingSimulator(executor.config.spec)
    moved = 0.0
    for plan in plans:
        trace = simulator.run_trace(executor.kernel_trace(plan))
        moved += trace.total_weight_bytes_moved
    return moved


def availability_report(gates: GateSet) -> dict:
    """Record backend availability; gate the clean-skip contract."""
    availability = backend_availability()
    gates.require_true("numpy_available", availability["numpy"][0])
    report = {}
    for name, (ok, reason) in availability.items():
        report[name] = {"available": ok, "reason": reason}
        if ok:
            continue
        # A missing toolchain must carry a human-readable reason and fail
        # resolution with BackendUnavailableError, not an ImportError.
        gates.require_true(
            f"{name}_skip_reason", bool(reason), detail=f"{name} reports no reason"
        )
        try:
            resolve_backend(name)
            raised = False
        except BackendUnavailableError:
            raised = True
        gates.require_true(f"{name}_unavailable_raises", raised)
    return report


def agreement_run(network, tokens, gates: GateSet) -> dict:
    """Per-mode numerics gates for the numpy and cgen backends."""
    results = {}
    for mode in MODES:
        out_ref = ReferenceExecutor(network, mode_config(mode)).run_batch(tokens)
        ref_pred = np.asarray(out_ref.predictions())

        numpy_exec = LSTMExecutor(network, mode_config(mode))
        out_numpy = numpy_exec.run_batch(tokens)
        grade, meets = grade_check(out_numpy, out_ref, numpy_exec.exact)
        gates.require_true(f"numpy_{grade.replace('-', '_')}_{mode.value}", meets)

        fused_exec = LSTMExecutor(network, mode_config(mode, backend="cgen"))
        out_fused = fused_exec.run_batch(tokens)
        fused_grade, fused_meets = grade_check(out_fused, out_ref, fused_exec.exact)
        gates.require_true(f"fused_{fused_grade.replace('-', '_')}_{mode.value}", fused_meets)
        max_delta = float(np.abs(out_fused.logits - out_ref.logits).max())
        agreement = float(
            np.mean(np.asarray(out_fused.predictions()) == ref_pred)
        )
        gates.require_at_most(f"fused_max_delta_{mode.value}", max_delta, FUSED_TOLERANCE)
        gates.require_at_least(f"fused_agreement_{mode.value}", agreement, 1.0)

        moved_numpy = weight_traffic(numpy_exec, out_numpy.plans)
        moved_fused = weight_traffic(fused_exec, out_fused.plans)
        gates.require_true(
            f"traffic_backend_invariant_{mode.value}",
            moved_numpy == moved_fused,
            detail=f"numpy {moved_numpy:.0f} B vs cgen {moved_fused:.0f} B",
        )
        results[mode.value] = {
            "numpy_oracle_grade": grade,
            "numpy_meets_grade": meets,
            "fused_backend": fused_exec.backend,
            "fused_grade": fused_grade,
            "fused_meets_grade": fused_meets,
            "fused_max_delta": max_delta,
            "fused_agreement": agreement,
            "weight_bytes_moved": moved_numpy,
        }
    return results


def _best_wall_s(executor: LSTMExecutor, tokens: np.ndarray) -> float:
    executor.run_batch(tokens)  # warm caches / plan / programs
    best = float("inf")
    with gc_paused():
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            executor.run_batch(tokens)
            best = min(best, time.perf_counter() - start)
    return best


def speedup_run(network, gates: GateSet) -> dict:
    """cgen-vs-numpy-program latency floor at the batch-1 geometry."""
    rng = np.random.default_rng(7)
    tokens = rng.integers(0, 200, size=(1, 64))
    numpy_exec = LSTMExecutor(network, mode_config(ExecutionMode.INTRA))
    cgen_exec = LSTMExecutor(network, mode_config(ExecutionMode.INTRA, backend="cgen"))
    wall_numpy = _best_wall_s(numpy_exec, tokens)
    wall_cgen = _best_wall_s(cgen_exec, tokens)
    speedup = wall_numpy / wall_cgen
    gates.require_at_least(
        "cgen_speedup_vs_numpy_program",
        speedup,
        MIN_CGEN_SPEEDUP,
        detail=f"numpy {wall_numpy * 1e3:.2f} ms vs cgen {wall_cgen * 1e3:.2f} ms",
    )
    return {
        "geometry": {"batch": 1, "seq_length": 64, "mode": "intra"},
        "numpy_program_wall_s": wall_numpy,
        "cgen_wall_s": wall_cgen,
        "speedup": speedup,
    }


def cold_build_s() -> float:
    """Wall time of the kernel's cold ``cc`` build and load, in a child
    process with an empty cache directory."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, REPRO_CGEN_CACHE=cache, PYTHONPATH=str(ROOT / "src"))
        code = (
            "import time; from repro.core import cgen; t = time.perf_counter(); "
            "cgen.load_library(); print(time.perf_counter() - t)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
    return float(proc.stdout.strip())


def batch_run(gates: GateSet) -> dict:
    """Per-session step time of one cgen INTRA layer call, batch 8 vs 1."""
    config = LSTMConfig(
        hidden_size=BATCH_HIDDEN, num_layers=1, seq_length=BATCH_CHUNK, input_size=BATCH_HIDDEN
    )
    network = LSTMNetwork(config, vocab_size=200, num_classes=8, seed=11)
    united = _UnitedWeights.from_weights(network.layers[0].weights)
    link = PredictedLink.zeros(BATCH_HIDDEN)
    alpha = mode_config(ExecutionMode.INTRA).alpha_intra
    rng = np.random.default_rng(5)
    calls = {}
    for batch in (1, 8):
        program = make_stepwise_program(
            "cgen", united, link, batch, BATCH_CHUNK, drs_alpha=alpha
        )
        program.project(rng.normal(scale=0.3, size=(batch, BATCH_CHUNK, BATCH_HIDDEN)))
        hs = np.empty((batch, BATCH_CHUNK, BATCH_HIDDEN))
        h0, c0 = rng.normal(scale=0.1, size=(2, batch, BATCH_HIDDEN))
        calls[batch] = lambda program=program, hs=hs, h0=h0, c0=c0: program.execute(
            hs, h0=h0, c0=c0
        )
    best = {batch: float("inf") for batch in calls}
    with gc_paused():
        for _ in range(BATCH_REPEATS):  # interleaved, so drift hits both
            for batch, call in calls.items():
                start = time.perf_counter()
                call()
                best[batch] = min(best[batch], time.perf_counter() - start)
    per_session = {batch: best[batch] / (batch * BATCH_CHUNK) for batch in best}
    ratio = per_session[8] / per_session[1]
    gates.require_at_most(
        "cgen_b8_session_ratio",
        ratio,
        MAX_BATCH8_SESSION_RATIO,
        detail=f"b1 {per_session[1] * 1e6:.1f} us vs b8 {per_session[8] * 1e6:.1f} us "
        "per session-step",
    )
    return {
        "geometry": {"hidden": BATCH_HIDDEN, "chunk": BATCH_CHUNK, "mode": "intra"},
        "b1_us_per_session_step": per_session[1] * 1e6,
        "b8_us_per_session_step": per_session[8] * 1e6,
        "b8_over_b1": ratio,
        "cold_build_s": cold_build_s(),
    }


def run() -> tuple[dict, GateSet]:
    gates = GateSet("backends")
    network, tokens = build_case()
    availability = availability_report(gates)
    modes = agreement_run(network, tokens, gates)
    speedup = speedup_run(network, gates)
    batch = batch_run(gates)
    report = {
        "short": SHORT,
        "num_sequences": NUM_SEQUENCES,
        "availability": availability,
        "modes": modes,
        "speedup": speedup,
        "batch": batch,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }
    return report, gates


def main() -> int:
    report, gates = run()
    out = ROOT / "BENCH_backends.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for mode, block in report["modes"].items():
        print(
            f"{mode:10s} cgen max|d|={block['fused_max_delta']:.2e} "
            f"agreement={block['fused_agreement']:.3f}"
        )
    speedup = report["speedup"]
    print(
        f"batch-1 cgen vs numpy program: {speedup['speedup']:.2f}x "
        f"({speedup['numpy_program_wall_s'] * 1e3:.2f} ms vs "
        f"{speedup['cgen_wall_s'] * 1e3:.2f} ms, floor {MIN_CGEN_SPEEDUP}x)"
    )
    batch = report["batch"]
    print(
        f"cgen intra per session-step: b1 {batch['b1_us_per_session_step']:.1f} us, "
        f"b8 {batch['b8_us_per_session_step']:.1f} us ({batch['b8_over_b1']:.2f}x, "
        f"gate <= {MAX_BATCH8_SESSION_RATIO}x); cold build {batch['cold_build_s']:.2f} s"
    )
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
