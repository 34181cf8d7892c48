"""Memory-frugal BPTT gate: one forward, faithful rebuild, FD oracle,
saved bytes, calibration.

Exercises :mod:`repro.nn.backprop` and :mod:`repro.nn.calibrate` and
writes ``BENCH_training.json``:

* **one forward** — the training tape (logits, per-layer ``Y`` and ``C``)
  must be bit-identical to ``ReferenceExecutor(BASELINE)`` run with
  ``collect_states`` (``forward_is_reference``), and the gates backward
  rebuilds from the tape must reproduce ``Y = o * tanh(C)`` and
  ``C = f * c_prev + i * g`` within ``MAX_REBUILD_ERR``
  (``rebuild_matches_tape``);
* **gradient correctness** — the analytic gradients must agree with the
  shared central-difference oracle (:mod:`tests.gradcheck`) to
  ``MAX_FD_REL_ERR`` on spot-checked coordinates;
* **saved bytes** — across a sequence-length sweep, ``tracemalloc``'s
  retained-after-forward bytes must sit within ``MAX_SAVED_REL_ERR`` of
  :func:`~repro.nn.backprop.analytic_saved_bytes` (two ``(B, T, H)``
  tensors per layer) at the longest swept length; the full-step
  high-water mark is reported beside it;
* **step time** — min-of-``REPEATS`` step time (warmup first, GC paused:
  allocation noise is one-sided) is reported as ``step_s``, ungated;
* **calibration consumer** — fine-tuning on a drifted synthetic teacher
  must converge, re-fingerprint the weights, and demonstrably move the
  quantities the inference stack derives from gate statistics: the DRS
  skip fraction shifts and ``>= MIN_BREAKPOINTS_MOVED`` measured
  breakpoint placements move at a threshold frozen *before* training.

Runs in short mode (smaller workload, same gates) when
``REPRO_BENCH_SHORT=1`` — the CI training-gate job uses it::

    REPRO_BENCH_SHORT=1 PYTHONPATH=src python benchmarks/bench_training.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

# The shared FD oracle lives in tests/ (a package rooted at the repo, not
# on PYTHONPATH=src when this runs as a script).
_REPO_ROOT = pathlib.Path(__file__).parent.parent
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from repro.bench.deflake import REPEATS, SHORT, WARMUP, gc_paused
from repro.bench.gates import GateSet
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode
from repro.core.reference import ReferenceExecutor
from repro.core.tuner import collect_relevance_samples
from repro.nn.backprop import (
    analytic_saved_bytes,
    measure_training_memory,
    rebuild_gates,
    training_forward,
    training_step,
)
from repro.nn.calibrate import (
    DriftSpec,
    drift_network,
    drift_report,
    fine_tune,
    synthetic_drift_batch,
)
from repro.nn.model_zoo import build_calibrated_network
from repro.nn.network import LSTMNetwork
from tests.gradcheck import DEFAULT_TOLERANCE, finite_difference_check

VOCAB = 120
NUM_CLASSES = 8

#: Gradient-check workload — small on purpose: the FD oracle pays two
#: forward passes per probed coordinate.
GRAD_HIDDEN = 24
GRAD_LAYERS = 2
GRAD_SEQ = 16
GRAD_BATCH = 3

#: Saved-bytes sweep (B, [T...]) and the timing workload.
SWEEP_BATCH = 4 if SHORT else 8
SWEEP_SEQ_LENS = (32, 128) if SHORT else (32, 64, 128, 256)
TIME_HIDDEN = 64
TIME_LAYERS = 2
TIME_SEQ = 32 if SHORT else 64
TIME_BATCH = 4 if SHORT else 8

#: Timing discipline (WARMUP/REPEATS/gc_paused) is the shared de-flake
#: harness in repro.bench.deflake: untimed warmup, then the min of
#: repeats with GC paused — allocation/GC noise only ever adds time, so
#: the min is the honest estimate.

#: Gate bounds.
MAX_FD_REL_ERR = DEFAULT_TOLERANCE
MAX_REBUILD_ERR = 1e-12
MAX_SAVED_REL_ERR = 0.25
MIN_BREAKPOINTS_MOVED = 1

#: Calibration workload.
CAL_STEPS = 4 if SHORT else 6
CAL_SEQUENCES = 4 if SHORT else 6
CAL_LR = 5e-2


def _network(hidden: int, layers: int, seq_len: int, seed: int = 0) -> LSTMNetwork:
    config = LSTMConfig(
        hidden_size=hidden, num_layers=layers, seq_length=seq_len, input_size=hidden
    )
    return LSTMNetwork(
        config, vocab_size=VOCAB, num_classes=NUM_CLASSES, seed=seed, head_pool=4
    )


def _batch(network: LSTMNetwork, batch: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, network.vocab_size, size=(batch, network.config.seq_length))
    labels = rng.integers(0, network.num_classes, size=batch)
    return tokens, labels


def check_gradients(gates: GateSet) -> dict:
    """One forward, a faithful rebuild, and the finite-difference oracle."""
    network = _network(GRAD_HIDDEN, GRAD_LAYERS, GRAD_SEQ)
    tokens, labels = _batch(network, GRAD_BATCH)

    tape = training_forward(network, tokens)
    reference = ReferenceExecutor(
        network, ExecutionConfig(mode=ExecutionMode.BASELINE)
    ).run_batch(tokens, collect_states=True)
    identical = np.array_equal(tape.logits, reference.logits) and all(
        np.array_equal(layer.y, y) and np.array_equal(layer.c, c)
        for layer, y, c in zip(tape.layers, reference.layer_outputs, reference.layer_states)
    )
    gates.require_true(
        "forward_is_reference",
        identical,
        detail="logits, Y and C vs ReferenceExecutor(BASELINE), exact fp64 equality",
    )

    rebuild_err = 0.0
    xs = network.embedding[tokens]
    hidden = GRAD_HIDDEN
    for layer, saved in zip(network.layers, tape.layers):
        rebuilt, _ = rebuild_gates(layer.weights, xs, saved.y)
        f, i, g, o = (
            rebuilt[:, k * hidden : (k + 1) * hidden].reshape(saved.y.shape)
            for k in range(4)
        )
        c_prev = np.zeros_like(saved.c)
        c_prev[:, 1:] = saved.c[:, :-1]
        rebuild_err = max(
            rebuild_err,
            float(np.max(np.abs(o * np.tanh(saved.c) - saved.y))),
            float(np.max(np.abs(f * c_prev + i * g - saved.c))),
        )
        xs = saved.y
    gates.require_at_most(
        "rebuild_matches_tape",
        rebuild_err,
        MAX_REBUILD_ERR,
        detail="max |o*tanh(C) - Y|, |f*c_prev + i*g - C| over every layer",
    )

    _, analytic = training_step(network, tokens, labels)
    fd_err = finite_difference_check(
        lambda: training_step(network, tokens, labels)[0],
        network.parameters(),
        analytic.arrays(),
        rng=np.random.default_rng(7),
        coords_per_array=2 if SHORT else 4,
    )
    gates.require_at_most(
        "fd_max_rel_err",
        fd_err,
        MAX_FD_REL_ERR,
        detail="central differences, max(1,|a|,|f|) denominator",
    )
    return {
        "hidden": GRAD_HIDDEN,
        "layers": GRAD_LAYERS,
        "seq_len": GRAD_SEQ,
        "batch": GRAD_BATCH,
        "forward_is_reference": identical,
        "rebuild_max_abs_err": rebuild_err,
        "fd_max_rel_err": fd_err,
    }


def check_saved_bytes(gates: GateSet) -> dict:
    """Measured saved bytes against the analytic model over sequence length."""
    sweep: list[dict] = []
    for seq_len in SWEEP_SEQ_LENS:
        network = _network(TIME_HIDDEN, TIME_LAYERS, seq_len, seed=2)
        tokens, labels = _batch(network, SWEEP_BATCH, seed=seq_len)
        if not sweep:
            # The first step in a process also imports the executor's lazily
            # loaded modules; keep that out of the measured rows.
            training_step(network, tokens, labels)
        measured = measure_training_memory(network, tokens, labels)
        analytic = analytic_saved_bytes(network, SWEEP_BATCH, seq_len)
        sweep.append(
            {
                "seq_len": seq_len,
                "batch": SWEEP_BATCH,
                "analytic_saved_bytes": analytic,
                "measured_saved_bytes": measured["measured_saved_bytes"],
                "measured_peak_bytes": measured["measured_peak_bytes"],
                "saved_rel_err": abs(measured["measured_saved_bytes"] - analytic) / analytic,
            }
        )

    longest = sweep[-1]
    gates.require_at_most(
        "saved_bytes_rel_err",
        longest["saved_rel_err"],
        MAX_SAVED_REL_ERR,
        detail=(
            f"|tracemalloc - analytic| / analytic saved bytes at T={longest['seq_len']} "
            f"(peak {longest['measured_peak_bytes'] / 1e6:.2f} MB)"
        ),
    )
    return {"hidden": TIME_HIDDEN, "layers": TIME_LAYERS, "sweep": sweep}


def check_step_time() -> dict:
    """Min-of-REPEATS step time with GC paused (reported, not gated)."""
    network = _network(TIME_HIDDEN, TIME_LAYERS, TIME_SEQ, seed=3)
    tokens, labels = _batch(network, TIME_BATCH, seed=5)
    for _ in range(WARMUP):
        training_step(network, tokens, labels)
    best = float("inf")
    with gc_paused():
        for _ in range(REPEATS):
            start = time.perf_counter()
            training_step(network, tokens, labels)
            best = min(best, time.perf_counter() - start)
    return {
        "hidden": TIME_HIDDEN,
        "layers": TIME_LAYERS,
        "seq_len": TIME_SEQ,
        "batch": TIME_BATCH,
        "warmup": WARMUP,
        "repeats": REPEATS,
        "step_s": best,
    }


def check_calibration(gates: GateSet) -> dict:
    """The consumer loop: drift -> fine-tune -> gate statistics move."""
    config = LSTMConfig(hidden_size=24, num_layers=2, seq_length=20, input_size=16)
    network = build_calibrated_network(
        config=config, vocab_size=40, num_classes=6, seed=0
    )
    frozen = build_calibrated_network(
        config=config, vocab_size=40, num_classes=6, seed=0
    )
    teacher = drift_network(network, DriftSpec(magnitude=1.0))
    tokens, labels = synthetic_drift_batch(
        teacher, num_sequences=CAL_SEQUENCES, seed=11
    )
    result = fine_tune(network, tokens, labels, steps=CAL_STEPS, lr=CAL_LR)

    gates.require_true(
        "calibration_loss_decreased",
        result.losses[-1] < result.losses[0],
        detail=f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}",
    )
    gates.require_true(
        "calibration_fingerprint_changed",
        result.weights_changed,
        detail="fine_tune must re-fingerprint the network",
    )

    # Threshold frozen on the *pre-training* relevance distribution so any
    # breakpoint movement is attributable to the weights alone.
    pooled = np.sort(np.concatenate(collect_relevance_samples(frozen, tokens)))
    alpha_inter = float(pooled[int(0.3 * (len(pooled) - 1))])
    report = drift_report(
        frozen, network, tokens, alpha_inter=alpha_inter, alpha_intra=0.25
    )
    gates.require_true(
        "calibration_skip_fraction_shifted",
        report.skip_fraction_delta != 0.0,
        detail=f"DRS skip fraction delta {report.skip_fraction_delta:+.4f}",
    )
    gates.require_at_least(
        "calibration_breakpoints_moved",
        report.breakpoints_moved,
        MIN_BREAKPOINTS_MOVED,
        detail=f"alpha_inter={alpha_inter:.3g} (0.3-quantile, frozen weights)",
    )
    return {
        "steps": CAL_STEPS,
        "sequences": CAL_SEQUENCES,
        "lr": CAL_LR,
        "loss_first": result.losses[0],
        "loss_last": result.losses[-1],
        "fingerprint_before": result.fingerprint_before,
        "fingerprint_after": result.fingerprint_after,
        "alpha_inter": alpha_inter,
        "drift": report.as_dict(),
    }


def run() -> tuple[dict, GateSet]:
    gates = GateSet("training")
    gradients = check_gradients(gates)
    saved = check_saved_bytes(gates)
    step_time = check_step_time()
    calibration = check_calibration(gates)
    return {
        "short_mode": SHORT,
        "bounds": {
            "max_fd_rel_err": MAX_FD_REL_ERR,
            "max_rebuild_err": MAX_REBUILD_ERR,
            "max_saved_rel_err": MAX_SAVED_REL_ERR,
            "min_breakpoints_moved": MIN_BREAKPOINTS_MOVED,
        },
        "gradients": gradients,
        "saved_bytes": saved,
        "step_time": step_time,
        "calibration": calibration,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }, gates


def main() -> int:
    report, gates = run()
    out_path = pathlib.Path(__file__).parent.parent / "BENCH_training.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
