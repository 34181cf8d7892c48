"""On-device calibration: fine-tune zoo models on synthetic drift.

The inference stack calibrates once and freezes: thresholds, breakpoints
and DRS skip ratios are all derived from the gate statistics of the zoo
weights at build time. Real deployments drift — input distributions move,
gates re-open, the frozen plan slowly mis-prices the weight traffic. This
module closes the loop: a small SGD/Adam fine-tuning pass (driven by the
memory-frugal BPTT of :mod:`repro.nn.backprop`) retrains a model toward a
*drifted teacher*, re-fingerprints the weights, and re-measures the gate
statistics the tuner and executor consume — demonstrating that breakpoint
placement and DRS skip ratios are live quantities, not constants.

Pieces:

* :class:`SGD` / :class:`Adam` — minimal in-place optimizers over the
  canonical parameter order of :meth:`~repro.nn.network.LSTMNetwork.
  parameters`.
* :func:`drift_network` — the synthetic drift model: a copy of the
  network whose output/forget-gate biases and input projections are
  shifted, the way retraining on moved data shifts trained gates.
* :func:`fine_tune` — the training loop (self-labelled: targets are the
  drifted teacher's own predictions, the zoo's task convention).
* :func:`measure_gate_statistics` / :func:`drift_report` — the measured
  consumer quantities: DRS skip fraction through the real executor path
  and breakpoint placement from the relevance analysis, before vs after.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.backprop import TrainingTape, backward, training_forward
from repro.nn.network import LSTMNetwork

# repro.core imports stay function-local below: repro.core itself imports
# repro.nn at package-init time, so importing the executor here would
# close an import cycle.

#: Optimizer registry for :func:`build_optimizer` / the CLI.
OPTIMIZERS: tuple[str, ...] = ("sgd", "adam")


class SGD:
    """Plain (optionally momentum) SGD updating parameters in place."""

    def __init__(self, lr: float = 1e-2, momentum: float = 0.0) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one update; ``params[k] -= lr * (velocity or grad)``."""
        if len(params) != len(grads):
            raise ConfigurationError("parameter/gradient count mismatch")
        if self.momentum == 0.0:
            for p, g in zip(params, grads):
                p -= self.lr * g
            return
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self._velocity):
            v *= self.momentum
            v += g
            p -= self.lr * v


class Adam:
    """Adam with bias correction, updating parameters in place."""

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one bias-corrected Adam update."""
        if len(params) != len(grads):
            raise ConfigurationError("parameter/gradient count mismatch")
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        correction1 = 1.0 - self.beta1**self._t
        correction2 = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / correction1) / (np.sqrt(v / correction2) + self.eps)


def build_optimizer(name: str, lr: float) -> "SGD | Adam":
    """Construct an optimizer by registry name (``sgd`` / ``adam``)."""
    if name == "sgd":
        return SGD(lr=lr)
    if name == "adam":
        return Adam(lr=lr)
    raise ConfigurationError(
        f"unknown optimizer {name!r} (choose from {', '.join(OPTIMIZERS)})"
    )


# ------------------------------------------------------------------- drift


@dataclass(frozen=True)
class DriftSpec:
    """Synthetic drift applied to a teacher copy of the network.

    The shifts target exactly the statistics the inference optimizations
    key on: ``output_bias_shift`` re-opens near-zero output gates (moving
    the DRS skip ratio), ``forget_bias_shift`` and ``recurrent_scale``
    move the reachable pre-activation ranges (moving relevance, hence
    breakpoint placement), ``input_scale`` shifts the saturation share.
    ``magnitude`` scales every shift jointly — the CLI's ``--drift`` knob.
    """

    output_bias_shift: float = 0.8
    forget_bias_shift: float = -0.3
    recurrent_scale: float = 1.1
    input_scale: float = 1.05
    magnitude: float = 1.0

    def scaled(self, value: float) -> float:
        """A shift scaled by the joint magnitude."""
        return value * self.magnitude


def drift_network(network: LSTMNetwork, spec: DriftSpec | None = None) -> LSTMNetwork:
    """A drifted deep copy of ``network`` (the synthetic-drift teacher)."""
    from repro.core.plan import invalidate_weight_fingerprints

    spec = spec if spec is not None else DriftSpec()
    drifted = copy.deepcopy(network)
    # The deepcopy clones any memoized per-layer digest along with the
    # weights; the mutations below would leave it stale.
    invalidate_weight_fingerprints(drifted)
    rec_scale = 1.0 + spec.scaled(spec.recurrent_scale - 1.0)
    in_scale = 1.0 + spec.scaled(spec.input_scale - 1.0)
    for layer in drifted.layers:
        weights = layer.weights
        weights.b_o += spec.scaled(spec.output_bias_shift)
        weights.b_f += spec.scaled(spec.forget_bias_shift)
        for name in ("u_f", "u_i", "u_c", "u_o"):
            getattr(weights, name)[...] *= rec_scale
        for name in ("w_f", "w_i", "w_c", "w_o"):
            getattr(weights, name)[...] *= in_scale
    return drifted


def synthetic_drift_batch(
    teacher: LSTMNetwork, num_sequences: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A self-labelled drift batch: random tokens, teacher predictions.

    The zoo's task convention (ground truth = the exact network's own
    prediction) carries over: the drifted teacher defines the drifted
    task, and fine-tuning pulls the student's gate statistics toward it.
    """
    rng = np.random.default_rng(seed)
    tokens = rng.integers(
        0, teacher.vocab_size, size=(num_sequences, teacher.config.seq_length)
    )
    labels = np.argmax(training_forward(teacher, tokens).logits, axis=-1)
    return tokens, labels


# --------------------------------------------------------------- fine-tune


@dataclass
class FineTuneResult:
    """Outcome of one fine-tuning run (the network is updated in place)."""

    losses: list[float]
    fingerprint_before: str
    fingerprint_after: str
    wall_s: float
    final_tape: TrainingTape | None = None

    @property
    def steps(self) -> int:
        """Number of optimizer steps taken."""
        return len(self.losses)

    @property
    def weights_changed(self) -> bool:
        """Whether training actually moved the weights (fingerprints)."""
        return self.fingerprint_before != self.fingerprint_after


def fine_tune(
    network: LSTMNetwork,
    tokens: np.ndarray,
    labels: np.ndarray,
    steps: int = 8,
    optimizer: "SGD | Adam | str" = "adam",
    lr: float = 1e-2,
    truncation: int | None = None,
    keep_final_tape: bool = False,
) -> FineTuneResult:
    """Fine-tune ``network`` in place on one labelled batch.

    Args:
        network: The student (updated in place; fingerprint re-derived).
        tokens: ``(B, T)`` token batch.
        labels: Targets — ``(B,)`` or ``(B, T)`` matching the head.
        steps: Full-batch optimizer steps.
        optimizer: Instance or registry name (``lr`` applies to names).
        truncation: Truncated-BPTT window of the backward pass
            (:func:`~repro.nn.backprop.backward`).
        keep_final_tape: Retain the last step's tape on the result (for
            memory reporting) instead of dropping it.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be positive, got {steps}")
    from repro.core.plan import fingerprint_network, invalidate_weight_fingerprints

    if isinstance(optimizer, str):
        optimizer = build_optimizer(optimizer, lr)
    params = network.parameters()
    fingerprint_before = fingerprint_network(network)
    losses: list[float] = []
    final_tape: TrainingTape | None = None
    start = time.perf_counter()
    for step_index in range(steps):
        tape = training_forward(network, tokens)
        loss, grads = backward(tape, labels, truncation)
        optimizer.step(params, grads.arrays())
        losses.append(loss)
        if keep_final_tape and step_index == steps - 1:
            final_tape = tape
    wall_s = time.perf_counter() - start
    # The optimizer rewrote the layer weights in place; drop the memoized
    # digests so the re-fingerprint below hashes the new content.
    invalidate_weight_fingerprints(network)
    return FineTuneResult(
        losses=losses,
        fingerprint_before=fingerprint_before,
        fingerprint_after=fingerprint_network(network),
        wall_s=wall_s,
        final_tape=final_tape,
    )


# ------------------------------------------------------ measured statistics


@dataclass
class GateStatistics:
    """The consumer-side quantities the inference stack derives from the
    gate statistics of one weight set, measured on one token batch."""

    skip_fraction: float
    breakpoints: list[tuple[int, ...]] = field(default_factory=list)
    num_breakpoints: int = 0
    relevance_mean: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly form (breakpoint tuples become lists)."""
        return {
            "skip_fraction": self.skip_fraction,
            "num_breakpoints": self.num_breakpoints,
            "relevance_mean": self.relevance_mean,
            "breakpoints": [list(b) for b in self.breakpoints],
        }


def measure_gate_statistics(
    network: LSTMNetwork,
    tokens: np.ndarray,
    alpha_inter: float,
    alpha_intra: float,
) -> GateStatistics:
    """Measure DRS skip ratio and breakpoint placement on a token batch.

    The skip fraction runs through the *real* executor INTRA path (the
    quantity that prices DRS weight-traffic savings); breakpoints come
    from the relevance analysis thresholded at ``alpha_inter`` (the
    quantity that shapes tissues). Holding ``tokens`` and both thresholds
    fixed makes two calls comparable: any difference is attributable to
    the weights alone.
    """
    from repro.core.breakpoints import find_breakpoints
    from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
    from repro.core.tuner import collect_relevance_samples

    executor = LSTMExecutor(
        network, ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=alpha_intra)
    )
    result = executor.run_batch(np.asarray(tokens))
    skip = float(np.mean([plan.mean_skip_fraction for plan in result.plans]))

    samples = collect_relevance_samples(network, tokens)
    breakpoints = [tuple(find_breakpoints(s, alpha_inter)) for s in samples]
    return GateStatistics(
        skip_fraction=skip,
        breakpoints=breakpoints,
        num_breakpoints=int(sum(len(b) for b in breakpoints)),
        relevance_mean=float(np.mean([s.mean() for s in samples])),
    )


@dataclass
class DriftReport:
    """Before/after gate statistics of one fine-tuning run."""

    before: GateStatistics
    after: GateStatistics

    @property
    def skip_fraction_delta(self) -> float:
        """Signed DRS skip-ratio movement (after - before)."""
        return self.after.skip_fraction - self.before.skip_fraction

    @property
    def breakpoints_moved(self) -> int:
        """Breakpoint placements that changed (symmetric difference over
        every (sequence, layer) relevance sample)."""
        moved = 0
        for b_before, b_after in zip(self.before.breakpoints, self.after.breakpoints):
            moved += len(set(b_before) ^ set(b_after))
        return moved

    @property
    def shifted(self) -> bool:
        """Whether the measured consumer quantities moved at all."""
        return self.skip_fraction_delta != 0.0 or self.breakpoints_moved > 0

    def as_dict(self) -> dict:
        """JSON-friendly summary for bench reports."""
        return {
            "skip_fraction_before": self.before.skip_fraction,
            "skip_fraction_after": self.after.skip_fraction,
            "skip_fraction_delta": self.skip_fraction_delta,
            "num_breakpoints_before": self.before.num_breakpoints,
            "num_breakpoints_after": self.after.num_breakpoints,
            "breakpoints_moved": self.breakpoints_moved,
            "relevance_mean_before": self.before.relevance_mean,
            "relevance_mean_after": self.after.relevance_mean,
            "shifted": self.shifted,
        }


def drift_report(
    before_network: LSTMNetwork,
    after_network: LSTMNetwork,
    tokens: np.ndarray,
    alpha_inter: float,
    alpha_intra: float,
) -> DriftReport:
    """Measure both weight sets on the same batch and same thresholds."""
    return DriftReport(
        before=measure_gate_statistics(before_network, tokens, alpha_inter, alpha_intra),
        after=measure_gate_statistics(after_network, tokens, alpha_inter, alpha_intra),
    )
