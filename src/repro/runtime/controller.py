"""Online SLO control over a tenant's frontier of execution schemes.

A tenant's frontier is a list of
:class:`~repro.core.executor.ExecutionConfig` — each a mode with its
threshold set (``alpha_inter``, ``alpha_intra``), MTS, precision, backend
and threads, the paper's scheme picked per user (Figs. 18 and 19) — most
accurate first. This module closes the paper's user-oriented knob into a
runtime loop: a per-tenant :class:`SLOController` watches the tenant's
tail latency (from completed requests) and its sampled shadow-execution
agreement (from :class:`~repro.runtime.shadow.ShadowSampler`), and walks
the frontier — one step toward the fast end when the p99 SLO is violated,
one step back toward the accurate end when agreement sinks below the
floor.

Two damping mechanisms keep the loop from oscillating on noise:

* **hysteresis** — a move needs ``hysteresis`` *consecutive* violating
  decisions, so a single bad window never reconfigures a tenant;
* **cooldown** — after a move, decisions pause for ``cooldown_ticks``
  and both observation windows are cleared, because samples gathered
  under the old scheme say nothing about the new one.

Accuracy violations outrank latency violations: a tenant that is both
slow and wrong first steps back toward the accurate end — the SLO
contract treats agreement as a floor, latency as a target.

The controller is deterministic: decisions depend only on the observed
sample streams, so virtual-time benches replay identical trajectories.
A tenant constructed without a controller never touches this module —
the fp64 no-op discipline is preserved by absence, not by a flag.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.executor import ExecutionConfig
from repro.errors import ConfigurationError

#: Completed-request latencies kept for the p99 estimate.
LATENCY_WINDOW = 64
#: Shadow agreement samples kept; one suffices for a decision (shadow
#: sampling is already sparse).
AGREEMENT_WINDOW = 4


@dataclass(frozen=True)
class TenantSLO:
    """The per-tenant service contract the controller holds.

    Attributes:
        p99_latency_s: Tail-latency target over the controller's rolling
            window of completed-request latencies.
        min_agreement: Floor on sampled shadow-execution agreement (the
            paper's Δ-accuracy vs the exact fp64 oracle).
    """

    p99_latency_s: float
    min_agreement: float = 0.98

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p99_latency_s) and self.p99_latency_s > 0):
            raise ConfigurationError(
                f"p99_latency_s must be finite and positive, got {self.p99_latency_s}"
            )
        if not 0.0 <= self.min_agreement <= 1.0:
            raise ConfigurationError(
                f"min_agreement must be in [0, 1], got {self.min_agreement}"
            )


@dataclass(frozen=True)
class ControllerMove:
    """One recorded frontier step."""

    tick: int
    from_index: int
    to_index: int
    reason: str  # "latency" or "agreement"


class SLOController:
    """Hysteresis step controller over an accurate→fast frontier.

    Args:
        points: The frontier: a list of
            :class:`~repro.core.executor.ExecutionConfig`, most accurate
            first (index 0), fastest last.
        slo: The contract to hold.
        start_index: Initial frontier position.
        hysteresis: Consecutive violating decisions required to move.
        cooldown_ticks: Decision ticks skipped after a move.
        min_latency_samples: Latency samples (of the last
            :data:`LATENCY_WINDOW`) required before the p99 estimate is
            trusted.
    """

    def __init__(
        self,
        points: Sequence[ExecutionConfig],
        slo: TenantSLO,
        start_index: int = 0,
        hysteresis: int = 2,
        cooldown_ticks: int = 4,
        min_latency_samples: int = 8,
    ) -> None:
        if not points:
            raise ConfigurationError("controller needs at least one frontier config")
        if not 0 <= start_index < len(points):
            raise ConfigurationError(
                f"start_index {start_index} out of range for {len(points)} points"
            )
        if hysteresis < 1 or cooldown_ticks < 0 or min_latency_samples < 1:
            raise ConfigurationError(
                "need hysteresis >= 1, cooldown_ticks >= 0, min_latency_samples >= 1"
            )
        self.points = list(points)
        self.slo = slo
        self.index = start_index
        self.hysteresis = hysteresis
        self.cooldown_ticks = cooldown_ticks
        self.min_latency_samples = min_latency_samples
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._agreements: deque[float] = deque(maxlen=AGREEMENT_WINDOW)
        self._violations = 0  # consecutive violating decisions
        self._violation_reason = ""
        self._cooldown = 0
        self._ticks = 0
        self.moves: list[ControllerMove] = []

    # ------------------------------------------------------------ observing

    @property
    def point(self) -> ExecutionConfig:
        """The frontier config the tenant should currently run."""
        return self.points[self.index]

    def observe_latency(self, seconds: float) -> None:
        """Feed one completed request's admission-to-completion latency."""
        self._latencies.append(float(seconds))

    def observe_agreement(self, fraction: float) -> None:
        """Feed one sampled shadow-execution agreement measurement."""
        self._agreements.append(float(fraction))

    def p99(self) -> float | None:
        """Current windowed p99 latency, or ``None`` below the sample floor."""
        if len(self._latencies) < self.min_latency_samples:
            return None
        return float(np.percentile(np.asarray(self._latencies), 99.0))

    def agreement(self) -> float | None:
        """Mean of the agreement window, or ``None`` without samples."""
        if not self._agreements:
            return None
        return float(np.mean(self._agreements))

    # ------------------------------------------------------------- deciding

    def _wanted_step(self) -> tuple[int, str]:
        """Direction the current windows ask for: (-1/0/+1, reason)."""
        agreement = self.agreement()
        if agreement is not None and agreement < self.slo.min_agreement:
            # Accuracy outranks latency: never trade further accuracy away
            # while the agreement floor is already broken.
            return (-1, "agreement") if self.index > 0 else (0, "")
        p99 = self.p99()
        if p99 is not None and p99 > self.slo.p99_latency_s:
            return (1, "latency") if self.index < len(self.points) - 1 else (0, "")
        return (0, "")

    def decide(self) -> ExecutionConfig | None:
        """One decision tick; returns the new config when a move fires.

        Call once per scheduler tick that served this tenant. Honors the
        cooldown, requires ``hysteresis`` consecutive ticks agreeing on
        the same direction, and clears both observation windows on a
        move (stale samples describe the old configuration).
        """
        self._ticks += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        step, reason = self._wanted_step()
        if step == 0:
            self._violations = 0
            self._violation_reason = ""
            return None
        if reason != self._violation_reason:
            self._violations = 0
            self._violation_reason = reason
        self._violations += 1
        if self._violations < self.hysteresis:
            return None
        new_index = self.index + step
        self.moves.append(
            ControllerMove(
                tick=self._ticks,
                from_index=self.index,
                to_index=new_index,
                reason=reason,
            )
        )
        self.index = new_index
        self._violations = 0
        self._violation_reason = ""
        self._cooldown = self.cooldown_ticks
        self._latencies.clear()
        self._agreements.clear()
        return self.point

    def as_dict(self) -> dict:
        """Status summary for bench reports."""
        return {
            "index": self.index,
            "point": {
                "mode": self.point.mode.value,
                "alpha_inter": self.point.alpha_inter,
                "alpha_intra": self.point.alpha_intra,
                "precision": self.point.precision.tag,
            },
            "p99_s": self.p99(),
            "agreement": self.agreement(),
            "moves": [
                {
                    "tick": m.tick,
                    "from_index": m.from_index,
                    "to_index": m.to_index,
                    "reason": m.reason,
                }
                for m in self.moves
            ],
        }
