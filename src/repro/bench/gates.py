"""Uniform CI gates for the ``benchmarks/bench_*.py`` scripts.

Every gated benchmark historically grew its own failure bookkeeping —
free-text ``failures`` lists, ``REGRESSION:`` prints, per-script exit
conventions — which made CI logs grep-dependent and inconsistent. A
:class:`GateSet` replaces that: each bound is declared once, every
violation renders as exactly one line

    ``GATE FAIL <bench>/<name>: measured <X> vs bound <Y>``

on stderr, the JSON report embeds the same structured checks, and
:meth:`GateSet.exit_code` is the script's return value — nonzero on any
failure, so CI never has to parse a table to know a gate tripped.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.core.backends import GRADED_ATOL


def _fmt(value: object) -> str:
    """Compact human/machine-stable rendering of a gate operand."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass
class GateCheck:
    """One declared bound and its measurement."""

    name: str
    measured: object
    bound: object
    comparison: str  # ">=", "<=", "=="
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-report form."""
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "comparison": self.comparison,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class GateSet:
    """Collects a benchmark's gate checks and renders failures uniformly.

    Args:
        bench: Short benchmark name prefixed into every failure line
            (e.g. ``"executor"`` renders ``GATE FAIL executor/<name>: ...``).
    """

    bench: str
    checks: list[GateCheck] = field(default_factory=list)

    def require_at_least(
        self, name: str, measured: float, bound: float, detail: str = ""
    ) -> bool:
        """Gate on ``measured >= bound`` (floors: speedups, goodput)."""
        return self._add(name, float(measured), float(bound), ">=",
                         float(measured) >= float(bound), detail)

    def require_at_most(
        self, name: str, measured: float, bound: float, detail: str = ""
    ) -> bool:
        """Gate on ``measured <= bound`` (ceilings: latency, overhead)."""
        return self._add(name, float(measured), float(bound), "<=",
                         float(measured) <= float(bound), detail)

    def require_true(self, name: str, measured: bool, detail: str = "") -> bool:
        """Gate on a boolean invariant (bit-identity, no leaks)."""
        return self._add(name, bool(measured), True, "==", bool(measured), detail)

    def _add(
        self,
        name: str,
        measured: object,
        bound: object,
        comparison: str,
        passed: bool,
        detail: str,
    ) -> bool:
        self.checks.append(
            GateCheck(
                name=name,
                measured=measured,
                bound=bound,
                comparison=comparison,
                passed=passed,
                detail=detail,
            )
        )
        return passed

    # -------------------------------------------------------------- results

    @property
    def passed(self) -> bool:
        """Whether every declared gate held."""
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[str]:
        """One canonical ``GATE FAIL`` line per violated gate."""
        lines = []
        for check in self.checks:
            if check.passed:
                continue
            line = (
                f"GATE FAIL {self.bench}/{check.name}: measured "
                f"{_fmt(check.measured)} vs bound {_fmt(check.bound)}"
            )
            if check.detail:
                line += f" ({check.detail})"
            lines.append(line)
        return lines

    def as_dict(self) -> dict:
        """Structured block for the benchmark's JSON report."""
        return {
            "bench": self.bench,
            "checks": [check.as_dict() for check in self.checks],
            "failures": self.failures,
            "passed": self.passed,
        }

    def exit_code(self, stream=None) -> int:
        """Print every failure line (stderr by default); 0 iff all passed."""
        stream = sys.stderr if stream is None else stream
        for line in self.failures:
            print(line, file=stream)
        if self.passed:
            print(f"{self.bench} gates passed", file=stream)
        return 0 if self.passed else 1


def grade_check(result, reference, exact: bool) -> tuple[str, bool]:
    """One run's logits against its oracle's, at the grade
    :func:`repro.core.backends.is_exact` assigns: ``("bit-identical",
    equal)`` in the exact tier, ``("graded", within GRADED_ATOL with equal
    predictions)`` in the graded one."""
    if exact:
        return "bit-identical", bool(np.array_equal(result.logits, reference.logits))
    close = np.abs(result.logits - reference.logits).max() <= GRADED_ATOL
    return "graded", bool(close and np.array_equal(result.predictions(), reference.predictions()))
