"""Execution-backend registry for compiled programs.

``ExecutionConfig.backend`` names how :class:`~repro.core.executor.
LSTMExecutor` lowers the stepwise loop into compiled programs:

* ``"numpy"`` — the default: the :mod:`repro.core.program` lowerings,
  whose BLAS-dispatch-pinned stepwise arithmetic carries the fp64
  contract with :class:`~repro.core.reference.ReferenceExecutor` —
  bit-identical in BASELINE / INTER / INTRA / ZERO_PRUNE. COMBINED runs
  its tissues and layer >= 1 input projections as real GEMMs and is
  graded: within ``1e-9`` with equal predictions.
* ``"cgen"`` — a generated-C fused kernel (:mod:`repro.core.cgen`): one
  native call per layer run, GEMM + fused gate epilogue, in-kernel DRS
  row compaction and the Appleyard timestep-batched input GEMM. Needs a
  host C compiler; graded.

**cgen lowers the stepwise loop; INTER and COMBINED are numpy programs on
every backend.** The executor resolves a structural mode to ``"numpy"``
whatever the config names (:attr:`LSTMExecutor.backend`), so cgen INTER
is exact and cgen COMBINED is numpy COMBINED, and the inter-level planner
reads the same projection bits on every backend: relevance values,
breakpoints and tissue schedules cannot depend on it.

:func:`is_exact` is the one place the grade of a *resolved* backend and
mode is decided. The name is checked once, at executor construction
(:func:`resolve_backend`), so a missing toolchain fails fast with a
:class:`~repro.errors.BackendUnavailableError` naming the reason rather
than deep inside a run. Programs of every backend are built from the
layer's ``_UnitedWeights`` — views of the network's own blocks — and lease
their workspace from the arena the factory is handed (a private one when
it is omitted). Kernel traces and bytes-moved accounting describe the
*modeled mobile GPU* execution of a plan; a host backend changes how the
numerics are computed, never the plan, so weight-traffic counters are
identical across backends (tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.program import CombinedGroupProgram, StepwiseProgram, WorkspaceArena
from repro.errors import BackendUnavailableError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context_prediction import PredictedLink
    from repro.core.executor import ExecutionMode, _UnitedWeights

#: Every accepted ``ExecutionConfig.backend`` value.
BACKEND_NAMES: tuple[str, ...] = ("numpy", "cgen")

#: The graded tier's absolute tolerance on logits, layer outputs and
#: relevance (measured deviations read ~1e-15).
GRADED_ATOL = 1e-9


def backend_availability() -> dict[str, tuple[bool, str]]:
    """Map every backend to ``(available, reason-if-not)``."""
    from repro.core import cgen

    cgen_ok = cgen.compiler_available()
    return {
        "numpy": (True, ""),
        "cgen": (cgen_ok, "" if cgen_ok else "no C compiler (cc/gcc/clang) on this host"),
    }


def validate_backend_name(name: str) -> str:
    """Check a config-level backend name (availability is not probed)."""
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def resolve_backend(name: str) -> str:
    """Check that a backend name is known and can run on this host.

    Raises :class:`~repro.errors.BackendUnavailableError` with the reason
    when its toolchain is missing.
    """
    validate_backend_name(name)
    ok, reason = backend_availability()[name]
    if not ok:
        raise BackendUnavailableError(f"backend {name!r} unavailable: {reason}")
    return name


def is_exact(backend: str, mode: "ExecutionMode | str") -> bool:
    """The oracle grade of one resolved ``(backend, mode)`` pair.

    *Exact* — bit-identical to :class:`~repro.core.reference.
    ReferenceExecutor` — means the numpy backend in a stepwise mode
    (BASELINE / INTER / INTRA / ZERO_PRUNE). Everything else is *graded*:
    logits within :data:`GRADED_ATOL` with equal predictions and identical
    plans. That is COMBINED (its tissues and input projections run as real
    GEMMs) and cgen in BASELINE / INTRA / ZERO_PRUNE; a cgen-configured
    INTER executor resolves to numpy and is exact.
    """
    from repro.core.executor import ExecutionMode

    return backend == "numpy" and ExecutionMode(mode) is not ExecutionMode.COMBINED


def make_stepwise_program(
    backend: str,
    united: "_UnitedWeights",
    link: "PredictedLink",
    batch: int,
    seq_len: int,
    drs_alpha: float = 0.0,
    arena: WorkspaceArena | None = None,
):
    """Build one stepwise program under a *resolved* backend name (only the
    numpy program resets to ``link`` at breakpoints; cgen never divides)."""
    if backend == "numpy":
        return StepwiseProgram(united, link, batch, seq_len, drs_alpha=drs_alpha, arena=arena)
    if backend == "cgen":
        from repro.core.cgen import CGenStepwiseProgram

        return CGenStepwiseProgram(united, batch, seq_len, drs_alpha=drs_alpha, arena=arena)
    raise ConfigurationError(f"unresolved backend {backend!r}")


def make_combined_program(
    united: "_UnitedWeights",
    link: "PredictedLink",
    batch: int,
    seq_len: int,
    mts: int,
    alpha_intra: float = 0.0,
    arena: WorkspaceArena | None = None,
) -> CombinedGroupProgram:
    """Build one combined-mode layer program (numpy on every backend)."""
    return CombinedGroupProgram(
        united, link, batch, seq_len, mts, alpha_intra=alpha_intra, arena=arena
    )
