"""Execution-backend registry for compiled programs.

``ExecutionConfig.backend`` names how :class:`~repro.core.executor.
LSTMExecutor` lowers plans into compiled programs:

* ``"numpy"`` — the default: the :mod:`repro.core.program` lowerings,
  whose BLAS-dispatch-pinned stepwise arithmetic carries the fp64
  contract with :class:`~repro.core.reference.ReferenceExecutor` —
  bit-identical in BASELINE / INTER / INTRA / ZERO_PRUNE. COMBINED runs
  its tissues and layer >= 1 input projections as real GEMMs and is
  graded: within ``1e-9`` with equal predictions.
* ``"cgen"`` — generated-C fused kernels (:mod:`repro.core.cgen`): one
  native call per layer run, GEMM + fused gate epilogue, in-kernel DRS
  row compaction, Appleyard timestep-batched input GEMM, and a native
  combined-mode tissue walk. Needs a host C compiler; graded in every
  mode.

:func:`is_exact` is the one place that grade is decided. The name is
checked once, at executor construction (:func:`resolve_backend`), so a
missing toolchain fails fast with a
:class:`~repro.errors.BackendUnavailableError` naming the reason rather
than deep inside a run. Programs of every backend are built from the
layer's ``_UnitedWeights`` — views of the network's own blocks — and lease
their workspace from the arena the factory is handed (a private one when
it is omitted). Two invariants every backend keeps:

* **Plans are backend-invariant.** Anywhere the inter-level planner reads
  projection bits, every backend reads the same ones: inter-active
  stepwise layers and COMBINED's layer 0 run the one exact per-row lift,
  :func:`~repro.core.program.project_rows` (gate by gate, in aligned
  weight slabs for large gates), and COMBINED's layers >= 1 use one
  ``(B*T, E) @ (E, 4H)`` GEMM on every backend. Relevance values,
  breakpoints and tissue schedules therefore match across backends for
  equal layer inputs, at every width — a per-row lift against the united
  ``(E, 4H)`` block would not: its bits leave the gate-wise lift's
  whenever ``H % 4 != 0``. Only the gate arithmetic differs at tolerance
  level.
* **The simulator plane is untouched.** Kernel traces and bytes-moved
  accounting describe the *modeled mobile GPU* execution of a plan; a
  host backend changes how the numerics are computed, never the plan, so
  weight-traffic counters are identical across backends (tested).
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
    """The oracle grade of one ``(backend, mode)`` pair.

    *Exact* — bit-identical to :class:`~repro.core.reference.
    ReferenceExecutor` — means the numpy backend in a stepwise mode
    (BASELINE / INTER / INTRA / ZERO_PRUNE). Everything else is *graded*:
    logits within :data:`GRADED_ATOL` with equal predictions and identical
    plans.
    That is COMBINED on any backend (its tissues and input projections
    run as real GEMMs) and cgen in any mode.
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
    """Build one stepwise program under a *resolved* backend name."""
    if backend == "numpy":
        program_type = StepwiseProgram
    elif backend == "cgen":
        from repro.core.cgen import CGenStepwiseProgram as program_type
    else:
        raise ConfigurationError(f"unresolved backend {backend!r}")
    return program_type(united, link, batch, seq_len, drs_alpha=drs_alpha, arena=arena)


def make_combined_program(
    backend: str,
    united: "_UnitedWeights",
    link: "PredictedLink",
    batch: int,
    seq_len: int,
    mts: int,
    alpha_intra: float = 0.0,
    arena: WorkspaceArena | None = None,
):
    """Build one combined-mode layer program under a *resolved* backend name."""
    if backend == "cgen":
        from repro.core.cgen import CGenCombinedProgram as program_type
    else:
        program_type = CombinedGroupProgram
    return program_type(
        united, link, batch, seq_len, mts, alpha_intra=alpha_intra, arena=arena
    )
