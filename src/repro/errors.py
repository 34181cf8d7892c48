"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so that callers can catch
everything raised by this package with a single ``except`` clause while still
being able to distinguish configuration mistakes from simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid model, application, or simulator configuration."""


class ShapeError(ConfigurationError):
    """Tensor operands with incompatible shapes."""


class BackendUnavailableError(ConfigurationError):
    """A requested execution backend cannot run on this host.

    Raised when :func:`repro.core.backends.resolve_backend` is asked for a
    backend whose toolchain is missing — no C compiler for the
    generated-C backend. The message carries the reason so callers (CLI,
    benches) can skip cleanly instead of crashing mid-run.
    """


class PlanError(ReproError):
    """An execution plan is internally inconsistent.

    Raised, for example, when a tissue schedule violates a sub-layer data
    dependency or exceeds the maximum tissue size.
    """


class SimulationError(ReproError):
    """The GPU timing simulator was driven with an impossible workload."""


class BackpressureError(ReproError):
    """The serving runtime's bounded request queue is full.

    Raised by non-blocking submission when accepting the shard would push
    the number of in-flight dispatches past the configured queue depth.
    Callers either retry after collecting results or submit blocking.
    """


class RuntimeStateError(ReproError):
    """The serving runtime was used outside its lifecycle (not started,
    already closed, or a worker died)."""


class CalibrationError(ReproError):
    """Offline calibration (MTS search, threshold tuning) failed to converge."""
