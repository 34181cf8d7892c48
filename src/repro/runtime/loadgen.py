"""Open-loop load generation and the virtual-time runner of the serving core.

Serving latency is a property of the *arrival process*, not just of the
kernel: an open-loop generator keeps submitting on its own schedule
whether or not the server keeps up, which is what exposes queueing delay
and overload shedding (a closed loop self-throttles and hides both).
This module builds deterministic open-loop workloads with the three
shapes real session traffic has:

* **Poisson arrivals** — session starts are a Poisson process, sampled by
  thinning so the rate may vary over the window;
* **diurnal ramp** — a sinusoidal rate modulation (peak-to-trough set by
  ``diurnal_amplitude``) standing in for time-of-day swings;
* **heavy-tailed session lengths** — bounded Pareto: most sessions are a
  few steps, a few are very long, matching interactive traces.

Everything derives from ``seed`` — the same spec replays the same
arrival times, session ids, lengths, and tokens.

One runner, :func:`run_open_loop`, serves every policy of
:class:`~repro.runtime.serving.ServingCore` and advances a *virtual*
clock: arrivals land at their scheduled virtual times, while each tick's
service time is the measured wall clock of the batched step (or an
injected model, for deterministic tests). Queueing physics are preserved
— when offered load exceeds capacity the virtual clock falls behind the
arrival schedule, queues grow, latency climbs, and the admission bound
sheds — without the bench ever sleeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import BackpressureError, ConfigurationError
from repro.runtime.serving import ServingCore, TickReport


@dataclass(frozen=True)
class LoadSpec:
    """One deterministic open-loop workload.

    Attributes:
        duration_s: Arrival window (virtual seconds).
        session_rate: Mean session starts per second (the Poisson base
            rate before the diurnal modulation).
        seed: Seeds arrivals, session lengths, and token contents.
        chunk_len: Tokens per submission (each session submits its
            sequence in consecutive chunks of this size).
        think_time_s: Virtual gap between one session's consecutive
            submissions.
        diurnal_amplitude: Relative rate swing in ``[0, 1)``:
            ``rate(t) = session_rate * (1 + A * sin(2*pi*t/period))``.
        diurnal_period_s: Period of the modulation.
        session_len_min / session_len_max: Bounds of the session-length
            distribution (total tokens per session).
        session_len_alpha: Pareto tail index; smaller means heavier tail.
    """

    duration_s: float = 10.0
    session_rate: float = 20.0
    seed: int = 0
    chunk_len: int = 4
    think_time_s: float = 0.05
    diurnal_amplitude: float = 0.5
    diurnal_period_s: float = 8.0
    session_len_min: int = 4
    session_len_max: int = 64
    session_len_alpha: float = 1.3

    def __post_init__(self) -> None:
        # A NaN passes every ``<= 0`` check, and a NaN or infinite window or
        # rate never lets the arrival process end: finiteness is checked too.
        for name in ("duration_s", "session_rate", "diurnal_period_s", "session_len_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.think_time_s) and self.think_time_s >= 0):
            raise ConfigurationError(
                f"think_time_s must be finite and non-negative, got {self.think_time_s}"
            )
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if self.session_len_min < 1 or self.session_len_max < self.session_len_min:
            raise ConfigurationError("need 1 <= session_len_min <= session_len_max")
        if self.chunk_len < 1:
            raise ConfigurationError("chunk_len must be >= 1")


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission: a token chunk for one session, or (with a
    ``tenant``) one whole-sequence request for a zoo tenant."""

    time_s: float
    session_id: str
    tokens: np.ndarray
    tenant: str | None = None


def _bounded_pareto(rng: np.random.Generator, spec: LoadSpec) -> int:
    """Heavy-tailed session length in ``[len_min, len_max]`` (inclusive)."""
    lo, hi, alpha = spec.session_len_min, spec.session_len_max, spec.session_len_alpha
    u = rng.random()
    # Inverse CDF of the Pareto truncated to [lo, hi].
    ratio = (lo / hi) ** alpha
    length = lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)
    return int(min(hi, max(lo, math.floor(length))))


def _session_starts(spec: LoadSpec, rng: np.random.Generator) -> Iterator[float]:
    """Poisson session-start times, thinned against the diurnal envelope.

    Lazy, so a caller's per-session draws from ``rng`` interleave with the
    process's own draws — that interleaving is part of the seeded workload.
    """
    peak_rate = spec.session_rate * (1.0 + spec.diurnal_amplitude)
    t = 0.0
    while True:
        t += rng.exponential(1.0 / peak_rate)
        if t >= spec.duration_s:
            return
        rate_t = spec.session_rate * (
            1.0
            + spec.diurnal_amplitude
            * math.sin(2.0 * math.pi * t / spec.diurnal_period_s)
        )
        if rng.random() * peak_rate <= rate_t:  # else thinned out
            yield t


def generate_arrivals(spec: LoadSpec, vocab_size: int) -> list[Arrival]:
    """Materialize the workload's full submission timeline.

    Session starts are Poisson-by-thinning against the diurnal rate
    envelope; each session's length is bounded-Pareto and its tokens are
    uniform over the vocabulary, split into ``chunk_len`` submissions
    spaced ``think_time_s`` apart. Follow-up submissions whose think-time
    offset lands at or past ``duration_s`` are dropped — every arrival in
    the returned timeline falls inside the measurement window, so long
    sessions starting near the end cannot stretch the run past its
    nominal duration. Returns arrivals sorted by time.
    """
    if vocab_size <= 1:
        raise ConfigurationError(f"vocab_size must exceed 1, got {vocab_size}")
    rng = np.random.default_rng(spec.seed)
    arrivals: list[Arrival] = []
    for session_index, t in enumerate(_session_starts(spec, rng)):
        length = _bounded_pareto(rng, spec)
        tokens = rng.integers(0, vocab_size, size=length)
        sid = f"s{session_index:05d}"
        for k, start in enumerate(range(0, length, spec.chunk_len)):
            t_k = t + k * spec.think_time_s
            if k > 0 and t_k >= spec.duration_s:
                break  # would land past the measurement window
            arrivals.append(
                Arrival(
                    time_s=t_k,
                    session_id=sid,
                    tokens=tokens[start : start + spec.chunk_len],
                )
            )
    arrivals.sort(key=lambda a: (a.time_s, a.session_id))
    return arrivals


def generate_tenant_arrivals(
    spec: LoadSpec,
    tenant_weights: dict[str, float],
    vocab_sizes: dict[str, int],
) -> list[Arrival]:
    """Materialize a deterministic multi-tenant arrival mix.

    Session starts follow the same Poisson-by-thinning process against
    the diurnal envelope as :func:`generate_arrivals`; each accepted
    session is then assigned a tenant by normalized ``tenant_weights``
    (drawn from the same seeded stream, so the mix is part of the
    replayable workload), its length is bounded-Pareto, and its tokens
    are uniform over that tenant's vocabulary. Every session is one
    whole-sequence submission (structural planning needs full-sequence
    relevance), an :class:`Arrival` carrying its ``tenant``. Both ``bench_tenancy`` and the
    ``repro serve --policy zoo`` CLI consume this generator, so their workloads agree
    by construction.

    Args:
        spec: The envelope (duration, rate, seed, diurnal, lengths);
            ``chunk_len``/``think_time_s`` are unused here.
        tenant_weights: Relative arrival share per tenant name; must be
            non-empty, each weight finite and positive.
        vocab_sizes: Vocabulary bound per tenant (every tenant needs an
            entry).
    """
    if not tenant_weights:
        raise ConfigurationError("tenant_weights must name at least one tenant")
    names = sorted(tenant_weights)
    weights = np.asarray([float(tenant_weights[name]) for name in names])
    # A NaN fails every comparison and an infinite weight makes the shares
    # NaN, so the check is positive weights with a finite total.
    if not (np.all(weights > 0) and np.isfinite(weights.sum())):
        raise ConfigurationError(
            f"tenant weights must be finite and positive, got {tenant_weights}"
        )
    missing = [name for name in names if name not in vocab_sizes]
    if missing:
        raise ConfigurationError(
            f"vocab_sizes missing tenant(s): {', '.join(missing)}"
        )
    for name in names:
        if vocab_sizes[name] <= 1:
            raise ConfigurationError(
                f"vocab_size for tenant {name!r} must exceed 1, "
                f"got {vocab_sizes[name]}"
            )
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(spec.seed)
    arrivals: list[Arrival] = []
    for session_index, t in enumerate(_session_starts(spec, rng)):
        tenant = names[int(rng.choice(len(names), p=probabilities))]
        length = _bounded_pareto(rng, spec)
        tokens = rng.integers(0, vocab_sizes[tenant], size=length)
        arrivals.append(
            Arrival(
                time_s=t,
                session_id=f"{tenant}-s{session_index:05d}",
                tokens=tokens,
                tenant=tenant,
            )
        )
    arrivals.sort(key=lambda a: (a.time_s, a.session_id))
    return arrivals


@dataclass
class LoadReport:
    """Outcome of one open-loop run (or of one tenant's share of it)."""

    offered_submissions: int = 0
    completed_submissions: int = 0
    shed_submissions: int = 0
    offered_tokens: int = 0
    completed_tokens: int = 0
    duration_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: Completion time of each ``latencies_s`` entry, in completion order —
    #: windowed tail analysis (the controller convergence gate) slices by it.
    completed_at_s: list[float] = field(default_factory=list)
    #: Per-tenant reports when the arrivals carry tenants; empty otherwise.
    per_tenant: dict[str, "LoadReport"] = field(default_factory=dict)

    def _owners(self, tenant: str | None) -> tuple["LoadReport", ...]:
        """The reports an event of ``tenant`` counts in: this one, and its
        tenant's."""
        if tenant is None:
            return (self,)
        return self, self.per_tenant.setdefault(tenant, LoadReport())

    @property
    def goodput_tokens_per_s(self) -> float:
        """Tokens of *completed* submissions per virtual second."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed_tokens / self.duration_s

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered submissions shed at admission."""
        if self.offered_submissions == 0:
            return 0.0
        return self.shed_submissions / self.offered_submissions

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (``q`` in [0, 100])."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    def as_dict(self) -> dict:
        """Flat summary for bench reports (plus ``per_tenant`` when split)."""
        summary = {
            "offered_submissions": self.offered_submissions,
            "completed_submissions": self.completed_submissions,
            "shed_submissions": self.shed_submissions,
            "shed_fraction": self.shed_fraction,
            "offered_tokens": self.offered_tokens,
            "completed_tokens": self.completed_tokens,
            "duration_s": self.duration_s,
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "latency_p50_s": self.percentile(50.0),
            "latency_p99_s": self.percentile(99.0),
            "latency_p999_s": self.percentile(99.9),
            "latency_mean_s": (
                float(np.mean(self.latencies_s)) if self.latencies_s else 0.0
            ),
            "latency_max_s": (
                float(np.max(self.latencies_s)) if self.latencies_s else 0.0
            ),
        }
        if self.per_tenant:
            summary["per_tenant"] = {
                name: report.as_dict() for name, report in sorted(self.per_tenant.items())
            }
        return summary


def run_open_loop(
    server: ServingCore,
    arrivals: list[Arrival],
    tick_interval_s: float = 0.002,
    service_model: Callable[[TickReport], float] | None = None,
) -> LoadReport:
    """Drive a serving policy through an arrival timeline on virtual time.

    Ticks fire every ``tick_interval_s`` of virtual time, arrivals are
    submitted at their scheduled times (``server.submit_arrival``), and
    each tick advances the clock to its ``end_s``: the tick's start plus
    its *measured* execution wall, or ``service_model(report)`` when a
    model is injected — tests and the gates pass one to make overload
    deterministic. A submission's latency is admission to the end of the
    tick that served its last part, the same number a zoo tenant's
    controller observes.

    Returns the :class:`LoadReport`, split per tenant when the arrivals
    carry tenants; occupancy/shed counters accumulate on the server's
    stats.
    """
    if not (math.isfinite(tick_interval_s) and tick_interval_s > 0):
        raise ConfigurationError(
            f"tick_interval_s must be finite and positive, got {tick_interval_s}"
        )
    report = LoadReport()
    now = 0.0
    next_tick = tick_interval_s
    idx = 0
    n = len(arrivals)
    while idx < n or server.queue_depth > 0:
        if idx < n and arrivals[idx].time_s <= next_tick:
            arrival = arrivals[idx]
            idx += 1
            now = max(now, arrival.time_s)
            try:
                server.submit_arrival(arrival, now)
                shed = 0
            except BackpressureError:
                shed = 1
            for owner in report._owners(arrival.tenant):
                owner.offered_submissions += 1
                owner.offered_tokens += int(arrival.tokens.shape[0])
                owner.shed_submissions += shed
            continue
        now = max(now, next_tick)
        tick = server.tick(now=now, service_model=service_model)
        now = max(now, tick.end_s)
        for result in tick.completed:
            for owner in report._owners(result.tenant):
                owner.completed_submissions += 1
                owner.completed_tokens += result.n_tokens
                owner.latencies_s.append(result.latency_s)
                owner.completed_at_s.append(result.completed_at)
        next_tick = max(next_tick + tick_interval_s, now)

    for owner in (report, *report.per_tenant.values()):
        owner.duration_s = now
    return report
