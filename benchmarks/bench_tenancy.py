"""Multi-tenant zoo-serving gate: dedup, shared-cache amortization, SLO control.

Exercises :mod:`repro.runtime.tenancy` three ways and writes
``BENCH_tenancy.json``:

* **weight dedup** — four tenants over two distinct networks (two fp64
  siblings of one model, two int8 siblings of another) must keep at most
  ``DEDUP_RATIO_BOUND`` of the weight bytes that private copies would
  cost: the distinct arrays the zoo holds
  (:meth:`~repro.runtime.tenancy.ZooServer.resident_bytes` weights plus
  executor arrays) over, per tenant, its network's parameter bytes plus
  what a standalone executor at its config derives. Serving must not even
  import :mod:`multiprocessing.shared_memory`;
* **shared-cache amortization** — after one tenant warms the cross-tenant
  :class:`~repro.core.program.ProgramCache`, a steady-state window
  serving *both* tenants of the same model must run at
  ``>= STEADY_HIT_RATE_FLOOR`` program-cache hit rate with **zero**
  recompiles — the second tenant never pays the first tenant's
  compilation;
* **SLO controller convergence** — a virtual-time open-loop run whose
  modeled per-precision tick cost makes the fp64 frontier config
  unsustainable at the offered rate: the tenant's
  :class:`~repro.runtime.controller.SLOController` must step to int8
  within ``MOVE_TICK_BOUND`` serving ticks, the trailing
  (post-reconvergence) window must meet the p99 SLO, and the tenant's
  sampled shadow agreement against the exact fp64 oracle must stay
  ``>= MIN_INT8_AGREEMENT``. Service costs are modeled, so every
  latency number is a pure function of the arrival seed and the gates
  are runner-independent.

Runs in short mode (smaller workload, same gates) when
``REPRO_BENCH_SHORT=1`` — the CI tenancy-gate job uses it::

    REPRO_BENCH_SHORT=1 PYTHONPATH=src python benchmarks/bench_tenancy.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

from repro.bench.deflake import SHORT
from repro.bench.gates import GateSet
from repro.config import LSTMConfig
from repro.core.reference import ReferenceExecutor
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.nn.network import LSTMNetwork
from repro.obs.recorder import Recorder
from repro.runtime import (
    LoadSpec,
    SLOController,
    TenantSLO,
    TenantSpec,
    ZooServer,
    generate_tenant_arrivals,
    run_open_loop,
)

VOCAB = 200
NUM_CLASSES = 8
HIDDEN = 64
LAYERS = 2
HEAD_POOL = 16
SEQ_LEN = 24
TICK_INTERVAL_S = 0.002

#: Modeled service cost of one serving tick per weight precision (s).
#: int8 moves ~8x fewer weight bytes, so its modeled tick is cheaper —
#: the gap is what gives the controller a faster frontier config to move
#: to. Virtual time makes every latency gate deterministic.
MODEL_TICK_FP64_S = 0.020
MODEL_TICK_INT8_S = 0.008

#: Gate bounds.
DEDUP_RATIO_BOUND = 0.55
STEADY_HIT_RATE_FLOOR = 0.9
MOVE_TICK_BOUND = 64
SLO_P99_S = 0.12
MIN_INT8_AGREEMENT = 0.98


def build_network(seed: int) -> LSTMNetwork:
    config = LSTMConfig(
        hidden_size=HIDDEN, num_layers=LAYERS, seq_length=64, input_size=HIDDEN
    )
    return LSTMNetwork(
        config,
        vocab_size=VOCAB,
        num_classes=NUM_CLASSES,
        seed=seed,
        per_timestep_head=False,
        head_pool=HEAD_POOL,
    )


def model_service(report) -> float:
    """Modeled per-tick service cost by the serving config's precision."""
    if report.point is not None and report.point.precision.tag == "int8":
        return MODEL_TICK_INT8_S
    return MODEL_TICK_FP64_S


# ------------------------------------------------------------------- dedup


def private_bytes(network: LSTMNetwork, config: ExecutionConfig) -> int:
    """A tenant's weight bytes without sharing: its own copy of the network
    plus what a standalone executor at its config derives."""
    executor = LSTMExecutor(network, config)
    return sum(a.nbytes for a in network.parameters()) + sum(
        a.nbytes for a in executor.owned_arrays()
    )


def check_dedup(gates: GateSet) -> dict:
    """Four tenants over two networks: distinct bytes held vs private copies."""
    net1 = build_network(seed=11)
    net2 = build_network(seed=23)
    tenants = [
        (TenantSpec(name="a1", model="m1", weight=2.0), net1),
        (TenantSpec(name="a2", model="m1", weight=1.0), net1),
        (TenantSpec(name="b1", model="m2", point=ExecutionConfig(precision="int8")), net2),
        (TenantSpec(name="b2", model="m2", point=ExecutionConfig(precision="int8")), net2),
    ]
    with ZooServer() as server:
        for spec, network in tenants:
            server.add_tenant(spec, network)
        private = sum(private_bytes(network, spec.point) for spec, network in tenants)

        # Serve a little traffic through the shared executors, and pin the
        # fp64 tenants to the frozen reference (the no-op discipline must
        # hold through the shared path).
        rng = np.random.default_rng(5)
        tokens = [rng.integers(0, VOCAB, size=SEQ_LEN) for _ in range(8)]
        for i, tok in enumerate(tokens):
            for name in ("a1", "a2", "b1", "b2"):
                server.submit(name, f"{name}-{i}", tok, now=0.0)
        server.drain(now=0.0, service_model=model_service)
        resident = server.resident_bytes()
        held = resident["weights"] + resident["executor_arrays"]
        no_segment = "multiprocessing.shared_memory" not in sys.modules
        reference = ReferenceExecutor(
            net1, ExecutionConfig(mode=ExecutionMode.BASELINE)
        )
        ref_logits = reference.run_batch(np.stack(tokens)).logits
        with ZooServer() as check:
            check.add_tenant(TenantSpec(name="a1", model="m1"), net1)
            pinned = [
                check.submit("a1", f"p{i}", tok, now=0.0)
                for i, tok in enumerate(tokens)
            ]
            check.drain(now=0.0, service_model=model_service)
            fp64_identical = all(
                np.array_equal(t.result.logits, ref_logits[i])
                for i, t in enumerate(pinned)
            )

    ratio = held / private
    gates.require_at_most(
        "dedup/weight-bytes-ratio",
        ratio,
        DEDUP_RATIO_BOUND,
        "distinct weight bytes the zoo holds over private per-tenant copies "
        "(4 tenants, 2 networks)",
    )
    gates.require_true(
        "dedup/fp64-bit-identical",
        fp64_identical,
        "fp64 tenant logits through the shared-executor path differ from the "
        "frozen reference",
    )
    gates.require_true(
        "dedup/no-shm-segment",
        no_segment,
        "multiprocessing.shared_memory was imported by the time the zoo served",
    )
    print(
        f"dedup: {held:,} B held vs {private:,} B in private copies -> ratio "
        f"{ratio:.3f} (bound {DEDUP_RATIO_BOUND}), fp64 identical {fp64_identical}, "
        f"no segment {no_segment}"
    )
    return {
        "resident_bytes": resident,
        "held_bytes": held,
        "private_bytes": private,
        "weight_bytes_ratio": ratio,
        "no_shm_segment": no_segment,
        "fp64_bit_identical": fp64_identical,
        "bound": DEDUP_RATIO_BOUND,
    }


# ------------------------------------------------------------ shared cache


def check_shared_cache(gates: GateSet, steady_requests: int) -> dict:
    """Tenant B rides tenant A's warmed programs: steady state never compiles."""
    network = build_network(seed=11)
    rng = np.random.default_rng(9)
    with ZooServer(recorder=Recorder()) as server:
        server.add_tenant(TenantSpec(name="warm", model="m1"), network)
        server.add_tenant(TenantSpec(name="cold", model="m1"), network)
        # Warm phase: only "warm" serves; its misses compile the programs.
        for i in range(4):
            server.submit(
                "warm", f"w{i}", rng.integers(0, VOCAB, size=SEQ_LEN), now=0.0
            )
        server.drain(now=0.0, service_model=model_service)
        before = server.program_cache.stats.as_dict()
        # Steady phase: both tenants serve the same model geometry.
        for i in range(steady_requests):
            for name in ("warm", "cold"):
                server.submit(
                    name,
                    f"s{name}{i}",
                    rng.integers(0, VOCAB, size=SEQ_LEN),
                    now=0.0,
                )
        server.drain(now=0.0, service_model=model_service)
        after = server.program_cache.stats.as_dict()
        merged = server.merged_record()

    hits = after["program_hits"] - before["program_hits"]
    misses = after["program_misses"] - before["program_misses"]
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    gates.require_at_least(
        "shared-cache/steady-hit-rate",
        hit_rate,
        STEADY_HIT_RATE_FLOOR,
        "cross-tenant program-cache hit rate once one tenant warmed the model",
    )
    gates.require_at_most(
        "shared-cache/steady-recompiles",
        misses,
        0,
        "program compilations during the steady-state window",
    )
    cold_hits = int(merged.cache.get("cold/program_hits", 0)) if merged else 0
    cold_misses = int(merged.cache.get("cold/program_misses", 0)) if merged else 0
    print(
        f"shared cache: steady {hits} hits / {misses} misses "
        f"(rate {hit_rate:.3f}, floor {STEADY_HIT_RATE_FLOOR}); "
        f"cold tenant overall {cold_hits} hits / {cold_misses} misses"
    )
    return {
        "warm_phase": before,
        "steady_hits": hits,
        "steady_misses": misses,
        "steady_hit_rate": hit_rate,
        "cold_tenant_program_hits": cold_hits,
        "cold_tenant_program_misses": cold_misses,
        "hit_rate_floor": STEADY_HIT_RATE_FLOOR,
    }


# -------------------------------------------------------------- controller


def check_controller(gates: GateSet, duration_s: float) -> dict:
    """Overloaded fp64 tenant must step to int8 and re-meet its p99 SLO."""
    network = build_network(seed=11)
    frontier = [ExecutionConfig(), ExecutionConfig(precision="int8")]
    controller = SLOController(
        frontier,
        TenantSLO(p99_latency_s=SLO_P99_S, min_agreement=MIN_INT8_AGREEMENT),
        hysteresis=2,
        cooldown_ticks=4,
        min_latency_samples=8,
    )
    # Offered rate sits between the modeled fp64 capacity (~1/0.022 ~ 45
    # serving ticks/s at batch 1) and the int8 capacity (~1/0.010 = 100/s):
    # fp64 queues grow without bound, int8 drains them.
    spec = LoadSpec(
        duration_s=duration_s,
        session_rate=60.0,
        seed=42,
        diurnal_amplitude=0.2,
        session_len_min=SEQ_LEN,
        session_len_max=SEQ_LEN,
    )
    arrivals = generate_tenant_arrivals(spec, {"slo": 1.0}, {"slo": VOCAB})
    with ZooServer() as server:
        server.add_tenant(
            TenantSpec(name="slo", model="m1", shadow_every=2, queue_limit=256),
            network,
            controller=controller,
        )
        report = run_open_loop(
            server,
            arrivals,
            tick_interval_s=TICK_INTERVAL_S,
            service_model=model_service,
        )
        shadow = server.tenant_shadow("slo").as_dict()
        final_precision = server.tenant_point("slo").precision.tag

    moved = bool(controller.moves)
    move_tick = controller.moves[0].tick if moved else -1
    tenant_report = report.per_tenant["slo"]
    # Trailing window: the last third of the (virtual) run, after the
    # controller has had time to reconverge.
    cutoff = report.duration_s * (2.0 / 3.0)
    trailing = [
        latency
        for end, latency in zip(tenant_report.completed_at_s, tenant_report.latencies_s)
        if end >= cutoff
    ]
    trailing_p99 = (
        float(np.percentile(np.asarray(trailing), 99.0)) if trailing else float("inf")
    )
    agreement = shadow["agreement"] if shadow["agreement"] is not None else 0.0

    gates.require_true(
        "controller/moved-to-int8",
        moved and final_precision == "int8",
        "controller never stepped off the overloaded fp64 point",
    )
    gates.require_at_most(
        "controller/move-within-ticks",
        move_tick if moved else MOVE_TICK_BOUND + 1,
        MOVE_TICK_BOUND,
        "serving ticks before the first frontier step",
    )
    gates.require_at_most(
        "controller/trailing-p99-s",
        trailing_p99,
        SLO_P99_S,
        "p99 latency over the trailing third of the window (post-reconvergence)",
    )
    gates.require_at_least(
        "controller/int8-agreement",
        agreement,
        MIN_INT8_AGREEMENT,
        "sampled shadow agreement vs the exact fp64 oracle",
    )
    print(
        f"controller: {len(arrivals)} arrivals, moved at tick {move_tick}, "
        f"moves {[(m.tick, m.reason) for m in controller.moves]}, "
        f"trailing p99 {trailing_p99 * 1e3:.1f} ms (SLO {SLO_P99_S * 1e3:.0f} ms), "
        f"agreement {agreement:.4f}, shed {tenant_report.shed_submissions}"
    )
    return {
        "arrivals": len(arrivals),
        "model_tick_fp64_s": MODEL_TICK_FP64_S,
        "model_tick_int8_s": MODEL_TICK_INT8_S,
        "session_rate": spec.session_rate,
        "moved": moved,
        "move_tick": move_tick,
        "moves": [
            {"tick": m.tick, "from": m.from_index, "to": m.to_index,
             "reason": m.reason}
            for m in controller.moves
        ],
        "final_point": controller.as_dict()["point"],
        "trailing_p99_s": trailing_p99,
        "trailing_samples": len(trailing),
        "shadow": shadow,
        "load": report.as_dict(),
    }


def run() -> tuple[dict, GateSet]:
    gates = GateSet("tenancy")
    duration_s = 3.0 if SHORT else 8.0
    steady_requests = 8 if SHORT else 24

    dedup = check_dedup(gates)
    shared_cache = check_shared_cache(gates, steady_requests)
    controller = check_controller(gates, duration_s)

    return {
        "short_mode": SHORT,
        "workload": {
            "hidden_size": HIDDEN,
            "num_layers": LAYERS,
            "vocab_size": VOCAB,
            "num_classes": NUM_CLASSES,
            "seq_len": SEQ_LEN,
            "tick_interval_s": TICK_INTERVAL_S,
            "duration_s": duration_s,
        },
        "bounds": {
            "dedup_ratio_bound": DEDUP_RATIO_BOUND,
            "steady_hit_rate_floor": STEADY_HIT_RATE_FLOOR,
            "move_tick_bound": MOVE_TICK_BOUND,
            "slo_p99_s": SLO_P99_S,
            "min_int8_agreement": MIN_INT8_AGREEMENT,
        },
        "dedup": dedup,
        "shared_cache": shared_cache,
        "controller": controller,
        "gates": gates.as_dict(),
        "failures": gates.failures,
        "passed": gates.passed,
    }, gates


def main() -> int:
    report, gates = run()
    out_path = pathlib.Path(__file__).parent.parent / "BENCH_tenancy.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return gates.exit_code()


if __name__ == "__main__":
    sys.exit(main())
