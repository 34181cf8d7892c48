"""Tests for :mod:`repro.runtime.tenancy` multi-tenant zoo serving.

Covers the zoo's sharing (fp64 tenants on the caller's arrays, one
executor per network and execution config, one set of quantized cells per
network, weight set and precision), tenants at any scheme matching a
standalone executor at their config, all-or-nothing tenant
registration, weighted deficit round-robin scheduling, per-tenant backpressure isolation, the fp64
strict no-op discipline through the tenancy path, per-tenant cache
attribution in merged records, the controller integration, and the
deterministic multi-tenant load generator.
"""

import math

import numpy as np
import pytest

from repro.config import LSTMConfig
from repro.core import cgen
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.reference import ReferenceExecutor
from repro.errors import BackpressureError, ConfigurationError
from repro.nn.network import LSTMNetwork
from repro.obs import Recorder, validate_run_dict
from repro.runtime import (
    LoadSpec,
    SLOController,
    TenantSLO,
    TenantSpec,
    ZooServer,
    generate_tenant_arrivals,
    run_open_loop,
)
from repro.runtime import tenancy
from tests.grading import assert_plans_equal

HIDDEN = 24
INPUT = 20
SEQ_LEN = 12
VOCAB = 60
CLASSES = 3


def build_network(seed: int) -> LSTMNetwork:
    config = LSTMConfig(
        hidden_size=HIDDEN, num_layers=2, seq_length=SEQ_LEN, input_size=INPUT
    )
    return LSTMNetwork(config, VOCAB, CLASSES, seed=seed)


@pytest.fixture
def net_a() -> LSTMNetwork:
    return build_network(seed=3)


@pytest.fixture
def net_b() -> LSTMNetwork:
    return build_network(seed=9)


def make_tokens(rng: np.random.Generator, length: int = SEQ_LEN) -> np.ndarray:
    return rng.integers(0, VOCAB, size=length)


MODEL_TICK = 0.01


def flat_service(report) -> float:
    return MODEL_TICK


def the_executors(server: ZooServer) -> list[LSTMExecutor]:
    """Every executor the zoo keeps."""
    return list(server._executors.values())


def standalone_owned_bytes(network: LSTMNetwork, config: ExecutionConfig) -> int:
    """Derived bytes of a private executor at ``config`` (what a zoo without
    sharing would hold per tenant beyond the network)."""
    return sum(array.nbytes for array in LSTMExecutor(network, config).owned_arrays())


def parameter_bytes(network: LSTMNetwork) -> int:
    return sum(array.nbytes for array in network.parameters())


INT8 = ExecutionConfig(precision="int8")
INTRA_INT8 = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.1, precision="int8")


class ServedOutputs(ZooServer):
    """A zoo that keeps every tick's :class:`~repro.core.executor.ExecutionResult`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.outputs = []

    def _run(self, report, picked, tokens):
        out = super()._run(report, picked, tokens)
        self.outputs.append(out)
        return out


class TestZooSharing:
    def test_fp64_tenants_run_on_the_callers_arrays(self, net_a):
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="one"), net_a)
            server.add_tenant(TenantSpec(name="two"), net_a)
            (executor,) = the_executors(server)
            assert executor.network is net_a
            for weights, layer in zip(executor._weights, net_a.layers):
                assert weights is layer.weights
            assert executor.owned_arrays() == []
            resident = server.resident_bytes()
            assert resident["weights"] == parameter_bytes(net_a)
            assert resident["executor_arrays"] == 0

    def test_int8_tenants_share_one_set_of_quantized_cells(self, net_a):
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="one", point=INT8), net_a)
            server.add_tenant(TenantSpec(name="two", point=INT8), net_a)
            server.add_tenant(TenantSpec(name="drs", point=INTRA_INT8), net_a)
            executors = the_executors(server)
            assert len(executors) == 2  # two points, one set of cells
            assert executors[0].quantized_cells is executors[1].quantized_cells
            resident = server.resident_bytes()
            assert resident["weights"] == parameter_bytes(net_a)
            assert resident["executor_arrays"] == standalone_owned_bytes(net_a, INT8)

    def test_distinct_networks_do_not_share(self, net_a, net_b):
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="a", point=INT8), net_a)
            server.add_tenant(TenantSpec(name="b", point=INT8), net_b)
            executors = the_executors(server)
            assert [e.network for e in executors] == [net_a, net_b]
            assert executors[0].quantized_cells is not executors[1].quantized_cells
            assert server.resident_bytes()["weights"] == (
                parameter_bytes(net_a) + parameter_bytes(net_b)
            )

    def test_controller_move_to_int8_reuses_a_siblings_cells(self, net_a):
        fast = INTRA_INT8
        controller = SLOController(
            [ExecutionConfig(), fast],
            TenantSLO(p99_latency_s=0.05, min_agreement=0.0),
            hysteresis=2,
            cooldown_ticks=2,
            min_latency_samples=4,
        )
        spec = LoadSpec(
            duration_s=1.0,
            session_rate=40.0,
            seed=5,
            session_len_min=SEQ_LEN,
            session_len_max=SEQ_LEN,
        )
        arrivals = generate_tenant_arrivals(spec, {"t": 1.0}, {"t": VOCAB})
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="sibling", point=INT8), net_a)
            server.add_tenant(
                TenantSpec(name="t", shadow_every=2, queue_limit=256),
                net_a,
                controller=controller,
            )
            run_open_loop(
                server,
                arrivals,
                tick_interval_s=0.002,
                service_model=lambda r: 0.08 if r.point.precision.tag == "fp64" else 0.004,
            )
            assert server.tenant_point("t") == fast
            sibling, _, moved = the_executors(server)
            assert moved.config.precision.tag == "int8"
            assert moved.quantized_cells is sibling.quantized_cells

    def test_pruned_and_unpruned_int8_tenants_keep_their_own_cells(self, net_a):
        """ZERO_PRUNE quantizes its own pruning, so at one precision it
        shares no cells with the network's unpruned blocks, and each tenant
        serves exactly what a standalone executor at its config computes."""
        pruned = ExecutionConfig(mode=ExecutionMode.ZERO_PRUNE, precision="int8")
        rng = np.random.default_rng(12)
        tokens = np.stack([make_tokens(rng) for _ in range(4)])
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="plain", point=INT8), net_a)
            server.add_tenant(TenantSpec(name="pruned", point=pruned), net_a)
            plain_executor, pruned_executor = the_executors(server)
            assert pruned_executor.quantized_cells is not plain_executor.quantized_cells
            assert not np.shares_memory(
                pruned_executor._united[0].u, plain_executor._united[0].u
            )
            tickets = {
                name: [server.submit(name, f"{name}{i}", row, now=0.0) for i, row in enumerate(tokens)]
                for name in ("plain", "pruned")
            }
            server.drain(now=0.0, service_model=flat_service)
        for name, config in (("plain", INT8), ("pruned", pruned)):
            expected = LSTMExecutor(net_a, config).run_batch(tokens).logits
            served = np.stack([ticket.result.logits for ticket in tickets[name]])
            assert served.tobytes() == expected.tobytes()

    def test_a_combined_tenant_runs_at_its_own_mts(self, net_a):
        """A tenant states its MTS like every other caller: the zoo serves
        the logits and plans of a standalone executor at its config."""
        config = ExecutionConfig(
            mode=ExecutionMode.COMBINED, alpha_inter=1e12, alpha_intra=0.1, mts=3
        )
        rng = np.random.default_rng(13)
        tokens = np.stack([make_tokens(rng) for _ in range(4)])
        with ServedOutputs() as server:
            # Weight 4 affords the whole batch in one tick.
            server.add_tenant(TenantSpec(name="t", weight=4.0, point=config), net_a)
            for i, row in enumerate(tokens):
                server.submit("t", f"s{i}", row, now=0.0)
            server.drain(now=0.0, service_model=flat_service)
        (served,) = server.outputs
        expected = LSTMExecutor(net_a, config).run_batch(tokens)
        assert served.logits.tobytes() == expected.logits.tobytes()
        assert_plans_equal(served.plans, expected.plans)
        # Every link is weak, so tissues fill to the tenant's MTS, not 5.
        sizes = [rec.tissue_sizes.max() for plan in served.plans for rec in plan.layers]
        assert max(sizes) == 3

    def test_equal_content_networks_share_an_executor(self, net_a):
        twin = build_network(seed=3)  # equal content, another object
        assert twin is not net_a
        rng = np.random.default_rng(2)
        tokens = np.stack([make_tokens(rng) for _ in range(3)])
        expected = ReferenceExecutor(
            net_a, ExecutionConfig(mode=ExecutionMode.BASELINE)
        ).run_batch(tokens).logits
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="one"), net_a)
            server.add_tenant(TenantSpec(name="two"), twin)
            (executor,) = the_executors(server)
            assert executor.network is net_a
            # A new point for the twin is built on the first object too.
            server.add_tenant(TenantSpec(name="three", point=INT8), twin)
            assert [e.network for e in the_executors(server)] == [net_a, net_a]
            assert server.resident_bytes()["weights"] == parameter_bytes(net_a)
            tickets = [server.submit("two", f"s{i}", row, now=0.0) for i, row in enumerate(tokens)]
            server.drain(now=0.0, service_model=flat_service)
        assert np.array_equal(np.stack([t.result.logits for t in tickets]), expected)


    def test_shadow_tenants_share_the_zoos_fp64_oracle(self, net_a):
        """Every sampling tenant of one network replays on the one fp64
        BASELINE executor the zoo keeps, so the oracle's programs live in
        the zoo's cache and ``resident_bytes()`` counts them."""
        intra = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.1)
        rng = np.random.default_rng(14)
        with ZooServer() as server:
            for name, point in (("a", INT8), ("b", INTRA_INT8), ("c", intra)):
                server.add_tenant(TenantSpec(name=name, point=point, shadow_every=1), net_a)
            (oracle,) = [e for e in the_executors(server) if e.config == ExecutionConfig()]
            assert oracle.program_cache is server.program_cache
            for name in ("a", "b", "c"):
                server.submit(name, f"{name}0", make_tokens(rng), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            for name in ("a", "b", "c"):
                assert server.tenant_shadow(name).batches_sampled == 1
            before = server.program_cache.stats.as_dict()
            oracle.run_batch(make_tokens(rng)[None, :])
            after = server.program_cache.stats.as_dict()
            assert after["program_misses"] == before["program_misses"]
            assert after["program_hits"] > before["program_hits"]
            resident = server.resident_bytes()
            assert resident["workspace_arenas"] == server.program_cache.nbytes > 0


class TestScheduling:
    def test_wdrr_serves_in_weight_ratio(self, net_a):
        rng = np.random.default_rng(0)
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="heavy", weight=3.0), net_a)
            server.add_tenant(TenantSpec(name="light", weight=1.0), net_a)
            for i in range(24):
                for name in ("heavy", "light"):
                    server.submit(name, f"{name}-{i}", make_tokens(rng), now=0.0)
            served = {"heavy": 0, "light": 0}
            for _ in range(8):
                report = server.tick(now=0.0, service_model=flat_service)
                served[report.tenant] += report.batch
            assert served["heavy"] == 3 * served["light"] > 0

    def test_equal_length_fifo_batching(self, net_a):
        rng = np.random.default_rng(1)
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="t", weight=4.0, max_batch=8), net_a)
            # Head sets length 12; the length-7 request is skipped by the
            # first batch and served later, FIFO within its length class.
            server.submit("t", "a", make_tokens(rng, 12), now=0.0)
            server.submit("t", "b", make_tokens(rng, 7), now=0.0)
            server.submit("t", "c", make_tokens(rng, 12), now=0.0)
            first = server.tick(now=0.0, service_model=flat_service)
            assert first.length == 12
            assert [r.session_id for r in first.completed] == ["a", "c"]
            second = server.tick(now=0.0, service_model=flat_service)
            assert second.length == 7
            assert [r.session_id for r in second.completed] == ["b"]

    def test_idle_tick_reports_no_tenant(self, net_a):
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="t"), net_a)
            report = server.tick(now=1.0)
            assert report.tenant is None
            assert report.batch == 0
            assert report.end_s == 1.0


class TestBackpressure:
    def test_per_tenant_queue_bound_isolates_neighbours(self, net_a):
        rng = np.random.default_rng(3)
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="noisy", queue_limit=2), net_a)
            server.add_tenant(TenantSpec(name="quiet", queue_limit=2), net_a)
            server.submit("noisy", "n0", make_tokens(rng), now=0.0)
            server.submit("noisy", "n1", make_tokens(rng), now=0.0)
            with pytest.raises(BackpressureError):
                server.submit("noisy", "n2", make_tokens(rng), now=0.0)
            assert server.tenant_stats("noisy").shed == 1
            # The neighbour is untouched by the noisy tenant's overflow.
            server.submit("quiet", "q0", make_tokens(rng), now=0.0)
            assert server.tenant_queue_depth("quiet") == 1
            assert server.tenant_stats("quiet").shed == 0


class TestFp64NoOpDiscipline:
    def test_fp64_tenant_is_bit_identical_to_reference(self, net_a, net_b):
        """A controller-less fp64 tenant served through a shared executor,
        shared caches, and WDRR interleaving with other tenants must
        produce logits bit-identical to the frozen reference."""
        rng = np.random.default_rng(4)
        tokens = [make_tokens(rng) for _ in range(6)]
        reference = ReferenceExecutor(
            net_a, ExecutionConfig(mode=ExecutionMode.BASELINE)
        )
        expected = reference.run_batch(np.stack(tokens)).logits
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="fp64", max_batch=2), net_a)
            server.add_tenant(
                TenantSpec(name="other", point=INT8),
                net_b,
            )
            tickets = []
            for i, tok in enumerate(tokens):
                tickets.append(server.submit("fp64", f"s{i}", tok, now=0.0))
                server.submit("other", f"o{i}", make_tokens(rng), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            for i, ticket in enumerate(tickets):
                assert np.array_equal(ticket.result.logits, expected[i])
                assert ticket.result.prediction == np.argmax(expected[i])


class TestRecords:
    def test_tick_and_merged_records_validate_with_attribution(self, net_a, net_b):
        rng = np.random.default_rng(5)
        recorder = Recorder()
        with ZooServer(recorder=recorder) as server:
            server.add_tenant(TenantSpec(name="alpha"), net_a)
            server.add_tenant(
                TenantSpec(name="beta", point=INT8),
                net_b,
            )
            for i in range(3):
                server.submit("alpha", f"a{i}", make_tokens(rng), now=0.0)
                server.submit("beta", f"b{i}", make_tokens(rng, 8), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            # Every per-tick record stands alone under the v1 schema.
            for record in server.tick_records():
                validate_run_dict(record.to_dict())
                assert record.label in ("alpha", "beta")
                assert record.config["tenant"] == record.label
            merged = server.merged_record()
        validate_run_dict(merged.to_dict())
        assert merged.cache["alpha/program_misses"] >= 1
        assert merged.cache["beta/program_misses"] >= 1
        # Tenants disagree on precision; the merge records the dispute.
        assert "precision" in merged.config["varied"]
        assert merged.config["backend"] == "numpy"


    @pytest.mark.parametrize(
        "mode",
        [
            pytest.param(
                ExecutionMode.BASELINE,
                marks=pytest.mark.skipif(
                    not cgen.compiler_available(), reason="no C compiler on this host"
                ),
            ),
            ExecutionMode.INTER,  # cgen lowers no INTER loop: resolves to numpy
        ],
        ids=lambda mode: mode.value,
    )
    def test_records_carry_the_resolved_backend(self, net_a, mode):
        config = ExecutionConfig(mode=mode, backend="cgen")
        rng = np.random.default_rng(6)
        with ZooServer(recorder=Recorder()) as server:
            server.add_tenant(TenantSpec(name="t", point=config), net_a)
            for i in range(3):
                server.submit("t", f"s{i}", make_tokens(rng), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            backend = the_executors(server)[0].backend
            records = server.tick_records()
            merged = server.merged_record()
        assert backend == LSTMExecutor(net_a, config).backend
        assert backend == ("cgen" if mode is ExecutionMode.BASELINE else "numpy")
        assert {record.config["backend"] for record in records} == {backend}
        assert merged.config["backend"] == backend


class TestSharedCaches:
    def test_second_tenant_rides_first_tenants_programs(self, net_a):
        rng = np.random.default_rng(7)
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="warm"), net_a)
            server.add_tenant(TenantSpec(name="cold"), net_a)
            server.submit("warm", "w", make_tokens(rng), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            before = server.program_cache.stats.as_dict()
            server.submit("cold", "c", make_tokens(rng), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            after = server.program_cache.stats.as_dict()
            assert after["program_misses"] == before["program_misses"]
            assert after["program_hits"] > before["program_hits"]


class TestControllerIntegration:
    def test_overloaded_tenant_steps_to_int8_and_recovers(self, net_a):
        frontier = [ExecutionConfig(), INT8]
        controller = SLOController(
            frontier,
            TenantSLO(p99_latency_s=0.05, min_agreement=0.9),
            hysteresis=2,
            cooldown_ticks=2,
            min_latency_samples=4,
        )
        spec = LoadSpec(
            duration_s=1.5,
            session_rate=40.0,
            seed=5,
            session_len_min=SEQ_LEN,
            session_len_max=SEQ_LEN,
        )
        arrivals = generate_tenant_arrivals(spec, {"t": 1.0}, {"t": VOCAB})
        with ZooServer() as server:
            server.add_tenant(
                TenantSpec(name="t", shadow_every=2, queue_limit=256),
                net_a,
                controller=controller,
            )
            run_open_loop(
                server,
                arrivals,
                tick_interval_s=0.002,
                service_model=lambda r: (
                    0.08 if r.point.precision.tag == "fp64" else 0.004
                ),
            )
            assert controller.moves
            assert controller.moves[0].reason == "latency"
            assert server.tenant_point("t") == INT8
            shadow = server.tenant_shadow("t")
            assert shadow.batches_sampled > 0

    def test_controller_requires_shadow_sampling(self, net_a):
        controller = SLOController(
            [ExecutionConfig()], TenantSLO(p99_latency_s=0.1)
        )
        with ZooServer() as server:
            with pytest.raises(ConfigurationError):
                server.add_tenant(
                    TenantSpec(name="t"), net_a, controller=controller
                )

    def test_open_loop_replays_identically(self, net_a):
        spec = LoadSpec(
            duration_s=0.5,
            session_rate=30.0,
            seed=8,
            session_len_min=SEQ_LEN,
            session_len_max=SEQ_LEN,
        )
        arrivals = generate_tenant_arrivals(spec, {"t": 1.0}, {"t": VOCAB})

        def one_run() -> dict:
            with ZooServer() as server:
                server.add_tenant(TenantSpec(name="t", queue_limit=4), net_a)
                report = run_open_loop(
                    server,
                    arrivals,
                    tick_interval_s=0.002,
                    service_model=lambda r: 0.05,
                )
            return report.as_dict()

        assert one_run() == one_run()


class TestValidation:
    def test_duplicate_tenant_rejected(self, net_a):
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="t"), net_a)
            with pytest.raises(ConfigurationError):
                server.add_tenant(TenantSpec(name="t"), net_a)

    def test_failed_add_tenant_leaves_no_tenant(self, net_a, monkeypatch):
        """A tenant whose starting executor cannot be built is never
        registered: the name stays free, it takes no submissions, and
        its neighbours keep being served."""
        rng = np.random.default_rng(11)
        built = tenancy.LSTMExecutor

        def broken(network, config, **kwargs):
            if config.precision.tag == "int8":
                raise ConfigurationError("cannot build this point")
            return built(network, config, **kwargs)

        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="healthy"), net_a)
            monkeypatch.setattr(tenancy, "LSTMExecutor", broken)
            with pytest.raises(ConfigurationError, match="cannot build"):
                server.add_tenant(TenantSpec(name="bad", point=INT8), net_a)
            assert server.tenant_names() == ["healthy"]
            with pytest.raises(ConfigurationError, match="unknown tenant"):
                server.submit("bad", "s", make_tokens(rng), now=0.0)
            for i in range(6):
                server.submit("healthy", f"h{i}", make_tokens(rng), now=0.0)
            server.drain(now=0.0, service_model=flat_service)
            assert server.tenant_stats("healthy").served == 6
            monkeypatch.setattr(tenancy, "LSTMExecutor", built)
            server.add_tenant(TenantSpec(name="bad", point=INT8), net_a)  # the retry
            assert server.tenant_names() == ["healthy", "bad"]

    def test_unknown_tenant_rejected(self, net_a):
        with ZooServer() as server:
            with pytest.raises(ConfigurationError):
                server.submit("ghost", "s", np.arange(4), now=0.0)

    @pytest.mark.parametrize("tokens", [np.zeros((2, 3), dtype=int), np.zeros(0)])
    def test_bad_tokens_rejected(self, net_a, tokens):
        with ZooServer() as server:
            server.add_tenant(TenantSpec(name="t"), net_a)
            with pytest.raises(ConfigurationError):
                server.submit("t", "s", tokens, now=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "weight": 0.0},
            {"name": "t", "max_batch": 0},
            {"name": "t", "queue_limit": 0},
            {"name": "t", "shadow_every": -1},
            # NaN fails every comparison, so it passed a ``<= 0`` check.
            {"name": "t", "weight": math.nan},
            {"name": "t", "weight": math.inf},
        ],
    )
    def test_bad_tenant_spec_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantSpec(**kwargs)


class TestTenantLoadgen:
    WEIGHTS = {"a": 3.0, "b": 1.0}
    VOCABS = {"a": 40, "b": 7}

    def test_deterministic_and_time_ordered(self):
        spec = LoadSpec(duration_s=4.0, session_rate=30.0, seed=13)
        first = generate_tenant_arrivals(spec, self.WEIGHTS, self.VOCABS)
        second = generate_tenant_arrivals(spec, self.WEIGHTS, self.VOCABS)
        assert len(first) == len(second) > 0
        assert all(
            x.time_s == y.time_s
            and x.tenant == y.tenant
            and x.session_id == y.session_id
            and np.array_equal(x.tokens, y.tokens)
            for x, y in zip(first, second)
        )
        times = [a.time_s for a in first]
        assert times == sorted(times)

    def test_mix_follows_weights_and_vocab_bounds(self):
        spec = LoadSpec(duration_s=30.0, session_rate=30.0, seed=21)
        arrivals = generate_tenant_arrivals(spec, self.WEIGHTS, self.VOCABS)
        counts = {"a": 0, "b": 0}
        for arrival in arrivals:
            counts[arrival.tenant] += 1
            assert arrival.tokens.max() < self.VOCABS[arrival.tenant]
            assert arrival.session_id.startswith(f"{arrival.tenant}-s")
        share = counts["a"] / (counts["a"] + counts["b"])
        assert 0.7 <= share <= 0.8  # 3:1 target = 0.75

    @pytest.mark.parametrize(
        "weights,vocabs",
        [
            ({}, {}),
            ({"a": -1.0}, {"a": 10}),
            ({"a": 0.0}, {"a": 10}),
            ({"a": 1.0}, {}),
            ({"a": 1.0}, {"a": 1}),
            ({"a": math.nan}, {"a": 10}),
            ({"a": math.inf}, {"a": 10}),
            ({"a": 1.0, "b": math.nan}, {"a": 10, "b": 10}),
            ({"a": 1.0, "b": 0.0}, {"a": 10, "b": 10}),
        ],
    )
    def test_bad_mix_rejected(self, weights, vocabs):
        spec = LoadSpec(duration_s=1.0, session_rate=5.0, seed=0)
        with pytest.raises(ConfigurationError):
            generate_tenant_arrivals(spec, weights, vocabs)
