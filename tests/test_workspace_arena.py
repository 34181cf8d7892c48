"""The arena contract: programs lease their workspace, and assume nothing.

Every program of a :class:`~repro.core.program.ProgramCache` computes in
the cache's one :class:`~repro.core.program.WorkspaceArena` per dispatch
slot, so what a program finds in its slabs on entry is whatever another
layer, mode or shape left there. That turns every read-before-write from a
rare heap accident (it shipped twice) into a certainty — these tests are
the guard:

* **Poison.** ``0xFF`` bytes — NaN as a float, a non-canonical true as a
  bool — written over the arena between any two program runs change no
  output bit, in five modes, on both backends, serial and threaded, at
  mixed shapes through one cache.
* **No aliasing.** Nothing a run returns is arena memory.
* **Max, not sum.** The arena is as large as the largest single layout
  leased from it; a cache entry costs kilobytes; warm runs allocate
  nothing; a regrow moves no bit.
* **Slots.** Concurrent dispatch slots own distinct arenas.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.config import AppConfig, LSTMConfig, TaskFamily
from repro.core import cgen
from repro.core import program as program_module
from repro.core.backends import is_exact
from repro.core.context_prediction import PredictedLink
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.pipeline import OptimizedLSTM
from repro.core.program import ProgramCache
from repro.core.reference import ReferenceExecutor
from repro.nn.model_zoo import build_calibrated_network

from tests.grading import assert_meets_grade

needs_cc = pytest.mark.skipif(not cgen.compiler_available(), reason="no C compiler")
BACKENDS = ["numpy", pytest.param("cgen", marks=needs_cc)]

VOCAB = 31
HIDDEN = 16
#: ``(B, T)`` in run order: small, large (a regrow), small again, one row
#: (serial even when threaded), and shapes revisited after the regrow.
SHAPES = [(1, 1), (3, 5), (6, 12), (2, 7), (1, 1), (3, 5)]


@pytest.fixture(scope="module")
def network():
    model = LSTMConfig(hidden_size=HIDDEN, num_layers=2, seq_length=12, input_size=HIDDEN)
    app = AppConfig(
        name="ARENA",
        family=TaskFamily.SENTIMENT_CLASSIFICATION,
        model=model,
        vocab_size=VOCAB,
        num_classes=3,
    )
    return build_calibrated_network(app, seed=13)


@pytest.fixture(scope="module")
def thresholds(network):
    """Both levels live, with ``alpha_inter`` at the median relevance: a
    calibrated network divides some sequences and leaves others whole."""
    tokens = np.random.default_rng(14).integers(0, VOCAB, size=(6, 12))
    probe = LSTMExecutor(
        network, ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1.0)
    ).run_batch(tokens)
    alpha_inter = float(np.median([p.layers[0].relevance[1:] for p in probe.plans]))
    return {"alpha_inter": alpha_inter, "alpha_intra": 0.4, "mts": 3}


#: Non-zero predicted links, so a sub-layer's start state is not the zeros
#: a sequence starts from.
LINKS = [
    PredictedLink(h_bar=np.tanh(rng.normal(size=HIDDEN)), c_bar=rng.normal(size=HIDDEN))
    for rng in map(np.random.default_rng, (21, 22))
]


def config_for(mode, thresholds, **kwargs) -> ExecutionConfig:
    return ExecutionConfig(mode=mode, **thresholds, **kwargs)


def executor_for(network, config, cache=None) -> LSTMExecutor:
    return LSTMExecutor(network, config, predicted_links=LINKS, program_cache=cache)


def draw(shape, seed=0) -> np.ndarray:
    return np.random.default_rng((seed, *shape)).integers(0, VOCAB, size=shape)


def poison(cache: ProgramCache) -> None:
    for arena in cache.arenas().values():
        arena.buffer.fill(0xFF)


class PoisoningCache(ProgramCache):
    """Overwrites the requesting slot's arena around every program lookup —
    the executor looks a layer's program up, then projects, plans and
    executes it, so that is between any two program runs. After the lookup
    as well as before: a build may have regrown the arena."""

    def get(self, key, build):
        threaded = isinstance(key[-1], tuple) and key[-1][0] == "slot"
        arena = self.arena(key[-1][1] if threaded else None)
        arena.buffer.fill(0xFF)
        program = super().get(key, build)
        arena.buffer.fill(0xFF)
        return program


def plan_facts(result):
    """Everything a run's plan records say, materialized."""
    return [
        [
            (
                record.breakpoints,
                record.sublayer_lengths,
                None if record.relevance is None else record.relevance.tolist(),
                list(zip(record.tissue_cells(), record.skip.tolist(), record.warp.tolist())),
            )
            for record in plan.layers
        ]
        for plan in result.plans
    ]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
class TestPoisonedArena:
    def test_run_batch_reads_nothing_it_did_not_write(
        self, network, thresholds, mode, backend, threads
    ):
        config = config_for(mode, thresholds, backend=backend, threads=threads)
        cache = PoisoningCache()
        poisoned = executor_for(network, config, cache)
        clean = executor_for(network, config)
        reference = ReferenceExecutor(network, config, predicted_links=LINKS)
        exact = poisoned.exact  # the grade of the backend it resolved to
        for shape in SHAPES:
            tokens = draw(shape)
            got = poisoned.run_batch(tokens)
            poison(cache)  # before the lazy records below are read
            want = clean.run_batch(tokens)
            assert np.array_equal(got.logits, want.logits)
            for mine, theirs in zip(got.layer_outputs, want.layer_outputs):
                assert np.array_equal(mine, theirs)
            assert plan_facts(got) == plan_facts(want)
            assert_meets_grade(got, reference.run_batch(tokens), exact)



@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "mode",
    [mode for mode in ExecutionMode if not ExecutionConfig(mode=mode).inter_active],
    ids=lambda m: m.value,
)
class TestPoisonedArenaStreaming:
    def test_run_stream_reads_nothing_it_did_not_write(
        self, network, thresholds, mode, backend, threads
    ):
        config = config_for(mode, thresholds, backend=backend, threads=threads)
        cache = PoisoningCache()
        poisoned = executor_for(network, config, cache)
        clean = executor_for(network, config)
        tokens = draw((5, 12))
        states = [np.zeros((2, network.num_layers, 5, HIDDEN)) for _ in range(2)]
        start = 0
        for chunk in (1, 4, 2, 4, 1):  # mixed chunk lengths, one cache
            piece = tokens[:, start : start + chunk]
            start += chunk
            got = poisoned.run_stream(piece, *states[0])
            poison(cache)
            want = clean.run_stream(piece, *states[1])
            assert np.array_equal(got, want)
            assert np.array_equal(states[0], states[1])
        if is_exact(backend, mode):  # the streamed bits are the contiguous run's
            reference = ReferenceExecutor(network, config, predicted_links=LINKS)
            whole = reference.run_batch(tokens[:, :start])
            assert np.array_equal(got[:, -1], whole.layer_outputs[-1][:, -1])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
def test_nothing_returned_aliases_the_arena(network, thresholds, mode, backend):
    config = config_for(mode, thresholds, backend=backend)
    cache = ProgramCache()
    executor = executor_for(network, config, cache)
    tokens = draw((4, 12))
    collect = not config.inter_active or mode is ExecutionMode.INTER
    collect = collect and mode is not ExecutionMode.COMBINED
    result = executor.run_batch(tokens, collect_states=collect)
    arena = cache.arena().buffer
    assert arena.nbytes > 0
    returned = [result.logits, *result.layer_outputs, *result.layer_states]
    returned += [
        array
        for plan in result.plans
        for record in plan.layers
        for array in (record.relevance, record.skip, record.warp)
        if array is not None
    ]
    assert len(result.layer_states) == (network.num_layers if collect else 0)
    assert not any(np.shares_memory(array, arena) for array in returned)
    kept = [array.copy() for array in returned]
    arena.fill(0xFF)
    facts = plan_facts(result)
    assert all(np.array_equal(a, b) for a, b in zip(returned, kept))
    fresh = executor_for(network, config).run_batch(tokens, collect_states=collect)
    assert facts == plan_facts(fresh)
    if config.intra_active:  # the fractions really came from DRS masks
        assert any(t[1] > 0.0 for seq in facts for layer in seq for t in layer[3])

    if not config.inter_active:
        states = np.zeros((2, network.num_layers, 4, HIDDEN))
        out = executor.run_stream(tokens[:, :4], *states)
        assert not np.shares_memory(out, cache.arena().buffer)
        assert not np.shares_memory(states, cache.arena().buffer)


class TestMaxNotSum:
    """One cache under three modes and three shapes: resident workspace is
    the largest single layout, not the sum of the nine."""

    HIDDEN = 64
    SHAPES = [(1, 1), (8, 4), (16, 86)]
    MODES = [ExecutionMode.BASELINE, ExecutionMode.INTRA, ExecutionMode.COMBINED]

    @pytest.fixture(scope="class")
    def big_network(self):
        model = LSTMConfig(
            hidden_size=self.HIDDEN, num_layers=2, seq_length=86, input_size=self.HIDDEN
        )
        app = AppConfig(
            name="ARENA64",
            family=TaskFamily.SENTIMENT_CLASSIFICATION,
            model=model,
            vocab_size=VOCAB,
            num_classes=3,
        )
        return build_calibrated_network(app, seed=3)

    def executors(self, big_network, cache):
        settings = {"alpha_inter": 40.0, "alpha_intra": 0.3, "mts": 4}
        return [
            LSTMExecutor(
                big_network, ExecutionConfig(mode=mode, **settings), program_cache=cache
            )
            for mode in self.MODES
        ]

    def test_arena_is_the_largest_single_layout(self, big_network):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = ProgramCache()
            executors = self.executors(big_network, cache)
            for shape in self.SHAPES:
                for executor in executors:
                    executor.run_batch(draw(shape))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        programs = [program for _, program in cache.items()]
        # 2 layers x 3 shapes x (stepwise, stepwise + DRS, combined).
        assert len(programs) == 18 and cache.stats.evictions == 0
        layouts = [program.workspace_nbytes for program in programs]
        largest = max(layouts)
        assert list(cache.arenas()) == [None]
        assert cache.arena().nbytes == largest == cache.nbytes
        # The (16, 86) stepwise DRS program, by the formula of
        # ``test_stepwise_compile_allocates_its_workspace_only``; alignment
        # adds under a cache line per slab.
        bh, bth = 16 * self.HIDDEN, 16 * 86 * self.HIDDEN
        formula = 8 * (4 * bth + 17 * bh) + 3 * bh + bth
        assert formula <= largest < formula + 64 * 16
        assert sum(layouts) > 3 * largest
        # The cache, its executors and everything they keep: one arena plus
        # kilobytes per entry.
        assert largest <= held <= largest + 64 * 1024 * len(programs)

    def test_warm_runs_allocate_nothing_and_a_regrow_moves_no_bit(self, big_network):
        cache = ProgramCache()
        executors = self.executors(big_network, cache)
        first = {}
        for shape in self.SHAPES:  # ascending: every new shape regrows the arena
            grown = cache.arena().nbytes
            for executor in executors:
                first[shape, executor.config.mode] = executor.run_batch(draw(shape))
            assert cache.arena().nbytes > grown

        def replay():
            for shape in self.SHAPES:
                for executor in executors:
                    again = executor.run_batch(draw(shape))
                    want = first[shape, executor.config.mode]
                    assert np.array_equal(again.logits, want.logits)
                    for mine, theirs in zip(again.layer_outputs, want.layer_outputs):
                        assert np.array_equal(mine, theirs)

        replay()  # the small shapes rebind to the regrown arena here
        sources = [program_module.__file__, cgen.__file__]
        filters = [tracemalloc.Filter(True, source) for source in sources]
        gc.collect()
        tracemalloc.start(10)
        try:
            before = tracemalloc.take_snapshot().filter_traces(filters)
            replay()
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        # A rebind is kilobytes of views and a regrow megabytes; numpy parks
        # freed shape/stride blocks (tens of bytes) in a free list of its
        # own, which tracemalloc sees as still live.
        grown = [s for s in after.compare_to(before, "lineno") if s.size_diff > 256]
        assert not grown, "\n".join(str(s) for s in grown)

    def test_a_regrow_frees_the_old_buffer(self, big_network):
        cache = ProgramCache()
        executor = self.executors(big_network, cache)[1]
        executor.run_batch(draw((8, 4)))
        stale = [program for _, program in cache.items()]
        old = weakref.ref(cache.arena().buffer.base)
        executor.run_batch(draw((16, 86)))
        # The (8, 4) programs are still cached; were they still holding
        # views, the old buffer would be alive beside the new one.
        assert all(program._ws is None for program in stale)
        assert old() is None

    def test_clear_drops_the_arenas(self, big_network):
        cache = ProgramCache()
        self.executors(big_network, cache)[0].run_batch(draw((8, 4)))
        assert cache.nbytes > 0
        cache.clear()
        assert cache.nbytes == 0 and len(cache) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_slots_own_distinct_arenas(network, thresholds, backend):
    config = config_for(ExecutionMode.INTRA, thresholds, backend=backend, threads=2)
    cache = ProgramCache()
    executor = executor_for(network, config, cache)
    executor.run_batch(draw((6, 12)))
    assert sorted(cache.arenas()) == [0, 1]  # the serial arena was never asked for
    one, two = cache.arena(0), cache.arena(1)
    assert one is not two and one.nbytes > 0 and two.nbytes > 0
    assert not np.shares_memory(one.buffer, two.buffer)
    for key, program in cache.items():
        assert program._arena is cache.arena(key[-1][1])
    executor.run_batch(draw((1, 12)))  # one row: inline, on the serial arena
    assert None in cache.arenas()
    assert cache.nbytes == sum(arena.nbytes for arena in cache.arenas().values())


def test_a_standalone_program_owns_a_private_arena(network):
    from repro.core.backends import make_stepwise_program
    from repro.core.executor import _UnitedWeights

    united = _UnitedWeights.from_weights(network.layers[0].weights)
    link = PredictedLink.zeros(HIDDEN)
    one = make_stepwise_program("numpy", united, link, 3, 4)
    two = make_stepwise_program("numpy", united, link, 3, 4)
    assert one._arena is not two._arena
    assert one._arena.nbytes == one.workspace_nbytes == two._arena.nbytes


def test_resident_bytes_sums_the_owners(tiny_app, tiny_tokens):
    ledger = tiny_app.resident_bytes()
    assert list(ledger) == [
        "weights", "workspace_arenas", "plan_cache", "token_row_memo", "executor_cache",
    ]
    assert ledger["weights"] > 0
    assert not any(ledger[key] for key in list(ledger)[1:])  # nothing has run
    for mode in (ExecutionMode.BASELINE, ExecutionMode.COMBINED, ExecutionMode.ZERO_PRUNE):
        tiny_app.run(tiny_tokens, mode=mode, threshold_index=5)
    ledger = tiny_app.resident_bytes()
    assert ledger["workspace_arenas"] == tiny_app.program_cache.arena().nbytes > 0
    assert ledger["plan_cache"] == tiny_app.plan_cache.nbytes > 0
    assert ledger["token_row_memo"] == tiny_app.plan_cache.token_rows.nbytes > 0
    # Only ZERO_PRUNE derives weights at fp64: one pruned U per layer.
    pruned = sum(layer.weights.u.nbytes for layer in tiny_app.network.layers)
    assert ledger["executor_cache"] == pruned
    assert isinstance(OptimizedLSTM.resident_bytes(tiny_app)["weights"], int)
