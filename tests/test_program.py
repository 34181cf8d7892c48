"""Compiled plan programs: bit-identity, workspace reuse, allocations.

Five properties of :mod:`repro.core.program`:

* **Agreement with the oracle.** The executor's programs equal the
  frozen :class:`~repro.core.reference.ReferenceExecutor` bit for bit in
  the four stepwise modes and at the graded tier in COMBINED (the
  broader hypothesis sweep lives in ``tests/test_executor_equivalence.py``).

* **Weight slabs move no bit.** A gate block lifted one 64-row slab at
  a time, slabs aligned to the gate's first row, equals the gate-wide
  lift, in the input projection and in the recurrence (hypothesis).

* **Workspace reuse.** Every program of a cache computes in the cache's
  one workspace arena; consecutive ``run_batch`` calls on one compiled
  executor must be bit-identical to fresh executors — no state or scratch
  leaks between runs, including across mid-sequence breakpoint resets
  (hypothesis).

* **The live walk.** COMBINED with DRS forms ``o`` first and runs f/i/g
  only for the live units over ``h``'s live columns: graded against the
  oracle with identical plans at every drop rate, byte for byte the
  full-width walk without DRS, and a function of its inputs alone.

* **Allocation regression.** Once a program is warm, its runs must keep
  nothing: what ``program.py`` leaves allocated does not grow from 3 to 30
  warm runs, and none of it is an array buffer.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import AppConfig, LSTMConfig, TaskFamily  # noqa: E402
from repro.core import program as program_module  # noqa: E402
from repro.core.context_prediction import PredictedLink  # noqa: E402
from repro.core.backends import make_combined_program  # noqa: E402
from repro.core.executor import (  # noqa: E402
    ExecutionConfig,
    ExecutionMode,
    LSTMExecutor,
    _UnitedWeights,
)
from repro.core.pipeline import OptimizedLSTM  # noqa: E402
from repro.core.plan import wave_schedule  # noqa: E402
from repro.core.program import CombinedGroupProgram, ProgramCache, sigmoid_into  # noqa: E402
from repro.core.reference import ReferenceExecutor  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.nn.activations import sigmoid  # noqa: E402
from repro.nn.model_zoo import build_calibrated_network  # noqa: E402
from repro.nn.network import LSTMNetwork  # noqa: E402

from tests.grading import assert_bytes_equal, assert_graded, assert_meets_grade  # noqa: E402

VOCAB = 31
CLASSES = 3

MODE_CONFIGS = {
    ExecutionMode.BASELINE: {},
    ExecutionMode.INTER: {"alpha_inter": 50.0, "mts": 3},
    ExecutionMode.INTRA: {"alpha_intra": 0.4},
    ExecutionMode.COMBINED: {"alpha_inter": 50.0, "alpha_intra": 0.4, "mts": 3},
    ExecutionMode.ZERO_PRUNE: {},
}


def make_case(seed: int, hidden: int = 16, layers: int = 2, seq: int = 10, batch: int = 4):
    config = LSTMConfig(
        hidden_size=hidden, num_layers=layers, seq_length=seq, input_size=hidden
    )
    network = LSTMNetwork(config, VOCAB, CLASSES, seed=seed % 89)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, VOCAB, size=(batch, seq))
    links = [
        PredictedLink(h_bar=np.tanh(rng.normal(size=hidden)), c_bar=rng.normal(size=hidden))
        for _ in range(layers)
    ]
    return network, tokens, links


def two_divide_ladder(x, out, s1, s2, mask):
    """The ladder :func:`sigmoid_into` replaced, kept as its oracle: both
    branches divided, then the positive one copied in under the mask."""
    np.abs(x, out=s1)
    np.negative(s1, out=s1)
    np.exp(s1, out=s1)
    np.add(1.0, s1, out=s2)
    np.greater_equal(x, 0.0, out=mask)
    np.divide(s1, s2, out=out)
    np.divide(1.0, s2, out=s2)
    np.copyto(out, s2, where=mask)


#: Inputs where a one-divide ladder could drift: signed zeros, infinities,
#: NaN, subnormals, and |x| where exp(-|x|) underflows (~745).
_SIGMOID_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308]),
    st.floats(700.0, 750.0).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e-300, 1e-300),
    st.floats(-40.0, 40.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestSigmoidInto:
    @given(
        rows=st.integers(1, 6),
        hidden=st.integers(1, 9),
        first=st.integers(0, 3),
        pair=st.booleans(),
        float_mask=st.booleans(),
        aliased=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_strided_columns_bytes_equal_two_divide_ladder(
        self, rows, hidden, first, pair, float_mask, aliased, data
    ):
        """Column views of a ``(rows, 4H)`` block, as the programs pass
        them: the one-divide ladder's bytes are the two-divide ladder's
        and the library's."""
        width = hidden * (2 if pair and first < 3 else 1)
        size = rows * 4 * hidden
        values = data.draw(st.lists(_SIGMOID_EDGES, min_size=size, max_size=size))
        block = np.array(values, dtype=float).reshape(rows, 4 * hidden)
        cols = slice(first * hidden, first * hidden + width)
        x = block[:, cols]
        expected = sigmoid(x)

        def run(ladder):
            target = block.copy() if aliased else np.full((rows, 4 * hidden), 7.0)
            xin = target[:, cols] if aliased else x
            out = target[:, cols]
            s1, s2 = np.empty((rows, width)), np.empty((rows, width))
            mask = np.empty((rows, width), dtype=float if float_mask else bool)
            ladder(xin, out, s1, s2, mask)
            return out

        mine = run(sigmoid_into)
        if not float_mask:  # np.copyto(where=) takes a boolean mask only
            assert mine.tobytes() == run(two_divide_ladder).tobytes()
        assert mine.tobytes() == expected.tobytes()

    @given(st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_library_sigmoid(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=8.0, size=(5, 17))
        x[0, 0] = 0.0  # exercise the x >= 0 boundary exactly
        out = np.empty_like(x)
        s1, s2 = np.empty_like(x), np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool)
        sigmoid_into(x, out, s1, s2, mask)
        assert np.array_equal(out, sigmoid(x))

    def test_out_may_alias_x(self):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=4.0, size=(3, 9))
        expected = sigmoid(x)
        s1, s2 = np.empty_like(x), np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool)
        sigmoid_into(x, x, s1, s2, mask)
        assert np.array_equal(x, expected)


class TestProgramCache:
    def test_lru_eviction_and_stats(self):
        cache = ProgramCache(max_entries=2)
        built = []

        def builder(tag):
            def build():
                built.append(tag)
                return tag

            return build

        assert cache.get("a", builder("a")) == "a"
        assert cache.get("b", builder("b")) == "b"
        assert cache.get("a", builder("a2")) == "a"  # hit refreshes LRU slot
        assert cache.get("c", builder("c")) == "c"  # evicts "b"
        assert cache.get("b", builder("b2")) == "b2"
        assert built == ["a", "b", "c", "b2"]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 4
        assert cache.stats.evictions == 2
        assert len(cache) == 2
        d = cache.stats.as_dict()
        assert d["program_hits"] == 1
        assert d["program_misses"] == 4
        assert d["program_hit_rate"] == pytest.approx(0.2)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            ProgramCache(max_entries=0)


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_all_five_modes_bit_identical(self, mode):
        network, tokens, links = make_case(seed=101)
        config = ExecutionConfig(mode=mode, **MODE_CONFIGS[mode])
        compiled = LSTMExecutor(network, config, predicted_links=links)
        reference = ReferenceExecutor(network, config, predicted_links=links)
        out_c = compiled.run_batch(tokens)
        out_r = reference.run_batch(tokens)
        assert_meets_grade(out_c, out_r, compiled.exact)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_drs_compact_scratch_never_read_before_write(self, batch):
        """NaN-poisoned scratch must not leak into the masked DRS update.

        A fresh ``np.empty`` is usually a zeroed page, so a read of
        uninitialized workspace produces *plausible* numbers on the first
        run and garbage once the heap is warm. Filling the whole workspace
        arena with ``0xFF`` bytes — NaN as a float, a non-canonical true as
        a bool — after the programs are built makes any such read
        deterministic: one leaked element NaNs the logits. Every DRS step
        writes its ``(B, H)`` mask from ``o`` before ``np.putmask`` reads
        it, and the high threshold at small batch drops whole units across
        the batch every few steps, where a stale mask or cell value would
        show. (``tests/test_workspace_arena.py`` does the same between
        every two programs, in every mode and on both backends.)
        """
        network, _, links = make_case(seed=57, batch=batch)
        rng = np.random.default_rng(58)
        tokens = rng.integers(0, VOCAB, size=(batch, network.config.seq_length))
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.5)
        cache = ProgramCache()
        compiled = LSTMExecutor(
            network, config, predicted_links=links, program_cache=cache
        )
        compiled.run_batch(tokens)  # builds and caches the programs
        assert len(cache) == network.num_layers
        assert cache.arena().nbytes > 0
        cache.arena().buffer.fill(0xFF)
        out = compiled.run_batch(tokens)
        reference = ReferenceExecutor(network, config, predicted_links=links)
        assert np.array_equal(out.logits, reference.run_batch(tokens).logits)

    def test_collect_states_matches_interpreted(self):
        """The program's collected cell states equal the reference walk's
        (the readable, interpreted specification of the arithmetic)."""
        network, tokens, links = make_case(seed=33)
        config = ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=50.0, mts=3)
        compiled = LSTMExecutor(network, config, predicted_links=links)
        reference = ReferenceExecutor(network, config, predicted_links=links)
        out_c = compiled.run_batch(tokens, collect_states=True)
        out_r = reference.run_batch(tokens, collect_states=True)
        assert len(out_c.layer_states) == len(out_r.layer_states) == network.num_layers
        for c_c, c_r in zip(out_c.layer_states, out_r.layer_states):
            assert np.array_equal(c_c, c_r)

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize(
        "alpha_intra, skip", [(1e-300, 0.0), (0.5, None), (2.0, 1.0)],
        ids=["below-every-o", "inside", "above-every-o"],
    )
    def test_intra_mask_bit_identical_at_any_drop_rate(self, batch, alpha_intra, skip):
        """The masked DRS update equals the oracle's — logits, layer
        outputs, cell states and skip fractions — whether the threshold
        drops no unit, some, or every one (``o`` lies in ``(0, 1)``)."""
        network, tokens, links = make_case(seed=71, batch=batch)
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=alpha_intra)
        compiled = LSTMExecutor(network, config, predicted_links=links)
        reference = ReferenceExecutor(network, config, predicted_links=links)
        out_c = compiled.run_batch(tokens, collect_states=True)
        out_r = reference.run_batch(tokens, collect_states=True)
        assert_meets_grade(out_c, out_r, exact=True)
        for c_c, c_r in zip(out_c.layer_states, out_r.layer_states):
            assert_bytes_equal(c_c, c_r)
        fractions = [rec.mean_skip_fraction for p in out_c.plans for rec in p.layers]
        if skip is None:
            assert 0.0 < np.mean(fractions) < 1.0
        else:
            assert fractions == [skip] * len(fractions)


#: Gate heights for the slab properties: H % 4 == 2 (130, 198, 250, 386,
#: 650), H % 64 != 0 (all but 512), one slab plus a remainder (130) and
#: a remainder-free split (512).
SLAB_HEIGHTS = [96, 130, 198, 250, 386, 512, 650]

EXACT_MODES = [m for m in MODE_CONFIGS if m is not ExecutionMode.COMBINED]


class TestWeightSlabs:
    """A gate block lifted one aligned row slab at a time gives the
    gate-wide lift's bits; ``SLAB_MIN_BYTES`` is forced to 0 so small
    gates take the slab path too."""

    def test_slab_bounds_are_aligned_and_never_one_row(self):
        for height in range(2, 1100):
            bounds = program_module.slab_bounds(height)
            assert bounds[0][0] == 0 and bounds[-1][1] == height
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            for lo, hi in bounds:
                assert lo % program_module.SLAB_ROWS == 0
                assert hi - lo >= min(height, program_module.SLAB_ROWS) > 1
                assert hi - lo < 2 * program_module.SLAB_ROWS or len(bounds) == 1

    def test_slabs_only_for_large_gates_and_several_rows(self):
        big = program_module.SLAB_MIN_BYTES + 8
        assert program_module.uses_slabs(big, 2)
        assert not program_module.uses_slabs(big, 1)
        assert not program_module.uses_slabs(program_module.SLAB_MIN_BYTES, 8)

    @given(
        height=st.sampled_from(SLAB_HEIGHTS),
        rows=st.integers(2, 8),
        width=st.sampled_from([64, 130, 300]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_slabbed_lift_equals_gate_wide_lift(self, height, rows, width, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(4 * height, width))
        xs = rng.normal(size=(1, rows, width))
        gates = [w[k * height : (k + 1) * height] for k in range(4)]
        outs = np.empty((4, 1, rows, height))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(program_module, "SLAB_MIN_BYTES", 0)
            program_module.project_rows(xs, [g.T for g in gates], outs)
        for gate, out in zip(gates, outs):
            assert np.array_equal(out, (xs[:, :, None, :] @ gate.T)[:, :, 0])

    @given(
        height=st.sampled_from(SLAB_HEIGHTS),
        batch=st.integers(2, 8),
        mode=st.sampled_from(EXACT_MODES),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_slabbed_recurrence_equals_reference(self, height, batch, mode, seed):
        network, tokens, links = make_case(seed, hidden=height, layers=1, seq=3, batch=batch)
        config = ExecutionConfig(mode=mode, **MODE_CONFIGS[mode])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(program_module, "SLAB_MIN_BYTES", 0)
            executor = LSTMExecutor(network, config, predicted_links=links)
            out = executor.run_batch(tokens)
        (program,) = [entry for _, entry in executor.program_cache.items()]
        assert program._cut % program_module.SLAB_ROWS == 0
        assert (program._cut > 0) is (height >= 2 * program_module.SLAB_ROWS)
        reference = ReferenceExecutor(network, config, predicted_links=links)
        assert_meets_grade(out, reference.run_batch(tokens), exact=True)


class TestWorkspaceReuse:
    """Satellite: consecutive runs on one program == fresh executors."""

    @given(
        seed=st.integers(0, 2**16),
        mode=st.sampled_from(list(ExecutionMode)),
        batch=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_consecutive_runs_bit_identical_to_fresh(self, seed, mode, batch):
        network, _, links = make_case(seed=seed, batch=batch)
        rng = np.random.default_rng(seed + 1)
        seq = network.config.seq_length
        tokens_a = rng.integers(0, VOCAB, size=(batch, seq))
        tokens_b = rng.integers(0, VOCAB, size=(batch, seq))
        config = ExecutionConfig(mode=mode, **MODE_CONFIGS[mode])

        reused = LSTMExecutor(network, config, predicted_links=links)
        out_a = reused.run_batch(tokens_a)
        out_b = reused.run_batch(tokens_b)
        out_a2 = reused.run_batch(tokens_a)  # and back, same program again

        for out, toks in ((out_a, tokens_a), (out_b, tokens_b), (out_a2, tokens_a)):
            fresh = LSTMExecutor(network, config, predicted_links=links)
            expect = fresh.run_batch(toks)
            assert np.array_equal(out.logits, expect.logits)
            for h_got, h_want in zip(out.layer_outputs, expect.layer_outputs):
                assert np.array_equal(h_got, h_want)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_reuse_across_mid_sequence_breakpoint_resets(self, seed):
        """A run whose plans reset mid-sequence leaks nothing into the next.

        alpha_inter=1e12 breaks every link, so every timestep resets the
        recurrent state from the predicted link — the hardest case for a
        stale-workspace bug. The following baseline-threshold run on the
        same program keys differently only through the plan, not the
        program (reset columns are run-time inputs), so it replays the
        *same* cached program object.
        """
        network, tokens, links = make_case(seed=seed)
        always = ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1e12, mts=2)
        never = ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=0.0, mts=2)
        shared = ProgramCache()
        ex_always = LSTMExecutor(
            network, always, predicted_links=links, program_cache=shared
        )
        ex_never = LSTMExecutor(
            network, never, predicted_links=links, program_cache=shared
        )

        first = ex_always.run_batch(tokens)
        after = ex_never.run_batch(tokens)  # same program, resets gone
        again = ex_always.run_batch(tokens)  # resets back

        # Stepwise programs are keyed on shapes + weights only: both
        # configs replayed one program per layer.
        assert shared.stats.misses == network.num_layers
        assert shared.stats.hits == 2 * network.num_layers

        fresh_never = LSTMExecutor(network, never, predicted_links=links)
        expect_after = fresh_never.run_batch(tokens)
        assert np.array_equal(after.logits, expect_after.logits)
        for h_got, h_want in zip(after.layer_outputs, expect_after.layer_outputs):
            assert np.array_equal(h_got, h_want)
        assert np.array_equal(first.logits, again.logits)
        for h_a, h_b in zip(first.layer_outputs, again.layer_outputs):
            assert np.array_equal(h_a, h_b)


class TestStepwiseStateInjection:
    """Streamed state entry/exit on the same cached programs.

    ``run_stream`` replays the stepwise programs with the caller's
    resident ``(h, c)`` injected at entry and the post-chunk state
    extracted at exit; any partition of a sequence into chunks must be
    bit-identical to one contiguous ``run_batch`` — outputs *and* final
    states — and must leave the shared program objects clean for the
    next zero-state run.
    """

    @pytest.mark.parametrize("splits", [[10], [4, 6], [1, 1, 8], [3, 3, 3, 1]])
    def test_chunked_run_stream_equals_contiguous_run_batch(self, splits):
        network, tokens, _ = make_case(seed=71)
        config = ExecutionConfig(mode=ExecutionMode.BASELINE)
        executor = LSTMExecutor(network, config)
        full = executor.run_batch(tokens, collect_states=True)

        batch = tokens.shape[0]
        layers = network.num_layers
        hidden = network.config.hidden_size
        h = np.zeros((layers, batch, hidden))
        c = np.zeros((layers, batch, hidden))
        parts, start = [], 0
        for width in splits:
            parts.append(executor.run_stream(tokens[:, start : start + width], h, c))
            start += width
        assert np.array_equal(
            np.concatenate(parts, axis=1), full.layer_outputs[-1]
        )
        for i in range(layers):
            assert np.array_equal(h[i], full.layer_outputs[i][:, -1])
            assert np.array_equal(c[i], full.layer_states[i][:, -1])

    def test_injected_state_does_not_leak_into_zero_state_runs(self):
        """A streamed step must not contaminate the cached programs."""
        network, tokens, _ = make_case(seed=23)
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.4)
        executor = LSTMExecutor(network, config)
        before = executor.run_batch(tokens)

        rng = np.random.default_rng(24)
        batch = tokens.shape[0]
        shape = (network.num_layers, batch, network.config.hidden_size)
        executor.run_stream(
            tokens, np.tanh(rng.normal(size=shape)), rng.normal(size=shape)
        )

        after = executor.run_batch(tokens)  # same cached programs, h0=None path
        assert np.array_equal(before.logits, after.logits)
        for h_a, h_b in zip(before.layer_outputs, after.layer_outputs):
            assert np.array_equal(h_a, h_b)


class TestAllocationRegression:
    """Satellite: warm compiled runs retain nothing inside program.py."""

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.BASELINE, ExecutionMode.INTRA, ExecutionMode.COMBINED]
    )
    def test_steady_state_program_allocations_are_zero(self, mode):
        """What ``program.py`` lines leave allocated must not grow from 3 to
        30 warm runs, and none of it may be an array buffer (numpy reports
        those in its own tracemalloc domain). numpy's small dimension
        cache does keep a bounded number of blocks, whichever line freed
        them last, so the byte count is compared, not the blocks."""
        network, tokens, links = make_case(seed=5, hidden=24, seq=16, batch=6)
        config = ExecutionConfig(mode=mode, **MODE_CONFIGS[mode])
        executor = LSTMExecutor(network, config, predicted_links=links)
        executor.run_batch(tokens)  # compile + warm every program
        executor.run_batch(tokens)

        in_program = tracemalloc.Filter(True, program_module.__file__)

        def retained_after(runs: int) -> tracemalloc.Snapshot:
            for _ in range(runs):
                executor.run_batch(tokens)
            gc.collect()
            return tracemalloc.take_snapshot().filter_traces([in_program])

        tracemalloc.start(10)
        try:
            early = retained_after(3)
            late = retained_after(27)
        finally:
            tracemalloc.stop()

        def nbytes(snapshot: tracemalloc.Snapshot) -> int:
            return sum(trace.size for trace in snapshot.traces)

        grown = [s for s in late.compare_to(early, "lineno") if s.size_diff > 0]
        assert nbytes(late) <= nbytes(early), "retained bytes grew in program.py:\n" + "\n".join(
            f"  {s.traceback}: +{s.size_diff} B in {s.count_diff} block(s)" for s in grown
        )
        buffers = late.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert not buffers.traces, "array buffers retained by program.py:\n" + "\n".join(
            f"  {stat.traceback}: {stat.size} B" for stat in buffers.statistics("lineno")
        )

    def test_compile_wall_time_only_on_cache_miss(self):
        network, tokens, links = make_case(seed=9)
        config = ExecutionConfig(mode=ExecutionMode.COMBINED, **MODE_CONFIGS[ExecutionMode.COMBINED])
        executor = LSTMExecutor(network, config, predicted_links=links)
        cold = executor.run_batch(tokens)
        warm = executor.run_batch(tokens)
        assert cold.timings["compile_wall_s"] > 0.0
        assert warm.timings["compile_wall_s"] == 0.0
        assert executor.program_cache.stats.misses > 0
        assert executor.program_cache.stats.hits > 0


class TestFreshInputsReplayPrograms:
    """Plans are run-time inputs of the combined program: new tokens at one
    ``(B, T)`` replay the layer's program — one per layer (and per dispatch
    slot), never one per distinct plan."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_combined_program_cache_counters(self, threads):
        # A calibrated network: random weights saturate Algorithm 2, so
        # every sequence would plan alike at any threshold.
        model = LSTMConfig(hidden_size=16, num_layers=2, seq_length=10, input_size=16)
        app = AppConfig(
            name="FRESH",
            family=TaskFamily.SENTIMENT_CLASSIFICATION,
            model=model,
            vocab_size=VOCAB,
            num_classes=CLASSES,
        )
        network = build_calibrated_network(app, seed=13)
        rng = np.random.default_rng(14)

        def draw():
            return rng.integers(0, VOCAB, size=(4, model.seq_length))

        probe = LSTMExecutor(
            network, ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1.0)
        ).run_batch(draw())
        alpha_inter = float(np.median([p.layers[0].relevance[1:] for p in probe.plans]))
        config = ExecutionConfig(
            mode=ExecutionMode.COMBINED,
            alpha_inter=alpha_inter,
            alpha_intra=0.4,
            mts=3,
            threads=threads,
        )
        executor = LSTMExecutor(network, config)
        schedules = set()
        for call in range(3):
            out = executor.run_batch(draw())
            schedules |= {tuple(map(tuple, plan.layers[0].tissue_cells())) for plan in out.plans}
            if call:
                assert out.timings["compile_wall_s"] == 0.0
        assert len(schedules) > 4  # the inputs really did plan differently
        programs = network.num_layers * threads
        cache = executor.program_cache
        assert cache.stats.misses == programs
        assert cache.stats.hits == 2 * programs
        assert cache.stats.evictions == 0
        assert len(cache) == programs


def full_width_walk(united, link, proj_u: np.ndarray, plans) -> np.ndarray:
    """COMBINED's wave walk without DRS, written out: each wave one
    ``(rows, H) @ (H, 4H)`` GEMM, then the gate epilogue."""
    batch, seq_len, width = proj_u.shape
    hidden = width // 4
    waves, _, chains, num_chains = wave_schedule(plans, seq_len)
    h = np.tile(link.h_bar, (num_chains, 1))
    c = np.tile(link.c_bar, (num_chains, 1))
    h[chains] = 0.0
    c[chains] = 0.0
    proj = proj_u.reshape(-1, width)
    out = np.empty((batch * seq_len, hidden))
    for out_rows, state_rows, *_ in waves:
        pre = proj[out_rows] + h[state_rows] @ united.u.T + united.b
        f, i, g, o = np.split(pre, 4, axis=1)
        c_new = sigmoid(f) * c[state_rows] + sigmoid(i) * np.tanh(g)
        h_new = sigmoid(o) * np.tanh(c_new)
        h[state_rows], c[state_rows], out[out_rows] = h_new, c_new, h_new
    return out.reshape(batch, seq_len, hidden)


class TestCombinedLiveWalk:
    """COMBINED with DRS skips what DRS drops: ``o`` first, then f/i/g only
    for the units some tissue of the wave keeps, over ``h``'s live columns."""

    @pytest.fixture(scope="class")
    def app(self):
        model = LSTMConfig(hidden_size=24, num_layers=2, seq_length=12, input_size=20)
        config = AppConfig(
            name="LIVE",
            family=TaskFamily.SENTIMENT_CLASSIFICATION,
            model=model,
            vocab_size=60,
            num_classes=CLASSES,
        )
        app = OptimizedLSTM.from_app(config, seed=5)
        app.calibrate(num_sequences=4)
        return app

    @pytest.fixture(scope="class")
    def tokens(self, app):
        return np.random.default_rng(3).integers(0, app.network.vocab_size, size=(6, 12))

    @staticmethod
    def config(app, alpha_intra: float | None, mts: int) -> ExecutionConfig:
        """Threshold set 5 (it divides layer 1), ``alpha_intra`` and ``mts``
        overridden; ``None`` keeps the set's ``alpha_intra``."""
        base = app.execution_config(ExecutionMode.COMBINED, threshold_index=5)
        if alpha_intra is None:
            alpha_intra = base.alpha_intra
        return dataclasses.replace(base, alpha_intra=alpha_intra, mts=mts)

    @staticmethod
    def run(app, config, tokens):
        return LSTMExecutor(
            app.network, config, predicted_links=app.calibration.predicted_links
        ).run_batch(tokens)

    @pytest.mark.parametrize("mts", [1, 3, 8])
    @pytest.mark.parametrize(
        "alpha_intra", [0.0, 1e-300, None, 1.0], ids=["off", "drops-nothing", "set5", "drops-all"]
    )
    def test_graded_against_reference_with_identical_plans(self, app, tokens, alpha_intra, mts):
        config = self.config(app, alpha_intra, mts)
        out = self.run(app, config, tokens)
        reference = ReferenceExecutor(
            app.network, config, predicted_links=app.calibration.predicted_links
        ).run_batch(tokens)
        assert_graded(out, reference)
        records = [rec for plan in out.plans for rec in plan.layers]
        assert any(rec.plan.num_sublayers > 1 for rec in records)  # link rows ran
        skip = np.concatenate([rec.skip for rec in records])
        if alpha_intra == 1e-300:
            assert not skip.any()
        elif alpha_intra == 1.0:
            assert skip.min() > 0.9

    @staticmethod
    def spy_walks(monkeypatch) -> list:
        """Record every walk's ``(hs, returned live set)``."""
        walks, execute = [], CombinedGroupProgram.execute

        def spy(program, proj_u, plans, hs):
            walked = execute(program, proj_u, plans, hs)
            walks.append((hs, walked[1]))
            return walked

        monkeypatch.setattr(CombinedGroupProgram, "execute", spy)
        return walks

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mts", [1, 3, 8])
    @pytest.mark.parametrize(
        "alpha_intra", [1e-300, None, 1.0], ids=["drops-nothing", "set5", "drops-all"]
    )
    def test_dead_columns_are_zero_and_layers_above_read_only_live_ones(
        self, app, tokens, alpha_intra, mts, threads, monkeypatch
    ):
        """Every column outside a walk's returned live set is ``+0.0`` in
        every row, and the layer above — which projects only the live
        columns — is graded against the reference with identical plans."""
        config = dataclasses.replace(self.config(app, alpha_intra, mts), threads=threads)
        walks = self.spy_walks(monkeypatch)
        out = self.run(app, config, tokens)
        monkeypatch.undo()
        assert len(walks) == app.network.num_layers * threads
        for hs, live in walks:
            assert live.dtype == np.intp and np.all(np.diff(live) > 0)
            dead = np.setdiff1d(np.arange(hs.shape[-1]), live)
            assert_bytes_equal(hs[..., dead], np.zeros(hs.shape[:2] + dead.shape))
        if alpha_intra == 1.0:  # layer 1 projected a strict subset
            assert all(live.size < program_module.DENSE_LIVE_SHARE * 24 for _, live in walks)
        reference = ReferenceExecutor(
            app.network, config, predicted_links=app.calibration.predicted_links
        ).run_batch(tokens)
        assert_graded(out, reference)

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.01], ids=["dense", "switches", "compact"])
    @pytest.mark.parametrize("mts", [1, 3])
    def test_graded_at_any_dense_crossover(self, app, tokens, share, mts, monkeypatch):
        """Dense from the first wave, switching mid-call, or compacted to
        the end: the walk and the live projection above it stay graded
        against the reference with identical plans, and a live set still
        leaves ``+0.0`` outside it."""
        monkeypatch.setattr(program_module, "DENSE_LIVE_SHARE", share)
        walks, expanded = self.spy_walks(monkeypatch), []
        expand = CombinedGroupProgram._expand

        def spy_expand(ws, live, num_chains):
            expanded.append(live)  # the compacted units the state carried
            expand(ws, live, num_chains)

        monkeypatch.setattr(CombinedGroupProgram, "_expand", staticmethod(spy_expand))
        config = self.config(app, 0.5, mts)
        out = self.run(app, config, tokens)
        sizes = [live.size for _, live in walks]
        assert 0 < min(sizes) and max(sizes) < 24  # neither empty nor full
        if share == 0.0:
            assert expanded == [0] * len(walks)
        elif share == 0.5:
            assert any(expanded)  # a call expanded a compacted state mid-walk
        else:
            assert not expanded
        for hs, live in walks:
            dead = np.setdiff1d(np.arange(hs.shape[-1]), live)
            assert_bytes_equal(hs[..., dead], np.zeros(hs.shape[:2] + dead.shape))
        reference = ReferenceExecutor(
            app.network, config, predicted_links=app.calibration.predicted_links
        ).run_batch(tokens)
        assert_graded(out, reference)

    def test_without_drs_each_wave_is_one_full_width_gemm(self, app, tokens):
        """``alpha_intra = 0`` walks full width: byte for byte the walk
        written out above, on a divided layer."""
        config = self.config(app, 0.0, 3)
        plans = [plan.layers[1].plan for plan in self.run(app, config, tokens).plans]
        assert any(plan.num_sublayers > 1 for plan in plans)
        united = _UnitedWeights.from_weights(app.network.layers[1].weights)
        link = app.calibration.predicted_links[1]
        batch, seq_len = tokens.shape
        hidden = united.u.shape[1]
        proj_u = np.random.default_rng(2).normal(size=(batch, seq_len, 4 * hidden))
        hs = np.empty((batch, seq_len, hidden))
        program = make_combined_program(united, link, batch, seq_len, config.mts)
        assert program.execute(proj_u, plans, hs) is None
        assert_bytes_equal(hs, full_width_walk(united, link, proj_u, plans))

    def test_kept_executor_equals_a_fresh_one(self, app, tokens):
        """The live set and its operand start empty at every call: an
        executor that ran three unrelated batches returns a fresh one's
        bytes."""
        config = self.config(app, None, 3)
        links = app.calibration.predicted_links
        kept = LSTMExecutor(app.network, config, predicted_links=links)
        rng = np.random.default_rng(21)
        for _ in range(3):
            kept.run_batch(rng.integers(0, app.network.vocab_size, size=tokens.shape))
        mine = kept.run_batch(tokens)
        fresh = self.run(app, config, tokens)
        assert_bytes_equal(mine.logits, fresh.logits)
        for a, b in zip(mine.layer_outputs, fresh.layer_outputs):
            assert_bytes_equal(a, b)
