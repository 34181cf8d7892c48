"""cgen is exact against itself: a session's bits ignore its tick and chunks.

``lstm_layer`` (:mod:`repro.core.cgen`) sums every (row, operand) dot in one
order fixed by its source, and its gate epilogue is lane-wise, so a
streamed session's outputs and resident state are a function of its own
tokens and state only. They are byte-equal solo, inside a tick with 1-15
companion sessions, cut into any chunks of 1-4 tokens (each chunk in a tick
of its own), and equal to ``run_batch`` on the whole sequence. Drawn over
the three modes cgen lowers and H in {64, 67, 256, 650}: 67 leaves a tail
after the vector lanes, 650 is PTB's width.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LSTMConfig
from repro.core import cgen
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.nn.network import LSTMNetwork

pytestmark = pytest.mark.skipif(not cgen.compiler_available(), reason="no C compiler")

VOCAB = 40
LENGTH = 8
LAYERS = 2
MODES = {
    ExecutionMode.BASELINE: {},
    # Trivial units differ between sessions here, so per-session skipping
    # inside a shared tick is exercised.
    ExecutionMode.INTRA: {"alpha_intra": 0.4},
    ExecutionMode.ZERO_PRUNE: {},
}


@functools.lru_cache(maxsize=None)
def executor(hidden: int, mode: ExecutionMode) -> LSTMExecutor:
    config = LSTMConfig(
        hidden_size=hidden, num_layers=LAYERS, seq_length=LENGTH, input_size=hidden
    )
    network = LSTMNetwork(config, VOCAB, 3, seed=hidden)
    return LSTMExecutor(network, ExecutionConfig(mode=mode, backend="cgen", **MODES[mode]))


def tokens(size: int) -> st.SearchStrategy:
    return st.lists(st.integers(0, VOCAB - 1), min_size=size, max_size=size)


@st.composite
def ticks(draw, length: int, min_companions: int) -> tuple[list[list[int]], int, int]:
    """Companion token rows for a tick of ``length`` tokens, the seed of
    their resident states, and the session's row among them."""
    count = draw(st.integers(min_companions, 15))
    rows = [draw(tokens(length)) for _ in range(count)]
    return rows, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, count))


@st.composite
def chunkings(draw) -> list[int]:
    """A partition of ``LENGTH`` into chunks of 1-4 tokens."""
    sizes, left = [], LENGTH
    while left:
        sizes.append(draw(st.integers(1, min(4, left))))
        left -= sizes[-1]
    return sizes


def stream(
    run: LSTMExecutor, row: np.ndarray, state: np.ndarray, tick=None
) -> np.ndarray:
    """One ``run_stream`` call for the session (``row`` tokens, ``state``
    its ``(2, layers, H)`` resident state, updated in place), alone or at
    its place in ``tick``; returns its ``(L, H)`` outputs."""
    companions, seed, at = tick if tick is not None else ([], 0, 0)
    batch = np.array(companions[:at] + [list(row)] + companions[at:], dtype=np.int64)
    shape = (2, LAYERS, len(batch), state.shape[-1])
    states = np.random.default_rng(seed).normal(scale=0.5, size=shape)
    states[:, :, at] = state
    out = run.run_stream(batch, states[0], states[1])
    state[:] = states[:, :, at]
    return out[at]


@pytest.mark.parametrize("mode", list(MODES), ids=lambda m: m.value)
@pytest.mark.parametrize("hidden", [64, 67, 256, 650])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_session_bits_ignore_tick_and_chunking(hidden, mode, data):
    run = executor(hidden, mode)
    row = np.array(data.draw(tokens(LENGTH), label="session"), dtype=np.int64)
    fresh = np.zeros((2, LAYERS, hidden))

    solo_state = fresh.copy()
    solo = stream(run, row, solo_state)
    assert solo.tobytes() == run.run_batch(row[None]).layer_outputs[-1][0].tobytes()

    tick_state = fresh.copy()
    tick = data.draw(ticks(LENGTH, 1), label="tick")
    assert stream(run, row, tick_state, tick).tobytes() == solo.tobytes()
    assert tick_state.tobytes() == solo_state.tobytes()

    chunk_state, outs, start = fresh.copy(), [], 0
    for size in data.draw(chunkings(), label="chunks"):
        part = row[start : start + size]
        outs.append(stream(run, part, chunk_state, data.draw(ticks(size, 0), label="chunk tick")))
        start += size
    assert np.concatenate(outs).tobytes() == solo.tobytes()
    assert chunk_state.tobytes() == solo_state.tobytes()
