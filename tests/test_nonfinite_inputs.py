"""Fault case: non-finite inputs stay in the sequences that read them.

One embedding row is NaN and another is +inf. In every mode on numpy, and
in BASELINE and INTRA on cgen (whose kernels build with ``-ffast-math``),
exactly the sequences that read a poisoned row get non-finite layer-0
outputs and — the row read at the last step, which the head pools, so no
breakpoint can cut it off — non-finite logits, and every other sequence
equals a clean run of the same tokens at the mode's grade
(:func:`repro.core.backends.is_exact`). Nothing mixes rows of
different sequences numerically — the wave GEMMs, the batch-wide DRS
compaction and the head treat each row on its own — so a bad row can
change how a batch is scheduled, never another row's values.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import cgen
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.plan import PlanCache, invalidate_weight_fingerprints

from tests.grading import assert_meets_grade, row_of

NAN_ID, INF_ID = 3, 7
#: Rows 1 and 4 read the NaN row, row 3 the inf row; the rest read neither.
POISONED = {1: NAN_ID, 3: INF_ID, 4: NAN_ID}
BATCH = 6

MODE_CONFIGS = {
    ExecutionMode.BASELINE: {},
    ExecutionMode.INTER: {"alpha_inter": 200.0, "mts": 3},
    ExecutionMode.INTRA: {"alpha_intra": 0.4},
    ExecutionMode.COMBINED: {"alpha_inter": 200.0, "alpha_intra": 0.4, "mts": 3},
    ExecutionMode.ZERO_PRUNE: {},
}

needs_compiler = pytest.mark.skipif(
    not cgen.compiler_available(), reason="no C compiler on this host"
)


@pytest.fixture
def networks(calibrated_network):
    poisoned = copy.deepcopy(calibrated_network)
    poisoned.embedding[NAN_ID] = np.nan
    poisoned.embedding[INF_ID] = np.inf
    invalidate_weight_fingerprints(poisoned)  # deepcopy cloned the memo
    return calibrated_network, poisoned


@pytest.fixture
def tokens(calibrated_network):
    rng = np.random.default_rng(11)
    allowed = np.setdiff1d(np.arange(calibrated_network.vocab_size), [NAN_ID, INF_ID])
    out = rng.choice(allowed, size=(BATCH, calibrated_network.config.seq_length))
    for row, token in POISONED.items():
        out[row, [2 * row % out.shape[1], -1]] = token
    return out


def check_contained(networks, tokens, mode: ExecutionMode, backend: str) -> None:
    clean_net, poisoned_net = networks
    config = ExecutionConfig(mode=mode, backend=backend, **MODE_CONFIGS[mode])
    clean = LSTMExecutor(clean_net, config, plan_cache=PlanCache())
    poisoned = LSTMExecutor(poisoned_net, config, plan_cache=PlanCache())
    expected = clean.run_batch(tokens)
    with np.errstate(invalid="ignore", over="ignore"):
        result = poisoned.run_batch(tokens)
    clean_rows = [row not in POISONED for row in range(BATCH)]
    assert np.isfinite(result.logits).all(axis=1).tolist() == clean_rows
    assert np.isfinite(result.layer_outputs[0]).all(axis=(1, 2)).tolist() == clean_rows
    for row in range(BATCH):
        if row not in POISONED:
            assert_meets_grade(row_of(result, row), row_of(expected, row), poisoned.exact)


@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
def test_numpy_modes_contain_nonfinite_rows(networks, tokens, mode):
    check_contained(networks, tokens, mode, "numpy")


@needs_compiler
@pytest.mark.parametrize(
    "mode", [ExecutionMode.BASELINE, ExecutionMode.INTRA], ids=lambda m: m.value
)
def test_cgen_contains_nonfinite_rows(networks, tokens, mode):
    check_contained(networks, tokens, mode, "cgen")
