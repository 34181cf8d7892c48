"""The two oracle grades, asserted the same way by every suite.

:func:`repro.core.backends.is_exact` decides which grade a resolved
``(backend, mode)`` pair carries (:attr:`LSTMExecutor.backend`: cgen lowers
the stepwise loop; INTER and COMBINED are numpy programs on every backend):

* **exact** (numpy, stepwise modes — INTER on any backend) — logits, every
  layer's outputs and every plan record bit-identical to the oracle:
  equal dtype, shape and bytes (:func:`assert_bytes_equal`), so ``-0.0``
  never passes for ``0.0``;
* **graded** (COMBINED, and cgen in BASELINE / INTRA / ZERO_PRUNE) — logits within
  :data:`GRADED_ATOL` with equal predictions; plans identical as at the
  exact grade; relevance and layer outputs within :data:`GRADED_ATOL`.

Plans are compared the same way at both grades: breakpoints and
sub-layer lengths equal, tissue sizes, cells, ``skip`` and ``warp``
byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import GRADED_ATOL
from repro.core.executor import ExecutionResult


def assert_bytes_equal(mine: np.ndarray, theirs: np.ndarray) -> None:
    """Bit-identical: same dtype, same shape, same bytes (``np.array_equal``
    would let ``-0.0`` pass for ``0.0`` and fail every NaN)."""
    assert mine.dtype == theirs.dtype
    assert mine.shape == theirs.shape
    assert np.ascontiguousarray(mine).tobytes() == np.ascontiguousarray(theirs).tobytes()


def assert_plans_equal(plans_a, plans_b, relevance_atol: float = 0.0) -> None:
    """Structural + statistics equality of two SequencePlan lists; relevance
    byte-identical unless ``relevance_atol`` is given."""
    assert len(plans_a) == len(plans_b)
    for plan_a, plan_b in zip(plans_a, plans_b):
        assert len(plan_a.layers) == len(plan_b.layers)
        for rec_a, rec_b in zip(plan_a.layers, plan_b.layers):
            assert rec_a.layer_index == rec_b.layer_index
            assert rec_a.breakpoints == rec_b.breakpoints
            assert rec_a.sublayer_lengths == rec_b.sublayer_lengths
            assert_bytes_equal(rec_a.tissue_sizes, rec_b.tissue_sizes)
            assert_bytes_equal(rec_a.plan.subs, rec_b.plan.subs)  # the cells
            assert_bytes_equal(rec_a.plan.ts, rec_b.plan.ts)
            assert_bytes_equal(rec_a.skip, rec_b.skip)
            assert_bytes_equal(rec_a.warp, rec_b.warp)
            if rec_a.relevance is None:
                assert rec_b.relevance is None
            elif relevance_atol == 0.0:
                assert_bytes_equal(rec_a.relevance, rec_b.relevance)
            else:
                np.testing.assert_allclose(
                    rec_a.relevance, rec_b.relevance, rtol=0, atol=relevance_atol
                )


def assert_graded(result, reference) -> None:
    """``result`` agrees with ``reference`` at the graded tier."""
    np.testing.assert_allclose(result.logits, reference.logits, rtol=0, atol=GRADED_ATOL)
    assert np.array_equal(result.predictions(), reference.predictions())
    assert len(result.layer_outputs) == len(reference.layer_outputs)
    for mine, theirs in zip(result.layer_outputs, reference.layer_outputs):
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=GRADED_ATOL)
    assert_plans_equal(result.plans, reference.plans, relevance_atol=GRADED_ATOL)


def assert_meets_grade(result, reference, exact: bool) -> None:
    """``result`` agrees with ``reference`` at the grade ``exact`` names."""
    if not exact:
        assert_graded(result, reference)
        return
    assert_bytes_equal(result.logits, reference.logits)
    assert len(result.layer_outputs) == len(reference.layer_outputs)
    for mine, theirs in zip(result.layer_outputs, reference.layer_outputs):
        assert_bytes_equal(mine, theirs)
    assert_plans_equal(result.plans, reference.plans)


def row_of(result, b: int) -> ExecutionResult:
    """Sequence ``b`` of a batch result, as a one-sequence result."""
    return ExecutionResult(
        logits=result.logits[b : b + 1],
        plans=[result.plans[b]],
        layer_outputs=[h[b : b + 1] for h in result.layer_outputs],
    )
