"""Tests for tissue formation, alignment, MTS calibration, and the array
planner COMBINED and INTER run (:meth:`CachedLayerPlan.from_relevance`)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.breakpoints import SubLayer, divide_layer, find_breakpoints
from repro.core.plan import CachedLayerPlan
from repro.core.tissue import Tissue, align_tissues, calibrate_mts, form_tissues
from repro.errors import PlanError
from repro.gpu.specs import TEGRA_X1


def validate_schedule(sublayers: list[SubLayer], tissues: list[Tissue], mts: int) -> None:
    """Check a tissue schedule: capacity, coverage, and chain order.

    Raises :class:`~repro.errors.PlanError` on any violation.
    """
    seen: dict[tuple[int, int], int] = {}
    for step, tissue in enumerate(tissues):
        if tissue.size > mts:
            raise PlanError(f"tissue {step} has {tissue.size} cells (MTS {mts})")
        for cell in tissue.cells:
            if cell in seen:
                raise PlanError(f"cell {cell} scheduled twice")
            seen[cell] = step
    expected = {(idx, t) for idx, sub in enumerate(sublayers) for t in sub.timestamps()}
    if set(seen) != expected:
        raise PlanError("tissue schedule does not cover the layer exactly")
    for idx, sub in enumerate(sublayers):
        steps = [seen[(idx, t)] for t in sub.timestamps()]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise PlanError(f"sub-layer {idx} chain order violated")


def minimum_tissues(sublayers: list[SubLayer], mts: int) -> int:
    """Lower bound on the tissue count (Eq. 7 generalized to real chains).

    The schedule can finish no earlier than the longest chain and no faster
    than total-work over capacity: ``max(longest, ceil(N / MTS))``.
    """
    total = sum(s.length for s in sublayers)
    longest = max(s.length for s in sublayers)
    return max(longest, -(-total // mts))


def sort_lpt_oracle(sublayers, mts):
    """The sort-based LPT :func:`align_tissues` replaced, kept as its oracle:
    every step sorts the chains with cells left by ``(-remaining, index)``
    and runs the first ``mts``, cells in index order."""
    progress = [0] * len(sublayers)
    remaining = sum(s.length for s in sublayers)
    schedule = []
    while remaining > 0:
        candidates = [i for i, s in enumerate(sublayers) if progress[i] < s.length]
        candidates.sort(key=lambda i: (-(sublayers[i].length - progress[i]), i))
        cells = []
        for i in sorted(candidates[:mts]):
            cells.append((i, sublayers[i].start + progress[i]))
            progress[i] += 1
            remaining -= 1
        schedule.append(cells)
    return schedule


def paper_example_sublayers():
    """The Fig. 8 example: a 9-cell layer divided into four sub-layers
    [0..2], [3], [4..6], [7..8]."""
    return [SubLayer(0, 3), SubLayer(3, 4), SubLayer(4, 7), SubLayer(7, 9)]


class TestFormTissues:
    def test_paper_example(self):
        """Fig. 8(b1): naive formation yields fat then thin tissues."""
        tissues = form_tissues(paper_example_sublayers())
        assert [t.timestamps() for t in tissues] == [[0, 3, 4, 7], [1, 5, 8], [2, 6]]

    def test_single_sublayer_gives_singletons(self):
        tissues = form_tissues([SubLayer(0, 4)])
        assert [t.size for t in tissues] == [1, 1, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            form_tissues([])


class TestAlignTissues:
    def test_respects_mts(self):
        tissues = align_tissues(paper_example_sublayers(), mts=3)
        assert all(t.size <= 3 for t in tissues)

    def test_schedule_is_valid(self):
        subs = paper_example_sublayers()
        tissues = align_tissues(subs, mts=3)
        validate_schedule(subs, tissues, mts=3)

    def test_covers_all_cells(self):
        subs = paper_example_sublayers()
        tissues = align_tissues(subs, mts=2)
        covered = sorted(t for tissue in tissues for t in tissue.timestamps())
        assert covered == list(range(9))

    def test_reaches_minimum_tissue_count(self):
        """The LPT rule should achieve the Eq. 7 lower bound here."""
        subs = paper_example_sublayers()
        tissues = align_tissues(subs, mts=3)
        assert len(tissues) == minimum_tissues(subs, 3)

    def test_mts_one_serializes(self):
        subs = paper_example_sublayers()
        tissues = align_tissues(subs, mts=1)
        assert len(tissues) == 9

    def test_invalid_mts(self):
        with pytest.raises(PlanError):
            align_tissues(paper_example_sublayers(), mts=0)

    @given(
        st.integers(2, 50),
        st.sets(st.integers(1, 49), max_size=12),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_alignment_always_valid(self, length, raw_breaks, mts):
        breaks = sorted(b for b in raw_breaks if b < length)
        subs = divide_layer(length, breaks)
        tissues = align_tissues(subs, mts)
        validate_schedule(subs, tissues, mts)

    @given(
        st.integers(2, 50),
        st.sets(st.integers(1, 49), max_size=12),
        st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_alignment_achieves_lower_bound(self, length, raw_breaks, mts):
        """LPT over chains with unit tasks achieves max(longest, ceil(N/m))."""
        breaks = sorted(b for b in raw_breaks if b < length)
        subs = divide_layer(length, breaks)
        tissues = align_tissues(subs, mts)
        assert len(tissues) == minimum_tissues(subs, mts)


class TestAlignTissuesOracle:
    """The heap LPT schedules exactly what the sort-based LPT did."""

    @given(
        st.integers(1, 160),
        st.sets(st.integers(1, 159)),
        st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_sort_based_lpt(self, length, raw_breaks, mts):
        subs = divide_layer(length, sorted(b for b in raw_breaks if b < length))
        tissues = align_tissues(subs, mts)
        assert [t.cells for t in tissues] == sort_lpt_oracle(subs, mts)
        validate_schedule(subs, tissues, mts)


class TestValidateSchedule:
    def test_detects_capacity_violation(self):
        subs = [SubLayer(0, 2), SubLayer(2, 4)]
        tissues = form_tissues(subs)  # width 2
        with pytest.raises(PlanError):
            validate_schedule(subs, tissues, mts=1)

    def test_detects_missing_cell(self):
        subs = [SubLayer(0, 3)]
        tissues = align_tissues(subs, 1)[:-1]
        with pytest.raises(PlanError):
            validate_schedule(subs, tissues, mts=1)

    def test_detects_order_violation(self):
        subs = [SubLayer(0, 2)]
        tissues = align_tissues(subs, 1)
        tissues.reverse()
        with pytest.raises(PlanError):
            validate_schedule(subs, tissues, mts=1)


class TestMTSCalibration:
    def test_realistic_range(self):
        """The TX1 knee sits at 5-6 for Table II hidden sizes (Fig. 9)."""
        for hidden in (256, 512, 650):
            mts = calibrate_mts(TEGRA_X1, hidden)
            assert 4 <= mts <= 7

    def test_minimum_tissues_formula(self):
        subs = [SubLayer(0, 10), SubLayer(10, 12)]
        # total 12, longest 10, mts 4 -> max(10, 3) = 10
        assert minimum_tissues(subs, 4) == 10
        assert minimum_tissues(subs, 1) == 12


@st.composite
def relevance_cases(draw):
    """``(relevance, alpha_inter, T, mts)``: no breakpoint, a breakpoint at
    every ``t``, equal-length sub-layers (every LPT step a tie), or a random
    division, each drawn through the relevance the planner reads."""
    length = draw(st.integers(1, 200))
    mts = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["none", "every", "equal", "random"]))
    relevance = np.full(length, 2.0)
    if kind == "every":
        relevance[:] = 0.5
    elif kind == "equal":
        relevance[:: draw(st.integers(1, max(1, length)))] = 0.5
    elif kind == "random":
        relevance = np.asarray(
            draw(st.lists(st.floats(0, 4), min_size=length, max_size=length))
        )
    alpha = draw(st.sampled_from([0.0, 1.0])) if kind == "none" else 1.0
    return relevance, alpha, length, mts


class TestCombinedPlannerOracle:
    """The array planner plans byte for byte what the reference's object
    path (``divide_layer`` -> ``align_tissues`` -> ``from_schedule``) does."""

    @given(relevance_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_align_tissues(self, case):
        relevance, alpha, length, mts = case
        plan = CachedLayerPlan.from_relevance(relevance, length, alpha, mts)
        breaks = find_breakpoints(relevance, alpha)
        sublayers = divide_layer(length, breaks)
        tissues = align_tissues(sublayers, mts)
        oracle = CachedLayerPlan.from_schedule(relevance, breaks, tissues)
        assert plan.relevance is relevance
        assert plan.breakpoints == oracle.breakpoints
        assert all(type(t) is int for t in plan.breakpoints)
        for name in ("subs", "ts", "offsets"):
            mine, theirs = getattr(plan, name), getattr(oracle, name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.flags.c_contiguous and mine.flags.writeable
            assert mine.tobytes() == theirs.tobytes()
        validate_schedule(sublayers, [Tissue(cells) for cells in plan.tissue_cells()], mts)
        assert plan.num_tissues == minimum_tissues(sublayers, mts)
