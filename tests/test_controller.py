"""Tests for the :mod:`repro.runtime.controller` SLO step controller.

Covers the damping mechanics (hysteresis, cooldown, window clearing),
the accuracy-outranks-latency priority and boundary clamping at both
ends of the frontier.
"""

import pytest

from repro.core.executor import ExecutionConfig, ExecutionMode
from repro.errors import ConfigurationError
from repro.runtime import ControllerMove, SLOController, TenantSLO

FRONTIER = [
    ExecutionConfig(),
    ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.05, precision="fp16"),
    ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.1, precision="int8"),
]


def make_controller(**kwargs) -> SLOController:
    defaults = dict(
        points=FRONTIER,
        slo=TenantSLO(p99_latency_s=0.1, min_agreement=0.98),
        hysteresis=2,
        cooldown_ticks=3,
        min_latency_samples=4,
    )
    defaults.update(kwargs)
    return SLOController(**defaults)


def feed_latency(controller: SLOController, value: float, count: int) -> None:
    for _ in range(count):
        controller.observe_latency(value)


class TestHysteresis:
    def test_single_violation_does_not_move(self):
        controller = make_controller()
        feed_latency(controller, 1.0, 8)
        assert controller.decide() is None
        assert controller.index == 0

    def test_consecutive_violations_move_toward_fast(self):
        controller = make_controller()
        feed_latency(controller, 1.0, 8)
        assert controller.decide() is None
        assert controller.decide() == FRONTIER[1]
        assert controller.moves == [
            ControllerMove(tick=2, from_index=0, to_index=1, reason="latency")
        ]

    def test_meeting_slo_resets_the_streak(self):
        controller = make_controller()
        feed_latency(controller, 1.0, 8)
        controller.decide()  # violation 1 of 2
        # Window drains to healthy before the second strike lands.
        feed_latency(controller, 0.001, 64)
        assert controller.decide() is None
        feed_latency(controller, 1.0, 64)
        assert controller.decide() is None  # streak restarted
        assert controller.index == 0

    def test_reason_change_restarts_the_streak(self):
        controller = make_controller(start_index=1)
        feed_latency(controller, 1.0, 8)
        controller.decide()  # latency violation 1
        controller.observe_agreement(0.5)  # now accuracy outranks
        assert controller.decide() is None  # agreement violation 1, not 2
        assert controller.decide() == FRONTIER[0]
        assert controller.moves[-1].reason == "agreement"


class TestDamping:
    def test_no_decision_below_latency_sample_floor(self):
        controller = make_controller()
        feed_latency(controller, 1.0, 3)  # below min_latency_samples=4
        assert controller.decide() is None
        assert controller.decide() is None
        assert controller.index == 0

    def test_cooldown_pauses_decisions_and_windows_clear(self):
        controller = make_controller()
        feed_latency(controller, 1.0, 8)
        controller.decide()
        assert controller.decide() is not None  # the move
        assert controller.p99() is None  # windows cleared on move
        feed_latency(controller, 1.0, 8)
        for _ in range(3):  # cooldown_ticks
            assert controller.decide() is None
        assert controller.index == 1
        # Cooldown over: violations accumulate again.
        assert controller.decide() is None
        assert controller.decide() == FRONTIER[2]


class TestPriorityAndClamping:
    def test_agreement_violation_outranks_latency(self):
        controller = make_controller(start_index=1, hysteresis=1)
        feed_latency(controller, 1.0, 8)  # latency also broken
        controller.observe_agreement(0.9)
        assert controller.decide() == FRONTIER[0]
        assert controller.moves[-1].reason == "agreement"

    def test_fast_end_clamps(self):
        controller = make_controller(start_index=2, hysteresis=1)
        feed_latency(controller, 1.0, 8)
        assert controller.decide() is None
        assert controller.index == 2

    def test_accurate_end_clamps(self):
        controller = make_controller(start_index=0, hysteresis=1)
        controller.observe_agreement(0.5)
        assert controller.decide() is None
        assert controller.index == 0

    def test_healthy_windows_never_move(self):
        controller = make_controller(hysteresis=1)
        feed_latency(controller, 0.001, 16)
        controller.observe_agreement(1.0)
        for _ in range(10):
            assert controller.decide() is None
        assert controller.moves == []


class TestConstruction:
    def test_empty_frontier_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller(points=[])

    def test_start_index_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller(start_index=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hysteresis": 0},
            {"cooldown_ticks": -1},
            {"min_latency_samples": 0},
        ],
    )
    def test_bad_damping_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_controller(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p99_latency_s": 0.0},
            {"p99_latency_s": -1.0},
            {"p99_latency_s": 0.1, "min_agreement": 1.5},
            # NaN fails every comparison, so it passed a ``<= 0`` check.
            {"p99_latency_s": float("nan")},
            {"p99_latency_s": float("inf")},
        ],
    )
    def test_bad_slo_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantSLO(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha_intra": -0.1},
            {"alpha_inter": -1.0},
            {"alpha_intra": float("nan")},
            {"alpha_inter": float("nan")},
            {"precision": "int4"},
        ],
    )
    def test_bad_operating_point_rejected(self, kwargs):
        """A negative or NaN threshold or an unknown precision is refused
        where a frontier config is made, not when a zoo first builds an
        executor for it."""
        with pytest.raises(ConfigurationError):
            ExecutionConfig(mode=ExecutionMode.COMBINED, **kwargs)

    def test_as_dict_reports_state(self):
        controller = make_controller()
        feed_latency(controller, 1.0, 8)
        controller.decide()
        controller.decide()
        state = controller.as_dict()
        assert state["index"] == 1
        assert state["point"]["precision"] == "fp16"
        assert state["moves"][0]["reason"] == "latency"
