"""Tests for the benchmark harness infrastructure.

The figure functions themselves are exercised by the ``benchmarks/`` suite
on the real Table II applications; here we test the harness plumbing —
app selection, context caching, and the static report generators.
"""

from repro.bench.harness import (
    ExperimentContext,
    default_apps,
    fig09_tissue_size_sweep,
    table1_platform,
    table2_applications,
)


class TestDefaultApps:
    def test_all_six_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_APPS", raising=False)
        assert default_apps() == ("IMDB", "MR", "BABI", "SNLI", "PTB", "MT")

    def test_env_restriction(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_APPS", "mr, ptb")
        assert default_apps() == ("MR", "PTB")


class TestStaticReports:
    def test_table1(self):
        report = table1_platform(ExperimentContext())
        assert "Tegra X1" in report and "511" in report

    def test_table2(self):
        report = table2_applications(ExperimentContext())
        assert report.count("\n") >= 7  # title + header + rule + 6 apps

    def test_fig09_without_workload_builds(self):
        """Fig. 9 only needs the simulator, not the heavy workloads."""
        data, report = fig09_tissue_size_sweep(
            ExperimentContext(), apps=("MR",), max_tissue_size=8
        )
        assert "MR" in data
        assert data["MR"]["mts"] >= 2
        assert len(data["MR"]["performance"]) == 8


class TestContextCaching:
    def test_workload_cached(self, monkeypatch):
        ctx = ExperimentContext()
        calls = []
        import repro.bench.harness as harness

        def fake_build(name, seed, spec, plan_cache=None):
            calls.append(name)
            return object()

        monkeypatch.setattr(harness, "build_workload", fake_build)
        ctx.workload("MR")
        ctx.workload("mr")
        assert calls == ["MR"]

    def test_sweep_cached(self, monkeypatch):
        from repro.core.executor import ExecutionMode

        ctx = ExperimentContext()
        calls = []

        class FakeWorkload:
            def threshold_sweep(self, mode):
                calls.append(mode)
                return ["sweep"]

        ctx._workloads["MR"] = FakeWorkload()
        ctx.sweep("MR", ExecutionMode.INTER)
        ctx.sweep("mr", ExecutionMode.INTER)
        ctx.sweep("MR", ExecutionMode.INTRA)
        assert calls == [ExecutionMode.INTER, ExecutionMode.INTRA]


class TestDerivedSeeds:
    def test_deterministic_per_scope(self):
        ctx = ExperimentContext(seed=7)
        assert ctx.derived_seed("fig18", "participants") == ctx.derived_seed(
            "fig18", "participants"
        )

    def test_scopes_get_distinct_streams(self):
        ctx = ExperimentContext(seed=7)
        assert ctx.derived_seed("fig18", "participants") != ctx.derived_seed(
            "fig18", "replays"
        )

    def test_root_seed_changes_children(self):
        assert ExperimentContext(seed=0).derived_seed("fig18") != ExperimentContext(
            seed=1
        ).derived_seed("fig18")

    def test_fig18_seeds_follow_context(self):
        """The user study draws from ctx.seed, not a free-floating constant.

        Regression: the panel/replay seed used to be hard-coded to 7, so
        two sessions with different root seeds produced identical studies.
        """
        from unittest.mock import patch

        from repro.bench.harness import fig18_user_study

        captured = {}

        def fake_sample(seed):
            captured["participants"] = seed
            raise RuntimeError("stop after seeding")

        with patch("repro.bench.harness.sample_participants", fake_sample):
            for root in (0, 1):
                ctx = ExperimentContext(seed=root)
                try:
                    fig18_user_study(ctx, apps=())
                except RuntimeError:
                    pass
                assert captured["participants"] == ctx.derived_seed(
                    "fig18", "participants"
                )

    def test_fig18_explicit_seed_overrides(self):
        from unittest.mock import patch

        from repro.bench.harness import fig18_user_study

        captured = {}

        def fake_sample(seed):
            captured["participants"] = seed
            raise RuntimeError("stop after seeding")

        with patch("repro.bench.harness.sample_participants", fake_sample):
            try:
                fig18_user_study(ExperimentContext(), apps=(), seed=123)
            except RuntimeError:
                pass
        assert captured["participants"] == 123
