"""Tests for the offline calibration (Fig. 10 operations)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.breakpoints import divide_layer, find_breakpoints
from repro.core.thresholds import select_ao
from repro.core.tissue import align_tissues
from repro.core.tuner import (
    _mean_tissue_counts,
    calibrate_offline,
    collect_relevance_samples,
    find_alpha_inter_max,
    fit_predicted_links,
)
from repro.errors import CalibrationError


def synthetic_samples(weak_fraction=0.2, seq=40, layers=6, seed=0):
    """Relevance arrays with a clear weak/strong bimodal structure."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(layers):
        s = rng.normal(1000.0, 30.0, size=seq)
        weak = rng.random(seq) < weak_fraction
        s[weak] = rng.normal(50.0, 10.0, size=int(weak.sum()))
        samples.append(np.abs(s))
    return samples


class TestAlphaSearch:
    def test_threshold_separates_modes(self):
        samples = synthetic_samples(weak_fraction=0.4)
        alpha = find_alpha_inter_max(samples, mts=4)
        # Breaking the weak mode suffices; the threshold should sit between
        # the modes rather than deep into the strong one.
        assert 50.0 < alpha < 1000.0

    def test_no_samples_rejected(self):
        with pytest.raises(CalibrationError):
            find_alpha_inter_max([], mts=4)

    def test_short_layers_fall_back_to_best(self):
        """When N_min is unreachable the search returns the best achievable
        threshold instead of failing."""
        samples = [np.full(3, 100.0)]
        alpha = find_alpha_inter_max(samples, mts=8)
        assert alpha > 0

    #: Few distinct levels, so thresholds tie with relevance values.
    LEVELS = [0.0, 0.5, 1.0, 2.0, 3.0]

    @settings(max_examples=300, deadline=None)
    @given(
        samples=st.lists(
            st.lists(st.sampled_from(LEVELS), min_size=1, max_size=40),
            min_size=1,
            max_size=6,
        ),
        alphas=st.lists(st.sampled_from([*LEVELS, 0.75, 5.0]), min_size=1, max_size=8),
        mts=st.integers(1, 9),
    )
    def test_closed_form_count_equals_the_list_planner(self, samples, alphas, mts):
        """The calibration's tissue count — the longest sub-layer or
        ``ceil(T / mts)``, whichever is more — is what LPT alignment of the
        divided layer reaches, at every threshold, to the last bit of the
        mean."""
        samples = [np.array(s) for s in samples]
        counts = _mean_tissue_counts(samples, np.array(alphas), mts)
        for alpha, count in zip(alphas, counts):
            planned = [
                len(align_tissues(divide_layer(s.size, find_breakpoints(s, alpha)), mts))
                for s in samples
            ]
            assert count == float(np.mean(planned))


class TestCollection:
    def test_relevance_samples_per_sequence_and_layer(self, tiny_app, tiny_tokens):
        samples = collect_relevance_samples(tiny_app.network, tiny_tokens)
        assert len(samples) == tiny_tokens.shape[0] * tiny_app.network.num_layers
        for s in samples:
            assert s.shape == (tiny_tokens.shape[1],)

    def test_predicted_links_per_layer(self, tiny_app, tiny_tokens):
        links = fit_predicted_links(tiny_app.network, tiny_tokens)
        assert len(links) == tiny_app.network.num_layers
        hidden = tiny_app.network.config.hidden_size
        assert all(l.hidden_size == hidden for l in links)

    def test_predicted_links_are_sane(self, tiny_app, tiny_tokens):
        links = fit_predicted_links(tiny_app.network, tiny_tokens)
        for link in links:
            assert np.all(np.abs(link.h_bar) <= 1.0)
            assert np.all(np.isfinite(link.c_bar))


class TestCalibrateOffline:
    def test_full_calibration(self, tiny_app_config, calibrated_network, tiny_tokens):
        calibration = calibrate_offline(calibrated_network, tiny_tokens)
        assert calibration.mts >= 1
        assert calibration.alpha_inter_max > 0
        assert len(calibration.predicted_links) == calibrated_network.num_layers

    def test_explicit_mts_respected(self, calibrated_network, tiny_tokens):
        calibration = calibrate_offline(calibrated_network, tiny_tokens, mts=3)
        assert calibration.mts == 3

    def test_schedule_shape(self, calibrated_network, tiny_tokens):
        calibration = calibrate_offline(calibrated_network, tiny_tokens, mts=3)
        schedule = calibration.schedule()
        assert len(schedule) == 11
        assert schedule[0].alpha_inter == 0.0
        assert schedule[10].alpha_inter == pytest.approx(calibration.alpha_inter_max)
        inters = [s.alpha_inter for s in schedule]
        assert inters == sorted(inters)

    def test_quadratic_intra_spacing(self, calibrated_network, tiny_tokens):
        calibration = calibrate_offline(calibrated_network, tiny_tokens, mts=3)
        schedule = calibration.schedule()
        # Quadratic: the first step is far smaller than the last step.
        step_first = schedule[1].alpha_intra - schedule[0].alpha_intra
        step_last = schedule[10].alpha_intra - schedule[9].alpha_intra
        assert step_first < step_last / 5


def two_pass_calibration(network, tokens, mts):
    """What ``calibrate_offline`` used to run: an INTER relevance probe,
    then a second, BASELINE walk of the same batch for the links."""
    samples = collect_relevance_samples(network, tokens)
    return samples, find_alpha_inter_max(samples, mts), fit_predicted_links(network, tokens)


def assert_calibration_equals(calibration, samples, alpha_max, links):
    assert calibration.alpha_inter_max == alpha_max
    assert len(calibration.relevance_samples) == len(samples)
    for mine, theirs in zip(calibration.relevance_samples, samples):
        assert np.array_equal(mine, theirs)
    assert len(calibration.predicted_links) == len(links)
    for mine, theirs in zip(calibration.predicted_links, links):
        assert np.array_equal(mine.h_bar, theirs.h_bar)
        assert np.array_equal(mine.c_bar, theirs.c_bar)


class TestOnePassCalibration:
    """``calibrate_offline`` walks the batch once; every field equals the
    two-pass result (also compared, at the commit that made it one pass,
    with the ``OfflineCalibration`` saved from its parent: 0 entries differ
    on BABI and IMDB)."""

    @pytest.mark.parametrize("app_name, sequences", [("BABI", 8), ("IMDB", 2)])
    def test_equals_the_two_pass_result_at_serving_geometry(
        self, monkeypatch, app_name, sequences
    ):
        from repro.core import tuner
        from repro.core.pipeline import OptimizedLSTM

        app = OptimizedLSTM.from_app(app_name, seed=0)
        runs = []
        run_batch = tuner.LSTMExecutor.run_batch
        monkeypatch.setattr(
            tuner.LSTMExecutor,
            "run_batch",
            lambda self, *args, **kwargs: runs.append(self.config.mode)
            or run_batch(self, *args, **kwargs),
        )
        calibration = app.calibrate(num_sequences=sequences)
        assert len(runs) == 1
        tokens = app.sample_tokens(sequences, seed=0xCA11B)  # calibrate()'s own draw
        assert_calibration_equals(
            calibration, *two_pass_calibration(app.network, tokens, calibration.mts)
        )
        assert len(runs) == 3

    def test_a_zero_relevance_link_falls_back_to_the_exact_walk(
        self, tiny_network, tiny_tokens
    ):
        """With ``U = 0`` every recurrent range is zero, saturated cells
        have relevance exactly 0 and break even at the epsilon threshold —
        the probe is then not the exact walk, and the links must still come
        from one."""
        import copy

        network = copy.deepcopy(tiny_network)
        for layer in network.layers:
            layer.weights.u[:] = 0.0
            layer.weights.b[:] = 6.0
        samples, alpha_max, links = two_pass_calibration(network, tiny_tokens, 3)
        assert any((s[1:] == 0.0).any() for s in samples)
        calibration = calibrate_offline(network, tiny_tokens, mts=3)
        assert_calibration_equals(calibration, samples, alpha_max, links)


class TestAccuracyGuided:
    def test_wraps_ao(self):
        """Fig. 10, step 4: the most aggressive set still meeting the
        user-preferred accuracy."""
        acc = np.array([1.0, 0.99, 0.95])
        assert select_ao(acc, 0.98) == 1
