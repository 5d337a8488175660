"""Tests for the Table 1 feature extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    N_FEATURES,
    NodeFeatureTrack,
    StateNormalizer,
    build_feature_tracks,
    extract_node_features,
    feature_variation,
)
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.records import EventKind, EventRecord
from repro.utils.timeutils import HOUR, MINUTE


def _build_log(records):
    return ErrorLog.from_records(records)


class TestFeatureVariation:
    def test_zero_when_no_history(self):
        assert feature_variation([], [], now=100.0, value_now=5.0, delta=60.0) == 0.0

    def test_zero_when_past_value_zero(self):
        assert feature_variation([0.0], [0.0], now=100.0, value_now=5.0, delta=60.0) == 0.0

    def test_ratio_computed(self):
        # Value was 2 at t=0, is 6 now at t=100, delta=60 -> reference t=40 -> 2.
        assert feature_variation([0.0], [2.0], 100.0, 6.0, 60.0) == pytest.approx(3.0)

    def test_uses_latest_value_before_reference(self):
        times = [0.0, 30.0, 80.0]
        values = [1.0, 4.0, 9.0]
        # reference = 100 - 60 = 40 -> latest value at/before 40 is 4.
        assert feature_variation(times, values, 100.0, 8.0, 60.0) == pytest.approx(2.0)


class TestExtractNodeFeatures:
    def test_feature_names_and_count(self):
        assert len(FEATURE_NAMES) == N_FEATURES == 14

    def test_ce_counting(self):
        log = _build_log(
            [
                EventRecord(time=0.0, node=0, dimm=0, kind=EventKind.CE, ce_count=3,
                            rank=0, bank=0, row=1, col=1),
                EventRecord(time=2 * MINUTE, node=0, dimm=0, kind=EventKind.CE, ce_count=2,
                            rank=0, bank=0, row=2, col=1),
            ]
        )
        track = extract_node_features(log, 0)
        assert len(track) == 2
        assert track.features[0, FEATURE_INDEX["ces_since_last_event"]] == 3
        assert track.features[1, FEATURE_INDEX["ces_since_last_event"]] == 2
        assert track.features[1, FEATURE_INDEX["ces_total"]] == 5

    def test_distinct_location_counting(self):
        log = _build_log(
            [
                EventRecord(time=0.0, node=0, dimm=0, kind=EventKind.CE, ce_count=1,
                            rank=0, bank=0, row=1, col=1),
                EventRecord(time=5 * MINUTE, node=0, dimm=0, kind=EventKind.CE, ce_count=1,
                            rank=0, bank=0, row=1, col=2),
                EventRecord(time=10 * MINUTE, node=0, dimm=1, kind=EventKind.CE, ce_count=1,
                            rank=1, bank=2, row=3, col=4),
            ]
        )
        track = extract_node_features(log, 0)
        last = track.features[-1]
        assert last[FEATURE_INDEX["dimms_with_ce"]] == 2
        assert last[FEATURE_INDEX["ranks_with_ce"]] == 2
        assert last[FEATURE_INDEX["rows_with_ce"]] == 2
        assert last[FEATURE_INDEX["cols_with_ce"]] == 3

    def test_warning_and_boot_counting(self):
        log = _build_log(
            [
                EventRecord(time=0.0, node=0, dimm=0, kind=EventKind.UE_WARNING),
                EventRecord(time=10 * MINUTE, node=0, dimm=-1, kind=EventKind.BOOT),
                EventRecord(time=20 * MINUTE, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
            ]
        )
        track = extract_node_features(log, 0)
        last = track.features[-1]
        assert last[FEATURE_INDEX["ue_warnings_total"]] == 1
        assert last[FEATURE_INDEX["boots_total"]] == 1
        assert last[FEATURE_INDEX["time_since_boot"]] == pytest.approx(10 * MINUTE)

    def test_time_since_boot_before_any_boot(self):
        log = _build_log(
            [
                EventRecord(time=100.0, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
                EventRecord(time=100.0 + HOUR, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
            ]
        )
        track = extract_node_features(log, 0)
        assert track.features[1, FEATURE_INDEX["time_since_boot"]] == pytest.approx(HOUR)

    def test_variation_features(self):
        log = _build_log(
            [
                EventRecord(time=0.0, node=0, dimm=0, kind=EventKind.CE, ce_count=10),
                EventRecord(time=90 * MINUTE, node=0, dimm=0, kind=EventKind.CE, ce_count=10),
                EventRecord(time=2 * HOUR, node=0, dimm=0, kind=EventKind.CE, ce_count=20),
            ]
        )
        track = extract_node_features(log, 0)
        last = track.features[-1]
        # One hour before the last event only the first record existed (10 CEs);
        # now the total is 40 -> ratio 4.  One minute before, total was 20 -> 2.
        assert last[FEATURE_INDEX["ces_total_var_1hour"]] == pytest.approx(4.0)
        assert last[FEATURE_INDEX["ces_total_var_1min"]] == pytest.approx(2.0)

    def test_ue_marks_terminal(self):
        log = _build_log(
            [
                EventRecord(time=0.0, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
                EventRecord(time=HOUR, node=0, dimm=0, kind=EventKind.UE),
            ]
        )
        track = extract_node_features(log, 0)
        assert track.is_ue.tolist() == [False, True]
        assert track.n_decision_points == 1
        assert track.ue_times.tolist() == [HOUR]

    def test_slice_time(self):
        log = _build_log(
            [
                EventRecord(time=0.0, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
                EventRecord(time=HOUR, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
                EventRecord(time=2 * HOUR, node=0, dimm=0, kind=EventKind.CE, ce_count=1),
            ]
        )
        track = extract_node_features(log, 0)
        window = track.slice_time(HOUR - 1, 2 * HOUR)
        assert len(window) == 1
        assert window.features.shape == (1, N_FEATURES)

    def test_track_validation(self):
        with pytest.raises(ValueError):
            NodeFeatureTrack(
                node=0,
                times=np.zeros(2),
                features=np.zeros((2, N_FEATURES + 1)),
                is_ue=np.zeros(2, dtype=bool),
            )
        with pytest.raises(ValueError):
            NodeFeatureTrack(
                node=0,
                times=np.zeros(2),
                features=np.zeros((1, N_FEATURES)),
                is_ue=np.zeros(2, dtype=bool),
            )


class TestBuildFeatureTracks:
    def test_covers_all_nodes(self, reduced_error_log, feature_tracks):
        assert set(feature_tracks) == set(reduced_error_log.nodes.tolist())

    def test_features_are_finite_and_non_negative(self, feature_tracks):
        for track in feature_tracks.values():
            assert np.all(np.isfinite(track.features))
            assert np.all(track.features >= 0.0)

    def test_cumulative_features_monotone(self, feature_tracks):
        for track in feature_tracks.values():
            ces = track.features[:, FEATURE_INDEX["ces_total"]]
            boots = track.features[:, FEATURE_INDEX["boots_total"]]
            assert np.all(np.diff(ces) >= 0)
            assert np.all(np.diff(boots) >= 0)

    def test_ue_count_matches_log(self, reduced_error_log, feature_tracks):
        total_track_ues = sum(int(t.is_ue.sum()) for t in feature_tracks.values())
        assert total_track_ues == reduced_error_log.count_ues()


class TestStateNormalizer:
    def test_state_dim(self, normalizer):
        assert normalizer.state_dim == N_FEATURES + 1

    def test_log_compression_of_counts(self, normalizer):
        features = np.zeros(N_FEATURES)
        features[FEATURE_INDEX["ces_total"]] = np.e - 1
        state = normalizer.state_vector(features, ue_cost=0.0)
        assert state[FEATURE_INDEX["ces_total"]] == pytest.approx(1.0)

    def test_ratio_features_clipped_not_logged(self):
        normalizer = StateNormalizer(ratio_clip=10.0)
        features = np.zeros(N_FEATURES)
        features[FEATURE_INDEX["ces_total_var_1hour"]] = 100.0
        state = normalizer.state_vector(features, ue_cost=0.0)
        assert state[FEATURE_INDEX["ces_total_var_1hour"]] == pytest.approx(10.0)

    def test_ue_cost_appended_and_compressed(self, normalizer):
        state = normalizer.state_vector(np.zeros(N_FEATURES), ue_cost=np.e - 1)
        assert state[-1] == pytest.approx(1.0)

    def test_wrong_feature_count_rejected(self, normalizer):
        with pytest.raises(ValueError):
            normalizer.state_vector(np.zeros(N_FEATURES - 1), ue_cost=0.0)

    @pytest.mark.parametrize("width", [N_FEATURES - 1, N_FEATURES + 1])
    def test_transform_features_rejects_wrong_width(self, normalizer, width):
        with pytest.raises(ValueError, match="telemetry features"):
            normalizer.transform_features(np.zeros((3, width)))
        with pytest.raises(ValueError, match="telemetry features"):
            normalizer.transform(np.zeros((3, width + 1)))

    def test_transform_batch(self, normalizer):
        batch = np.abs(np.random.default_rng(0).normal(size=(5, N_FEATURES + 1))) * 100
        out = normalizer.transform(batch)
        assert out.shape == batch.shape
        assert np.all(np.isfinite(out))

    def test_invalid_clip_rejected(self):
        with pytest.raises(ValueError):
            StateNormalizer(ratio_clip=0)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=N_FEATURES, max_size=N_FEATURES
        ),
        st.floats(min_value=0, max_value=1e7),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_output_bounded(self, features, ue_cost):
        normalizer = StateNormalizer()
        state = normalizer.state_vector(np.array(features), ue_cost)
        assert np.all(np.isfinite(state))
        assert np.all(state >= 0.0)
        assert np.all(state <= max(np.log1p(1e9), 50.0) + 1)
