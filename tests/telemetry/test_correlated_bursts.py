"""The correlated multi-node burst-failure mode of the fault model."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.analysis.burst import BurstStatistics
from repro.telemetry.fault_model import FaultModelConfig
from repro.telemetry.generator import TelemetryGenerator
from repro.utils.timeutils import HOUR


def _with_faults(scenario: ScenarioConfig, **fields) -> ScenarioConfig:
    return replace(scenario, fault_model=replace(scenario.fault_model, **fields))


def _generate(scenario: ScenarioConfig):
    return TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        seed=scenario.seed,
        duration_seconds=scenario.duration_seconds,
    ).generate()


def test_mode_defaults_to_inert():
    """``correlated_bursts=0`` leaves the generated log bit-identical."""
    base = ScenarioConfig.small()
    explicit = _with_faults(
        base,
        correlated_bursts=0,
        correlated_burst_width=9,
        correlated_burst_span_seconds=5 * HOUR,
        correlated_burst_repeat_mean=7.0,
    )
    log_a, log_b = _generate(base), _generate(explicit)
    assert len(log_a) == len(log_b)
    np.testing.assert_array_equal(log_a.time, log_b.time)
    np.testing.assert_array_equal(log_a.node, log_b.node)
    np.testing.assert_array_equal(log_a.kind, log_b.kind)


def test_bursts_add_ues_on_clustered_nodes():
    base = ScenarioConfig.small(seed=11)
    burst = _with_faults(
        base,
        correlated_bursts=3,
        correlated_burst_width=4,
        correlated_burst_span_seconds=1 * HOUR,
    )
    log_base, log_burst = _generate(base), _generate(burst)
    assert log_burst.count_ues() > log_base.count_ues()
    # The extra first-UEs arrive on spatially contiguous node windows: some
    # adjacent node pair must share a burst within the configured span.
    ue = log_burst.is_ue_mask
    nodes, times = log_burst.node[ue], log_burst.time[ue]
    close = [
        abs(int(n1) - int(n2))
        for i, (n1, t1) in enumerate(zip(nodes, times))
        for n2, t2 in zip(nodes[i + 1:], times[i + 1:])
        if abs(t1 - t2) <= 1 * HOUR and n1 != n2
    ]
    assert close and min(close) < 4


def test_burst_width_is_capped_by_the_cluster():
    tiny = _with_faults(
        ScenarioConfig.small(), correlated_bursts=1, correlated_burst_width=10_000
    )
    log = _generate(tiny)  # must not raise despite width >> n_nodes
    assert log.node.max() < tiny.topology.n_nodes


def test_generation_is_deterministic():
    scenario = _with_faults(
        ScenarioConfig.small(seed=23), correlated_bursts=2
    )
    log_a, log_b = _generate(scenario), _generate(scenario)
    np.testing.assert_array_equal(log_a.time, log_b.time)
    np.testing.assert_array_equal(log_a.node, log_b.node)


@pytest.mark.parametrize(
    "field, value",
    [
        ("correlated_bursts", -1),
        ("correlated_burst_width", 0),
        ("correlated_burst_span_seconds", 0.0),
        ("correlated_burst_repeat_mean", -0.5),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        FaultModelConfig(**{field: value})


def test_new_fields_round_trip():
    config = FaultModelConfig(
        correlated_bursts=4,
        correlated_burst_width=6,
        correlated_burst_span_seconds=2 * HOUR,
        correlated_burst_repeat_mean=1.5,
    )
    assert FaultModelConfig.from_dict(config.to_dict()) == config


def test_old_payloads_still_load():
    """Payloads recorded before the burst fields existed keep loading."""
    payload = FaultModelConfig().to_dict()
    for field in (
        "correlated_bursts",
        "correlated_burst_width",
        "correlated_burst_span_seconds",
        "correlated_burst_repeat_mean",
    ):
        del payload[field]
    loaded = FaultModelConfig.from_dict(payload)
    assert loaded.correlated_bursts == 0


def test_from_burst_statistics_lifts_measured_numbers():
    stats = BurstStatistics(
        n_raw_ues=333,
        n_first_ues=67,
        mean_burst_size=333 / 67,
        max_burst_size=30,
        burst_window_seconds=7 * 24 * HOUR,
    )
    config = FaultModelConfig.from_burst_statistics(stats)
    assert config.n_ue_bursts == 67
    assert config.ue_burst_repeat_mean == pytest.approx(333 / 67 - 1.0)
    assert config.quarantine_seconds == 7 * 24 * HOUR


def test_from_burst_statistics_round_trips_through_analysis():
    """generate -> measure -> calibrate reproduces the measured burst shape."""
    from repro.analysis.burst import ue_burst_statistics

    scenario = ScenarioConfig.small(seed=3)
    measured = ue_burst_statistics(
        _generate(scenario), scenario.fault_model.quarantine_seconds
    )
    calibrated = FaultModelConfig.from_burst_statistics(
        measured, base=scenario.fault_model
    )
    regenerated = _generate(
        _with_faults(
            scenario,
            n_ue_bursts=calibrated.n_ue_bursts,
            ue_burst_repeat_mean=calibrated.ue_burst_repeat_mean,
            quarantine_seconds=calibrated.quarantine_seconds,
        )
    )
    remeasured = ue_burst_statistics(
        regenerated, calibrated.quarantine_seconds
    )
    assert remeasured.n_first_ues == pytest.approx(
        measured.n_first_ues, rel=0.5
    )
