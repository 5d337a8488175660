"""Golden fingerprints of the suite-reachable scenario *kinds*.

One recorded fingerprint per extended kind — correlated burst faults,
mcelog-sourced real traces, heterogeneous fleets, diurnal/backfill job
mixes — mirroring ``test_golden.py``: each must reproduce bit-for-bit both
serially and with ``n_workers=2``, and all are re-recordable with::

    python -m pytest tests/golden --update-golden

The scenarios here are exactly what the matching blocks of
``examples/paper_suite.yaml`` compile to, so these goldens also pin the
suite layer's compilation output end to end.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace
from pathlib import Path
from typing import Dict

import pytest

from repro.config import ScenarioConfig
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.telemetry.topology import FleetSegment
from repro.utils.timeutils import DAY, HOUR

from tests.golden.test_golden import fingerprint, golden_diff

GOLDEN_DIR = Path(__file__).parent


def _kind_config(n_workers: int = 1, **overrides) -> ExperimentConfig:
    """Cheap deterministic schedule: RF family + statics, no RL search."""
    return ExperimentConfig(
        include_rl=False,
        rf_n_estimators=5,
        rf_max_depth=5,
        threshold_grid_size=6,
        charge_training_time=False,
        n_workers=n_workers,
    ).with_overrides(**overrides)


def _burst_scenario() -> ScenarioConfig:
    base = ScenarioConfig.small(seed=11)
    fault_model = replace(
        base.fault_model,
        correlated_bursts=3,
        correlated_burst_width=4,
        correlated_burst_span_seconds=1 * HOUR,
        correlated_burst_repeat_mean=2.0,
    )
    return replace(base, fault_model=fault_model, name="burst-faults")


def _mcelog_scenario():
    """The small scenario replayed through the mcelog text format."""
    from repro.telemetry.generator import TelemetryGenerator
    from repro.telemetry.mcelog import format_full_log, parse_mcelog

    scenario = replace(
        ScenarioConfig.small(seed=13).with_duration(60 * DAY),
        name="real-trace",
    )
    log = TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        seed=scenario.seed,
        duration_seconds=scenario.duration_seconds,
    ).generate()
    return scenario, parse_mcelog(io.StringIO(format_full_log(log)))


def _fleet_scenario() -> ScenarioConfig:
    base = ScenarioConfig.small()
    topology = replace(
        base.topology,
        segments=(
            FleetSegment(
                name="gen1", n_nodes=24, manufacturer=0,
                ce_scale=1.8, ue_scale=2.2, policy="always",
            ),
            FleetSegment(
                name="gen2", n_nodes=24, manufacturer=2,
                ce_scale=0.7, ue_scale=0.6, policy="sc20",
            ),
        ),
    )
    return replace(base.with_topology(topology), name="hetero-fleet")


def _diurnal_scenario() -> ScenarioConfig:
    base = ScenarioConfig.small()
    workload = replace(
        base.workload,
        submit_pattern="diurnal",
        diurnal_amplitude=0.8,
        scheduler="backfill",
    )
    return replace(base, workload=workload, name="diurnal-backfill")


def _run_kind(kind: str, n_workers: int) -> Dict[str, Dict[str, float]]:
    if kind == "burst":
        result = run_experiment(_burst_scenario(), _kind_config(n_workers))
    elif kind == "mcelog":
        scenario, error_log = _mcelog_scenario()
        result = run_experiment(
            scenario, _kind_config(n_workers), error_log=error_log
        )
    elif kind == "fleet":
        result = run_experiment(
            _fleet_scenario(), _kind_config(n_workers, include_fleet_mix=True)
        )
    elif kind == "diurnal":
        result = run_experiment(_diurnal_scenario(), _kind_config(n_workers))
    else:  # pragma: no cover
        raise ValueError(kind)
    return fingerprint(result)


KINDS = ("burst", "mcelog", "fleet", "diurnal")


def _golden_file(kind: str) -> Path:
    return GOLDEN_DIR / f"golden_kind_{kind}.json"


@pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "workers-2"])
@pytest.mark.parametrize("kind", KINDS)
def test_golden_kind(kind, n_workers, request):
    """Each extended scenario kind reproduces its recorded fingerprint."""
    path = _golden_file(kind)
    actual = _run_kind(kind, n_workers)

    if request.config.getoption("--update-golden"):
        if not path.exists() or n_workers == 1:
            path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        # Every parametrization must still agree with what is on disk, so
        # serial-vs-parallel drift is caught at record time.

    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; record it with "
            "`python -m pytest tests/golden --update-golden` and commit it"
        )
    recorded = json.loads(path.read_text())
    differences = golden_diff(recorded, actual)
    assert not differences, (
        f"golden fingerprint mismatch for kind {kind!r} "
        f"(n_workers={n_workers}).\n"
        "If this change is intentional, re-record with "
        "`python -m pytest tests/golden --update-golden` and commit "
        f"{path.name}; otherwise a refactor changed the numbers:\n  "
        + "\n  ".join(differences)
    )


def test_fleet_golden_includes_fleet_mix():
    """The heterogeneous-fleet golden actually exercises the composite."""
    path = _golden_file("fleet")
    if not path.exists():
        pytest.skip("record the golden files first (--update-golden)")
    assert "Fleet-mix" in json.loads(path.read_text())
