"""Golden-result regression harness.

Records a fingerprint — per-approach cost breakdowns, rounded — of a small
deterministic experiment and compares every future run against it, so
refactors of the pipeline/executor (e.g. new parallelism or caching layers)
are verified to leave the *numbers* untouched.  The same fingerprint must be
reproduced serially and with ``n_workers=2``: the schedule may never change
the results.

Every number draws from keyed RNG streams, and the training cost charged
to the learned policies is modelled from work counts, so the fingerprint
holds with the charge off (``golden_small.json``) and on
(``golden_small_charged.json``, whose training costs are recorded exactly).

To re-record after an *intentional* result change::

    python -m pytest tests/golden --update-golden

and commit the refreshed golden files together with the change that
motivated it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.config import ScenarioConfig
from repro.evaluation.experiment import ExperimentConfig, run_experiment

GOLDEN_FILE = Path(__file__).with_name("golden_small.json")
CHARGED_GOLDEN_FILE = Path(__file__).with_name("golden_small_charged.json")

#: Costs are node–hours; three decimals is far below any real behavioural
#: change yet immune to last-ulp float noise in accumulation order.
ROUND_DIGITS = 3


def golden_config(n_workers: int = 1, charge: bool = False) -> ExperimentConfig:
    """Small-but-complete schedule: every approach group, six splits."""
    return ExperimentConfig(
        rl_episodes=15,
        rl_hyperparam_trials=1,
        rl_hidden_sizes=(16, 8),
        rf_n_estimators=5,
        rf_max_depth=5,
        threshold_grid_size=6,
        charge_training_time=charge,
        n_workers=n_workers,
    )


def fingerprint(
    result, exact_training_cost: bool = False
) -> Dict[str, Dict[str, float]]:
    """Per-approach rounded cost fingerprint of an ``ExperimentResult``."""
    recorded: Dict[str, Dict[str, float]] = {}
    for name in result.approach_names:
        costs = result.approaches[name].total_costs
        recorded[name] = {
            "total": round(costs.total, ROUND_DIGITS),
            "ue_cost": round(costs.ue_cost, ROUND_DIGITS),
            "mitigation_cost": round(costs.mitigation_cost, ROUND_DIGITS),
            "training_cost": (
                costs.training_cost
                if exact_training_cost
                else round(costs.training_cost, ROUND_DIGITS)
            ),
            "n_ues": int(costs.n_ues),
            "n_mitigations": int(costs.n_mitigations),
        }
    return recorded


def golden_diff(
    recorded: Dict[str, Dict[str, float]], actual: Dict[str, Dict[str, float]]
) -> List[str]:
    """Human-readable field-by-field differences (empty when identical)."""
    lines: List[str] = []
    for name in sorted(set(recorded) - set(actual)):
        lines.append(f"approach {name!r}: recorded but missing from this run")
    for name in sorted(set(actual) - set(recorded)):
        lines.append(f"approach {name!r}: produced by this run but not recorded")
    for name in sorted(set(recorded) & set(actual)):
        for field_name in recorded[name]:
            want = recorded[name][field_name]
            got = actual[name].get(field_name)
            if got != want:
                lines.append(
                    f"{name}.{field_name}: recorded {want!r} != actual {got!r}"
                )
    return lines


def _load_recorded(path: Path = GOLDEN_FILE) -> Dict[str, Dict[str, float]]:
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; record it with "
            "`python -m pytest tests/golden --update-golden` and commit it"
        )
    return json.loads(path.read_text())


def _check_golden(path: Path, actual, n_workers: int, request) -> None:
    if request.config.getoption("--update-golden"):
        if not path.exists() or n_workers == 1:
            path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        # Fall through: even while recording, every parametrization must
        # agree with what is on disk (catches serial-vs-parallel drift at
        # record time instead of at the next comparison).

    recorded = _load_recorded(path)
    differences = golden_diff(recorded, actual)
    assert not differences, (
        f"golden fingerprint mismatch ({len(differences)} differences, "
        f"n_workers={n_workers}).\n"
        "If this change is intentional, re-record with "
        "`python -m pytest tests/golden --update-golden` and commit "
        f"{path.name}; otherwise a refactor changed the numbers:\n  "
        + "\n  ".join(differences)
    )


@pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "workers-2"])
def test_golden_small(n_workers, request):
    """``ScenarioConfig.small()`` reproduces the recorded fingerprints."""
    result = run_experiment(ScenarioConfig.small(), golden_config(n_workers))
    _check_golden(GOLDEN_FILE, fingerprint(result), n_workers, request)


@pytest.mark.parametrize("n_workers", [1, 2], ids=["serial", "workers-2"])
def test_golden_small_charged(n_workers, request):
    """With the training charge on, the same run reproduces its recorded
    fingerprint on either schedule, training costs to the last bit."""
    config = golden_config(n_workers, charge=True)
    actual = fingerprint(
        run_experiment(ScenarioConfig.small(), config), exact_training_cost=True
    )
    for name in ("SC20-RF", "SC20-RF-2%", "SC20-RF-5%", "Myopic-RF", "RL"):
        assert actual[name]["training_cost"] > 0.0, name
    _check_golden(CHARGED_GOLDEN_FILE, actual, n_workers, request)


def test_golden_small_with_store_attached(tmp_path, request):
    """The store must be invisible to the numbers: a ``Study`` run writing
    into a fresh :class:`~repro.store.ArtifactStore` reproduces the recorded
    fingerprint, and so does the resumed (loaded-from-disk) result."""
    from repro.store import ArtifactStore
    from repro.study import Study

    if request.config.getoption("--update-golden") and not GOLDEN_FILE.exists():
        pytest.skip("record the golden file with the plain experiment first")

    store = ArtifactStore(tmp_path / "runs")
    study = Study.from_scenario(ScenarioConfig.small(), store=store)
    computed = fingerprint(study.run(golden_config()))

    recorded = _load_recorded()
    differences = golden_diff(recorded, computed)
    assert not differences, (
        "store-attached run diverged from the golden fingerprint:\n  "
        + "\n  ".join(differences)
    )

    resumed = Study.from_scenario(ScenarioConfig.small(), store=store)
    reloaded = fingerprint(resumed.resume(golden_config()))
    differences = golden_diff(recorded, reloaded)
    assert not differences, (
        "store-reloaded result diverged from the golden fingerprint:\n  "
        + "\n  ".join(differences)
    )


class TestGoldenDiff:
    """The comparator itself must produce a readable diff."""

    RECORDED = {
        "Oracle": {"total": 10.0, "n_ues": 3},
        "Never-mitigate": {"total": 20.0, "n_ues": 3},
    }

    def test_identical_fingerprints_have_no_diff(self):
        assert golden_diff(self.RECORDED, self.RECORDED) == []

    def test_perturbed_cost_names_the_field_and_both_values(self):
        actual = {
            "Oracle": {"total": 10.5, "n_ues": 3},
            "Never-mitigate": {"total": 20.0, "n_ues": 3},
        }
        diff = golden_diff(self.RECORDED, actual)
        assert diff == ["Oracle.total: recorded 10.0 != actual 10.5"]

    def test_missing_and_extra_approaches_reported(self):
        actual = {
            "Oracle": {"total": 10.0, "n_ues": 3},
            "RL": {"total": 12.0, "n_ues": 3},
        }
        diff = golden_diff(self.RECORDED, actual)
        assert "approach 'Never-mitigate': recorded but missing from this run" in diff
        assert "approach 'RL': produced by this run but not recorded" in diff
