"""Literal content keys of the store's ``prepared/`` and ``results/`` families.

A store is found again only under the keys it was written with: a change
to :func:`prepared_data_key` or :meth:`ArtifactStore.result_key` that moves
one of these digests orphans every existing store, so a resumed sweep would
recompute all of its points.  The values were recorded before the prepared
key moved from the store into the pipeline and must never be re-recorded.
"""

from __future__ import annotations

import pytest

from repro.config import ScenarioConfig
from repro.evaluation.pipeline import ExperimentConfig, prepared_data_key
from repro.store import ArtifactStore
from repro.store.backends import DictBackend

SCENARIOS = {
    "small()": lambda: ScenarioConfig.small(),
    "small(1)": lambda: ScenarioConfig.small(1),
    "small().with_job_scale(4.0)": lambda: ScenarioConfig.small().with_job_scale(4.0),
}

PREPARED_KEYS = {
    "small()": "1d9ec5edce65f4ce",
    "small(1)": "14265e229decaa97",
    "small().with_job_scale(4.0)": "abeb7109d1430d31",
}

CONFIGS = {"default": ExperimentConfig, "fast": ExperimentConfig.fast}

RESULT_KEYS = [
    ("small()", "default", "2b5262527ec67869"),
    ("small()", "fast", "535a93964f4f379f"),
    ("small(1)", "fast", "a87bfcb303a952e1"),
]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_prepared_data_keys_are_unchanged(scenario, config):
    key = prepared_data_key(SCENARIOS[scenario](), CONFIGS[config]())
    assert key == PREPARED_KEYS[scenario]


@pytest.mark.parametrize("scenario, config, expected", RESULT_KEYS)
def test_result_keys_are_unchanged(scenario, config, expected):
    store = ArtifactStore(backend=DictBackend())
    assert store.result_key(SCENARIOS[scenario](), CONFIGS[config]()) == expected
