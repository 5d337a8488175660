"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on a scaled-down
synthetic scenario (see ``DESIGN.md`` for the per-experiment index and
``EXPERIMENTS.md`` for the paper-vs-measured comparison).  Experiments are
expensive, so results are cached per (scenario, config) key and shared across
benchmarks within one pytest session: the first benchmark that needs a given
experiment pays for it, the others reuse the result.

Environment knobs:

``REPRO_BENCH_SCENARIO``  — ``small`` (default) or ``benchmark`` / ``paper``.
``REPRO_BENCH_EPISODES``  — override the RL episode budget per split.
``REPRO_BENCH_STORE``     — ArtifactStore directory: the fig3/fig5/fig7
                            sweeps then warm-start from disk (completed
                            points load, prepared data is not regenerated)
                            and persist whatever this session computes.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Optional, Tuple

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

from repro.config import ScenarioConfig
from repro.evaluation.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.evaluation.pipeline import PreparedDataCache
from repro.evaluation.sweep import SweepResult, SweepSpec, run_sweep
from repro.store import ArtifactStore

_CACHE: Dict[Tuple, ExperimentResult] = {}
_SWEEP_CACHE: Dict[Tuple, SweepResult] = {}
_STORE_STATE: Dict[str, object] = {}


def bench_store() -> Optional[ArtifactStore]:
    """The ArtifactStore named by ``REPRO_BENCH_STORE`` (``None`` when unset)."""
    directory = os.environ.get("REPRO_BENCH_STORE")
    if not directory:
        return None
    if _STORE_STATE.get("dir") != directory:
        store = ArtifactStore(directory)
        _STORE_STATE.update(
            # One spilling cache per store: prepared products written by
            # earlier benchmark sessions are read back instead of rebuilt.
            {"dir": directory, "store": store, "cache": PreparedDataCache(spill=store)}
        )
    return _STORE_STATE["store"]  # type: ignore[return-value]


def bench_scenario() -> ScenarioConfig:
    """The scenario used by the benchmark harness."""
    name = os.environ.get("REPRO_BENCH_SCENARIO", "small")
    return getattr(ScenarioConfig, name)()


def default_experiment_config() -> ExperimentConfig:
    """Full-quality config used for the headline cost–benefit benchmark."""
    config = ExperimentConfig()
    episodes = os.environ.get("REPRO_BENCH_EPISODES")
    if episodes:
        config = config.with_overrides(rl_episodes=int(episodes))
    return config


def sweep_experiment_config() -> ExperimentConfig:
    """Cheaper config used for the parameter sweeps (Figures 5 and 7)."""
    config = ExperimentConfig.fast()
    episodes = os.environ.get("REPRO_BENCH_EPISODES")
    if episodes:
        config = config.with_overrides(rl_episodes=int(episodes))
    return config


def cached_experiment(
    scenario: ScenarioConfig, config: ExperimentConfig, key_extra: str = ""
) -> ExperimentResult:
    """Run (or reuse) an experiment for the given scenario/config pair."""
    # Key on the full frozen dataclasses, so no field can be left out.
    key = (scenario, config, key_extra)
    if key not in _CACHE:
        _CACHE[key] = run_experiment(scenario, config)
    return _CACHE[key]


def _axis_key(values) -> Tuple:
    return None if values is None else tuple(values)


def cached_sweep(spec: SweepSpec, config: ExperimentConfig) -> SweepResult:
    """Run (or reuse) a sweep; the first benchmark that needs it pays.

    Sweeps additionally share prepared data *across* calls through the
    process-wide :func:`repro.evaluation.default_prepared_cache`, so e.g.
    the Figure 3 cost sweep and the Figure 7 scaling sweep regenerate the
    base telemetry only once per pytest session.

    With ``REPRO_BENCH_STORE`` set, the sweep runs against that
    :class:`~repro.store.ArtifactStore`: fig3/fig5/fig7 reruns warm-start
    from disk — completed points load instead of executing and prepared
    data spills to (and reloads from) the store — so a second benchmark
    session recomputes nothing that the first one already paid for.
    """
    # Key on the full frozen dataclasses: any base-scenario or config field
    # difference yields a distinct sweep (axes are normalised to tuples
    # because SweepSpec accepts any sequence).
    key = (
        spec.base,
        _axis_key(spec.mitigation_costs),
        _axis_key(spec.restartable),
        _axis_key(spec.manufacturers),
        _axis_key(spec.job_scales),
        _axis_key(spec.seeds),
        config,
    )
    if key not in _SWEEP_CACHE:
        store = bench_store()
        if store is None:
            _SWEEP_CACHE[key] = run_sweep(spec, config)
        else:
            _SWEEP_CACHE[key] = run_sweep(
                spec, config, cache=_STORE_STATE["cache"], store=store
            )
    return _SWEEP_CACHE[key]


@pytest.fixture(scope="session")
def scenario() -> ScenarioConfig:
    return bench_scenario()


@pytest.fixture(scope="session")
def headline_experiment(scenario) -> ExperimentResult:
    """The 2-node-minute experiment shared by Figures 3, 4, 6 and Table 2."""
    return cached_experiment(scenario, default_experiment_config())
