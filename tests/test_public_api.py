"""The curated public surface: ``repro.__all__`` and ``repro.evaluation``.

The top-level package exports exactly the blessed API.  Pipeline internals
are importable only from their home modules (:mod:`repro.evaluation.pipeline`
and :mod:`repro.evaluation.executor`) — the one-release deprecation shim
that kept them importable from the package is gone.
"""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import repro
import repro.evaluation as evaluation


class TestTopLevelSurface:
    def test_every_blessed_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_dir_covers_the_blessed_names(self):
        listed = dir(repro)
        for name in repro.__all__:
            assert name in listed

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.bogus_name

    def test_blessed_names_match_their_home_modules(self):
        from repro.evaluation.sweep import SweepSpec
        from repro.store import ArtifactStore
        from repro.study import Study

        assert repro.Study is Study
        assert repro.ArtifactStore is ArtifactStore
        assert repro.SweepSpec is SweepSpec

    def test_import_repro_is_lightweight(self):
        """``import repro`` must not drag in the evaluation engine (PEP 562)."""
        code = (
            "import sys; import repro; "
            "assert 'repro.evaluation' not in sys.modules, 'eager import'; "
            "repro.Study; "
            "assert 'repro.evaluation' in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(importlib.import_module("pathlib").Path(__file__).parents[1]),
        )


class TestEvaluationSurface:
    PUBLIC = ("run_experiment", "run_sweep", "SweepSpec", "ExperimentConfig",
              "PreparedDataCache", "format_cost_table", "register_approach")
    INTERNAL = ("build_split_tasks", "prepared_data_key", "trace_cache_stats",
                "aggregate", "make_splits", "prepare_data", "execute_tasks",
                "Task", "SplitContext", "GroupOutcome")
    # Stages deleted outright: a split's models train only in executor tasks.
    REMOVED = ("train_split", "evaluate_split", "TrainedSplit", "SplitEvaluation")
    # Where each internal actually lives — the supported import path.
    HOMES = {"execute_tasks": "repro.evaluation.executor",
             "Task": "repro.evaluation.executor"}

    def test_public_names_stay_in_all(self):
        for name in self.PUBLIC:
            assert name in evaluation.__all__, name

    def test_internals_removed_from_all(self):
        for name in self.INTERNAL:
            assert name not in evaluation.__all__, name

    @pytest.mark.parametrize("name", INTERNAL + REMOVED)
    def test_old_import_path_is_gone(self, name):
        """The deprecation shim served its one release and is removed."""
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(evaluation, name)

    @pytest.mark.parametrize("name", INTERNAL)
    def test_home_module_import_path_works(self, name):
        home = self.HOMES.get(name, "repro.evaluation.pipeline")
        assert getattr(importlib.import_module(home), name) is not None

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_stage_is_gone(self, name):
        from repro.evaluation import pipeline

        assert not hasattr(pipeline, name)
        assert name not in pipeline.__all__

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            evaluation.definitely_not_a_name

    def test_dir_lists_only_the_public_surface(self):
        listed = dir(evaluation)
        for name in self.INTERNAL:
            assert name not in listed, name
        for name in self.PUBLIC:
            assert name in listed, name
