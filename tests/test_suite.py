"""The declarative suite layer: schema UX, compilation, and execution.

Three families:

* **Schema errors** — every malformed suite must raise a one-line
  :class:`~repro.suite.SuiteError` naming the offending block/field,
  and ``python -m repro suite --validate`` must turn it into a non-zero
  exit with no traceback.
* **Compilation** — YAML blocks compile to exactly the
  :class:`~repro.evaluation.sweep.SweepSpec` the API would build.
* **Execution** — ``run_suite`` results are bit-identical
  (:func:`~repro.distributed.results_equivalent`) to a direct
  ``run_sweep`` of the hand-built spec, including through a store.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.config import ScenarioConfig
from repro.evaluation.pipeline import ExperimentConfig
from repro.evaluation.sweep import SweepSpec, run_sweep
from repro.suite import (
    Suite,
    SuiteError,
    compile_suite,
    load_suite,
    parse_suite,
    run_suite,
)
from repro.utils.timeutils import DAY

pytest.importorskip("yaml", reason="the suite layer needs PyYAML")


MINIMAL = """
scenarios:
  basic:
    preset: small
"""


# --------------------------------------------------------------------- #
# Schema-error UX
# --------------------------------------------------------------------- #
class TestSchemaErrors:
    BAD_SUITES = {
        "invalid-yaml": "a: [",
        "not-a-mapping": "[1, 2]",
        "empty": "",
        "unknown-top-key": "nope: 1\nscenarios: {a: {}}",
        "missing-scenarios": "suite: {name: x}",
        "no-blocks": "scenarios: {}",
        "unknown-block-key": "scenarios: {a: {axis: {}}}",
        "bad-preset": "scenarios: {a: {preset: huge}}",
        "bad-seed": "scenarios: {a: {seed: 1.5}}",
        "unknown-axis": "scenarios: {a: {axes: {costs: [1]}}}",
        "empty-axis": "scenarios: {a: {axes: {mitigation_costs: []}}}",
        "bad-cost": "scenarios: {a: {axes: {mitigation_costs: [two]}}}",
        "bad-seed-axis": "scenarios: {a: {axes: {seeds: [1.5]}}}",
        "bad-restartable": "scenarios: {a: {axes: {restartable: [maybe]}}}",
        "bad-manufacturer": "scenarios: {a: {axes: {manufacturers: [Z]}}}",
        "unknown-fault-field": "scenarios: {a: {fault_model: {nope: 1}}}",
        "bad-fault-value": (
            "scenarios: {a: {fault_model: {correlated_bursts: -1}}}"
        ),
        "unknown-workload-field": "scenarios: {a: {workload: {nope: 1}}}",
        "bad-workload-value": (
            "scenarios: {a: {workload: {submit_pattern: hourly}}}"
        ),
        "segments-not-list": "scenarios: {a: {segments: {}}}",
        "segment-missing-key": "scenarios: {a: {segments: [{name: s}]}}",
        "segment-unknown-key": (
            "scenarios: {a: {segments: "
            "[{name: s, n_nodes: 48, manufacturer: 0, nope: 1}]}}"
        ),
        "segments-wrong-total": (
            "scenarios: {a: {segments: "
            "[{name: s, n_nodes: 3, manufacturer: 0}]}}"
        ),
        "unknown-experiment-field": (
            "scenarios: {a: {experiment: {whatever: 1}}}"
        ),
        "forbidden-experiment-field": (
            "scenarios: {a: {experiment: {rl_base_config: {}}}}"
        ),
        "bad-source-scheme": "scenarios: {a: {source: 'file:/x'}}",
        "missing-source-file": "scenarios: {a: {source: 'mcelog:/nope.log'}}",
        "defaults-with-axes": (
            "defaults: {axes: {seeds: [1]}}\nscenarios: {a: {}}"
        ),
        "negative-duration": "scenarios: {a: {duration_days: -5}}",
        "negative-cost": "scenarios: {a: {axes: {mitigation_costs: [-2]}}}",
        "zero-job-scale": "scenarios: {a: {axes: {job_scales: [0]}}}",
        "infinite-duration": "scenarios: {a: {duration_days: .inf}}",
        "infinite-cost": "scenarios: {a: {axes: {mitigation_costs: [.inf]}}}",
        "infinite-job-scale": "scenarios: {a: {axes: {job_scales: [.inf]}}}",
        "negative-seed": "scenarios: {a: {seed: -1}}",
        "negative-seed-axis": "scenarios: {a: {axes: {seeds: [-1]}}}",
        "bad-experiment-value": "scenarios: {a: {experiment: {rl_episodes: -3}}}",
        "zero-threshold-grid": (
            "scenarios: {a: {experiment: {threshold_grid_size: 0}}}"
        ),
        "zero-rf-depth": "scenarios: {a: {experiment: {rf_max_depth: 0}}}",
        "bad-executor-kind": "scenarios: {a: {experiment: {executor_kind: gpu}}}",
        "zero-hidden-layer": (
            "scenarios: {a: {experiment: {rl_hidden_sizes: [0]}}}"
        ),
        "scalar-hidden-sizes": (
            "scenarios: {a: {experiment: {rl_hidden_sizes: 5}}}"
        ),
        "scalar-threshold-offsets": (
            "scenarios: {a: {experiment: {sc20_threshold_offsets: 0.1}}}"
        ),
        "negative-evaluation-cost": (
            "scenarios: {a: {evaluation: {mitigation_cost_node_minutes: -1}}}"
        ),
        "zero-cv-parts": "scenarios: {a: {evaluation: {cv_parts: 0}}}",
        "cv-train-fraction-above-one": (
            "scenarios: {a: {evaluation: {cv_train_fraction: 2}}}"
        ),
        "non-bool-restartable": "scenarios: {a: {evaluation: {restartable: maybe}}}",
        "non-bool-experiment-flag": "scenarios: {a: {experiment: {include_rl: maybe}}}",
        "fractional-episodes": "scenarios: {a: {experiment: {rl_episodes: 2.5}}}",
        "absent-manufacturer": "scenarios: {a: {axes: {manufacturers: [9]}}}",
        "empty-block-name": "scenarios: {'': {}}",
        "zero-ce-weights": (
            "scenarios: {a: {fault_model: {manufacturer_ce_weights: [0, 0, 0]}}}"
        ),
        # Only the first three weights reach the small preset's three
        # manufacturers.
        "zero-ue-weights-on-fleet": (
            "scenarios: {a: {fault_model: {manufacturer_ue_weights: [0, 0, 0, 1]}}}"
        ),
    }

    @pytest.mark.parametrize("label", sorted(BAD_SUITES))
    def test_one_line_suite_error(self, label):
        with pytest.raises(SuiteError) as excinfo:
            parse_suite(self.BAD_SUITES[label])
        message = str(excinfo.value)
        assert "\n" not in message, f"multi-line error for {label}: {message!r}"
        assert message  # never empty

    def test_error_names_the_block(self):
        with pytest.raises(SuiteError, match="scenario 'fig9'"):
            parse_suite("scenarios: {fig9: {axes: {mitigation_costs: []}}}")

    def test_error_names_the_field(self):
        with pytest.raises(SuiteError, match="correlated_bursts"):
            parse_suite(self.BAD_SUITES["bad-fault-value"])

    def test_unknown_key_error_lists_valid_keys(self):
        with pytest.raises(SuiteError, match="valid keys: .*axes"):
            parse_suite(self.BAD_SUITES["unknown-block-key"])

    def test_duplicate_axis_labels_rejected(self):
        with pytest.raises(SuiteError, match="scenario 'a'"):
            parse_suite("scenarios: {a: {axes: {mitigation_costs: [2, 2]}}}")

    def test_load_suite_prefixes_the_path(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenarios: {a: {preset: huge}}")
        with pytest.raises(SuiteError, match=str(path)):
            load_suite(str(path))

    def test_range_errors_name_the_block_and_field(self):
        with pytest.raises(
            SuiteError,
            match="scenario 'a': axis 'mitigation_costs': "
            "mitigation_cost_node_minutes must be >= 0",
        ):
            parse_suite(self.BAD_SUITES["negative-cost"])
        with pytest.raises(SuiteError, match="scenario 'a': experiment: rl_episodes"):
            parse_suite(self.BAD_SUITES["bad-experiment-value"])

    @pytest.mark.parametrize(
        "label, field",
        [
            ("negative-evaluation-cost", "mitigation_cost_node_minutes"),
            ("zero-cv-parts", "cv_parts"),
            ("cv-train-fraction-above-one", "cv_train_fraction"),
            ("non-bool-restartable", "restartable"),
            ("non-bool-experiment-flag", "include_rl"),
            ("fractional-episodes", "rl_episodes"),
            ("absent-manufacturer", "manufacturer"),
            ("negative-seed", "seed"),
            ("scalar-hidden-sizes", "rl_hidden_sizes"),
            ("zero-ce-weights", "manufacturer_ce_weights"),
            ("zero-ue-weights-on-fleet", "manufacturer_ue_weights"),
        ],
    )
    def test_construction_errors_name_the_block_and_field(self, label, field):
        """Construction judges the value; the suite only adds the block."""
        prefix = r"^scenario 'a': ((\w+|axis '\w+'): )?"
        with pytest.raises(SuiteError, match=rf"{prefix}{field} must "):
            parse_suite(self.BAD_SUITES[label])

    @pytest.mark.parametrize(
        "label, message",
        [
            ("negative-duration", "duration_days: duration_seconds must be > 0"),
            ("zero-job-scale", "axis 'job_scales': job_scaling_factor must be > 0"),
            ("negative-seed-axis", "axis 'seeds': seed must be >= 0"),
            ("absent-manufacturer", "axis 'manufacturers': manufacturer must be < 3"),
        ],
    )
    def test_errors_name_the_key_the_user_wrote(self, label, message):
        """Where a key lands in a differently named field, both are named."""
        with pytest.raises(SuiteError) as excinfo:
            parse_suite(self.BAD_SUITES[label])
        assert str(excinfo.value).startswith(f"scenario 'a': {message}")

    def test_missing_file_is_a_suite_error(self, tmp_path):
        with pytest.raises(SuiteError, match="cannot read suite file"):
            load_suite(str(tmp_path / "nope.yaml"))


class TestValidateCli:
    """``repro suite --validate`` exits non-zero on schema errors."""

    def test_valid_suite_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.yaml"
        path.write_text(MINIMAL)
        assert main(["suite", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "basic" in out

    def test_schema_error_exits_nonzero_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("scenarios: {a: {axes: {mitigation_costs: [two]}}}")
        assert main(["suite", str(path), "--validate"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [("threshold_grid_size", 0), ("threshold_grid_size", -1), ("rf_max_depth", 0)],
    )
    def test_bad_experiment_value_exits_nonzero(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"scenarios: {{a: {{experiment: {{{field}: {value}}}}}}}")
        assert main(["suite", str(path), "--validate"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and field in err
        assert "\n" not in err

    def test_example_suite_validates(self, capsys):
        from pathlib import Path

        example = (
            Path(__file__).parent.parent / "examples" / "paper_suite.yaml"
        )
        assert main(["suite", str(example), "--validate"]) == 0
        assert "fig3-cost-restart" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
class TestCompilation:
    def test_axes_compile_to_the_hand_built_spec(self):
        suite = parse_suite(
            """
            scenarios:
              grid:
                preset: small
                seed: 5
                duration_days: 45
                axes:
                  mitigation_costs: [2, 10]
                  restartable: [on, off]
                  manufacturers: [all, A]
                  job_scales: [0.5, 2.0]
                  seeds: [1, 2]
            """
        )
        expected = SweepSpec(
            base=replace(
                ScenarioConfig.small(seed=5).with_duration(45 * DAY),
                name="grid",
            ),
            mitigation_costs=(2.0, 10.0),
            restartable=(True, False),
            manufacturers=(None, 0),
            job_scales=(0.5, 2.0),
            seeds=(1, 2),
        )
        spec = suite.entry("grid").spec
        assert spec == expected
        assert [p.label for p in spec.points()] == [
            p.label for p in expected.points()
        ]

    def test_defaults_merge_shallow_and_nested(self):
        suite = parse_suite(
            """
            defaults:
              preset: small
              seed: 3
              experiment: {include_rl: false, n_workers: 2}
            scenarios:
              plain: {}
              tweaked:
                seed: 9
                experiment: {include_oracle: false}
            """
        )
        plain = suite.entry("plain")
        tweaked = suite.entry("tweaked")
        assert plain.spec.base.seed == 3
        assert tweaked.spec.base.seed == 9
        # The block's experiment mapping merges with the defaults' one.
        assert tweaked.experiment_overrides == {
            "include_rl": False,
            "n_workers": 2,
            "include_oracle": False,
        }

    def test_fault_workload_segment_blocks_reach_the_scenario(self):
        suite = parse_suite(
            """
            scenarios:
              kinds:
                fault_model: {correlated_bursts: 2, correlated_burst_width: 3}
                workload: {submit_pattern: diurnal, scheduler: backfill}
                segments:
                  - {name: old, n_nodes: 24, manufacturer: 0, policy: always}
                  - {name: new, n_nodes: 24, manufacturer: 2}
                experiment: {include_fleet_mix: true}
            """
        )
        base = suite.entry("kinds").spec.base
        assert base.fault_model.correlated_bursts == 2
        assert base.workload.submit_pattern == "diurnal"
        assert base.workload.scheduler == "backfill"
        assert [seg.name for seg in base.topology.segments] == ["old", "new"]
        assert base.topology.segments[0].policy == "always"
        assert suite.entry("kinds").experiment_overrides == {
            "include_fleet_mix": True
        }

    def test_mcelog_source_resolves_relative_to_the_suite_file(self, tmp_path):
        trace = tmp_path / "trace.mcelog"
        trace.write_text("")
        path = tmp_path / "s.yaml"
        path.write_text(
            "scenarios:\n  real:\n    source: mcelog:trace.mcelog\n"
        )
        suite = load_suite(str(path))
        assert suite.entry("real").source == str(trace)

    def test_round_trips_preserve_new_config_fields(self):
        """Every suite-reachable field survives the versioned round-trip."""
        suite = parse_suite(
            """
            scenarios:
              kinds:
                fault_model: {correlated_bursts: 2}
                workload: {submit_pattern: diurnal, scheduler: backfill}
                segments:
                  - {name: old, n_nodes: 24, manufacturer: 0, ue_scale: 2.0}
                  - {name: new, n_nodes: 24, manufacturer: 2, policy: sc20}
            """
        )
        base = suite.entry("kinds").spec.base
        assert ScenarioConfig.from_dict(base.to_dict()) == base

    def test_a_mapping_compiles_without_yaml(self):
        document = {"scenarios": {"grid": {"seed": 3, "axes": {"restartable": ["on", "off"]}}}}
        suite = compile_suite(document, name="direct")
        assert suite.name == "direct"
        assert suite.entry("grid").spec == SweepSpec(
            base=replace(ScenarioConfig.small().with_seed(3), name="grid"),
            restartable=(True, False),
        )
        assert suite == parse_suite("scenarios: {grid: {seed: 3, axes: {restartable: [on, off]}}}", name="direct")

    def test_unknown_entry_name(self):
        suite = parse_suite(MINIMAL)
        assert isinstance(suite, Suite)
        with pytest.raises(SuiteError, match="'basic'"):
            suite.entry("nope")


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
def _cheap_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig.fast().with_overrides(
        include_rl=False, charge_training_time=False, **overrides
    )


class TestExecution:
    def test_suite_run_is_bit_identical_to_direct_sweep(self, tmp_path):
        from repro.distributed import results_equivalent
        from repro.store import ArtifactStore

        suite = parse_suite(
            """
            scenarios:
              two-costs:
                preset: small
                duration_days: 45
                axes: {mitigation_costs: [2, 10]}
            """
        )
        config = _cheap_config()
        store = ArtifactStore(tmp_path / "runs")
        via_suite = run_suite(suite, config, store=store)["two-costs"]

        direct = run_sweep(
            SweepSpec(
                base=replace(
                    ScenarioConfig.small().with_duration(45 * DAY),
                    name="two-costs",
                ),
                mitigation_costs=(2.0, 10.0),
            ),
            config,
        )
        assert results_equivalent(via_suite, direct)

    def test_distributed_flags_reject_sourced_blocks(self, tmp_path):
        from repro.store import ArtifactStore

        trace = tmp_path / "t.mcelog"
        trace.write_text("")
        suite = parse_suite(
            f"scenarios:\n  real:\n    source: mcelog:{trace}\n",
            base_dir=str(tmp_path),
        )
        store = ArtifactStore(tmp_path / "runs")
        with pytest.raises(SuiteError, match="'real'"):
            run_suite(suite, _cheap_config(), store=store, claim=True)

    def test_distributed_flags_require_a_store(self):
        suite = parse_suite(MINIMAL)
        with pytest.raises(SuiteError, match="store"):
            run_suite(suite, _cheap_config(), claim=True)

    def test_only_selects_a_single_block(self, monkeypatch):
        calls = []

        def fake_run_sweep(spec, config, cache=None, error_log=None, store=None):
            calls.append(spec.base.name)
            return None

        monkeypatch.setattr("repro.suite.run_sweep", fake_run_sweep)
        suite = parse_suite(
            "scenarios:\n  a: {preset: small}\n  b: {preset: small}\n"
        )
        run_suite(suite, _cheap_config(), only="b")
        assert calls == ["b"]

    def test_cache_and_on_block_reach_every_block(self, monkeypatch):
        caches, reported = [], []

        def fake_run_sweep(spec, config, cache=None, error_log=None, store=None):
            caches.append(cache)
            return spec.base.name

        monkeypatch.setattr("repro.suite.run_sweep", fake_run_sweep)
        suite = parse_suite("scenarios:\n  a: {preset: small}\n  b: {preset: small}\n")
        cache = object()
        results = run_suite(
            suite,
            _cheap_config(),
            cache=cache,
            on_block=lambda entry, result, outcome: reported.append(
                (entry.name, result, outcome)
            ),
        )
        assert caches == [cache, cache]
        assert reported == [("a", "a", None), ("b", "b", None)]
        assert results == {"a": "a", "b": "b"}

    def test_per_block_experiment_overrides_apply(self, monkeypatch):
        seen = {}

        def fake_run_sweep(spec, config, cache=None, error_log=None, store=None):
            seen[spec.base.name] = config
            return None

        monkeypatch.setattr("repro.suite.run_sweep", fake_run_sweep)
        suite = parse_suite(
            """
            scenarios:
              flag: {experiment: {include_fleet_mix: true}}
              plain: {}
            """
        )
        base = _cheap_config()
        run_suite(suite, base)
        assert seen["flag"].include_fleet_mix is True
        assert seen["plain"] == base

    def test_sourced_block_passes_the_parsed_log(self, tmp_path, monkeypatch):
        from repro.telemetry.generator import TelemetryGenerator
        from repro.telemetry.mcelog import format_full_log

        scenario = ScenarioConfig.small(seed=13).with_duration(30 * DAY)
        log = TelemetryGenerator(
            scenario.topology,
            scenario.fault_model,
            seed=scenario.seed,
            duration_seconds=scenario.duration_seconds,
        ).generate()
        trace = tmp_path / "t.mcelog"
        trace.write_text(format_full_log(log))

        captured = {}

        def fake_run_sweep(spec, config, cache=None, error_log=None, store=None):
            captured["log"] = error_log
            return None

        monkeypatch.setattr("repro.suite.run_sweep", fake_run_sweep)
        suite = parse_suite(
            f"scenarios:\n  real:\n    source: mcelog:{trace}\n"
        )
        run_suite(suite, _cheap_config())
        assert captured["log"] is not None
        assert len(captured["log"]) == len(log)
