"""``python -m repro`` — the CLI over Study and ArtifactStore.

The heavyweight path (sweep into a store, report from it, resume with zero
recomputed points) mirrors the CI smoke step; everything else exercises the
flag parsing and error reporting without running experiments.
"""

from __future__ import annotations

import pytest

from repro import cli

#: Cheapest CLI schedule that still runs every approach.
FAST_FLAGS = [
    "--duration-days", "45",
    "--seed", "11",
    "--fast",
    "--episodes", "5",
    "--executor", "serial",
]


class TestParsing:
    """Axis flag values reach the suite compiler through one comma splitter."""

    def _status_labels(self, tmp_path, capsys, flag, value):
        store = str(tmp_path / "runs")
        assert cli.main(["sweep", flag, value, "--status", "--store", store]) == 0
        out = capsys.readouterr().out
        return [line.split(":")[0].strip() for line in out.splitlines() if line.startswith("  ")]

    def _rejected(self, tmp_path, capsys, flag, value):
        store = str(tmp_path / "unused")
        assert cli.main(["sweep", flag, value, "--status", "--store", store]) == 2
        return capsys.readouterr().err

    def test_restartable_values(self, tmp_path, capsys):
        on_off = ["restart=on", "restart=off"]
        assert self._status_labels(tmp_path, capsys, "--restartable", "both") == on_off
        assert self._status_labels(tmp_path, capsys, "--restartable", "on,off") == on_off
        assert self._status_labels(tmp_path, capsys, "--restartable", "off") == ["restart=off"]
        assert "restartable" in self._rejected(tmp_path, capsys, "--restartable", "maybe")

    def test_manufacturer_values(self, tmp_path, capsys):
        assert self._status_labels(tmp_path, capsys, "--manufacturer", "all") == ["mfr=all"]
        assert self._status_labels(tmp_path, capsys, "--manufacturer", "A,b,2") == [
            "mfr=A", "mfr=B", "mfr=C",
        ]
        assert "manufacturer" in self._rejected(tmp_path, capsys, "--manufacturer", "Z")

    def test_run_rejects_multi_valued_flags(self, capsys):
        assert cli.main(["run", "--mitigation-cost", "2,5"] + FAST_FLAGS) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "`sweep`" in err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_invalid_which_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--which", "totl"])
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.main(["report", "--store", "x", "--which", "totl"])


class TestServe:
    """The `serve` subcommand over a tiny mcelog file (fast policies only)."""

    EVENTS = (
        "# spooled by mcelog\n"
        "CE time=10.0 node=3 dimm=1 count=4 rank=0 bank=2\n"
        "BOOT time=15.5 node=7\n"
        "CE time=200.25 node=3 dimm=1 count=1\n"
        "UE time=300.0 node=3 dimm=1\n"
        "CE time=410.0 node=7 dimm=2 count=2\n"
    )

    def _spool(self, tmp_path):
        path = tmp_path / "events.log"
        path.write_text(self.EVENTS)
        return str(path)

    def test_serve_file_source_with_decision_log(self, tmp_path, capsys):
        import json

        log_path = str(tmp_path / "decisions.jsonl")
        assert (
            cli.main(
                [
                    "serve",
                    "--source", self._spool(tmp_path),
                    "--policy", "always",
                    "--decision-log", log_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Always-mitigate: 5 events -> 5 steps" in out
        assert "decisions/s" in out
        with open(log_path) as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == 5
        assert sum(entry["is_ue"] for entry in entries) == 1
        assert all(
            set(entry) == {"tick", "node", "time", "ue_cost", "mitigate", "is_ue"}
            for entry in entries
        )

    def test_serve_never_policy(self, tmp_path, capsys):
        assert (
            cli.main(
                ["serve", "--source", self._spool(tmp_path), "--policy", "never"]
            )
            == 0
        )
        assert "0 mitigations" in capsys.readouterr().out

    def test_serve_rejects_rl_without_a_preset(self, tmp_path):
        with pytest.raises(SystemExit, match="preset"):
            cli.main(["serve", "--source", self._spool(tmp_path), "--policy", "rl"])

    def test_serve_rejects_bad_train_fraction(self, tmp_path):
        with pytest.raises(SystemExit, match="train-fraction"):
            cli.main(
                [
                    "serve",
                    "--source", self._spool(tmp_path),
                    "--policy", "always",
                    "--train-fraction", "1.5",
                ]
            )

    def test_serve_rejects_unknown_preset(self):
        with pytest.raises(SystemExit, match="unknown preset"):
            cli.main(["serve", "--source", "preset:galactic", "--policy", "never"])

    def test_serve_rejects_a_non_finite_event_time(self, tmp_path):
        """A NaN time would pass every ordering check; the spool line is named."""
        path = tmp_path / "nan.log"
        path.write_text(self.EVENTS + "CE time=nan node=3 dimm=1 count=1\n")
        with pytest.raises(ValueError, match=r"^line 7: non-finite time 'nan'"):
            cli.main(["serve", "--source", str(path), "--policy", "always"])

    def test_serve_rejects_pacing_a_file_source(self, tmp_path):
        with pytest.raises(SystemExit, match="replay-at-speed"):
            cli.main(
                [
                    "serve",
                    "--source", self._spool(tmp_path),
                    "--policy", "always",
                    "--replay-at-speed", "100",
                ]
            )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-batch", "0"),
            ("--max-delay-ms", "-1"),
            ("--max-delay-ms", "nan"),
            ("--merge-window-seconds", "0"),
            ("--mitigation-cost", "-1"),
            ("--replay-at-speed", "0"),
            ("--job-nodes", "-1"),
            ("--source", "no-such-spool.log"),
            ("--seed", "-1"),
            ("--threshold", "2"),
            ("--rl-episodes", "0"),
        ],
    )
    def test_serve_rejects_a_bad_flag_before_any_work(
        self, tmp_path, monkeypatch, flag, value
    ):
        def never(*args, **kwargs):
            raise AssertionError("a policy was built before the flags were checked")

        monkeypatch.setattr(cli, "_serve_policy", never)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--source", "preset:small", "--policy", "never", flag, value])
        message = str(excinfo.value.code)
        assert message.startswith(f"error: {flag}")
        assert "\n" not in message

    def test_serve_trains_a_forest_on_the_file(self, tmp_path, capsys):
        """sc20 on a file source trains on the file's own contents."""
        # A handful of CE/UE pairs gives the dataset both classes.
        lines = ["# generated\n"]
        t = 0.0
        for node in range(4):
            for k in range(6):
                t += 400.0
                lines.append(f"CE time={t!r} node={node} dimm=0 count={k + 1}\n")
            t += 120.0
            lines.append(f"UE time={t!r} node={node}\n")
        path = tmp_path / "trainable.log"
        path.write_text("".join(lines))
        assert (
            cli.main(["serve", "--source", str(path), "--policy", "sc20"]) == 0
        )
        assert "SC20-RF" in capsys.readouterr().out


class TestOneFrontDoor:
    """`run`, `sweep` and `suite` share flag checks, execution and stores."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--duration-days", "-5"],
            ["run", "--mitigation-cost=-2"],
            ["run", "--restartable", "maybe"],
            ["run", "--episodes", "0"],
            ["run", "--workers", "-2"],
            ["run", "--fast", "--mitigation-cost", "inf"],
            ["run", "--fast", "--duration-days", "inf"],
            ["run", "--fast", "--seed", "-1"],
            ["run", "--fast", "--manufacturer", "9"],
            ["sweep", "--duration-days", "-5"],
            ["sweep", "--seeds", "1,1"],
            ["sweep", "--mitigation-cost=-2"],
            ["sweep", "--restartable", "maybe"],
            ["sweep", "--episodes", "0"],
            ["sweep", "--fast", "--job-scale", "inf"],
            ["sweep", "--claim"],
            ["sweep", "--claim", "--status", "--store", "runs"],
            ["sweep", "--worker-id", "w0", "--store", "runs"],
            ["sweep", "--claim", "--store", "runs", "--lease-ttl", "-5"],
            ["sweep", "--claim", "--store", "runs", "--lease-ttl", "nan"],
            ["suite", "small.yaml", "--episodes", "0"],
            ["suite", "small.yaml", "--claim"],
            ["suite", "small.yaml", "--lease-ttl", "5", "--store", "runs"],
            ["suite", "small.yaml", "--worker-id", "w0", "--store", "runs"],
            ["suite", "small.yaml", "--claim", "--store", "runs", "--lease-ttl", "0"],
            ["gc", "--store", "runs", "--grace-minutes", "-1"],
            ["gc", "--store", "runs", "--grace-minutes", "nan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_value_is_one_line_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        def never(*args, **kwargs):
            raise AssertionError("the suite ran before the flags were checked")

        monkeypatch.setattr(cli, "run_suite", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "small.yaml").write_text(SMALL_SUITE)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "runs").exists()

    def test_a_run_store_resumes_under_sweep_and_suite(self, tmp_path, capsys):
        pytest.importorskip("yaml")
        store = ["--store", str(tmp_path / "runs")]
        assert cli.main(_command("run", tmp_path) + store) == 0
        assert "points computed: 1" in capsys.readouterr().out
        for command in ("run", "sweep", "suite"):
            assert cli.main(_command(command, tmp_path) + store) == 0
            out = capsys.readouterr().out
            assert "points loaded from store: 1" in out, command
            assert "points computed: 0" in out, command

    def test_a_store_written_by_study_resumes_under_run(self, tmp_path, capsys):
        """`run --store` used to persist through Study.from_scenario."""
        from repro.config import ScenarioConfig
        from repro.evaluation.pipeline import ExperimentConfig
        from repro.store import ArtifactStore
        from repro.study import Study
        from repro.utils.timeutils import DAY

        scenario = ScenarioConfig.small(seed=11).with_duration(45 * DAY)
        config = ExperimentConfig.fast().with_overrides(
            rl_episodes=5, executor_kind="serial"
        )
        store_dir = tmp_path / "runs"
        Study.from_scenario(
            scenario.with_mitigation_cost(5.0), store=ArtifactStore(store_dir)
        ).run(config)
        assert cli.main(_command("run", tmp_path) + ["--store", str(store_dir)]) == 0
        assert "points computed: 0" in capsys.readouterr().out


class TestReportErrors:
    def test_report_on_empty_store_fails_cleanly(self, tmp_path, capsys):
        assert cli.main(["report", "--store", str(tmp_path / "runs")]) == 2
        assert "no sweeps" in capsys.readouterr().err

    def test_report_unknown_key_fails_cleanly(self, tmp_path, capsys):
        assert (
            cli.main(
                ["report", "--store", str(tmp_path / "runs"), "--sweep", "f" * 16]
            )
            == 2
        )
        assert "no stored sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [None, b"{"], ids=["missing", "truncated"])
    def test_report_over_a_lost_point_fails_cleanly(self, tmp_path, capsys, damage):
        from types import SimpleNamespace

        from repro.config import ScenarioConfig
        from repro.evaluation.pipeline import ExperimentConfig
        from repro.evaluation.sweep import SweepSpec
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "runs")
        spec = SweepSpec(base=ScenarioConfig.small(), mitigation_costs=(2.0,))
        config = ExperimentConfig()
        store.save_sweep(spec, config, SimpleNamespace(points=spec.points()))
        key = store.result_key(spec.points()[0].scenario, config)
        if damage is None:
            assert cli.main(["report", "--store", str(store.root)]) == 2
        else:
            store.backend.put(f"results/{key}.json", damage)
            with pytest.warns(RuntimeWarning, match=f"{key} is unreadable"):
                assert cli.main(["report", "--store", str(store.root)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"missing result {key}" in err


class TestSweepLifecycle:
    def test_sweep_report_resume_lifecycle(self, tmp_path, capsys):
        """sweep -> report -> identical re-run with zero recomputed points."""
        store_dir = str(tmp_path / "runs")
        sweep_args = (
            ["sweep", "--mitigation-cost", "2,10", "--store", store_dir]
            + FAST_FLAGS
        )

        assert cli.main(sweep_args) == 0
        first = capsys.readouterr().out
        assert "cost=2" in first and "cost=10" in first
        assert "points computed: 2" in first
        assert "points loaded from store: 0" in first
        # The executor's measured critical path is part of the report, so
        # the chain-vs-fan speedup is observable from the command line.
        assert "critical path" in first

        assert cli.main(["report", "--store", store_dir]) == 0
        report = capsys.readouterr().out
        assert "cost=2" in report and "Never-mitigate" in report

        assert cli.main(sweep_args) == 0
        second = capsys.readouterr().out
        assert "points computed: 0" in second
        assert "points loaded from store: 2" in second

        assert cli.main(["list", "--store", store_dir]) == 0
        listing = capsys.readouterr().out
        assert "sweeps (1)" in listing
        assert "results (2)" in listing
        assert "prepared (1)" in listing

        # gc: the sweep's product is referenced, an orphan is prunable.
        from repro.config import ScenarioConfig
        from repro.evaluation.pipeline import ExperimentConfig, prepare_data
        from repro.store import ArtifactStore
        from repro.utils.timeutils import DAY

        store = ArtifactStore(store_dir)
        orphan = ScenarioConfig.small(seed=4242).with_duration(20 * DAY)
        orphan_key = store.save_prepared(prepare_data(orphan, ExperimentConfig.fast()))
        assert cli.main(["gc", "--store", store_dir, "--dry-run", "--grace-minutes", "0"]) == 0
        dry = capsys.readouterr().out
        assert f"would remove: prepared/{orphan_key}" in dry
        assert "freeing" in dry and "1 referenced product(s) kept" in dry
        assert orphan_key in store.list_prepared()

        assert cli.main(["gc", "--store", store_dir, "--grace-minutes", "0"]) == 0
        pruned = capsys.readouterr().out
        assert f"removed: prepared/{orphan_key}" in pruned
        assert orphan_key not in store.list_prepared()

        # The sweep still reports from the store after the gc pass.
        assert cli.main(["report", "--store", store_dir]) == 0


class TestUnreadableEntries:
    """`list` and `gc` skip an unreadable result or manifest with a warning."""

    @pytest.mark.parametrize("family", ["results", "sweeps"])
    def test_list_and_gc_skip_a_truncated_entry(self, tmp_path, capsys, family):
        import warnings
        from types import SimpleNamespace

        from repro.config import ScenarioConfig
        from repro.evaluation.pipeline import ExperimentConfig
        from repro.evaluation.sweep import SweepSpec
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "runs")
        spec = SweepSpec(base=ScenarioConfig.small(), mitigation_costs=(2.0,))
        sweep = store.save_sweep(
            spec, ExperimentConfig(), SimpleNamespace(points=spec.points())
        )
        path = f"{family}/abcd.json"
        store.backend.put(path, store.backend.get(f"sweeps/{sweep}.json")[:50])
        root = str(store.root)

        for argv in (["list", "--store", root], ["gc", "--dry-run", "--store", root]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(argv) == 0
            unreadable = [w for w in caught if "abcd is unreadable" in str(w.message)]
            assert len(unreadable) == 1, argv
            assert unreadable[0].category is RuntimeWarning
            out, err = capsys.readouterr()
            assert "Traceback" not in out + err
            if argv[0] == "list":
                assert "sweeps (1)" in out and sweep in out
        assert store.backend.size(path) == 50  # neither command deleted it


#: A one-block suite with the same point as ``FAST_FLAGS`` plus
#: ``--mitigation-cost 5``, named after its preset.
SMALL_SUITE = """
scenarios:
  small:
    preset: small
    seed: 11
    duration_days: 45
    axes: {mitigation_costs: [5]}
"""

#: FAST_FLAGS without the scenario flags, which `suite` does not take.
SUITE_FLAGS = ["--fast", "--episodes", "5", "--executor", "serial"]


def _command(name, tmp_path):
    """argv running the FAST_FLAGS point at cost 5 through ``name``."""
    if name == "suite":
        path = tmp_path / "small.yaml"
        path.write_text(SMALL_SUITE)
        return ["suite", str(path)] + SUITE_FLAGS
    return [name, "--mitigation-cost", "5"] + FAST_FLAGS


class TestProfileFlag:
    @pytest.mark.parametrize("command", ["run", "sweep", "suite"])
    def test_profile_prints_one_table(self, tmp_path, capsys, command):
        if command == "suite":
            pytest.importorskip("yaml")
        assert cli.main(_command(command, tmp_path) + ["--profile"]) == 0
        out = capsys.readouterr().out
        # One table: the stages, then each task body per worker pid.
        assert out.count("span / task body") == 1
        for name in ("prepare_data", "execute_tasks", "aggregate", "run_rl_trial"):
            assert name in out
        assert "counters: " in out
        assert out.count("critical path") == 1

    def test_claim_worker_prints_the_profile_of_its_points(self, tmp_path, capsys):
        argv = _command("sweep", tmp_path) + ["--store", str(tmp_path / "runs")]
        assert cli.main(argv + ["--claim", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "1 computed" in out
        assert out.count("span / task body") == 1
        assert "run_rl_trial" in out

    def test_no_profile_flag_prints_no_table(self, tmp_path, capsys):
        assert cli.main(_command("run", tmp_path)) == 0
        assert "span / task body" not in capsys.readouterr().out

    def test_every_run_carries_its_profile(self):
        from repro.config import ScenarioConfig
        from repro.evaluation.experiment import run_experiment
        from repro.evaluation.pipeline import ExperimentConfig
        from repro.evaluation.sweep import SweepSpec, run_sweep
        from repro.utils.timeutils import DAY

        scenario = ScenarioConfig.small(seed=11).with_duration(30 * DAY)
        config = ExperimentConfig(
            include_rf=False,
            include_rl=False,
            include_myopic=False,
            charge_training_time=False,
            executor_kind="serial",
        )
        result = run_experiment(scenario, config)
        profile = result.extras["profile"]
        assert list(profile["spans"]) == ["prepare_data", "execute_tasks", "aggregate"]
        assert set(profile["tasks"]) == {"run_split_group"}
        # A sweep reports the same stages: every entry point runs one body.
        sweep = run_sweep(
            SweepSpec(base=scenario, mitigation_costs=(2.0, 10.0)), config
        )
        assert list(sweep.extras["profile"]["spans"]) == list(profile["spans"])
