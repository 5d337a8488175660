"""``python -m repro`` — seven subcommands over the study engine and the store.

One front door: ``run``, ``sweep`` and ``suite`` share one command body.
``run`` and ``sweep`` build their flags into a one-block suite named after
the preset (:func:`repro.suite.compile_suite`); ``suite`` reads its blocks
from YAML.  All three execute through :func:`repro.suite.run_suite` and
print, per block, its table, the wall-clock and ``prepare_data`` line, the
executor summary, the store lines and, with ``--profile``, the profile.
With ``--store`` they load finished points, persist the rest and keep
prepared data in the store.  A bad flag or value is one ``error:`` line on
stderr and exit code 2, before any data is prepared.

``run``
    One experiment on a preset scenario, one value per axis flag; prints
    the per-approach cost table (``--metrics`` adds Table 2)::

        python -m repro run --preset small --mitigation-cost 5 \\
            --restartable off --fast --store runs/

``sweep``
    A grid over the paper's axes; comma-separated flag values become sweep
    axes (``--restartable both`` is shorthand for ``on,off``)::

        python -m repro sweep --mitigation-cost 2,5,10 --restartable both \\
            --store runs/

    Re-running a finished sweep against its store prints ``points
    computed: 0``; so does a sweep over the one point a ``run`` stored.
    Workers that share nothing but the store split a sweep (see
    :mod:`repro.distributed`)::

        python -m repro sweep ... --store runs/ --claim    # one per worker
        python -m repro sweep ... --store runs/ --status   # who's doing what
        python -m repro sweep ... --store runs/ --reduce   # assemble manifest

    ``--claim`` workers race over all missing points through atomic store
    leases, heartbeat while computing, and reclaim the points of workers
    that die.  The reduced sweep is bit-identical to a single-process run.

``suite``
    Every scenario block of a YAML suite file (see :mod:`repro.suite`);
    ``--validate`` prints the compiled plan and runs nothing, ``--only``
    picks one block, ``--claim`` works as on ``sweep``.

``report`` / ``list``
    Render a stored sweep's points × approaches table without recomputing
    anything, or list a store's sweeps, results and prepared products.

``gc``
    Prune ``prepared/`` products no stored sweep or result references
    (``--dry-run`` reports the freeable bytes without deleting).

``serve``
    The online micro-batched decision service (see :mod:`repro.serve`):
    tail an mcelog file — or replay a synthetic preset stream, optionally
    paced at a multiple of real time — through a mitigation policy, one
    batched model call per tick::

        python -m repro serve --source preset:small --policy sc20
        python -m repro serve --source /var/log/mcelog.events --policy always \\
            --follow --decision-log decisions.jsonl
        python -m repro serve --source preset:small --policy rl \\
            --replay-at-speed 100000   # storm mode: 100000x real time

    Trained policies (``sc20``, ``myopic``, ``rl``) are fitted on the first
    ``--train-fraction`` of a preset stream (on the file's current contents
    for file sources) and serve the remainder; decisions are bit-identical
    to an offline ``evaluate_policy`` replay of the same events.

``--profile`` (``run``, ``sweep``, ``suite``) prints one table after each
block's report: the seconds of each pipeline stage and of each task body
(``run_rl_trial``, ...) per worker pid, and the counters of every process
that ran a task; a ``--claim`` worker prints those of the points it
computed.  Every run collects them (``result.extras["profile"]``); the
flag only prints them.  Every table is rendered by
:mod:`repro.evaluation.report`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional, Sequence

from repro.config import ScenarioConfig
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.executor import EXECUTOR_KINDS
from repro.evaluation.pipeline import ExperimentConfig, PreparedDataCache
from repro.evaluation.report import format_metrics_table, format_profile
from repro.store import ArtifactStore, LeaseManager
from repro.suite import PRESETS, Suite, SuiteError, compile_suite, load_suite, run_suite
from repro.utils.timeutils import DAY

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """A bad flag or flag value: one ``error:`` line on stderr, exit code 2."""


# --------------------------------------------------------------------- #
# Flag value parsing
# --------------------------------------------------------------------- #
def _split_values(text: str) -> List[Any]:
    """Comma-separated axis values, checked later by the suite compiler.

    Numeric tokens become numbers; words (``on``/``off``, ``all``, a
    manufacturer letter) pass through as they are; ``both`` is ``on,off``.
    """
    if text == "both":
        return ["on", "off"]
    values: List[Any] = []
    for part in text.split(","):
        if part == "":
            continue
        for number in (int, float):
            try:
                values.append(number(part))
                break
            except ValueError:
                pass
        else:
            values.append(part)
    return values


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
#: What the shared ``run``/``sweep``/``suite`` body reads of the flags a
#: command does not have (each value is the flag's own default).
_STUDY_DEFAULTS = dict(
    seeds=None, metrics=False, which="total", validate=False, only=None,
    claim=False, worker_id=None, lease_ttl=None, status=False, reduce=False,
)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=PRESETS,
        default="small",
        help="base ScenarioConfig preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=None, help="root scenario seed")
    parser.add_argument(
        "--duration-days",
        type=float,
        default=None,
        help="override the simulated production period, in days",
    )


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use ExperimentConfig.fast() instead of the default schedule",
    )
    parser.add_argument(
        "--episodes", type=int, default=None, help="RL episodes per split"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="parallel (split x group) tasks"
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        default=None,
        help="executor backend",
    )
    parser.add_argument(
        "--charge-training-time",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="charge the modelled training cost of the learned policies "
        "(default: on)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="ArtifactStore directory: load completed work, persist the rest",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the seconds of each pipeline stage and of each task "
        "body per worker pid, and the run's counters, after the report",
    )


def _add_distributed_flags(parser: argparse.ArgumentParser, description: str):
    """The ``--claim`` worker flags of ``sweep`` and ``suite``."""
    group = parser.add_argument_group("distributed execution", description)
    group.add_argument(
        "--claim",
        action="store_true",
        help="dynamic work stealing: claim missing points through atomic "
        "store leases, heartbeat while computing, reclaim dead workers' "
        "points after their lease TTL; waits until all points are done",
    )
    group.add_argument(
        "--worker-id",
        default=None,
        metavar="NAME",
        help="this worker's identity in leases and status output "
        "(default: host:pid:nonce)",
    )
    group.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat staleness after which other workers may reclaim "
        "this worker's leased points (default: 120)",
    )
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DRAM error-mitigation study runner (HPDC'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment")
    _add_scenario_flags(run)
    run.add_argument("--mitigation-cost", type=_split_values, default=None,
                     metavar="NODE_MINUTES")
    run.add_argument("--restartable", type=_split_values, default=None,
                     metavar="on|off")
    run.add_argument("--manufacturer", type=_split_values, default=None,
                     metavar="all|A|B|C")
    run.add_argument("--job-scale", type=_split_values, default=None, metavar="FACTOR")
    _add_experiment_flags(run)
    run.add_argument("--metrics", action="store_true",
                     help="also print the Table 2 classical-ML metrics")

    sweep = sub.add_parser("sweep", help="run a grid over the paper's axes")
    _add_scenario_flags(sweep)
    sweep.add_argument("--mitigation-cost", type=_split_values, default=None,
                       metavar="2,5,10")
    sweep.add_argument("--restartable", type=_split_values, default=None,
                       metavar="on|off|both")
    sweep.add_argument("--manufacturer", type=_split_values, default=None,
                       metavar="all,A,B,C")
    sweep.add_argument("--job-scale", type=_split_values, default=None,
                       metavar="0.1,1,10")
    sweep.add_argument("--seeds", type=_split_values, default=None, metavar="1,2,3")
    _add_experiment_flags(sweep)
    sweep.add_argument("--which", default="total",
                       choices=CostBreakdown.series_fields(),
                       help="cost series shown in the table (default: total)")
    distributed = _add_distributed_flags(
        sweep,
        "multi-worker sweeps coordinated through a shared --store "
        "(see repro.distributed); --claim/--status/--reduce are "
        "mutually exclusive and all require --store",
    )
    distributed.add_argument(
        "--status",
        action="store_true",
        help="print each point's state (done / leased by whom, heartbeat "
        "age / pending) and exit without computing anything",
    )
    distributed.add_argument(
        "--reduce",
        action="store_true",
        help="assemble and store the sweep manifest from already-computed "
        "points and print the table; fails if any point is still missing",
    )

    suite = sub.add_parser(
        "suite",
        help="run a declarative scenario suite from a YAML file",
        description="Compile every scenario block of SUITE.yaml into a "
        "SweepSpec and run it through the ordinary sweep engine, so suite "
        "results are bit-identical to the equivalent direct sweeps.",
    )
    suite.add_argument("suite_file", metavar="SUITE.yaml")
    suite.add_argument(
        "--validate",
        action="store_true",
        help="parse and schema-check the suite, print its plan, execute "
        "nothing; exits non-zero on any schema error",
    )
    suite.add_argument(
        "--only",
        metavar="BLOCK",
        default=None,
        help="run a single named scenario block of the suite",
    )
    _add_experiment_flags(suite)
    suite.add_argument("--which", default="total",
                       choices=CostBreakdown.series_fields(),
                       help="cost series shown in the tables (default: total)")
    _add_distributed_flags(
        suite,
        "multi-worker suites coordinated through a shared --store, exactly "
        "as in `sweep`, one block at a time; mcelog-sourced blocks bypass "
        "the store and are rejected under --claim",
    )

    serve = sub.add_parser(
        "serve", help="run the online micro-batched decision service"
    )
    serve.add_argument(
        "--source",
        default="preset:small",
        metavar="FILE|preset:NAME",
        help="mcelog-format file to tail, or preset:NAME for a synthetic "
        "scenario stream (default: preset:small)",
    )
    serve.add_argument(
        "--policy",
        choices=("never", "always", "sc20", "myopic", "rl"),
        default="sc20",
        help="mitigation policy to serve (default: sc20)",
    )
    serve.add_argument("--seed", type=int, default=None, help="root scenario seed")
    serve.add_argument(
        "--mitigation-cost",
        type=float,
        default=None,
        metavar="NODE_MINUTES",
        help="cost of one mitigation (default: the scenario's, or 2)",
    )
    serve.add_argument("--restartable", choices=("on", "off"), default="on")
    serve.add_argument(
        "--threshold", type=float, default=0.4, help="SC20 forest threshold"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="tick as soon as this many nodes have a pending step",
    )
    serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=50.0,
        help="tick at most this long after the first pending step arrived",
    )
    serve.add_argument(
        "--merge-window-seconds",
        type=float,
        default=60.0,
        help="event merge window of the online feature extractor",
    )
    serve.add_argument(
        "--replay-at-speed",
        type=float,
        default=None,
        metavar="X",
        help="pace a replayed stream at X times real time (storm mode); "
        "default: unthrottled",
    )
    serve.add_argument(
        "--train-fraction",
        type=float,
        default=0.5,
        help="leading fraction of a preset stream used to train sc20/myopic/"
        "rl; the remainder is served (default: 0.5)",
    )
    serve.add_argument(
        "--rl-episodes", type=int, default=120, help="RL training episodes"
    )
    serve.add_argument(
        "--job-nodes",
        type=float,
        default=1.0,
        help="nodes per job assumed for file sources (constant-job provider)",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing a file source for appended lines (tail -f)",
    )
    serve.add_argument(
        "--decision-log",
        metavar="PATH",
        default=None,
        help="write the per-node decision log as JSON lines",
    )

    report = sub.add_parser("report", help="render a stored sweep without recomputing")
    report.add_argument("--store", metavar="DIR", required=True)
    report.add_argument("--sweep", metavar="KEY", default=None,
                        help="sweep manifest key (defaults to the only stored sweep)")
    report.add_argument("--which", default="total",
                        choices=CostBreakdown.series_fields(),
                        help="cost series shown in the table (default: total)")

    listing = sub.add_parser("list", help="inventory of a store")
    listing.add_argument("--store", metavar="DIR", required=True)

    gc = sub.add_parser(
        "gc",
        help="prune prepared artifacts not referenced by any stored sweep "
        "or result",
    )
    gc.add_argument("--store", metavar="DIR", required=True)
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned (and how many bytes it would "
        "free) without deleting anything",
    )
    gc.add_argument(
        "--grace-minutes",
        type=float,
        default=60.0,
        help="keep products modified within this window, so a sweep "
        "currently spilling to the store is never raced (default: 60)",
    )

    for command in (run, sweep, suite):
        command.set_defaults(**_STUDY_DEFAULTS)
    return parser


# --------------------------------------------------------------------- #
# Argument -> object assembly
# --------------------------------------------------------------------- #
#: The axis flags of ``run`` and ``sweep``: suite axis, argparse dest, flag.
_AXIS_FLAGS = (
    ("mitigation_costs", "mitigation_cost", "--mitigation-cost"),
    ("restartable", "restartable", "--restartable"),
    ("manufacturers", "manufacturer", "--manufacturer"),
    ("job_scales", "job_scale", "--job-scale"),
    ("seeds", "seeds", "--seeds"),
)


def _suite_from_args(args) -> Suite:
    """The suite a command runs: SUITE.yaml, or one block built from flags.

    ``run`` and ``sweep`` name their block after the preset, which is the
    preset scenario's own name, so the compiled sweep and its point
    results carry the same store keys as the same grid built by hand.
    """
    if args.command == "suite":
        return load_suite(args.suite_file)
    block = {"preset": args.preset}
    if args.seed is not None:
        block["seed"] = args.seed
    if args.duration_days is not None:
        block["duration_days"] = args.duration_days
    axes = {}
    for axis, dest, flag in _AXIS_FLAGS:
        values = getattr(args, dest)
        if values is None:
            continue
        if args.command == "run" and len(values) != 1:
            raise UsageError(
                f"`run` takes exactly one value for {flag} (got "
                f"{len(values)}); use the `sweep` subcommand for grids"
            )
        axes[axis] = values
    if axes:
        block["axes"] = axes
    return compile_suite({"scenarios": {args.preset: block}}, name=args.command)


def _usage(call, *args, **kwargs):
    """``call(*args, **kwargs)``, with its one-line ``ValueError`` (naming
    the flag or field) as a :class:`UsageError`."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.fast() if args.fast else ExperimentConfig()
    overrides = {}
    if args.episodes is not None:
        overrides["rl_episodes"] = args.episodes
    if args.workers is not None:
        overrides["n_workers"] = args.workers
    if args.executor is not None:
        overrides["executor_kind"] = args.executor
    if args.charge_training_time is not None:
        overrides["charge_training_time"] = args.charge_training_time
    return _usage(config.with_overrides, **overrides)


def _check_distributed_flags(args) -> None:
    """Reject combinations of the distributed flags before any work."""
    modes = (("--claim", args.claim), ("--status", args.status),
             ("--reduce", args.reduce))
    chosen = [flag for flag, on in modes if on]
    if len(chosen) > 1:
        raise UsageError(f"{' and '.join(chosen)} are mutually exclusive")
    if chosen and args.store is None:
        raise UsageError(
            f"{chosen[0]} coordinates workers through a shared store; "
            f"pass --store DIR"
        )
    for flag, value in (("--worker-id", args.worker_id), ("--lease-ttl", args.lease_ttl)):
        if value is not None and not args.claim:
            raise UsageError(f"{flag} only applies to --claim workers")
    if args.lease_ttl is not None:
        _usage(LeaseManager.TTL_RULE, "--lease-ttl", args.lease_ttl)


def _executor_summary(stats) -> Optional[str]:
    """One-line executor timing report (``None`` without recorded stats).

    The critical path is the heaviest dependency chain of the task graph —
    the wall-clock lower bound at any worker count — so comparing it with
    the serial-equivalent total shows how much the RL trial fan-out (or a
    bigger ``--workers``) can still buy.
    """
    if stats is None or not stats.task_seconds:
        return None
    return (
        f"executor: {len(stats.task_seconds)} tasks, "
        f"{stats.total_task_seconds:.1f}s total work, "
        f"critical path {stats.critical_path_seconds:.1f}s "
        f"({len(stats.critical_path)} chained tasks)"
    )


# --------------------------------------------------------------------- #
# run / sweep / suite
# --------------------------------------------------------------------- #
def _print_plan(path: str, suite: Suite) -> None:
    """The ``suite --validate`` report: each compiled block, nothing run."""
    print(
        f"{path}: OK — suite {suite.name!r}, "
        f"{len(suite.entries)} block(s), {suite.n_points} point(s)"
    )
    for entry in suite.entries:
        tags = []
        if entry.source is not None:
            tags.append(f"mcelog:{entry.source}")
        if entry.experiment_overrides:
            tags.append(
                "experiment: "
                + ", ".join(f"{k}={v}" for k, v in entry.experiment_overrides.items())
            )
        suffix = f"  [{'; '.join(tags)}]" if tags else ""
        print(f"  {entry.name}: {entry.spec.n_points} point(s){suffix}")


def _store_line(store: ArtifactStore, entry, config: ExperimentConfig) -> str:
    return f"store: {store.root} (sweep {store.sweep_key(entry.spec, config)})"


def _print_block(args, store, config, entry, result, outcome) -> None:
    """One block's report; ``outcome`` is the worker's under --claim."""
    if args.command == "suite":
        print(f"== {entry.name} ==")
    if outcome is not None:
        print(outcome.summary())
    if result is None:
        print("the sweep is not reduced yet: see --status, then run --reduce")
    else:
        if args.command == "run":
            label = result.labels[0]
            print(result.point_table(label))
            if args.metrics:
                print()
                print(format_metrics_table(result[label].confusions()))
        else:
            print(result.table(which=args.which))
        print()
        if outcome is None:
            print(
                f"wallclock: {result.wallclock_seconds:.1f}s, prepare_data "
                f"calls: {result.prepare_calls} for {len(result)} point(s)"
            )
        summary = _executor_summary(result.extras.get("executor_stats"))
        if summary is not None:
            print(summary)
        if store is not None and entry.source is None:
            print(_store_line(store, entry, entry.config(config)))
            if outcome is None:
                print(f"points loaded from store: {len(result.extras['points_loaded'])}")
                print(f"points computed: {len(result.extras['points_computed'])}")
    # Under --claim, the profile of the points this worker computed.
    profile = result.extras.get("profile") if outcome is None else outcome.profile
    if args.profile and profile is not None:
        print()
        print(format_profile(profile))
    if args.command == "suite":
        print()


def _status_or_reduce(args, suite: Suite, config, store) -> int:
    """``sweep --status`` / ``--reduce``, per block; nothing is computed."""
    from repro.distributed import reduce_sweep, sweep_status

    code = 0
    for entry in suite.entries:
        entry_config = entry.config(config)
        if args.status:
            statuses = sweep_status(entry.spec, entry_config, store)
            print(_store_line(store, entry, entry_config))
            for status in statuses:
                print(f"  {status.describe()}")
            states = [status.state for status in statuses]
            print(
                f"{states.count('done')}/{len(states)} done, "
                f"{states.count('leased')} leased, {states.count('pending')} pending"
            )
            continue
        result = reduce_sweep(entry.spec, entry_config, store)
        if result is None:
            missing = [
                status.label
                for status in sweep_status(entry.spec, entry_config, store)
                if status.state != "done"
            ]
            print(
                f"error: cannot reduce, {len(missing)} point(s) still "
                f"missing: {', '.join(missing)}",
                file=sys.stderr,
            )
            code = 2
            continue
        print(result.table(which=args.which))
        print(_store_line(store, entry, entry_config))
    return code


def _cmd_study(args) -> int:
    """``run``, ``sweep`` and ``suite``: compile, execute, report each block."""
    suite = _suite_from_args(args)
    config = _config_from_args(args)
    if args.validate:
        _print_plan(args.suite_file, suite)
        return 0
    _check_distributed_flags(args)
    store = None if args.store is None else ArtifactStore(args.store)
    if args.status or args.reduce:
        return _status_or_reduce(args, suite, config, store)
    run_suite(
        suite,
        config,
        store=store,
        cache=None if store is None else PreparedDataCache(spill=store),
        only=args.only,
        claim=args.claim,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        on_block=lambda entry, result, outcome: _print_block(
            args, store, config, entry, result, outcome
        ),
    )
    return 0


def _serve_policy(
    kind: str,
    train_log,
    mitigation_cost_node_hours: float,
    restartable: bool,
    seed: int,
    threshold: float,
    rl_episodes: int,
    job_sampler=None,
):
    """Build (and, where needed, train) the policy a serve run deploys."""
    from repro.baselines.static import AlwaysMitigatePolicy, NeverMitigatePolicy

    if kind == "never":
        return NeverMitigatePolicy()
    if kind == "always":
        return AlwaysMitigatePolicy()

    from repro.baselines.dataset import build_prediction_dataset
    from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
    from repro.core.features import build_feature_tracks

    if train_log is None or len(train_log) == 0:
        raise SystemExit(
            f"error: --policy {kind} needs training data, but the training "
            f"slice of the stream is empty; lower --train-fraction or pick "
            f"a richer source"
        )
    tracks = build_feature_tracks(train_log)
    t_lo = float(train_log.time[0])
    t_hi = float(train_log.time[-1])

    if kind in ("sc20", "myopic"):
        dataset = build_prediction_dataset(
            tracks, prediction_window_seconds=DAY, t_start=t_lo, t_end=t_hi + 1.0
        )
        if len(dataset) == 0:
            raise SystemExit(
                "error: the training slice yields no prediction samples"
            )
        forest = train_sc20_forest(dataset, n_estimators=16, max_depth=8, seed=seed)
        sc20 = SC20RandomForestPolicy(forest, threshold=threshold)
        if kind == "sc20":
            return sc20
        from repro.baselines.myopic import MyopicRFPolicy

        return MyopicRFPolicy(sc20, mitigation_cost_node_hours)

    if job_sampler is None:
        raise SystemExit(
            "error: --policy rl needs a job log to train against; use a "
            "preset source (--source preset:NAME)"
        )
    from repro.core.dqn import DDDQNAgent, DQNConfig
    from repro.core.environment import MitigationEnv
    from repro.core.features import StateNormalizer
    from repro.core.policies import RLPolicy
    from repro.core.trainer import train_agent

    normalizer = StateNormalizer()
    env = MitigationEnv(
        tracks,
        job_sampler,
        mitigation_cost_node_hours,
        restartable=restartable,
        normalizer=normalizer,
        seed=seed,
    )
    agent = DDDQNAgent(
        normalizer.state_dim, DQNConfig(hidden_sizes=(32, 16), seed=seed)
    )
    train_agent(env, agent, n_episodes=rl_episodes)
    return RLPolicy(agent, normalizer)


def _cmd_serve(args) -> int:
    import asyncio
    import json
    import os

    from repro.serve import (
        ConstantJobProvider,
        DecisionService,
        SampledJobProvider,
        ServeConfig,
        TailSource,
        serve_log,
    )

    # Every flag is checked before any data is generated or any policy is
    # trained, so a typo costs nothing and ends in one line, no traceback.
    restartable = args.restartable == "on"
    speed, cost, share = args.replay_at_speed, args.mitigation_cost, args.train_fraction
    for flag, value, ok, rule in (
        ("--train-fraction", share, 0 <= share < 1, "in [0, 1)"),
        ("--max-batch", args.max_batch, args.max_batch >= 1, ">= 1"),
        ("--max-delay-ms", args.max_delay_ms, args.max_delay_ms >= 0, ">= 0"),
        ("--merge-window-seconds", args.merge_window_seconds,
         args.merge_window_seconds > 0, "> 0"),
        ("--job-nodes", args.job_nodes, args.job_nodes > 0, "> 0"),
        ("--replay-at-speed", speed, speed is None or speed > 0, "> 0"),
        ("--mitigation-cost", cost, cost is None or cost >= 0, ">= 0"),
        ("--seed", args.seed, args.seed is None or args.seed >= 0, ">= 0"),
        ("--threshold", args.threshold, 0 <= args.threshold <= 1, "in [0, 1]"),
        ("--rl-episodes", args.rl_episodes, args.rl_episodes >= 1, ">= 1"),
    ):
        if not ok:
            raise SystemExit(f"error: {flag} must be {rule}, got {value!r}")
    preset = None
    if args.source.startswith("preset:"):
        preset = args.source.split(":", 1)[1]
        if preset not in PRESETS:
            raise SystemExit(
                f"error: unknown preset {preset!r}; choose from {', '.join(PRESETS)}"
            )
        scenario = getattr(ScenarioConfig, preset)()
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
        default_cost_minutes = scenario.evaluation.mitigation_cost_node_minutes
    else:
        if args.replay_at_speed is not None:
            raise SystemExit(
                "error: --replay-at-speed paces a replayed preset stream; "
                "file sources already arrive at their own pace"
            )
        if args.policy == "rl":
            raise SystemExit(
                "error: --policy rl needs a job log to train against; use a "
                "preset source (--source preset:NAME)"
            )
        if not os.path.isfile(args.source):
            raise SystemExit(f"error: --source {args.source!r} is not a file")
        default_cost_minutes = 2.0
    cost_hours = (cost if cost is not None else default_cost_minutes) / 60.0
    config = ServeConfig(
        mitigation_cost_node_hours=cost_hours,
        restartable=restartable,
        max_batch=args.max_batch,
        max_delay_seconds=args.max_delay_ms / 1000.0,
        merge_window_seconds=args.merge_window_seconds,
    )

    if preset is not None:
        from repro.telemetry.generator import TelemetryGenerator
        from repro.telemetry.reduction import prepare_log
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.sampling import JobSequenceSampler

        raw = TelemetryGenerator(
            scenario.topology,
            scenario.fault_model,
            scenario.duration_seconds,
            seed=scenario.seed,
        ).generate()
        log, _ = prepare_log(raw, scenario.evaluation.ue_burst_window_seconds)
        if len(log) == 0:
            raise SystemExit("error: the preset scenario generated no events")
        job_log = WorkloadGenerator(
            scenario.workload,
            n_cluster_nodes=scenario.topology.n_nodes,
            duration_seconds=scenario.duration_seconds,
            seed=scenario.seed,
        ).generate()
        sampler = JobSequenceSampler(job_log, seed=scenario.seed)
        t_lo = float(log.time[0])
        t_hi = float(log.time[-1])
        cutoff = t_lo + args.train_fraction * (t_hi - t_lo)
        train_log = log.filter_time(t_lo, cutoff)
        served = log.filter_time(cutoff, t_hi + 1.0)
        policy = _serve_policy(
            args.policy,
            train_log,
            cost_hours,
            restartable,
            scenario.seed,
            args.threshold,
            args.rl_episodes,
            job_sampler=sampler,
        )
        jobs = SampledJobProvider(sampler, cutoff, t_hi + 1.0, seed=scenario.seed)
        print(
            f"serving {len(served)} events of preset:{preset} "
            f"({len(train_log)} used for training) with policy {policy.name}"
        )
        report = serve_log(served, policy, jobs, config, speed=args.replay_at_speed)
    else:
        train_log = None
        if args.policy in ("sc20", "myopic"):
            from repro.telemetry.error_log import ErrorLog
            from repro.telemetry.mcelog import iter_mcelog_records

            with open(args.source, "r", encoding="utf-8") as handle:
                train_log = ErrorLog.from_records(list(iter_mcelog_records(handle)))
        policy = _serve_policy(
            args.policy,
            train_log,
            cost_hours,
            restartable,
            args.seed if args.seed is not None else 0,
            args.threshold,
            args.rl_episodes,
        )
        jobs = ConstantJobProvider(n_nodes=args.job_nodes)
        following = " (following)" if args.follow else ""
        print(f"serving {args.source}{following} with policy {policy.name}")
        service = DecisionService(policy, jobs, config)
        report = asyncio.run(service.run(TailSource(args.source, follow=args.follow)))
    print(report.summary())
    histogram = report.batch_size_histogram()
    if histogram:
        print(
            "batch sizes: "
            + ", ".join(f"{size}x{count}" for size, count in histogram.items())
        )
    if args.decision_log is not None:
        with open(args.decision_log, "w", encoding="utf-8") as handle:
            for record in report.decisions:
                handle.write(json.dumps(record.to_dict()) + "\n")
        print(f"decision log: {args.decision_log} ({len(report.decisions)} entries)")
    return 0


def _pick_sweep_key(store: ArtifactStore, requested: Optional[str]) -> Optional[str]:
    if requested is not None:
        return requested
    sweeps = store.list_sweeps()
    if len(sweeps) == 1:
        return sweeps[0]["key"]
    if not sweeps:
        print("error: the store holds no sweeps", file=sys.stderr)
        return None
    print(
        "error: the store holds several sweeps; pick one with --sweep KEY:",
        file=sys.stderr,
    )
    for entry in sweeps:
        print(
            f"  {entry['key']}  base={entry['base_scenario']}  "
            f"points={len(entry['labels'])}",
            file=sys.stderr,
        )
    return None


def _cmd_report(args) -> int:
    store = ArtifactStore(args.store)
    key = _pick_sweep_key(store, args.sweep)
    if key is None:
        return 2
    try:
        result = store.load_sweep_by_key(key)
    except ValueError as exc:  # an unreadable manifest or a missing point
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result is None:
        print(f"error: no stored sweep with key {key!r}", file=sys.stderr)
        return 2
    print(result.table(which=args.which, title=f"Sweep {key} — {args.which} cost"))
    return 0


def _cmd_list(args) -> int:
    store = ArtifactStore(args.store)
    sweeps = store.list_sweeps()
    results = store.list_results()
    prepared = store.list_prepared()
    print(f"store: {store.root}")
    print(f"sweeps ({len(sweeps)}):")
    for entry in sweeps:
        labels = ", ".join(entry["labels"])
        print(f"  {entry['key']}  base={entry['base_scenario']}  points: {labels}")
    print(f"results ({len(results)}):")
    for entry in results:
        print(
            f"  {entry['key']}  scenario={entry['scenario']} seed={entry['seed']} "
            f"cost={entry['mitigation_cost_node_minutes']:g} "
            f"approaches={len(entry['approaches'])}"
        )
    print(f"prepared ({len(prepared)}):")
    for key in prepared:
        print(f"  {key}")
    return 0


def _cmd_gc(args) -> int:
    _usage(ArtifactStore.GC_GRACE_RULE, "--grace-minutes", args.grace_minutes)
    store = ArtifactStore(args.store)
    report = store.gc(
        dry_run=args.dry_run, grace_seconds=args.grace_minutes * 60.0
    )
    verb = "would remove" if report.dry_run else "removed"
    print(f"store: {store.root}")
    for key in report.removed:
        print(f"  {verb}: prepared/{key}")
    for key in report.expired_leases:
        print(f"  {verb}: expired lease {key}")
    megabytes = report.freed_bytes / (1024 * 1024)
    print(
        f"{verb} {len(report.removed)} unreferenced prepared product(s), "
        f"freeing {report.freed_bytes} bytes ({megabytes:.1f} MiB); "
        f"{len(report.kept)} referenced product(s) kept"
    )
    if report.active_leases:
        print(
            f"{len(report.active_leases)} active lease(s) pinned their "
            f"prepared products"
        )
    return 0


_COMMANDS = {
    "run": _cmd_study,
    "sweep": _cmd_study,
    "suite": _cmd_study,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "list": _cmd_list,
    "gc": _cmd_gc,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, SuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
