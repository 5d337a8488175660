"""The layer boundaries the traced run wraps, and the per-layer metric catalogue.

Span names are ``<module>.<function>``; the metrics derived from them are
``<span>.calls``, ``<span>.s`` (self time: the span minus its child spans),
``<span>.total_s`` (inclusive time) and ``<span>.rows``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Target, leading_rows

_PIPELINE = "repro.evaluation.pipeline"

TARGETS: List[Target] = [
    Target("pipeline.prepare_data", f"{_PIPELINE}:prepare_data"),
    Target("pipeline.run_rl_trial", f"{_PIPELINE}:run_rl_trial"),
    Target("pipeline.run_rl_reduce", f"{_PIPELINE}:run_rl_reduce"),
    Target("pipeline.run_split_group", f"{_PIPELINE}:run_split_group"),
    Target("pipeline.aggregate", f"{_PIPELINE}:aggregate"),
    Target("environment.reset", "repro.core.environment:MitigationEnv.reset"),
    Target("environment.step", "repro.core.environment:MitigationEnv.step"),
    Target("sampling.sample_timeline", "repro.workload.sampling:JobSequenceSampler.sample_timeline"),
    Target("dqn.act", "repro.core.dqn:DDDQNAgent.act"),
    Target("dqn.observe", "repro.core.dqn:DDDQNAgent.observe"),
    Target("dqn.train_step", "repro.core.dqn:DDDQNAgent.train_step"),
    Target("replay.push", "repro.core.replay:PrioritizedReplayBuffer.push"),
    Target("replay.sample", "repro.core.replay:PrioritizedReplayBuffer.sample"),
    Target("replay.sample_many", "repro.core.replay:SumTree.sample_many"),
    Target("replay.update_priorities", "repro.core.replay:PrioritizedReplayBuffer.update_priorities"),
    Target("networks.forward", "repro.core.networks:DuelingQNetwork.forward", leading_rows(1)),
    Target("networks.backward", "repro.core.networks:DuelingQNetwork.backward"),
    Target("networks.adam_update", "repro.core.networks:AdamOptimizer.update"),
    Target("random_forest.fit", "repro.baselines.random_forest:RandomForestClassifier.fit"),
    Target(
        "random_forest.predict_batch",
        "repro.baselines.random_forest:RandomForestClassifier.predict_batch",
        leading_rows(1),
    ),
    Target("runner.build_traces", "repro.evaluation.runner:build_traces"),
    Target("runner.evaluate_policy", "repro.evaluation.runner:evaluate_policy"),
    Target("generator.generate", "repro.telemetry.generator:TelemetryGenerator.generate"),
    Target("workload_generator.generate", "repro.workload.generator:WorkloadGenerator.generate"),
    Target("reduction.prepare_log", "repro.telemetry.reduction:prepare_log"),
    Target("features.build_feature_tracks", "repro.core.features:build_feature_tracks"),
    Target("artifacts.save_result", "repro.store.artifacts:ArtifactStore.save_result"),
    Target("artifacts.load_result", "repro.store.artifacts:ArtifactStore.load_result"),
    Target("artifacts.save_prepared", "repro.store.artifacts:ArtifactStore.save_prepared"),
    Target("artifacts.load_prepared", "repro.store.artifacts:ArtifactStore.load_prepared"),
    Target("suite.load_suite", "repro.suite:load_suite"),
    Target("policies.decide_nodes", "repro.core.policies:RLPolicy.decide_nodes", leading_rows(1)),
    Target("features.absorb", "repro.core.features:OnlineFeatureState.absorb"),
]

_COUNT, _S = "count", "s"

#: Every per-layer metric, in report order, with its unit.  Span metrics
#: come from the traced repetition; the rest are measured by the workloads.
PER_LAYER: List[Tuple[str, str]] = [
    ("pipeline.prepare_data.calls", _COUNT),
    ("pipeline.prepare_data.s", _S),
    ("pipeline.prepare_data.total_s", _S),
    ("pipeline.run_rl_trial.calls", _COUNT),
    ("pipeline.run_rl_trial.s", _S),
    ("pipeline.run_rl_trial.total_s", _S),
    ("pipeline.run_rl_reduce.s", _S),
    ("pipeline.run_rl_reduce.total_s", _S),
    ("pipeline.run_split_group.calls", _COUNT),
    ("pipeline.run_split_group.s", _S),
    ("pipeline.run_split_group.total_s", _S),
    ("pipeline.aggregate.s", _S),
    ("executor.tasks", _COUNT),
    ("executor.critical_path_s", _S),
    ("executor.busy_frac", "ratio"),
    ("environment.reset.calls", _COUNT),
    ("environment.reset.s", _S),
    ("environment.step.calls", _COUNT),
    ("environment.step.s", _S),
    ("sampling.sample_timeline.calls", _COUNT),
    ("sampling.sample_timeline.s", _S),
    ("dqn.act.calls", _COUNT),
    ("dqn.act.s", _S),
    ("dqn.observe.calls", _COUNT),
    ("dqn.observe.s", _S),
    ("dqn.train_step.calls", _COUNT),
    ("dqn.train_step.s", _S),
    ("replay.push.calls", _COUNT),
    ("replay.push.s", _S),
    ("replay.sample.calls", _COUNT),
    ("replay.sample.s", _S),
    ("replay.sample_many.s", _S),
    ("replay.update_priorities.calls", _COUNT),
    ("replay.update_priorities.s", _S),
    ("networks.forward.calls", _COUNT),
    ("networks.forward.rows", "rows"),
    ("networks.forward.s", _S),
    ("networks.backward.calls", _COUNT),
    ("networks.backward.s", _S),
    ("networks.adam_update.calls", _COUNT),
    ("networks.adam_update.s", _S),
    ("random_forest.fit.calls", _COUNT),
    ("random_forest.fit.s", _S),
    ("random_forest.predict_batch.calls", _COUNT),
    ("random_forest.predict_batch.rows", "rows"),
    ("random_forest.predict_batch.s", _S),
    ("runner.build_traces.s", _S),
    ("runner.evaluate_policy.calls", _COUNT),
    ("runner.evaluate_policy.s", _S),
    ("generator.generate.s", _S),
    ("workload_generator.generate.s", _S),
    ("reduction.prepare_log.s", _S),
    ("features.build_feature_tracks.s", _S),
    ("cache.prepare_calls", _COUNT),
    ("cache.hits", _COUNT),
    ("trace_cache.hits", _COUNT),
    ("trace_cache.misses", _COUNT),
    ("artifacts.save_result.calls", _COUNT),
    ("artifacts.save_result.s", _S),
    ("artifacts.save_result.bytes", "B"),
    ("artifacts.load_result.calls", _COUNT),
    ("artifacts.load_result.s", _S),
    ("artifacts.save_prepared.calls", _COUNT),
    ("artifacts.load_prepared.calls", _COUNT),
    ("suite.load_suite.s", _S),
    ("resume_s", _S),
    ("service.ticks", _COUNT),
    ("service.batch_mean", "rows"),
    ("service.full_batch_frac", "ratio"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("decision_samples", _COUNT),
    ("policies.decide_nodes.calls", _COUNT),
    ("policies.decide_nodes.rows", "rows"),
    ("policies.decide_nodes.s", _S),
    ("features.absorb.calls", _COUNT),
    ("features.absorb.s", _S),
    ("sources.send_lag_p99_ms", "ms"),
    ("rl_saving_pct", "%"),
    ("rl_oracle_gap_pct", "%"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_pct", "%"),
]


def span_metrics(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The catalogue's span-derived metrics from a :meth:`Tracer.summary`."""
    out: Dict[str, float] = {}
    for metric, _ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if span in summary and field in ("calls", "s", "total_s", "rows"):
            out[metric] = summary[span][field]
    return out
