"""Online micro-batched decision serving (``python -m repro serve``).

This package turns the offline evaluation stack into a long-lived daemon: a
synchronous core ingests an mcelog event stream, maintains one incremental
:class:`~repro.core.features.OnlineFeatureState` per node, and answers the
whole pending windows of the ready nodes with one batched
:meth:`~repro.core.policies.MitigationPolicy.decide_nodes` call per round.
In-memory logs drive the core directly; async sources (a tailed mcelog
file, a paced replay) go through :meth:`DecisionService.run`.  Decisions are
bit-identical to an offline :func:`~repro.evaluation.runner.evaluate_policy`
replay of the same events (see :mod:`repro.serve.service`).
"""

from repro.serve.jobs import (
    ConstantJobProvider,
    JobStateProvider,
    SampledJobProvider,
    TimelineJobProvider,
)
from repro.serve.service import (
    DecisionRecord,
    DecisionService,
    ServeConfig,
    ServeReport,
    serve_log,
)
from repro.serve.sources import ReplaySource, TailSource

__all__ = [
    "ConstantJobProvider",
    "DecisionRecord",
    "DecisionService",
    "JobStateProvider",
    "ReplaySource",
    "SampledJobProvider",
    "ServeConfig",
    "ServeReport",
    "TailSource",
    "TimelineJobProvider",
    "serve_log",
]
