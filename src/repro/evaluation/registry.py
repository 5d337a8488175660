"""Pluggable registry of the mitigation approaches under evaluation.

Every bar of Figure 3 — Never/Always-mitigate, the SC20-RF family, Myopic-RF,
the RL agent and the Oracle — is an :class:`ApproachSpec`: a display name, a
``build(ctx, config, factory) -> MitigationPolicy`` factory, a *group* naming
the trained model its builder receives, and an ``enabled`` predicate over
the :class:`~repro.evaluation.pipeline.ExperimentConfig`.

The experiment driver derives everything from the registry: the canonical
approach ordering (``APPROACH_ORDER``), the set of per-split tasks handed to
the parallel executor (one task per *group*, so the three SC20 variants and
Myopic-RF share a single trained forest), and the mapping of ``include_*``
toggles to approaches.  New approaches therefore plug in without touching the
driver:

>>> from repro.evaluation.registry import ApproachSpec, register_approach
>>> from repro.baselines.static import PeriodicMitigatePolicy
>>> register_approach(ApproachSpec(
...     name="Periodic-24h",
...     build=lambda ctx, config, factory: PeriodicMitigatePolicy(24.0),
... ))  # doctest: +SKIP

Builders receive the per-split :class:`~repro.evaluation.pipeline.SplitContext`
(training data and the models its executor task trained), the experiment
config, and a scenario-rooted :class:`~repro.utils.rng.RngFactory` whose
keyed streams make results independent of execution order — the property
the parallel executor relies on.  The group decides the model: "rf"
builders get the split's forest from ``ctx.sc20()``, "rl" builders the
selected agent from ``ctx.rl()`` (when the built-in RL approach runs);
every other builder gets ``None`` from both, as for a split without
training data.

The registry is process-global.  The process-pool executor reaches it through
``fork`` inheritance on Linux; on spawn-based platforms, approaches registered
at runtime (outside an imported module) are invisible to worker processes —
register them at import time, or run with ``executor_kind="thread"`` /
``"serial"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.baselines.myopic import MyopicRFPolicy
from repro.baselines.sc20 import SC20RandomForestPolicy
from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
)
from repro.core.policies import FallbackPolicy, MitigationPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.evaluation.pipeline import ExperimentConfig, SplitContext
    from repro.utils.rng import RngFactory

__all__ = [
    "ApproachSpec",
    "approach_groups",
    "approach_order",
    "approach_specs",
    "enabled_specs",
    "ensure_sc20_variants",
    "get_approach",
    "register_approach",
    "register_sc20_variant",
    "registered_names",
    "unregister_approach",
]

#: Builder signature: per-split context, experiment config, scenario-rooted
#: RNG factory -> a ready-to-evaluate policy.
PolicyBuilder = Callable[
    ["SplitContext", "ExperimentConfig", "RngFactory"], MitigationPolicy
]


def _always_enabled(config: "ExperimentConfig") -> bool:
    return True


@dataclass(frozen=True)
class ApproachSpec:
    """Declaration of one approach of the Section 4.2 comparison."""

    #: Display name — the key of ``ExperimentResult.approaches``.
    name: str
    #: Factory producing the policy evaluated on each split's test range.
    build: PolicyBuilder
    #: Approaches in the same group share one executor task per split, and
    #: the group names the model the builder receives: "rf" the split's
    #: forest, "rl" the selected agent, any other group none.
    group: str = "custom"
    #: Sort position in reports; registration order breaks ties.
    order: float = 1000.0
    #: Whether the approach runs under a given experiment config.
    enabled: Callable[["ExperimentConfig"], bool] = field(default=_always_enabled)
    #: One-line description for documentation and reports.
    description: str = ""


_REGISTRY: Dict[str, ApproachSpec] = {}

#: Display name -> exact threshold offset of each registered SC20 variant.
#: :func:`ensure_sc20_variants` consults this (not ``spec.enabled``, which
#: also folds in the ``include_rf`` toggle) to tell "this offset's variant
#: already exists" apart from a genuine display-name collision.
_SC20_OFFSETS: Dict[str, float] = {}


def register_approach(spec: ApproachSpec, replace: bool = False) -> ApproachSpec:
    """Register ``spec``; set ``replace=True`` to overwrite an existing name."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(
            f"approach {spec.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    # A replacement is no longer (necessarily) an SC20 variant;
    # register_sc20_variant re-records the offset right after this call.
    _SC20_OFFSETS.pop(spec.name, None)
    _REGISTRY[spec.name] = spec
    return spec


def unregister_approach(name: str) -> ApproachSpec:
    """Remove and return a registered approach (KeyError when unknown)."""
    spec = _REGISTRY.pop(name)
    _SC20_OFFSETS.pop(name, None)
    return spec


def get_approach(name: str) -> ApproachSpec:
    """Look up a registered approach by display name."""
    return _REGISTRY[name]


def registered_names() -> Tuple[str, ...]:
    """All registered names, unsorted (registration order)."""
    return tuple(_REGISTRY)


def approach_specs() -> Tuple[ApproachSpec, ...]:
    """All registered approaches in canonical (``order``, registration) order."""
    indexed = sorted(
        enumerate(_REGISTRY.values()), key=lambda pair: (pair[1].order, pair[0])
    )
    return tuple(spec for _, spec in indexed)


def approach_order() -> Tuple[str, ...]:
    """Canonical ordering of the approach names (the bars of Figure 3)."""
    return tuple(spec.name for spec in approach_specs())


def enabled_specs(config: "ExperimentConfig") -> Tuple[ApproachSpec, ...]:
    """The approaches that run under ``config``, in canonical order."""
    return tuple(spec for spec in approach_specs() if spec.enabled(config))


def approach_groups(config: "ExperimentConfig") -> Dict[str, List[ApproachSpec]]:
    """Enabled approaches keyed by group, groups in canonical order."""
    groups: Dict[str, List[ApproachSpec]] = {}
    for spec in enabled_specs(config):
        groups.setdefault(spec.group, []).append(spec)
    return groups


# --------------------------------------------------------------------- #
# Default approaches (Section 4.2)
# --------------------------------------------------------------------- #
def _build_never(ctx, config, factory) -> MitigationPolicy:
    return NeverMitigatePolicy()


def _build_always(ctx, config, factory) -> MitigationPolicy:
    return AlwaysMitigatePolicy()


def _build_oracle(ctx, config, factory) -> MitigationPolicy:
    return OraclePolicy()


def _build_sc20_optimal(ctx, config, factory) -> MitigationPolicy:
    artifacts = ctx.sc20()
    if artifacts is None:
        return FallbackPolicy(NeverMitigatePolicy(), "SC20-RF")
    return artifacts.optimal_policy


def _sc20_variant_builder(offset: float) -> PolicyBuilder:
    name = SC20RandomForestPolicy.variant_name(offset)

    def _build(ctx, config, factory) -> MitigationPolicy:
        artifacts = ctx.sc20()
        if artifacts is None:
            return FallbackPolicy(NeverMitigatePolicy(), name)
        return artifacts.base_policy.with_threshold(
            artifacts.optimal_threshold, offset=offset, name=name
        )

    return _build


def _sc20_variant_enabled(offset: float):
    def _enabled(config: "ExperimentConfig") -> bool:
        return config.include_rf and offset in config.sc20_threshold_offsets

    return _enabled


def register_sc20_variant(offset: float, replace: bool = False) -> ApproachSpec:
    """Register a perturbed-threshold SC20-RF variant for ``offset``.

    The variant only runs for configs whose ``sc20_threshold_offsets``
    contain ``offset``, so registering extra variants never changes the
    approach set of other experiments.  Sorted between SC20-RF and
    Myopic-RF, larger offsets later.
    """
    name = SC20RandomForestPolicy.variant_name(offset)
    spec = register_approach(
        ApproachSpec(
            name=name,
            build=_sc20_variant_builder(offset),
            group="rf",
            order=min(49.0, 30.0 + 100.0 * float(offset)),
            enabled=_sc20_variant_enabled(offset),
            description=f"SC20-RF with the threshold perturbed by {offset:+.0%}.",
        ),
        replace=replace,
    )
    _SC20_OFFSETS[name] = float(offset)
    return spec


def ensure_sc20_variants(config: "ExperimentConfig") -> None:
    """Register any configured threshold offset that has no variant yet.

    Keeps ``ExperimentConfig(sc20_threshold_offsets=...)`` sweeps working
    without an explicit :func:`register_sc20_variant` call for each offset.
    The pipeline calls this before resolving the enabled specs.

    Raises ``ValueError`` when a configured offset percent-rounds to the
    display name of an approach registered for a *different* offset (e.g.
    0.049 collides with the default 0.05 → both would be "SC20-RF-5%") or
    to the name of a non-variant approach: silently evaluating neither —
    or mixing two offsets under one name — would corrupt the sweep.
    Whether the variants actually *run* (``include_rf``, the configured
    offsets) is a separate question answered by ``spec.enabled``.
    """
    for offset in config.sc20_threshold_offsets:
        name = SC20RandomForestPolicy.variant_name(offset)
        if name not in _REGISTRY:
            register_sc20_variant(offset)
        elif _SC20_OFFSETS.get(name) != float(offset):
            raise ValueError(
                f"SC20 threshold offset {offset!r} rounds to display name "
                f"{name!r}, which is already registered for a different "
                "offset; pick offsets that round to distinct percents or "
                "re-register with register_sc20_variant(offset, replace=True)"
            )


def _build_myopic(ctx, config, factory) -> MitigationPolicy:
    artifacts = ctx.sc20()
    if artifacts is None:
        return FallbackPolicy(NeverMitigatePolicy(), "Myopic-RF")
    return MyopicRFPolicy(artifacts.optimal_policy, ctx.mitigation_cost)


def _build_fleet_mix(ctx, config, factory) -> MitigationPolicy:
    from repro.baselines.fleet import build_fleet_policy

    return build_fleet_policy(ctx)


def _build_rl(ctx, config, factory) -> MitigationPolicy:
    policy = ctx.rl()
    if policy is None:
        return FallbackPolicy(NeverMitigatePolicy(), "RL")
    return policy


def _register_defaults() -> None:
    register_approach(ApproachSpec(
        name="Never-mitigate",
        build=_build_never,
        group="static",
        order=0,
        enabled=lambda config: config.include_static,
        description="Do nothing; pays the full UE cost (lower bound baseline).",
    ))
    register_approach(ApproachSpec(
        name="Always-mitigate",
        build=_build_always,
        group="static",
        order=10,
        enabled=lambda config: config.include_static,
        description="Mitigate on every event; maximum mitigation cost.",
    ))
    register_approach(ApproachSpec(
        name="SC20-RF",
        build=_build_sc20_optimal,
        group="rf",
        order=20,
        enabled=lambda config: config.include_rf,
        description="SC20 random-forest predictor at the optimal threshold.",
    ))
    for offset in (0.02, 0.05):
        register_sc20_variant(offset)
    register_approach(ApproachSpec(
        name="Myopic-RF",
        build=_build_myopic,
        group="rf",
        order=50,
        enabled=lambda config: config.include_rf and config.include_myopic,
        description="Expected-cost extension of SC20-RF (uncalibrated).",
    ))
    register_approach(ApproachSpec(
        name="Fleet-mix",
        build=_build_fleet_mix,
        group="rf",
        order=55,
        enabled=lambda config: config.include_fleet_mix,
        description="Per-segment policy routing over a heterogeneous fleet.",
    ))
    register_approach(ApproachSpec(
        name="RL",
        build=_build_rl,
        group="rl",
        order=60,
        enabled=lambda config: config.include_rl,
        description="The paper's DDDQN agent (hyperparameter-searched).",
    ))
    register_approach(ApproachSpec(
        name="Oracle",
        build=_build_oracle,
        group="oracle",
        order=70,
        enabled=lambda config: config.include_oracle,
        description="Mitigates on the last event before each UE (unrealisable).",
    ))


_register_defaults()
