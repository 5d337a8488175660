"""Declarative scenario suites: whole multi-sweep experiments from YAML.

The paper's evaluation is a *grid of grids* — Figure 3 sweeps mitigation
costs and restartability, Figure 5 sweeps manufacturers, Figure 7 job
scales.  A suite file names each of those grids once, declaratively, and
``python -m repro suite suite.yaml`` compiles every block into the exact
:class:`~repro.evaluation.sweep.SweepSpec` a hand-written script would have
built and drives the unchanged :func:`~repro.evaluation.sweep.run_sweep`
engine — so suite results are bit-identical to direct API calls, stores
compose, and ``--claim`` workers split a suite as they split a sweep.
:func:`compile_suite` compiles a document already in memory; ``python -m
repro run`` and ``sweep`` use it to run their flags as a one-block suite.

A minimal suite::

    scenarios:
      fig3:
        preset: small
        axes:
          mitigation_costs: [2, 5, 10]
          restartable: [on, off]

Beyond the classic axes, blocks reach the scenario kinds the ROADMAP names:

``source: mcelog:PATH``
    Ingest a real mcelog dump through :mod:`repro.telemetry.mcelog` instead
    of the synthetic generator (the block's points replay the trace).
``fault_model: {correlated_bursts: 4, ...}``
    Correlated multi-node burst failures (any
    :class:`~repro.telemetry.fault_model.FaultModelConfig` field).
``segments: [{name: old, n_nodes: 24, manufacturer: 0, ...}, ...]``
    Heterogeneous fleets with per-segment manufacturer, fault scaling and
    policy assignment (pair with ``experiment: {include_fleet_mix: true}``).
``workload: {submit_pattern: diurnal, scheduler: backfill}``
    Job-mix stress shapes (any
    :class:`~repro.workload.generator.WorkloadConfig` field).

The suite only parses.  Whether a value is in range is decided by
constructing the configs it lands in, whose fields declare their rules
(:mod:`repro.utils.validation`), so ``--validate`` refuses exactly what
construction refuses.  Every error is a :class:`SuiteError` — a single
line naming the offending block and field, never a traceback.  PyYAML is
the only dependency and is imported lazily so the rest of the package
works without it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import EvaluationConfig, ScenarioConfig
from repro.evaluation.pipeline import ExperimentConfig
from repro.evaluation.sweep import SweepResult, SweepSpec, run_sweep
from repro.telemetry.fault_model import FaultModelConfig
from repro.telemetry.records import MANUFACTURER_NAMES
from repro.telemetry.topology import FleetSegment
from repro.utils.timeutils import DAY
from repro.workload.generator import WorkloadConfig

__all__ = [
    "Suite",
    "SuiteEntry",
    "SuiteError",
    "compile_suite",
    "load_suite",
    "parse_suite",
    "run_suite",
]

PRESETS = ("small", "benchmark", "paper")

_TOP_KEYS = ("suite", "defaults", "scenarios")
_BLOCK_KEYS = (
    "preset",
    "seed",
    "duration_days",
    "source",
    "fault_model",
    "workload",
    "evaluation",
    "segments",
    "axes",
    "experiment",
)
_AXIS_KEYS = (
    "mitigation_costs",
    "restartable",
    "manufacturers",
    "job_scales",
    "seeds",
)
_SEGMENT_KEYS = ("name", "n_nodes", "manufacturer", "ce_scale", "ue_scale", "policy")


class SuiteError(ValueError):
    """A suite file problem, phrased as one line naming block and field."""


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - PyYAML ships in CI
        raise SuiteError(
            "scenario suites need PyYAML; install it with "
            "'pip install pyyaml' (packaged as the [suite] extra: "
            "pip install repro[suite])"
        ) from exc
    return yaml


# --------------------------------------------------------------------- #
# Data model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SuiteEntry:
    """One named scenario block, fully compiled."""

    #: Block name (the key under ``scenarios:``).
    name: str
    #: The sweep the block compiles to — exactly what a hand-built
    #: :class:`SweepSpec` for the same grid would be.
    spec: SweepSpec
    #: Per-block :class:`ExperimentConfig` field overrides.
    experiment_overrides: Dict[str, Any] = field(default_factory=dict)
    #: Absolute path of the block's mcelog trace, or ``None`` (synthetic).
    source: Optional[str] = None

    def config(self, base: ExperimentConfig) -> ExperimentConfig:
        """``base`` with this block's ``experiment:`` overrides applied."""
        return base.with_overrides(**self.experiment_overrides)


@dataclass(frozen=True)
class Suite:
    """A parsed suite file: named entries, in declaration order."""

    name: str
    entries: Tuple[SuiteEntry, ...]
    path: Optional[str] = None

    @property
    def n_points(self) -> int:
        return sum(entry.spec.n_points for entry in self.entries)

    def entry(self, name: str) -> SuiteEntry:
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        known = ", ".join(repr(entry.name) for entry in self.entries)
        raise SuiteError(f"no scenario block named {name!r}; blocks: {known}")


# --------------------------------------------------------------------- #
# Schema helpers (every failure is a one-line SuiteError)
# --------------------------------------------------------------------- #
def _require_mapping(value: Any, what: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise SuiteError(
            f"{what} must be a mapping, got {type(value).__name__}"
        )
    return value


def _check_keys(mapping: Dict[str, Any], valid: Sequence[str], what: str) -> None:
    unknown = sorted(str(key) for key in mapping if key not in valid)
    if unknown:
        raise SuiteError(
            f"{what}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(valid)}"
        )


def _config_overrides(
    block: str, key: str, mapping: Any, cls, forbidden: Sequence[str] = ()
) -> Dict[str, Any]:
    """Validate a ``{field: value}`` override mapping against a dataclass."""
    mapping = _require_mapping(mapping, f"scenario {block!r}: {key}")
    known = {f.name for f in dataclass_fields(cls)}
    for name in mapping:
        if name in forbidden:
            raise SuiteError(
                f"scenario {block!r}: {key}.{name} cannot be set from a suite file"
            )
        if name not in known:
            raise SuiteError(
                f"scenario {block!r}: unknown {key} field {name!r}; "
                f"valid fields: {', '.join(sorted(known - set(forbidden)))}"
            )
    return dict(mapping)


def _construct(block: str, what: str, build: Callable[..., Any], *args, **kwargs):
    """``build(*args, **kwargs)``; what construction refuses becomes a
    one-line :class:`SuiteError` naming the block."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise SuiteError(f"scenario {block!r}: {what}{exc}") from None


def _replace_part(scenario: ScenarioConfig, key: str, /, **changes) -> ScenarioConfig:
    """``scenario`` with its nested config ``key`` rebuilt with ``changes``."""
    return replace(scenario, **{key: replace(getattr(scenario, key), **changes)})


def _number(block: str, axis: str, value: Any) -> float:
    # A float either way, so a cost written ``2`` or ``2.0`` gives one key.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SuiteError(
            f"scenario {block!r}: axis {axis!r} values must be numbers, "
            f"got {value!r}"
        )
    return float(value)


def _axis_values(block: str, axis: str, values: Any) -> Tuple[Any, ...]:
    if not isinstance(values, (list, tuple)) or not values:
        raise SuiteError(
            f"scenario {block!r}: axis {axis!r} must be a non-empty list, "
            f"got {values!r}"
        )
    out: List[Any] = []
    for value in values:
        if axis in ("mitigation_costs", "job_scales"):
            out.append(_number(block, axis, value))
        elif axis == "seeds":
            out.append(value)
        elif axis == "restartable":
            if isinstance(value, bool):
                out.append(value)
            elif value in ("on", "off"):
                out.append(value == "on")
            else:
                raise SuiteError(
                    f"scenario {block!r}: axis 'restartable' values must be "
                    f"booleans (YAML on/off), got {value!r}"
                )
        elif axis == "manufacturers":
            if value is None or value == "all":
                out.append(None)
            elif isinstance(value, str) and value.upper() in MANUFACTURER_NAMES:
                out.append(MANUFACTURER_NAMES.index(value.upper()))
            elif isinstance(value, int) and not isinstance(value, bool):
                out.append(int(value))
            else:
                raise SuiteError(
                    f"scenario {block!r}: axis 'manufacturers' values must "
                    f"be 'all'/null, a letter "
                    f"({'/'.join(MANUFACTURER_NAMES)}) or an index, "
                    f"got {value!r}"
                )
        else:  # pragma: no cover - guarded by _check_keys
            raise SuiteError(f"scenario {block!r}: unknown axis {axis!r}")
    return tuple(out)


def _compile_segments(block: str, raw: Any) -> Tuple[FleetSegment, ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise SuiteError(
            f"scenario {block!r}: segments must be a non-empty list of mappings"
        )
    segments: List[FleetSegment] = []
    for i, item in enumerate(raw):
        item = _require_mapping(item, f"scenario {block!r}: segments[{i}]")
        _check_keys(item, _SEGMENT_KEYS, f"scenario {block!r}: segments[{i}]")
        segments.append(_construct(block, f"segments[{i}]: ", FleetSegment, **item))
    return tuple(segments)


def _compile_source(block: str, raw: Any, base_dir: str) -> str:
    if not isinstance(raw, str) or not raw.startswith("mcelog:"):
        raise SuiteError(
            f"scenario {block!r}: source must be 'mcelog:PATH', got {raw!r}"
        )
    path = raw[len("mcelog:"):]
    if not path:
        raise SuiteError(f"scenario {block!r}: source names an empty path")
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not os.path.exists(path):
        raise SuiteError(
            f"scenario {block!r}: mcelog source {path!r} does not exist"
        )
    return path


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
def _compile_block(
    name: str,
    raw: Any,
    defaults: Dict[str, Any],
    base_dir: str,
) -> SuiteEntry:
    block = _require_mapping(raw, f"scenario {name!r}")
    _check_keys(block, _BLOCK_KEYS, f"scenario {name!r}")
    merged = dict(defaults)
    for key, value in block.items():
        # Nested override mappings merge key-by-key with the defaults, so a
        # block adding one experiment flag keeps the suite-wide ones.
        if (
            key in ("fault_model", "workload", "evaluation", "experiment")
            and isinstance(value, dict)
            and isinstance(merged.get(key), dict)
        ):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value

    preset = merged.get("preset", "small")
    if preset not in PRESETS:
        raise SuiteError(
            f"scenario {name!r}: unknown preset {preset!r}; "
            f"choose from {', '.join(PRESETS)}"
        )
    scenario: ScenarioConfig = getattr(ScenarioConfig, preset)()

    if "seed" in merged:
        scenario = _construct(name, "", scenario.with_seed, merged["seed"])
    if "duration_days" in merged:
        days = _number(name, "duration_days", merged["duration_days"])
        scenario = _construct(
            name, "duration_days: ", scenario.with_duration, days * DAY
        )

    for key, cls in (
        ("fault_model", FaultModelConfig),
        ("workload", WorkloadConfig),
        ("evaluation", EvaluationConfig),
    ):
        if key in merged:
            overrides = _config_overrides(name, key, merged[key], cls)
            scenario = _construct(
                name, f"{key}: ", _replace_part, scenario, key, **overrides
            )

    if "segments" in merged:
        segments = _compile_segments(name, merged["segments"])
        scenario = _construct(
            name, "segments: ", _replace_part, scenario, "topology", segments=segments
        )

    axes: Dict[str, Tuple[Any, ...]] = {}
    if "axes" in merged:
        raw_axes = _require_mapping(merged["axes"], f"scenario {name!r}: axes")
        _check_keys(raw_axes, _AXIS_KEYS, f"scenario {name!r}: axes")
        for axis, values in raw_axes.items():
            axes[axis] = _axis_values(name, axis, values)

    experiment: Dict[str, Any] = {}
    if "experiment" in merged:
        experiment = _config_overrides(
            name,
            "experiment",
            merged["experiment"],
            ExperimentConfig,
            forbidden=("rl_base_config",),
        )

    source = None
    if "source" in merged:
        source = _compile_source(name, merged["source"], base_dir)

    base = _construct(name, "", replace, scenario, name=name)
    # Each axis alone first, so a value construction refuses names its axis.
    for axis, values in axes.items():
        one_axis = SweepSpec(base=base, **{axis: values})
        _construct(name, f"axis {axis!r}: ", one_axis.points)
    spec = SweepSpec(base=base, **{axis: axes.get(axis) for axis in _AXIS_KEYS})
    _construct(name, "", spec.points)
    # Surface bad values (not just bad names) at compile time, and keep the
    # values as construction stored them (a list as a tuple).
    built = _construct(
        name, "experiment: ", ExperimentConfig().with_overrides, **experiment
    )
    experiment = {key: getattr(built, key) for key in experiment}
    return SuiteEntry(
        name=name, spec=spec, experiment_overrides=experiment, source=source
    )


def parse_suite(
    text: str, name: str = "suite", base_dir: str = "."
) -> Suite:
    """Compile suite YAML text; every schema problem is a :class:`SuiteError`."""
    yaml = _yaml()
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        reason = str(exc).replace("\n", " ").strip()
        raise SuiteError(f"invalid YAML: {reason}") from None
    if document is None:
        raise SuiteError("the suite file is empty")
    return compile_suite(document, name=name, base_dir=base_dir)


def compile_suite(
    document: Any, name: str = "suite", base_dir: str = "."
) -> Suite:
    """Compile a suite document already read into Python objects.

    ``document`` is the mapping a suite file parses to (``suite``,
    ``defaults``, ``scenarios``); no YAML is involved, so callers that build
    blocks in code (the ``run`` and ``sweep`` commands) need no PyYAML.
    ``name`` is the suite's name unless ``suite: {name: ...}`` sets one.
    """
    document = _require_mapping(document, "the suite document")
    _check_keys(document, _TOP_KEYS, "suite")

    meta = document.get("suite")
    if meta is not None:
        meta = _require_mapping(meta, "suite")
        _check_keys(meta, ("name", "description"), "suite")
        name = str(meta.get("name", name))

    defaults: Dict[str, Any] = {}
    if "defaults" in document:
        defaults = dict(_require_mapping(document["defaults"], "defaults"))
        _check_keys(defaults, _BLOCK_KEYS, "defaults")
        if "axes" in defaults or "source" in defaults:
            raise SuiteError(
                "defaults cannot set 'axes' or 'source'; declare them per block"
            )

    if "scenarios" not in document:
        raise SuiteError("the suite file needs a top-level 'scenarios' mapping")
    scenarios = _require_mapping(document["scenarios"], "scenarios")
    if not scenarios:
        raise SuiteError("'scenarios' must contain at least one block")

    entries = tuple(
        _compile_block(str(block_name), raw, defaults, base_dir)
        for block_name, raw in scenarios.items()
    )
    return Suite(name=name, entries=entries)


def load_suite(path: str) -> Suite:
    """Read and compile a suite file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SuiteError(f"cannot read suite file {path!r}: {exc}") from None
    base = os.path.basename(path)
    for extension in (".yaml", ".yml"):
        if base.endswith(extension):
            base = base[: -len(extension)]
    try:
        suite = parse_suite(
            text, name=base, base_dir=os.path.dirname(os.path.abspath(path))
        )
    except SuiteError as exc:
        raise SuiteError(f"{path}: {exc}") from None
    return replace(suite, path=path)


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
def _entry_error_log(entry: SuiteEntry, cache: Dict[str, Any]):
    if entry.source is None:
        return None
    if entry.source not in cache:
        from repro.telemetry.mcelog import parse_mcelog

        with open(entry.source, "r", encoding="utf-8") as handle:
            cache[entry.source] = parse_mcelog(handle)
    return cache[entry.source]


def run_suite(
    suite: Suite,
    config: Optional[ExperimentConfig] = None,
    store=None,
    only: Optional[str] = None,
    claim: bool = False,
    worker_id: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    cache=None,
    on_block: Optional[Callable[..., None]] = None,
) -> Dict[str, Optional[SweepResult]]:
    """Execute every entry of ``suite`` and return ``{name: SweepResult}``.

    ``config`` is the base :class:`ExperimentConfig`; each entry's
    ``experiment:`` overrides are applied on top.  ``store`` and ``claim``
    compose exactly as in ``python -m repro sweep`` — except for
    mcelog-sourced entries, whose trace content is not derivable from the
    spec: they always bypass the store, so ``claim`` rejects them.
    Under ``claim``, an entry whose points are still leased by other
    workers yields ``None`` (reduce later); all other values are complete
    :class:`SweepResult` objects.

    ``cache`` (a :class:`~repro.evaluation.pipeline.PreparedDataCache`)
    is passed to ``run_sweep`` and ``run_sweep_worker``; ``None`` keeps
    their defaults.  ``PreparedDataCache(spill=store)`` keeps prepared data
    in the store too, as the CLI does under ``--store``.
    ``on_block(entry, result, outcome)`` is called after each block, with
    the :class:`~repro.distributed.WorkerOutcome` under ``claim`` (else
    ``None``); the CLI prints each block from it.
    """
    base_config = config or ExperimentConfig()
    entries = suite.entries if only is None else (suite.entry(only),)
    if claim:
        if store is None:
            raise SuiteError("distributed suite execution needs a store; pass store=")
        sourced = [entry.name for entry in entries if entry.source is not None]
        if sourced:
            raise SuiteError(
                "mcelog-sourced blocks bypass the store and cannot be "
                f"distributed: {', '.join(map(repr, sourced))}; run them "
                "without --claim"
            )

    log_cache: Dict[str, Any] = {}
    results: Dict[str, Optional[SweepResult]] = {}
    for entry in entries:
        outcome = None
        if claim:
            from repro.distributed import run_sweep_worker

            outcome = run_sweep_worker(
                entry.spec,
                entry.config(base_config),
                store,
                worker_id=worker_id,
                lease_ttl=lease_ttl,
                cache=cache,
            )
            result = outcome.result
        else:
            result = run_sweep(
                entry.spec,
                entry.config(base_config),
                cache=cache,
                error_log=_entry_error_log(entry, log_cache),
                store=store,
            )
        results[entry.name] = result
        if on_block is not None:
            on_block(entry, result, outcome)
    return results
