"""Every config field's rule, declared once on the field, judges construction.

The property walks every ruled field of the config classes
(:mod:`repro.utils.validation`): a value outside the field's rule fails
construction with one line naming the field, and a value inside it
constructs (a sequence is stored as a tuple).  The strategies are read off
each field's :class:`~repro.utils.validation.Rule`, so a field gains its
property cases by declaring its rule.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EvaluationConfig, ScenarioConfig
from repro.core.dqn import DQNConfig
from repro.core.qlearning import TabularQConfig
from repro.evaluation.pipeline import ExperimentConfig
from repro.serve.service import ServeConfig
from repro.telemetry.fault_model import FaultModelConfig
from repro.telemetry.topology import ClusterTopology, FleetSegment
from repro.utils.validation import Rule
from repro.workload.generator import WorkloadConfig

#: One valid instance per ruled config class; each case changes one field.
BASES = {
    cls.__name__: base
    for cls, base in (
        (FaultModelConfig, FaultModelConfig()),
        (WorkloadConfig, WorkloadConfig()),
        (FleetSegment, FleetSegment(name="gen1", n_nodes=8, manufacturer=0)),
        (ClusterTopology, ClusterTopology(n_nodes=48)),
        (DQNConfig, DQNConfig()),
        (TabularQConfig, TabularQConfig()),
        (ExperimentConfig, ExperimentConfig()),
        (ServeConfig, ServeConfig()),
        (EvaluationConfig, EvaluationConfig()),
        (ScenarioConfig, ScenarioConfig.small()),
    )
}

RULED = [
    (name, f.name)
    for name, base in BASES.items()
    for f in fields(base)
    if "rule" in f.metadata
]

#: Fields a cross-field rule also binds: their in-rule values are drawn so
#: the base instance's other fields still agree with them.
CROSS_FIELD_INSIDE = {
    ("DQNConfig", "epsilon_start"): st.floats(0.02, 1.0),
    ("ClusterTopology", "manufacturer_shares"): st.lists(
        st.floats(0.01, 1.0), min_size=1, max_size=4
    ).map(lambda shares: [share / sum(shares) for share in shares]),
    ("ClusterTopology", "segments"): st.just([])
    | st.integers(1, 47).map(
        lambda k: [
            FleetSegment(name="a", n_nodes=k, manufacturer=0),
            FleetSegment(name="b", n_nodes=48 - k, manufacturer=1),
        ]
    ),
    ("ScenarioConfig", "manufacturer"): st.none() | st.integers(0, 2),
}


def _rule(cls_name: str, field_name: str) -> Rule:
    base = BASES[cls_name]
    return next(f for f in fields(base) if f.name == field_name).metadata["rule"]


def _inside(rule: Rule):
    values = _inside_value(rule)
    return st.none() | values if rule.optional else values


def _inside_value(rule: Rule):
    if rule.each is not None:
        return st.lists(_inside(rule.each), min_size=not rule.empty, max_size=4)
    if rule.choices:
        return st.sampled_from(rule.choices)
    if rule.kind is bool:
        return st.booleans()
    if rule.kind is str:
        return st.text(min_size=1, max_size=8)
    if rule.kind is int:
        low = None if rule.low is None else int(rule.low) + rule.strict
        high = None if low is None else low + 10**6
        return st.integers(min_value=low, max_value=high)
    if rule.kind is float:
        return st.floats(
            min_value=rule.low,
            max_value=rule.high if rule.high is not None else 1e12,
            exclude_min=rule.strict and rule.low is not None,
            exclude_max=rule.strict and rule.high is not None,
            allow_nan=False,
            allow_infinity=False,
        )
    return st.just(BASES[rule.kind.__name__])


def _outside(rule: Rule):
    """Values the rule refuses: wrong types, non-finite numbers, values past
    a bound, choices not offered, and sequences with one bad entry."""
    wrong_type = st.sampled_from([[1], {"a": 1}, object()])
    if not rule.optional:
        wrong_type |= st.none()
    if rule.each is not None:
        bad_entry = st.tuples(
            st.lists(_inside(rule.each), max_size=2), _outside(rule.each)
        ).map(lambda parts: parts[0] + [parts[1]])
        cases = [bad_entry, st.integers(), st.just("ab")]
        if not rule.empty:
            cases.append(st.just([]))
        return st.one_of(cases)
    if rule.choices:
        return wrong_type | st.text(max_size=8).filter(lambda v: v not in rule.choices)
    if rule.kind is bool:
        return st.sampled_from([0, 1, "maybe", "true", None, 1.0])
    if rule.kind is str:
        return st.just("") | st.integers()
    cases = [wrong_type, st.booleans(), st.just("2")]
    if rule.kind is int:
        cases.append(st.floats().filter(lambda v: not v.is_integer()))
        if rule.low is not None:
            cases.append(st.integers(max_value=int(rule.low) - (not rule.strict)))
    elif rule.kind is float:
        cases.append(st.sampled_from([math.nan, math.inf, -math.inf]))
        if rule.low is not None:
            # A bounded float strategy draws no NaN.
            cases.append(st.floats(max_value=rule.low, exclude_max=not rule.strict))
        if rule.high is not None:
            cases.append(st.floats(min_value=rule.high, exclude_min=not rule.strict))
    else:
        cases.append(st.integers())
    return st.one_of(cases)


@pytest.mark.parametrize("cls_name, field_name", RULED, ids=lambda v: v)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_value_outside_the_rule_fails_with_one_line_naming_the_field(
    cls_name, field_name, data
):
    value = data.draw(_outside(_rule(cls_name, field_name)), label=field_name)
    with pytest.raises(ValueError) as excinfo:
        replace(BASES[cls_name], **{field_name: value})
    message = str(excinfo.value)
    assert "\n" not in message
    assert re.match(rf"{field_name}(\[\d+\])? must be ", message), message


@pytest.mark.parametrize("cls_name, field_name", RULED, ids=lambda v: v)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_value_inside_the_rule_constructs(cls_name, field_name, data):
    rule = _rule(cls_name, field_name)
    strategy = CROSS_FIELD_INSIDE.get((cls_name, field_name), _inside(rule))
    value = data.draw(strategy, label=field_name)
    built = replace(BASES[cls_name], **{field_name: value})
    expected = tuple(value) if isinstance(value, list) else value
    assert getattr(built, field_name) == expected


def test_every_config_field_but_a_nested_config_has_a_rule():
    """A new field cannot skip the rule table by accident."""
    unruled = {
        (name, f.name)
        for name, base in BASES.items()
        for f in fields(base)
        if "rule" not in f.metadata
    }
    assert unruled == {
        ("ExperimentConfig", "rl_base_config"),
        ("ScenarioConfig", "topology"),
        ("ScenarioConfig", "fault_model"),
        ("ScenarioConfig", "workload"),
        ("ScenarioConfig", "evaluation"),
    }


def test_presets_construct():
    for scenario in (
        ScenarioConfig.small(),
        ScenarioConfig.benchmark(),
        ScenarioConfig.paper(),
    ):
        assert scenario == replace(scenario)
    for config in (
        ExperimentConfig(),
        ExperimentConfig.fast(),
        ExperimentConfig.paper(),
    ):
        assert config == replace(config)
    assert DQNConfig() == replace(DQNConfig())
