"""Tests of the benchmark harness itself (not of the library it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from checks import fingerprint_diff, mask_mismatches, served_failures  # noqa: E402
from layers import PER_LAYER, TARGETS  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_is_span_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(seconds):
        clock.now += seconds

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)
        clock.now += 0.5

    traced_middle = tracer.wrap("middle", middle)

    def root():
        clock.now += 10.0
        traced_middle()

    tracer.wrap("root", root)()

    summary = tracer.summary()
    assert summary["leaf"] == {"calls": 2, "s": 5.0, "total_s": 5.0, "rows": 0}
    assert summary["middle"]["s"] == pytest.approx(1.5)
    assert summary["middle"]["total_s"] == pytest.approx(6.5)
    assert summary["root"]["s"] == pytest.approx(10.0)
    # Self times partition the root span exactly.
    assert sum(entry["s"] for entry in summary.values()) == pytest.approx(16.5)


def test_covered_seconds_counts_only_root_spans_inside_the_window():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("inner", lambda: setattr(clock, "now", clock.now + 1.0))

    def outer():
        clock.now += 2.0
        inner()

    traced_outer = tracer.wrap("outer", outer)
    traced_outer()  # [0, 3]
    clock.now += 5.0  # untraced gap [3, 8]
    traced_outer()  # [8, 11]
    assert tracer.covered_seconds(0.0, 11.0) == pytest.approx(6.0)
    assert tracer.covered_seconds(1.0, 9.0) == pytest.approx(3.0)


def test_rows_are_summed_per_span():
    tracer = Tracer()
    from tracer import leading_rows

    traced = tracer.wrap("f", lambda self, x: None, leading_rows(1))
    traced(None, np.zeros((4, 3)))
    traced(None, np.zeros(3))  # a single 1-D row
    assert tracer.summary()["f"]["rows"] == 5


# ---------------------------------------------------------------------- #
# installation and clean uninstall
# ---------------------------------------------------------------------- #
def test_install_wraps_aliases_and_uninstall_restores_them():
    home = types.ModuleType("perfbench_test_home")

    def work():
        return "done"

    class Thing:
        def method(self):
            return 7

    home.work, home.Thing = work, Thing
    alias = types.ModuleType("perfbench_test_alias")
    alias.work = work  # as ``from perfbench_test_home import work`` would
    sys.modules.update({home.__name__: home, alias.__name__: alias})
    try:
        original_method = Thing.__dict__["method"]
        tracer = Tracer()
        tracer.install(
            [
                Target("home.work", "perfbench_test_home:work"),
                Target("home.method", "perfbench_test_home:Thing.method"),
            ]
        )
        try:
            assert home.work is not work and alias.work is home.work
            assert Thing.__dict__["method"] is not original_method
            late = types.ModuleType("perfbench_test_late")
            late.work = home.work  # bound while the wrappers were installed
            sys.modules[late.__name__] = late
            assert alias.work() == "done" and Thing().method() == 7
        finally:
            tracer.uninstall()
        assert home.work is work and alias.work is work and late.work is work
        assert Thing.__dict__["method"] is original_method
        assert tracer.summary()["home.work"]["calls"] == 1
        assert tracer.summary()["home.method"]["calls"] == 1
    finally:
        for name in ("perfbench_test_home", "perfbench_test_alias", "perfbench_test_late"):
            sys.modules.pop(name, None)


def _resolver(target: Target):
    """A function returning what ``target.path`` names right now."""
    module_name, _, attr_path = target.path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return lambda: owner.__dict__[attr]
    return lambda: getattr(owner, attr)


def test_every_layer_target_resolves_and_uninstalls_cleanly():
    resolvers = {target.name: _resolver(target) for target in TARGETS}
    before = {name: resolve() for name, resolve in resolvers.items()}
    snapshot = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        for attr, value in vars(module).items()
        if callable(value)
    }
    tracer = Tracer()
    tracer.install(TARGETS)
    for name, resolve in resolvers.items():
        assert resolve() is not before[name], f"{name} was not wrapped"
    tracer.uninstall()
    for name, resolve in resolvers.items():
        assert resolve() is before[name], f"{name} was not restored"
    for (module_name, attr), value in snapshot.items():
        assert getattr(sys.modules[module_name], attr) is value, f"{module_name}.{attr} changed"


def test_every_span_target_has_catalogued_metrics():
    catalogued = {name.rpartition(".")[0] for name, _ in PER_LAYER}
    assert {target.name for target in TARGETS} <= catalogued


# ---------------------------------------------------------------------- #
# output checks feed failed / ok_frac
# ---------------------------------------------------------------------- #
def _recorded_fingerprint() -> dict:
    with open(run.FINGERPRINT_FILE, encoding="utf-8") as handle:
        return json.load(handle)["approaches"]


def test_tampered_fingerprint_is_reported():
    recorded = _recorded_fingerprint()
    assert fingerprint_diff(recorded, copy.deepcopy(recorded)) == []
    tampered = copy.deepcopy(recorded)
    tampered["RL"]["total"] += 0.001
    tampered["Oracle"]["true_positives"] += 1
    diff = fingerprint_diff(recorded, tampered)
    assert len(diff) == 2 and any("RL.total" in line for line in diff)
    del tampered["Never-mitigate"]
    assert any("Never-mitigate" in line for line in fingerprint_diff(recorded, tampered))


def _report(masks, ue_cost=5.0, mitigation_cost=1.0):
    n = sum(len(mask) for mask in masks.values())
    return types.SimpleNamespace(
        masks=masks,
        ue_cost_node_hours=ue_cost,
        mitigation_cost_node_hours=mitigation_cost,
        n_decision_points=n,
    )


def test_tampered_served_mask_counts_failed_decisions():
    offline = {1: np.array([True, False, False]), 4: np.array([False, True])}
    assert served_failures(_report(offline), offline, 5.0, 1.0) == 0
    flipped = {node: mask.copy() for node, mask in offline.items()}
    flipped[4][0] = True
    assert mask_mismatches(flipped, offline) == 1
    assert served_failures(_report(flipped), offline, 5.0, 1.0) == 1
    missing = {1: offline[1]}
    assert mask_mismatches(missing, offline) == 2
    # A wrong cost total fails every decision of the run.
    assert served_failures(_report(offline, ue_cost=5.5), offline, 5.0, 1.0) == 5


def test_failed_operations_lower_ok_frac(monkeypatch):
    reps = iter(
        [
            {"attempted": 10, "failed": 0, "setup_s": 1.0, "wall_s": 2.0, "peak_rss_mb": 50.0, "layer": {}},
            {"attempted": 10, "failed": 3, "setup_s": 1.2, "wall_s": 2.2, "peak_rss_mb": 52.0, "layer": {},
             "failures": ["tampered"]},
            {"attempted": 10, "failed": 0, "setup_s": 1.1, "wall_s": 2.1, "peak_rss_mb": 51.0, "layer": {}},
        ]
    )
    bench = run.Bench()
    monkeypatch.setattr(
        bench, "spawn", lambda spec: {"setup_s": 1.0} if spec.get("setup_only") else next(reps)
    )
    result = bench.measure("serve-stream", seed=1, seconds=0.0)
    assert result["attempted"] == 30 and result["failed"] == 3 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(0.9)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(2.1)
    assert json.loads(run.contract_json(result))["failed"] == 3


def test_wall_is_the_median_of_each_part():
    # A burst slows task "a" in the first repetition and "b" in the second:
    # neither whole repetition is clean, but every task has a clean median.
    reps = [
        {"wall_s": 10.5, "task_s": {"a": 9.0, "b": 1.0}},
        {"wall_s": 7.5, "task_s": {"a": 5.0, "b": 2.0}},
        {"wall_s": 6.5, "task_s": {"a": 5.0, "b": 1.0}},
    ]
    assert run.median_wall(reps) == pytest.approx(5.0 + 1.0 + 0.5)
    passes = [{"wall_s": 0.0, "pass_s": [0.1, 0.9]}, {"wall_s": 0.0, "pass_s": [0.2, 0.3, 0.4]}]
    assert run.median_wall(passes) == pytest.approx(0.3)
    assert run.median_wall([{"wall_s": 3.0}, {"wall_s": 1.0}, {"wall_s": 2.0}]) == 2.0


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
