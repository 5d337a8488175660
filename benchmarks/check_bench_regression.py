"""Gate a freshly measured ``BENCH_*.json`` against a committed baseline.

Usage::

    python benchmarks/check_bench_regression.py \
        BENCH_rl_parallel.json benchmarks/baselines/BENCH_rl_parallel.json \
        [--tolerance 0.25]

Exit status 0 when the current measurements are within tolerance of the
baseline, 1 with a line per violation otherwise.  The file's ``benchmark``
field selects the rule set.

``rl_parallel`` (executor-schedule benchmark):

* ``results_identical`` must be true — a benchmark that changed the numbers
  is a correctness failure, not a performance data point.
* Cache-behaviour counters (``prepare_calls``) are deterministic: more
  prepare calls than the baseline means a caching layer regressed.
* The speed ratio ``parallel_speedup`` is only compared when both runs had
  more than one core, shielding the gate from single-core laptops and
  throttled containers.  **A single-core baseline leaves the ratio gate
  inactive** (the checker says so in its output); refresh the baseline
  from a multi-core run — CI uploads one per push as the
  ``bench-rl-parallel-*`` artifact — to arm it.
* Absolute seconds are never compared across machines: the recorded
  ``cpu_count`` travels with the JSON so readers can interpret them.

``decision_core`` (vectorized replay/PER/features benchmark):

* ``results_identical`` must be true, as above.
* The vector-vs-scalar speedups (``replay_speedup``, ``per_speedup``,
  ``feature_speedup``) are single-process, schedule-independent ratios, so
  they are gated on **every** runner — core count does not matter.
  ``replay_speedup`` and ``feature_speedup`` must stay >= 1.0 and within
  ``--tolerance`` of the committed baseline; ``per_speedup`` hovers at the
  parity boundary by design (dispatch-bound at mini-batch size), so only a
  structural >= 0.85 floor is armed for it.
* The restart=on cost-feedback policies (RL, Myopic-RF) are additionally
  gated *individually* on their ``replay_speedup_by_policy`` entries: each
  must stay >= 1.0 and within ``--tolerance`` of its baseline ratio.  These
  are the policies resolved through the lockstep renewal walk — the
  slowest replay path — so a walk regression cannot hide behind the panel
  average.

``serve`` (online micro-batched decision-service benchmark):

* ``results_identical`` must be true — served decisions are bit-identical
  to the offline replay (forest and RL), and the scalar-fallback serving
  run reproduced the batched masks.
* ``mean_batch_size`` and ``storm_mean_batch_size`` must stay > 1.0: the
  micro-batcher must actually coalesce concurrent nodes, both on the
  unthrottled firehose and under the replayed-at-speed UE storm.  These
  are structural floors, armed on every runner.
* ``batched_vs_scalar_speedup`` (one ``decide_nodes`` call per tick vs the
  base-class per-row ``decide`` loop) is a single-process,
  schedule-independent ratio: it must stay >= 1.0 and within
  ``--tolerance`` of the committed baseline on any runner.
* Absolute decisions/s and tick-latency milliseconds are recorded for the
  perf trajectory but never compared across machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List


#: Speedup ratios recorded by the decision-core benchmark, with their
#: structural floors.  All are vector-vs-scalar comparisons within one
#: process, valid on any runner.  ``per_speedup`` sits at the parity
#: boundary by design (mini-batch-32 sampling is numpy-dispatch-bound, see
#: ROADMAP), so its floor only guards against a real loss to the scalar
#: path, not measurement noise — and it is excluded from the
#: baseline-ratio comparison, where a 25% band around ~1.3 would be pure
#: noise gating.
DECISION_CORE_RATIOS = {
    "replay_speedup": 1.0,
    "per_speedup": 0.85,
    "feature_speedup": 1.0,
}
_RATIO_COMPARED_TO_BASELINE = ("replay_speedup", "feature_speedup")

#: Per-policy replay-speedup gates: the restart=on cost-feedback policies
#: are the ones resolved through the lockstep renewal walk, the panel-wide
#: speedup's weakest link (every other policy's replay is a single batched
#: call).  Each must stay >= its structural floor and within the
#: ``--tolerance`` band of its committed baseline ratio, so a regression in
#: the walk cannot hide behind the panel average.
COST_FEEDBACK_POLICY_FLOORS = {
    "RL/restart=on": 1.0,
    "Myopic-RF/restart=on": 1.0,
}


def check_decision_core(
    current: dict,
    baseline: dict,
    tolerance: float,
) -> List[str]:
    """Regression findings of a ``decision_core`` run against its baseline."""
    findings: List[str] = []
    if not current.get("results_identical", False):
        findings.append(
            "results_identical is false: the vectorized decision core "
            "changed the replay/PER/feature numbers"
        )
    for metric, floor in DECISION_CORE_RATIOS.items():
        got = current.get(metric)
        if got is None:
            findings.append(f"{metric} is missing from the current run")
            continue
        if got < floor:
            findings.append(
                f"{metric} {got:.2f} < {floor:.2f}: the vectorized "
                "path no longer clears its structural floor over the "
                "scalar reference"
            )
        if metric not in _RATIO_COMPARED_TO_BASELINE:
            continue
        base = baseline.get(metric)
        if base is not None:
            baseline_floor = base * (1.0 - tolerance)
            if got < baseline_floor:
                findings.append(
                    f"{metric} regressed by more than {tolerance:.0%}: "
                    f"{got:.2f} < {baseline_floor:.2f} (baseline {base:.2f})"
                )
    current_by_policy = current.get("replay_speedup_by_policy") or {}
    baseline_by_policy = baseline.get("replay_speedup_by_policy") or {}
    for key, floor in COST_FEEDBACK_POLICY_FLOORS.items():
        got = current_by_policy.get(key)
        if got is None:
            findings.append(
                f"replay_speedup_by_policy[{key!r}] is missing from the "
                "current run"
            )
            continue
        if got < floor:
            findings.append(
                f"replay speedup of {key} {got:.2f} < {floor:.2f}: the "
                "lockstep renewal walk no longer clears its structural "
                "floor over the scalar reference"
            )
        base = baseline_by_policy.get(key)
        if base is not None:
            baseline_floor = base * (1.0 - tolerance)
            if got < baseline_floor:
                findings.append(
                    f"replay speedup of {key} regressed by more than "
                    f"{tolerance:.0%}: {got:.2f} < {baseline_floor:.2f} "
                    f"(baseline {base:.2f})"
                )
    return findings


#: Mean decision-batch floors of the serve benchmark: the micro-batcher
#: must coalesce more than one node per tick on the unthrottled firehose
#: and under the replayed-at-speed UE storm alike.  Structural bounds,
#: valid on any runner (batching is driven by the replayed stream, not by
#: machine speed).
SERVE_BATCH_FLOORS = {
    "mean_batch_size": 1.0,
    "storm_mean_batch_size": 1.0,
}


def check_serve(
    current: dict,
    baseline: dict,
    tolerance: float,
) -> List[str]:
    """Regression findings of a ``serve`` run against its baseline."""
    findings: List[str] = []
    if not current.get("results_identical", False):
        findings.append(
            "results_identical is false: the served decisions diverged from "
            "the offline replay (or the scalar-fallback serving run)"
        )
    for metric, floor in SERVE_BATCH_FLOORS.items():
        got = current.get(metric)
        if got is None:
            findings.append(f"{metric} is missing from the current run")
        elif got <= floor:
            findings.append(
                f"{metric} {got:.2f} <= {floor:.2f}: the micro-batcher no "
                "longer coalesces concurrent nodes"
            )
    speedup = current.get("batched_vs_scalar_speedup")
    if speedup is None:
        findings.append("batched_vs_scalar_speedup is missing from the current run")
        return findings
    if speedup < 1.0:
        findings.append(
            f"batched_vs_scalar_speedup {speedup:.2f} < 1.00: one decide_nodes "
            "call per tick no longer beats the per-row decide loop"
        )
    base = baseline.get("batched_vs_scalar_speedup")
    if base is not None:
        floor = base * (1.0 - tolerance)
        if speedup < floor:
            findings.append(
                f"batched_vs_scalar_speedup regressed by more than "
                f"{tolerance:.0%}: {speedup:.2f} < {floor:.2f} "
                f"(baseline {base:.2f})"
            )
    return findings


def check(current: dict, baseline: dict, tolerance: float) -> List[str]:
    """All regression findings of ``current`` against ``baseline``."""
    if current.get("benchmark") == "decision_core":
        return check_decision_core(current, baseline, tolerance)
    if current.get("benchmark") == "serve":
        return check_serve(current, baseline, tolerance)
    findings: List[str] = []

    if not current.get("results_identical", False):
        findings.append(
            "results_identical is false: the parallel/fan schedules changed "
            "the experiment numbers"
        )

    base_calls = baseline.get("prepare_calls")
    if base_calls is not None and current.get("prepare_calls", 0) > base_calls:
        findings.append(
            f"prepare_calls regressed: {current['prepare_calls']} > "
            f"baseline {base_calls} (a prepared-data cache stopped sharing)"
        )

    # Single-core runs can only measure pool overhead; the speed-ratio gate
    # would be noise there.
    if (current.get("cpu_count") or 1) >= 2 and (baseline.get("cpu_count") or 1) >= 2:
        base = baseline.get("parallel_speedup")
        got = current.get("parallel_speedup")
        if base is not None and got is not None:
            floor = base * (1.0 - tolerance)
            if got < floor:
                findings.append(
                    f"parallel_speedup regressed by more than {tolerance:.0%}: "
                    f"{got:.2f} < {floor:.2f} (baseline {base:.2f})"
                )
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly measured BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression of speed ratios (default: 0.25)",
    )
    args = parser.parse_args(argv)

    with open(args.current) as handle:
        current = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)

    findings = check(current, baseline, args.tolerance)
    if findings:
        print(f"benchmark regression gate FAILED ({len(findings)} finding(s)):")
        for finding in findings:
            print(f"  - {finding}")
        return 1
    if current.get("benchmark") == "serve":
        print(
            "benchmark regression gate passed (serve floors armed on any "
            f"runner; batched_vs_scalar={current.get('batched_vs_scalar_speedup')}x, "
            f"mean batch {current.get('mean_batch_size')} firehose / "
            f"{current.get('storm_mean_batch_size')} storm, "
            f"{current.get('decisions_per_sec')} decisions/s recorded)"
        )
        return 0
    if current.get("benchmark") == "decision_core":
        ratios = ", ".join(
            f"{metric}={current.get(metric)}x" for metric in DECISION_CORE_RATIOS
        )
        by_policy = current.get("replay_speedup_by_policy") or {}
        walk = ", ".join(
            f"{key}={by_policy.get(key)}x" for key in COST_FEEDBACK_POLICY_FLOORS
        )
        print(
            "benchmark regression gate passed (decision-core ratios armed "
            f"on any runner; {ratios}; lockstep walk: {walk})"
        )
        return 0
    cores = current.get("cpu_count") or 1
    baseline_cores = baseline.get("cpu_count") or 1
    if cores < 2:
        gated = "single-core run: ratio gates skipped"
    elif baseline_cores < 2:
        gated = (
            "single-core BASELINE: ratio gate inactive — refresh "
            "benchmarks/baselines/ from a multi-core run"
        )
    else:
        gated = "ratio gate armed"
    print(
        f"benchmark regression gate passed ({gated}; "
        f"parallel_speedup={current.get('parallel_speedup')}x on {cores} "
        f"core(s), baseline {baseline.get('parallel_speedup')}x on "
        f"{baseline_cores} core(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
