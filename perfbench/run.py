"""End-to-end benchmark of the repository's three user entry points.

Run from the root of a checkout::

    python3 perfbench/run.py --workload experiment-rl --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload serve-stream --seed 1 --repeat 5

Workloads (each repetition runs in a fresh interpreter, see ``rep.py``):

``experiment-rl``
    ``repro run --preset small --fast --executor serial
    --no-charge-training-time``: the paper's cost-benefit experiment, ~90 %
    RL training.  Its input is the recorded golden scenario
    (``ScenarioConfig.small(7)``) for every ``--seed``: across scenario seeds
    the run's work varies 3x and RL's saving 14-64 %, more than any bound
    could absorb, and the fixed input lets the output check compare against
    one recorded fingerprint.
``suite-store``
    ``repro suite perfbench/suite_store.yaml --fast --workers 2 --store DIR``
    cold, then three warm re-runs against the same store (every point
    loads).  The suite is fixed for the same reason.
``serve-stream``
    Trains the RL policy on the first 80 days of a
    ``ScenarioConfig.benchmark(seed)`` stream, then serves the first 2000
    held-out events through ``serve_log``: 60 unthrottled passes (capacity;
    ``wall_s`` is the median pass) and one open-loop pass paced at 1e7 x
    real time (per-decision latency).

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` a separate traced repetition
wraps each layer's public functions (``layers.py``) and the JSON carries
the per-layer metrics.  ``--repeat N`` runs seeds ``seed .. seed+N-1`` and
prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("experiment-rl", "suite-store", "serve-stream")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]
UNITS = dict(END_TO_END + PER_LAYER)

#: Repetitions per untraced run: at least this many, then until --seconds.
MIN_REPS = 3
#: setup_s is the median of up to this many set-ups per run, spending at
#: most SETUP_EXTRA_S on set-up-only repetitions beyond the full ones.
SETUP_SAMPLES = 9
SETUP_EXTRA_S = 4.0
#: Every invocation must end within 180 s; stop starting repetitions so
#: the last one still fits.
RUN_LIMIT_S = 170.0
EXPERIMENT_SCENARIO_SEED = 7
FINGERPRINT_FILE = os.path.join(HERE, "fingerprint_experiment_rl.json")
SUITE_FILE = os.path.join(HERE, "suite_store.yaml")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Per-layer metrics taken from the untraced repetition of a traced run:
#: the executor's own stats (the traced suite runs in-process) and the
#: timings that tracing would distort.
FROM_UNTRACED = (
    "executor.tasks",
    "executor.critical_path_s",
    "executor.busy_frac",
    "resume_s",
    "service.ticks",
    "service.batch_mean",
    "service.full_batch_frac",
    "decisions_per_s",
    "sources.send_lag_p99_ms",
)


class RepetitionFailed(RuntimeError):
    """A repetition crashed or overran; the run reports no result."""


class Bench:
    """One invocation: a start time that bounds every repetition it spawns."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    # -------------------------------------------------------------- #
    def spec(self, workload: str, seed: int, trace: bool, serial: bool = False) -> dict:
        spec = {"workload": workload, "seed": seed, "trace": trace, "root": ROOT}
        if trace:
            spec["trace_file"] = os.path.join(OUT_DIR, f"spans-{workload}.json")
        if workload == "experiment-rl":
            spec.update(scenario_seed=EXPERIMENT_SCENARIO_SEED, fingerprint_file=FINGERPRINT_FILE)
        elif workload == "suite-store":
            in_process = trace or serial
            spec.update(
                suite_file=SUITE_FILE,
                workers=1 if in_process else self.workers,
                executor="serial" if in_process else "process",
            )
        return spec

    def spawn(self, spec: dict) -> dict:
        """Run one repetition in a fresh interpreter and return its measurements."""
        os.makedirs(OUT_DIR, exist_ok=True)
        store_dir = None
        if spec["workload"] == "suite-store":
            store_dir = os.path.join(OUT_DIR, f"store-{os.getpid()}-{time.monotonic_ns()}")
            spec = dict(spec, store_dir=store_dir)
        env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        budget = self.remaining()
        if budget <= 0:
            raise RepetitionFailed("no time left for another repetition")
        spec = dict(spec, t0=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepetitionFailed(f"{spec['workload']} repetition overran {budget:.0f} s")
        finally:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RepetitionFailed(
                f"{spec['workload']} repetition exited with code {proc.returncode}"
            )
        return json.loads(lines[-1])

    # -------------------------------------------------------------- #
    def measure(self, workload: str, seed: int, seconds: float) -> dict:
        """Untraced repetitions until ``seconds`` have passed (at least MIN_REPS)."""
        began = time.monotonic()
        reps = []
        while True:
            rep_began = time.monotonic()
            reps.append(self.spawn(self.spec(workload, seed, trace=False)))
            took = time.monotonic() - rep_began
            if len(reps) >= MIN_REPS and time.monotonic() - began >= seconds:
                break
            if self.remaining() < 1.5 * took:
                break
        # Set-up alone, in more fresh interpreters: a short set-up is mostly
        # interpreter start and imports, and one sample per repetition is noisy.
        setups = [rep["setup_s"] for rep in reps]
        extra_began = time.monotonic()
        while (
            len(setups) < SETUP_SAMPLES
            and time.monotonic() - extra_began < SETUP_EXTRA_S
            and self.remaining() > 2 * SETUP_EXTRA_S
        ):
            spec = dict(self.spec(workload, seed, trace=False), setup_only=True)
            setups.append(self.spawn(spec)["setup_s"])
        attempted = sum(rep["attempted"] for rep in reps)
        failed = sum(rep["failed"] for rep in reps)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": median_wall(reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            "ok_frac": 1.0 - failed / attempted,
        }
        info = _layer_medians(reps)
        info["repetitions"] = len(reps)
        info["setup_samples"] = len(setups)
        return _result(reps, metrics, info)

    def measure_traced(self, workload: str, seed: int) -> dict:
        """An untraced repetition, then a traced one; per-layer metrics."""
        untraced = self.spawn(self.spec(workload, seed, trace=False))
        baseline = untraced
        if workload == "suite-store":
            # The traced suite runs in-process; compare it with the same shape.
            baseline = self.spawn(self.spec(workload, seed, trace=False, serial=True))
        traced = self.spawn(self.spec(workload, seed, trace=True))
        reps = [untraced, traced] + ([baseline] if baseline is not untraced else [])

        metrics = {name: 0 for name, _ in PER_LAYER}
        metrics.update(traced["layer"])
        metrics.update(traced["spans"])
        metrics.update({k: v for k, v in untraced["layer"].items() if k in FROM_UNTRACED})
        metrics.update(_latency_metrics([untraced]))
        metrics["trace.unattributed_frac"] = traced["unattributed_frac"]
        metrics["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / baseline["wall_s"] - 1.0)
        return _result(reps, metrics, {"traced_wall_s": traced["wall_s"]})


def median_wall(reps) -> float:
    """A run's ``wall_s``: medians over the finest parts its repetitions time.

    Timings are medians, not minima: on a shared host the CPU runs at 55-185 %
    of its usual speed in bursts of a second to a minute, so the fastest
    sample jumps with the rare fast moment, while a median of many parts
    moves least.  serve-stream pools its passes; experiment-rl sums each
    executor task's median (plus the median time outside tasks), so a burst
    that spans two repetitions still leaves every task a clean middle value.
    """
    if "pass_s" in reps[0]:
        return statistics.median(s for rep in reps for s in rep["pass_s"])
    if "task_s" in reps[0]:
        tasks = sum(statistics.median(rep["task_s"][key] for rep in reps) for key in reps[0]["task_s"])
        outside = statistics.median(rep["wall_s"] - sum(rep["task_s"].values()) for rep in reps)
        return tasks + outside
    return statistics.median(rep["wall_s"] for rep in reps)


def _layer_medians(reps) -> dict:
    info = {}
    for key in reps[0]["layer"]:
        info[key] = statistics.median(rep["layer"][key] for rep in reps)
    info.update(_latency_metrics(reps))
    return info


def _latency_metrics(reps) -> dict:
    """Decision latency percentiles pooled over repetitions (serve-stream)."""
    samples = [s for rep in reps for s in rep.get("samples", {}).get("decision_latency_s", [])]
    if len(samples) < 100:
        return {}
    cuts = statistics.quantiles(samples, n=100)
    return {
        "decision_p50_ms": 1e3 * statistics.median(samples),
        "decision_p99_ms": 1e3 * cuts[98],
        "decision_samples": len(samples),
    }


def _result(reps, metrics: dict, info: dict) -> dict:
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "info": info,
        "failures": [line for rep in reps for line in rep.get("failures", [])],
    }


def environment() -> str:
    """nproc, Python, numpy and the BLAS numpy was built against."""
    parts = [f"nproc={os.cpu_count()}", f"python={platform.python_version()}"]
    try:
        import numpy

        parts.append(f"numpy={numpy.__version__}")
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts.append(f"blas={blas.get('name')}-{blas.get('version')}")
    except (ImportError, KeyError, TypeError) as exc:
        parts.append(f"blas=unknown ({exc.__class__.__name__})")
    parts.append("threads=" + ",".join(f"{var}=1" for var in THREAD_VARS))
    return " ".join(parts)


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for line in result["failures"]:
        print(f"   FAILED: {line}")
    for name, entry in result["metrics"].items():
        print(f"   {name:36s} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in result["info"].items():
        unit = UNITS.get(name, "s" if name.endswith("_s") else "count")
        print(f"   (info) {name:29s} {value:>16.6g} {unit}")


def contract_json(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def repeat(bench_factory, workloads, seed: int, runs: int, seconds: float, trace: bool) -> dict:
    """Run each workload ``runs`` times on consecutive seeds; print quartiles."""
    summary = {}
    for workload in workloads:
        values = {}
        for offset in range(runs):
            bench = bench_factory()
            result = (
                bench.measure_traced(workload, seed + offset)
                if trace
                else bench.measure(workload, seed + offset, seconds)
            )
            print(f"-- {workload} seed {seed + offset}: {contract_json(result)}", flush=True)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(f"== {workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4) if runs > 1 else series * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": UNITS[name]}
            print(
                f"   {name:36s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                f"IQR/median {spread:7.4f} {UNITS[name]}"
            )
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload (quartile mode)")
    parser.add_argument(
        "--record-fingerprint",
        action="store_true",
        help="re-record experiment-rl's output fingerprint (after an intended result change)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {', '.join(WORKLOADS)}")

    print(f"# env: {environment()}", flush=True)
    try:
        if args.record_fingerprint:
            bench = Bench()
            spec = dict(bench.spec("experiment-rl", args.seed, trace=False), record_fingerprint=True)
            bench.spawn(spec)
            print(f"recorded {FINGERPRINT_FILE}")
            return 0
        if args.repeat:
            summary = repeat(Bench, workloads, args.seed, args.repeat, args.seconds, bool(args.trace))
            print(json.dumps(summary))
            return 0
        results = {}
        for workload in workloads:
            bench = Bench()
            results[workload] = (
                bench.measure_traced(workload, args.seed)
                if args.trace
                else bench.measure(workload, args.seed, args.seconds)
            )
            print_table(workload, results[workload])
    except RepetitionFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(contract_json(results[workloads[0]]))
    else:
        print(json.dumps({w: json.loads(contract_json(r)) for w, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
