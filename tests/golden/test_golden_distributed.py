"""Golden regression for the distributed sweep path.

Two claim-mode worker *subprocesses* race over a one-point sweep whose
point is exactly the golden scenario (``ScenarioConfig.small()`` under the
golden config).  The reduced result must reproduce the recorded
``golden_small.json`` fingerprint — the distributed machinery (store
backends, leases, subprocess workers, reduce) is yet another schedule, and
a schedule may never change the numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.distributed import reduce_sweep
from repro.store import ArtifactStore

from tests.distributed._worker import golden_config, golden_spec
from tests.golden.test_golden import _load_recorded, fingerprint, golden_diff

REPO = Path(__file__).resolve().parents[2]
WORKER = REPO / "tests" / "distributed" / "_worker.py"


def test_two_worker_distributed_sweep_reproduces_the_golden_fingerprint(
    tmp_path, request
):
    if request.config.getoption("--update-golden"):
        pytest.skip("record the golden file with the plain experiment first")

    store_dir = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    workers = [
        subprocess.Popen(
            [
                sys.executable, str(WORKER),
                "--store", str(store_dir),
                "--golden",
                "--worker-id", f"golden-w{i}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO),
        )
        for i in range(2)
    ]
    outcomes = []
    for proc in workers:
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, f"worker failed:\n{stderr}"
        outcomes.append(json.loads(stdout.strip().splitlines()[-1]))

    # Exactly one worker computed the point; the other loaded or conflicted.
    computed = [label for o in outcomes for label in o["computed"]]
    assert computed == ["small"]
    assert any(o["reduced"] for o in outcomes)

    result = reduce_sweep(golden_spec(), golden_config(), ArtifactStore(store_dir))
    assert result is not None
    differences = golden_diff(_load_recorded(), fingerprint(result["small"]))
    assert not differences, (
        "distributed sweep diverged from the golden fingerprint:\n  "
        + "\n  ".join(differences)
    )
