"""The benchmark's correctness gate, run on every workload as a test.

``perfbench/run.py`` checks each operation it runs against the frozen numpy
oracle in ``perfbench/oracle.py`` and reports ``correct: false`` on any
mismatch. With ``--seconds 0`` a workload runs its minimum of two
operations (a few seconds each), so a kernel change that the benchmark
would refuse fails here first. Results land in the ignored ``.bench_out/``.
The test runs seed 0, which no documented benchmark round uses (they start
at seed 1), so it never overwrites or races with a stored benchmark result.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_gate_passes(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.stdout.strip(), run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    assert run.returncode == 0
