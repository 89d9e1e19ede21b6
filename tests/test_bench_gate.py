"""The benchmark's correctness gate, run on every workload as a test.

``perfbench/run.py`` checks each operation it runs against the frozen numpy
oracle in ``perfbench/oracle.py`` and reports ``correct: false`` on any
mismatch. With ``--seconds 0`` a workload runs its minimum of two
operations (a few seconds each), so a kernel change that the benchmark
would refuse fails here first. Results land in the ignored ``.bench_out/``.
The test runs seed 0, which no documented benchmark round uses (they start
at seed 1), so it never overwrites or races with a stored benchmark result.
Traced runs (``--trace 1``) of both workloads check the tracer's attribution
too: every op span lands in a layer, and every layer the workload's model has
records forward and backward time.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_gate(workload, trace):
    """One ``--seconds 0`` benchmark run; it must pass its correctness gate."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.stdout.strip(), run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    assert run.returncode == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_gate_passes(workload):
    run_gate(workload, trace=0)


def traced_metrics(workload):
    """A traced gate run's metrics; every span in it must land in a layer."""
    run_gate(workload, trace=1)
    traced = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed0-trace1.json").read_text())
    assert not [span for span in traced["spans"] if span[5] == "(unattributed)"]
    return traced["metrics"]


def test_traced_run_attributes_every_span_to_a_layer():
    metrics = traced_metrics("train_full")
    totals = [k for k in metrics if k.startswith("model.") and k.endswith(".total_s")]
    assert len(totals) == 16  # conv1d_1, conv_rnn, conv1d_2..5, glu_1..6, deconv1d_1..4
    for key in totals:
        layer = key[: -len(".total_s")]
        assert metrics[f"{layer}.fwd_s"] > 0, layer
        assert metrics[f"{layer}.bwd_s"] > 0, layer


def test_traced_desk_run_times_every_layer_of_the_desk_model():
    # The desk flow drives the CLI, validation and checkpoint paths too.
    metrics = traced_metrics("train_desk")
    for layer in ("conv1d_1", "conv_rnn", "conv1d_2", "conv1d_3", "glu_1", "glu_2",
                  "deconv1d_1", "deconv1d_2"):
        assert metrics[f"model.{layer}.fwd_s"] > 0, layer
        assert metrics[f"model.{layer}.bwd_s"] > 0, layer
