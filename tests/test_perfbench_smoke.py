"""One episode and the final checks of every benchmark workload.

The benchmark in `perfbench/` drives deskllm only through its public
API (`Trainer.run`, `run_sft`, `dpo_train`, `evals.generate`, ...), so a
change that breaks that API fails here instead of in a benchmark run.
Operations are counted by the benchmark's own `Ops`. A traced episode
must also yield every per-layer metric, each a finite number that JSON
can carry. A traced benchmark run of each workload, end to end in a
subprocess, must print a strict-JSON result line that carries every
metric.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_episode_and_final_checks_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ops = workloads.Ops()
    state = workload.setup(1, tmp_path)
    workload.episode(state, ops)
    workload.final_checks(state, ops)
    assert ops.attempted > 0
    assert ops.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_episode_yields_every_finite_metric(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ops = workloads.Ops()
    state = workload.setup(1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.episode(state, ops)
    finally:
        tracer.uninstall()
    assert ops.failed == 0
    assert tracer.missing == []
    metrics = layers.layer_metrics(spans.SpanStats(tracer.spans), tracer.counts,
                                   tracer.installed, 1)
    assert sorted(metrics) == sorted(m[0] for m in layers.LAYER_METRICS)
    assert [k for k, m in metrics.items() if not math.isfinite(m["value"])] == []
    json.dumps(metrics, allow_nan=False)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


# eval_mid's traced run takes about 8 s; it is the only workload whose
# trace wraps DecodeSession.step.
@pytest.mark.parametrize("name", ["pretrain_mid", "chat_small", "eval_mid"])
def test_traced_run_prints_every_metric(name):
    # --seconds below ~0.3 ends with "no episode completed": the reference
    # kernel runs before the first episode.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if "targets absent" in line]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["failed"] == 0
    expected = ([m[0] for m in layers.LAYER_METRICS] + [m[0] for m in layers.PHASE_METRICS]
                + ["trace.overhead_s"])
    assert len(expected) == 56
    assert sorted(result["metrics"]) == sorted(expected)
