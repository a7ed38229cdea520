"""One episode and the final checks of every benchmark workload.

The benchmark in `perfbench/` drives deskllm only through its public
API (`Trainer.run`, `run_sft`, `dpo_train`, `evals.generate`, ...), so a
change that breaks that API fails here instead of in a benchmark run.
Operations are counted by the benchmark's own `Ops`. A traced episode
must also yield every per-layer metric, each a finite number that JSON
can carry.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
