"""One episode and the final checks of every benchmark workload.

The benchmark in `perfbench/` drives deskllm only through its public
API (`Trainer.run`, `run_sft`, `dpo_train`, `evals.generate`, ...), so a
change that breaks that API fails here instead of in a benchmark run.
Operations are counted by the benchmark's own `Ops`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
