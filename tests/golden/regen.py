"""Rewrite the golden files that tests/test_golden.py compares against.

Run from the repository root, only for a change that is meant to alter
the pipeline's outputs, and say in that change why they moved:

    python tests/golden/regen.py

It imports deskllm from the checkout it sits in, never from elsewhere.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_cli import _write_world  # noqa: E402
from test_golden import CASES, GOLDEN, run_case, snapshot  # noqa: E402


def write_golden(name: str, records: dict, tensors: dict[str, np.ndarray]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{name}.json").write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    np.savez_compressed(GOLDEN / f"{name}.npz", **tensors)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        world = Path(tmp)
        _write_world(world)
        for name in sorted(CASES):
            write_golden(name, *snapshot(run_case(world, name)))
            print(f"wrote {name}.json and {name}.npz")


if __name__ == "__main__":
    main()
