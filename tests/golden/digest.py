"""Print the SHA-256 of every file the golden pipeline runs write.

Runs each case of tests/test_golden.py (pretrain -> sft -> dpo -> eval ->
generate) in a fresh temporary world and prints one JSON object mapping
"<case>/<path under the run directory>" to the hex digest of each file
under logs/, checkpoints/ and results/. Run it from the repository root
of two checkouts and compare the outputs to show that a change leaves
the pipeline's outputs byte for byte identical:

    python tests/golden/digest.py

It imports deskllm from the checkout it sits in, never from elsewhere.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from deskllm.runconfig import load_run_config  # noqa: E402
from test_cli import _write_world  # noqa: E402
from test_golden import CASES, run_case  # noqa: E402

OUTPUT_DIRS = ("logs", "checkpoints", "results")


def main() -> None:
    digests = {}
    # The commands print to stdout; send that to stderr to keep the JSON alone.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        world = Path(tmp)
        _write_world(world)
        for name in sorted(CASES):
            run_dir = load_run_config(run_case(world, name)).run_dir
            for sub in OUTPUT_DIRS:
                for path in sorted((run_dir / sub).rglob("*")):
                    if path.is_file():
                        key = f"{name}/{path.relative_to(run_dir).as_posix()}"
                        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
