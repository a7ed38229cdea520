"""Golden outputs of the command-line pipeline.

Two runs of pretrain -> sft -> dpo -> eval -> generate on the
`tests/test_cli.py` world are compared with files recorded under
`tests/golden/`: the `pipeline` fixture's f64 config, and an f32 config
with fp8 on, two SFT epochs and two DPO stages. Compared are every step
record, every eval record, the generated token ids and every checkpoint
tensor, by value. Ints, strings and ids must match exactly; floats must
agree to the case's tolerance. `tests/golden/regen.py` rewrites the files;
run it only for a change that is meant to alter these outputs.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from deskllm.checkpoint import load_checkpoint, load_model
from deskllm.cli import main
from deskllm.evals import generate
from deskllm.model import fp8_weights
from deskllm.runconfig import load_run_config
from deskllm.tokenizer import encode

from test_cli import _config_file, pipeline, world  # noqa: F401  (fixtures)

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("pretrain", "sft", "dpo", "eval", "generate")
STAGES = ("pretrain", "sft", "dpo")

# Config overrides of each case on top of test_cli._base_config, and its
# float tolerance (rtol, atol): |got - want| <= atol + rtol * |want|.
CASES = {
    "pipe": ({}, (1e-10, 1e-12)),
    # f32 with E4M3-rounded matmul operands. The bound admits f32 sums
    # taken in another order; it does not admit an operand moving across
    # an E4M3 rounding boundary, which shifts it by a whole E4M3 step.
    "fp8": ({"dtype": "f32", "fp8": True,
             "sft": {"lr": 1e-3, "batch_size": 2, "epochs": 2},
             "dpo": {"rank": 2, "batch_size": 2,
                     "stages": [{"preferences": "prefs.jsonl", "lr": 1e-3},
                                {"preferences": "prefs.jsonl", "lr": 5e-4,
                                 "epochs": 2}]}},
            (1e-5, 1e-7)),
}


def run_case(world, name: str) -> Path:
    """Run every command of case `name` in `world`; return the config path."""
    config = _config_file(world, name, **CASES[name][0])
    for command in COMMANDS:
        assert main([command, "--config", str(config)]) == 0, command
    return config


def snapshot(config: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The outputs of a finished run: JSON-able records and tensors."""
    cfg = load_run_config(config)
    run_dir = cfg.run_dir
    records = {"logs": {}, "extra": {}}
    tensors = {}
    for stage in STAGES:
        log = run_dir / "logs" / f"{stage}.jsonl"
        records["logs"][stage] = [json.loads(line) for line in log.read_text().splitlines()]
        ckpt = load_checkpoint(run_dir / "checkpoints" / f"{stage}.dkpt")
        records["extra"][stage] = ckpt.extra
        tensors.update({f"{stage}/{name}": arr for name, arr in ckpt.tensors.items()})
    eval_lines = (run_dir / "results" / "eval.jsonl").read_text().splitlines()
    records["eval"] = [json.loads(line) for line in eval_lines]
    plan, vocab = cfg.generate, cfg.load_vocab()
    model_config, params, _ = load_model(run_dir / "checkpoints" / "dpo.dkpt")
    weights = fp8_weights(params) if cfg.fp8 else params
    ids = generate(weights, model_config, np.array(encode(plan.prompt, vocab), dtype=np.int64),
                   max_new=plan.max_new, temperature=plan.temperature,
                   repetition_penalty=plan.repetition_penalty, seed=cfg.seed,
                   eos_id=vocab.eos_id)
    records["generated_ids"] = [int(i) for i in ids]
    records["generation"] = (run_dir / "results" / "generation.txt").read_text(encoding="utf-8")
    return records, tensors


def _compare(got, want, tol, where: str, out: list[str]) -> None:
    """Append to `out` one line per leaf of `got` that differs from `want`."""
    rtol, atol = tol
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            out.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
        for key in sorted(set(got) & set(want)):
            _compare(got[key], want[key], tol, f"{where}.{key}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{where}: length {len(got)} != {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, tol, f"{where}[{i}]", out)
    elif isinstance(want, float) and type(got) is float:
        if not abs(got - want) <= atol + rtol * abs(want):
            out.append(f"{where}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        out.append(f"{where}: {got!r} != {want!r}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, world, pipeline):  # noqa: F811
    config = pipeline["config"] if name == "pipe" else run_case(world, name)
    records, tensors = snapshot(config)
    tol = CASES[name][1]
    diffs: list[str] = []
    _compare(records, json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8")),
             tol, name, diffs)
    with np.load(GOLDEN / f"{name}.npz") as want:
        if set(tensors) != set(want.files):
            diffs.append(f"{name}: tensors {sorted(tensors)} != {sorted(want.files)}")
        for key in sorted(set(tensors) & set(want.files)):
            got, ref = tensors[key], want[key]
            if got.dtype != ref.dtype or got.shape != ref.shape:
                diffs.append(f"{key}: {got.dtype}{got.shape} != {ref.dtype}{ref.shape}")
            elif not np.allclose(got, ref, rtol=tol[0], atol=tol[1], equal_nan=False):
                worst = float(np.max(np.abs(got.astype(np.float64) - ref)))
                diffs.append(f"{key}: max abs diff {worst:.3e}")
    assert not diffs, "\n".join(diffs[:20])
