"""End-to-end tests for the config-driven command line.

A module-scoped fixture builds a miniature world (vocab, corpus, chats,
preference records, task file) and a config factory; the pipeline fixture
runs pretrain -> sft -> dpo -> eval -> generate once and later tests pick
over its outputs.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deskllm.chat import (Conversation, SftPlan, Turn, chat_vocab,
                          save_conversations)
from deskllm.checkpoint import load_model
from deskllm.cli import CliError, _pick_checkpoint, main
from deskllm.data import DataStage, Document, save_corpus, write_jsonl
from deskllm.dpo import DpoPlan, DpoStage, PreferenceStage
from deskllm.model import ModelConfig, count_params, forward
from deskllm.optim import LrSchedule, OptimHyper
from deskllm.pretrain import TrainPlan
from deskllm.runconfig import (DataPaths, EvalPlan, GeneratePlan, RemapPlan,
                               RunConfig, RunConfigError, load_run_config)
from deskllm.tensor import no_grad
from deskllm.tokenizer import Vocab, save_vocab

from modelutil import count_roundings, weight_roundings

WORDS = ("alpha", "bravo", "carbon", "delta", "ember", "falcon",
         "granite", "harbor", "indigo", "juniper")


def _docs(source: str, n: int, seed: int) -> list[Document]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        words = [WORDS[i] for i in rng.integers(0, len(WORDS), size=12)]
        out.append(Document(text=" ".join(words) + ".", source=source))
    return out


def _write_world(base) -> None:
    save_vocab(chat_vocab(), base / "vocab.txt")
    save_corpus(_docs("web", 30, seed=11) + _docs("wiki", 30, seed=12),
                base / "corpus.jsonl")
    save_corpus(_docs("web", 4, seed=13) + _docs("wiki", 4, seed=14),
                base / "val_corpus.jsonl")
    convs = [
        Conversation((Turn("user", f"say {w}"), Turn("assistant", w)))
        for w in WORDS[:6]
    ]
    save_conversations(convs, base / "sft.jsonl")
    prefs = [
        {"lang": "en",
         "prompt_turns": [{"role": "user", "text": f"pick {a} or {b}"}],
         "answers": [{"text": a, "rank": 0}, {"text": b, "rank": 1}]}
        for a, b in (("calm", "loud"), ("warm", "cold"),
                     ("soft", "hard"), ("slow", "fast"))
    ]
    prefs.append({"lang": "de",
                  "prompt_turns": [{"role": "user", "text": "egal"}],
                  "answers": [{"text": "ja", "rank": 0},
                              {"text": "nein", "rank": 1}]})
    write_jsonl(prefs, base / "prefs.jsonl")
    tasks = [
        {"question": "alpha or bravo", "choices": ["alpha", "bravo"], "gold": 0},
        {"question": "warm or cold", "choices": ["warm", "cold"], "gold": 1},
        {"question": "pick a word", "choices": ["ember", "delta"], "gold": 0,
         "exemplars": [["say calm", "calm"], ["say warm", "warm"]]},
        {"question": "say harbor", "answers": ["harbor"]},
        {"question": "say indigo", "answers": ["indigo"]},
    ]
    write_jsonl(tasks, base / "tasks.jsonl")


def _base_config(run_dir: str, seed: int = 0) -> dict:
    return {
        "run_dir": run_dir,
        "seed": seed,
        "dtype": "f64",
        "fp8": False,
        "model": {"hidden_size": 16, "intermediate_size": 32, "n_layers": 2,
                  "n_heads": 2, "n_kv_heads": 1, "vocab_size": 263,
                  "max_context": 64, "sliding_window": None},
        "data": {"corpus": "corpus.jsonl", "val_corpus": "val_corpus.jsonl",
                 "vocab": "vocab.txt", "bos_id": 256, "eos_id": 257,
                 "pad_id": 258, "sft": "sft.jsonl",
                 "preferences": "prefs.jsonl", "tasks": "tasks.jsonl"},
        "pretrain": {"stages": [{"token_budget": 1024, "seq_len": 32,
                                 "mix": {"web": 0.5, "wiki": 0.5}}],
                     "warmup_tokens": 128, "peak_lr": 1e-3, "min_lr": 1e-4,
                     "batch_sequences": 2},
        "sft": {"lr": 1e-3, "batch_size": 2, "epochs": 1},
        "dpo": {"rank": 2, "batch_size": 2,
                "stages": [{"preferences": "prefs.jsonl", "lr": 1e-3}]},
        "eval": {"k_shot": 0, "seq_len": 32, "max_new": 4},
        "generate": {"prompt": "alpha bravo", "max_new": 8,
                     "temperature": 0.0, "repetition_penalty": 1.1},
    }


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliworld")
    _write_world(base)
    return base


def _config_file(world, name: str, seed: int = 0, **overrides):
    doc = _base_config(name, seed=seed)
    doc.update(overrides)
    path = world / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(world):
    """Run the whole chain once in a shared run directory."""
    config = _config_file(world, "pipe")
    for command in ("pretrain", "sft", "dpo", "eval", "generate"):
        assert main([command, "--config", str(config)]) == 0, command
    return {"config": config, "run_dir": world / "pipe"}


def test_pipeline_outputs_exist(pipeline):
    run_dir = pipeline["run_dir"]
    for name in ("pretrain", "sft", "dpo"):
        assert (run_dir / "checkpoints" / f"{name}.dkpt").is_file()
        log = run_dir / "logs" / f"{name}.jsonl"
        records = [json.loads(line) for line in
                   log.read_text().splitlines()]
        assert records, name
        assert all("train_loss" in r and "step" in r for r in records)
    assert (run_dir / "results" / "eval.jsonl").is_file()
    assert (run_dir / "results" / "generation.txt").is_file()
    assert not (run_dir / ".lock").exists()


def test_pretrain_log_covers_budget(pipeline):
    log = pipeline["run_dir"] / "logs" / "pretrain.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records[-1]["tokens_seen"] >= 1024
    assert all(r["seq_len"] == 32 for r in records)
    assert [r["step"] for r in records] == list(range(1, len(records) + 1))


def test_eval_results_schema(pipeline):
    lines = (pipeline["run_dir"] / "results"
             / "eval.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert "aggregate" in records[-1]
    agg = records[-1]["aggregate"]
    for key in ("acc", "acc_norm", "n_mc", "em", "n_em", "ppl"):
        assert key in agg, key
    assert agg["n_mc"] == 3 and agg["n_em"] == 2
    assert agg["ppl"] > 1.0 and np.isfinite(agg["ppl"])
    per_task = records[:-1]
    assert len(per_task) == 5


def test_generate_reruns_bit_identical(world, pipeline):
    out = pipeline["run_dir"] / "results" / "generation.txt"
    first = out.read_bytes()
    assert main(["generate", "--config", str(pipeline["config"])]) == 0
    assert out.read_bytes() == first
    assert main(["generate", "--config", str(pipeline["config"])]) == 0
    assert out.read_bytes() == first


def test_pretrain_rerun_reproduces_log(world):
    config_a = _config_file(world, "rerun_a")
    config_b = _config_file(world, "rerun_b")
    assert main(["pretrain", "--config", str(config_a)]) == 0
    log_a = (world / "rerun_a" / "logs" / "pretrain.jsonl").read_bytes()
    assert main(["pretrain", "--config", str(config_a)]) == 0
    assert (world / "rerun_a" / "logs"
            / "pretrain.jsonl").read_bytes() == log_a
    assert main(["pretrain", "--config", str(config_b)]) == 0
    assert (world / "rerun_b" / "logs"
            / "pretrain.jsonl").read_bytes() == log_a


def test_seed_flag_overrides_config(world):
    config = _config_file(world, "seeded")
    assert main(["pretrain", "--config", str(config)]) == 0
    log_default = (world / "seeded" / "logs"
                   / "pretrain.jsonl").read_bytes()
    assert main(["pretrain", "--config", str(config), "--seed", "1"]) == 0
    log_seeded = (world / "seeded" / "logs" / "pretrain.jsonl").read_bytes()
    assert log_seeded != log_default


def test_invalid_config_reports_every_violation(world, capsys):
    bad = {"run_dir": "", "seed": -1, "dtype": "f16", "fp8": "yes",
           "model": {"hidden_size": 16},
           "data": {"vocab": "missing.txt", "bogus": 1},
           "pretrain": {"stages": []},
           "mystery": {}}
    path = world / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    for fragment in ("run_dir", "seed", "dtype", "fp8", "model:",
                     "data.vocab", "data.bogus", "pretrain.stages",
                     "config.mystery"):
        assert fragment in err, fragment
    assert len([line for line in err.splitlines() if line.strip()]) >= 9


def test_invalid_json_rejected(world, capsys):
    path = world / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_future_checkpoints_do_not_block_validation(world, capsys):
    """Checkpoint keys may name outputs of later commands in the run.

    A single config describing the whole pipeline references checkpoints
    that do not exist before the earlier commands have run, so validation
    only type-checks them; existence is enforced when a command actually
    opens its checkpoint.
    """
    config = _config_file(
        world, "future", seed=0,
        remap={"checkpoint": "future/checkpoints/pretrain.dkpt",
               "new_vocab": "vocab.txt", "bos_id": 256, "eos_id": 257,
               "pad_id": 258},
        eval={"checkpoint": "future/checkpoints/sft.dkpt", "k_shot": 0,
              "seq_len": 32, "max_new": 4})
    cfg = load_run_config(config)
    assert cfg.remap.checkpoint == "future/checkpoints/pretrain.dkpt"
    assert main(["pretrain", "--config", str(config)]) == 0
    capsys.readouterr()
    # Use time still rejects a checkpoint that never appeared.
    assert main(["eval", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "no such checkpoint" in err and "sft.dkpt" in err
    # A non-string checkpoint is still a validation error.
    doc = _base_config("future_bad")
    doc["remap"] = {"checkpoint": 7, "new_vocab": "vocab.txt"}
    path = world / "future_bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    assert "remap.checkpoint: expected a path string" in capsys.readouterr().err


def test_missing_config_file(world, capsys):
    assert main(["eval", "--config", str(world / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_load_run_config_resolves_and_overrides(world):
    config = _config_file(world, "resolve_me")
    cfg = load_run_config(config)
    assert cfg.run_dir == (world / "resolve_me").resolve()
    assert cfg.data_path("corpus") == (world / "corpus.jsonl").resolve()
    assert cfg.seed == 0
    assert load_run_config(config, seed_override=7).seed == 7
    with pytest.raises(RunConfigError):
        load_run_config(config, seed_override=-3)


def test_lock_blocks_and_is_not_stolen(world, capsys):
    config = _config_file(world, "locked")
    run_dir = world / "locked"
    run_dir.mkdir()
    lock = run_dir / ".lock"
    lock.write_text("12345\n", encoding="utf-8")
    assert main(["pretrain", "--config", str(config)]) == 1
    assert "locked" in capsys.readouterr().err
    assert lock.is_file(), "a foreign lock must not be removed"
    lock.unlink()
    assert main(["pretrain", "--config", str(config)]) == 0
    assert not lock.exists()


def test_lock_released_after_runtime_failure(world, capsys):
    config = _config_file(world, "failing")
    assert main(["sft", "--config", str(config)]) == 1
    assert "no checkpoint found" in capsys.readouterr().err
    assert not (world / "failing" / ".lock").exists()


def test_lock_released_when_an_output_folder_cannot_be_made(world, capsys):
    config = _config_file(world, "blocked_logs")
    (world / "blocked_logs").mkdir()
    (world / "blocked_logs" / "logs").write_text("not a folder", encoding="utf-8")
    assert main(["sft", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: FileExistsError:")
    assert not (world / "blocked_logs" / ".lock").exists()


def test_malformed_corpus_record_reported_with_file_and_line(world, capsys):
    lines = ['{"text": "a b c", "source": "web"}', '{"text": "d e f"}']
    (world / "bad_corpus.jsonl").write_text("\n".join(lines) + "\n")
    data = dict(_base_config("bad_corpus")["data"], corpus="bad_corpus.jsonl")
    config = _config_file(world, "bad_corpus", data=data)
    assert main(["pretrain", "--config", str(config)]) == 1
    assert "bad_corpus.jsonl:2: missing field 'source'" in capsys.readouterr().err


def test_checkpoint_chain_order(world, tmp_path):
    run_dir = tmp_path / "chain"
    (run_dir / "checkpoints").mkdir(parents=True)
    cfg = RunConfig(base_dir=world, run_dir=run_dir, seed=0, dtype="f64",
                    fp8=False, model=ModelConfig(16, 32, 1, 2, 1, 263),
                    data=DataPaths(vocab="vocab.txt"))
    for name in ("pretrain", "sft", "dpo"):
        (run_dir / "checkpoints" / f"{name}.dkpt").write_bytes(b"x")
    assert _pick_checkpoint(cfg, "eval").name == "dpo.dkpt"
    assert _pick_checkpoint(cfg, "dpo").name == "sft.dkpt"
    assert _pick_checkpoint(cfg, "sft").name == "pretrain.dkpt"
    (run_dir / "checkpoints" / "dpo.dkpt").unlink()
    assert _pick_checkpoint(cfg, "eval").name == "sft.dkpt"
    (run_dir / "checkpoints" / "sft.dkpt").unlink()
    assert _pick_checkpoint(cfg, "eval").name == "pretrain.dkpt"
    (run_dir / "checkpoints" / "pretrain.dkpt").unlink()
    with pytest.raises(CliError):
        _pick_checkpoint(cfg, "eval")
    explicit = dataclasses.replace(cfg, eval=EvalPlan(checkpoint="ghost.dkpt"))
    with pytest.raises(CliError):
        _pick_checkpoint(explicit, "eval")
    (world / "real.dkpt").write_bytes(b"x")
    explicit = dataclasses.replace(cfg, eval=EvalPlan(checkpoint="real.dkpt"))
    assert _pick_checkpoint(explicit, "eval") == (world / "real.dkpt").resolve()


def test_remap_checkpoint_loads_with_new_vocab(world, pipeline, capsys):
    tokens = [bytes([i]) for i in range(256)]
    tokens += [b"<|bos|>", b"<|eos|>", b"<|pad|>"]
    tokens += [b"<|system|>", b"<|user|>", b"<|assistant|>", b"<|end|>"]
    tokens += [b"alpha", b"bravo", b"zulu"]
    save_vocab(Vocab(tokens), world / "newvocab.txt")
    config = _config_file(
        world, "remap_run",
        remap={"checkpoint": "pipe/checkpoints/pretrain.dkpt",
               "new_vocab": "newvocab.txt",
               "bos_id": 256, "eos_id": 257, "pad_id": 258})
    assert main(["remap", "--config", str(config)]) == 0
    assert "263 -> 266" in capsys.readouterr().out
    model_config, params, extra = load_model(
        world / "remap_run" / "checkpoints" / "remap.dkpt")
    assert model_config.vocab_size == 266
    assert extra["matched_tokens"] == 263
    assert params.token_embedding.data.shape == (266, 16)
    with no_grad():
        logits = forward(params, np.array([0, 263, 264, 265]), model_config)
    assert np.all(np.isfinite(logits.data))
    # Carried-over rows are bitwise identical to the source model's.
    _, old_params, _ = load_model(
        world / "pipe" / "checkpoints" / "pretrain.dkpt")
    np.testing.assert_array_equal(params.token_embedding.data[:263],
                                  old_params.token_embedding.data)


def test_inspect_reports_parameter_count(pipeline, capsys):
    path = pipeline["run_dir"] / "checkpoints" / "pretrain.dkpt"
    assert main(["inspect", "--checkpoint", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    config = ModelConfig(**info["config"])
    assert info["n_model_params"] == count_params(config)
    assert info["config_params"] == count_params(config)
    names = {t["name"] for t in info["tensors"]}
    assert "token_embedding" in names and "lm_head" in names
    assert any(name.startswith("optim.m.") for name in names)


def test_inspect_missing_file(capsys, tmp_path):
    assert main(["inspect", "--checkpoint", str(tmp_path / "no.dkpt")]) == 1
    assert "no such checkpoint" in capsys.readouterr().err


def _corrupt(source, path, how):
    data = bytearray(source.read_bytes())
    if how == "bad_magic":
        data[:4] = b"NOPE"
    elif how == "truncated":
        del data[len(data) // 2:]
    else:  # flip one payload byte
        data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    return path


CORRUPT = {"bad_magic": "not a checkpoint (bad magic or truncated)",
           "truncated": "checksum mismatch", "flipped": "checksum mismatch"}


@pytest.mark.parametrize("how", sorted(CORRUPT))
def test_inspect_corrupt_file_is_one_error_line(pipeline, capsys, tmp_path, how):
    """inspect reports a damaged checkpoint the way every command reports a failure."""
    path = _corrupt(pipeline["run_dir"] / "checkpoints" / "pretrain.dkpt",
                    tmp_path / f"{how}.dkpt", how)
    assert main(["inspect", "--checkpoint", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: CheckpointError: {path}: {CORRUPT[how]}"]


def test_module_entry_point_corrupt_file_no_traceback(pipeline, tmp_path):
    path = _corrupt(pipeline["run_dir"] / "checkpoints" / "pretrain.dkpt",
                    tmp_path / "bad_magic.dkpt", "bad_magic")
    proc = subprocess.run(
        [sys.executable, "-m", "deskllm.cli", "inspect", "--checkpoint", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: CheckpointError:")


def test_argparse_contract():
    with pytest.raises(SystemExit) as exc:
        main(["pretrain"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "deskllm.cli", "inspect",
         "--checkpoint", str(tmp_path / "absent.dkpt")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "no such checkpoint" in proc.stderr


def test_broken_stdout_pipe_is_quiet(pipeline):
    """inspect piped into head must not spray tracebacks or exit 120."""
    checkpoint = pipeline["run_dir"] / "checkpoints" / "pretrain.dkpt"
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "deskllm.cli", "inspect",
             "--checkpoint", str(checkpoint)],
            stdout=write_fd, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_fd)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_fp8_commands_round_each_weight_once(world, pipeline, monkeypatch):
    # eval scores 3 MC tasks, 2 EM tasks and a perplexity; all share one rounding
    ckpt = "pipe/checkpoints/pretrain.dkpt"
    config = _config_file(
        world, "fp8_once", fp8=True,
        eval={"checkpoint": ckpt, "k_shot": 0, "seq_len": 32, "max_new": 4},
        generate={"checkpoint": ckpt, "prompt": "alpha bravo", "max_new": 8})
    _, params, _ = load_model(world / ckpt)
    rounded = count_roundings(monkeypatch)
    for command in ("eval", "generate"):
        rounded.clear()
        assert main([command, "--config", str(config)]) == 0
        counts = weight_roundings(rounded, params)
        assert len(counts) == 14 and set(counts.values()) == {1}, (command, counts)


def test_generate_requires_prompt(world, capsys):
    config = _config_file(world, "noprompt", generate={"max_new": 4})
    (world / "noprompt" / "checkpoints").mkdir(parents=True, exist_ok=True)
    assert main(["generate", "--config", str(config)]) == 1
    assert "generate.prompt" in capsys.readouterr().err


def test_dpo_language_filter_applied(pipeline):
    # 5 preference records, one German: 4 usable pairs, batch 2, 1 stage.
    log = pipeline["run_dir"] / "logs" / "dpo.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["stage"] == 0 for r in records)
    assert all(np.isfinite(r["train_loss"]) for r in records)


# The keys each section accepted when sections were raw dicts checked
# against hand-written key tuples. The loader now derives them from the
# section dataclasses' fields; this pins that no option was added or lost.
ACCEPTED_KEYS = {
    "config": {"run_dir", "seed", "dtype", "fp8", "model", "data",
               "pretrain", "sft", "dpo", "eval", "generate", "remap"},
    "data": {"corpus", "val_corpus", "vocab", "merges", "bos_id", "eos_id",
             "pad_id", "sft", "preferences", "tasks"},
    "pretrain": {"stages", "warmup_tokens", "total_tokens", "peak_lr",
                 "min_lr", "batch_sequences", "weight_decay", "clip_norm",
                 "max_steps", "val_every", "val_batches"},
    "pretrain.stages[0]": {"token_budget", "seq_len", "mix"},
    "sft": {"lr", "batch_size", "epochs", "warmup_fraction",
            "min_lr_fraction", "init_checkpoint"},
    "dpo": {"beta", "rank", "alpha", "batch_size", "stages",
            "init_checkpoint"},
    "dpo.stages[0]": {"preferences", "lr", "epochs"},
    "eval": {"checkpoint", "k_shot", "seq_len", "max_new"},
    "generate": {"checkpoint", "prompt", "max_new", "temperature",
                 "repetition_penalty"},
    "remap": {"checkpoint", "new_vocab", "new_merges", "bos_id", "eos_id",
              "pad_id", "seed"},
}


def test_section_keys_are_pinned(world):
    """Every field of every config dataclass is offered to every section;
    exactly the keys outside that section's pinned set are unknown."""
    classes = (RunConfig, ModelConfig, DataPaths, TrainPlan, LrSchedule,
               OptimHyper, DataStage, SftPlan, DpoPlan, PreferenceStage,
               DpoStage, EvalPlan, GeneratePlan, RemapPlan)
    offered = {"bogus"} | {f.name for cls in classes
                           for f in dataclasses.fields(cls)}

    def section(where):
        return dict.fromkeys(offered | ACCEPTED_KEYS[where], 0)

    doc = section("config")
    doc.update(run_dir="keys", seed=0, dtype="f64", fp8=False,
               model=_base_config("keys")["model"])
    for name in ("data", "pretrain", "sft", "dpo", "eval", "generate",
                 "remap"):
        doc[name] = section(name)
    doc["pretrain"]["stages"] = [section("pretrain.stages[0]")]
    doc["dpo"]["stages"] = [section("dpo.stages[0]")]
    path = world / "keys.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(RunConfigError) as exc:
        load_run_config(path)
    unknown: dict[str, set[str]] = {}
    for line in exc.value.violations:
        if line.endswith(": unknown key"):
            where, key = line.removesuffix(": unknown key").rsplit(".", 1)
            unknown.setdefault(where, set()).add(key)
    assert unknown == {where: offered - keys
                       for where, keys in ACCEPTED_KEYS.items()}


def _set(doc, dotted, value):
    *parents, key = dotted.split(".")
    for part in parents:
        doc = doc[part][0] if part == "stages" else doc[part]
    doc[key] = value


@pytest.mark.parametrize("key, value", [
    ("sft.batch_size", 2.0), ("sft.batch_size", True), ("sft.epochs", 1.0),
    ("dpo.rank", 2.0), ("dpo.batch_size", 2.0), ("dpo.batch_size", False),
    ("dpo.stages.epochs", 1.0), ("pretrain.batch_sequences", 2.0),
    ("pretrain.max_steps", 3.0), ("pretrain.val_every", True),
    ("pretrain.val_batches", 2.0), ("pretrain.stages.seq_len", 32.0),
    ("eval.k_shot", 0.0), ("eval.max_new", 4.0), ("generate.max_new", 8.0),
    ("remap.seed", 1.0), ("data.eos_id", 257.0),
])
def test_int_fields_reject_floats_and_bools(world, capsys, key, value):
    doc = _base_config("intkeys")
    doc["remap"] = {}
    _set(doc, key, value)
    path = world / "intkeys.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    where = key.replace(".stages.", ".stages[0].")
    assert re.search(rf"^  {re.escape(where)}: expected an int",
                     capsys.readouterr().err, re.M)


@pytest.mark.parametrize("key, value, expected", [
    ("model.rope_theta", "x", "a positive number"),
    ("model.norm_eps", 0, "a positive number"),
    ("model.init_std", [], "a positive number"),
    ("model.n_layers", 0, "an int >= 1"),
    ("model.sliding_window", 0, "an int >= 1 or null"),
    ("pretrain.max_steps", -3, "an int >= 1 or null"),
    ("pretrain.max_steps", 0, "an int >= 1 or null"),
    ("pretrain.val_batches", 0, "an int >= 1"),
])
def test_out_of_range_fields_rejected(world, capsys, key, value, expected):
    doc = _base_config("ranges")
    _set(doc, key, value)
    path = world / "ranges.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["invalid run config:",
                   f"  {key}: expected {expected}, got {value!r}"]
    assert not (world / "ranges").exists()


@pytest.mark.parametrize("key, value, line", [
    ("data.eos_id", -1, "data.eos_id: expected an int >= 0 or null, got -1"),
    ("remap.seed", -4, "remap.seed: expected an int >= 0 or null, got -4"),
    ("pretrain.stages.seq_len", 65,
     "pretrain.stages[0].seq_len: expected an int <= model.max_context (64), got 65"),
], ids=["eos_id", "remap_seed", "stage_seq_len"])
def test_values_the_run_would_reject_fail_at_load(world, capsys, key, value, line):
    doc = _base_config("runtime")
    doc["remap"] = {}
    _set(doc, key, value)
    path = world / "runtime.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["invalid run config:", f"  {line}"]
    assert not (world / "runtime").exists()


def test_pretrain_without_eos_id_fails_at_load(world, capsys):
    doc = _base_config("no_eos")
    doc["data"]["eos_id"] = None
    path = world / "no_eos.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid run config:",
        "  data.eos_id: pretrain needs an eos id to pack documents, got null"]
    assert not (world / "no_eos").exists()


@pytest.mark.parametrize("case", ["seq_len", "eos_id"])
def test_eval_rejects_what_perplexity_cannot_run_before_scoring(
        world, pipeline, capsys, monkeypatch, case):
    """A perplexity eval that cannot run fails before any task is scored."""
    def never(*args, **kwargs):
        raise AssertionError("a task was scored")

    monkeypatch.setattr("deskllm.cli.evaluate_tasks", never)
    monkeypatch.setattr("deskllm.cli.evaluate_em_tasks", never)
    name = f"eval_{case}"
    doc = _base_config(name)
    doc["eval"] = {"checkpoint": "pipe/checkpoints/pretrain.dkpt", "seq_len": 32}
    if case == "seq_len":
        doc["eval"]["seq_len"] = 65
        line = "error: eval: eval.seq_len 65 exceeds the checkpoint's max_context 64"
    else:
        del doc["pretrain"]  # a pretrain section needs an eos id at load
        doc["data"]["eos_id"] = None
        line = "error: eval: perplexity needs data.eos_id"
    path = world / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not (world / name / "results" / "eval.jsonl").exists()


@pytest.mark.parametrize("key, value", [
    ("tie_embeddings", "false"), ("tie_embeddings", False), ("use_bias", False),
])
def test_removed_model_flags_are_unknown_keys(world, capsys, key, value):
    doc = _base_config("flags")
    doc["model"][key] = value
    path = world / "flags.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["pretrain", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["invalid run config:",
                                                    f"  model.{key}: unknown key"]
    assert not (world / "flags").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literals_rejected(world, capsys, literal):
    path = world / "nonfinite.json"
    text = json.dumps(_base_config("nonfinite"))
    path.write_text(text.replace('"lr": 0.001', f'"lr": {literal}', 1),
                    encoding="utf-8")
    assert literal in path.read_text(encoding="utf-8")
    assert main(["sft", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "invalid run config:"
    assert len(err) == 2 and "config is not valid JSON" in err[1]


def test_remap_null_seed_is_the_run_seed(world, pipeline):
    tokens = [bytes([i]) for i in range(256)] + [b"quartz", b"yonder"]
    save_vocab(Vocab(tokens), world / "nullseed_vocab.txt")
    outputs = []
    for name, extra in (("null_a", {"seed": None}), ("null_b", {"seed": None}),
                        ("absent", {})):
        config = _config_file(
            world, f"remap_{name}",
            remap={"checkpoint": "pipe/checkpoints/pretrain.dkpt",
                   "new_vocab": "nullseed_vocab.txt", **extra})
        assert main(["remap", "--config", str(config)]) == 0
        outputs.append((world / f"remap_{name}" / "checkpoints"
                        / "remap.dkpt").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_dpo_without_stages_trains_on_data_preferences(world, pipeline):
    """No dpo.stages means one stage on data.preferences at lr 1e-5."""
    logs = []
    for name, stages in (("fallback", None),
                         ("explicit", [{"preferences": "prefs.jsonl",
                                        "lr": 1e-5}])):
        dpo = {"rank": 2, "batch_size": 2,
               "init_checkpoint": "pipe/checkpoints/sft.dkpt"}
        if stages is not None:
            dpo["stages"] = stages
        config = _config_file(world, f"dpo_{name}", dpo=dpo)
        assert main(["dpo", "--config", str(config)]) == 0
        logs.append((world / f"dpo_{name}" / "logs"
                     / "dpo.jsonl").read_bytes())
    assert logs[0] and logs[0] == logs[1]


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1]
              / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A complete config.*?```json\n(.*?)```", readme, re.S)
    doc = json.loads(block.group(1))
    named = [v for k, v in doc["data"].items() if not k.endswith("_id")]
    named += [stage["preferences"] for stage in doc["dpo"].get("stages", ())]
    for name in named:
        (tmp_path / name).touch()
    path = tmp_path / "run.json"
    path.write_text(block.group(1), encoding="utf-8")
    cfg = load_run_config(path)
    assert cfg.run_dir == (tmp_path / doc["run_dir"]).resolve()
    assert cfg.sft.lr == doc["sft"]["lr"]
    assert cfg.generate.prompt == doc["generate"]["prompt"]
