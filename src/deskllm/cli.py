"""Command-line entry point: one config file per run, flags select and seed.

Subcommands: pretrain, sft, dpo, remap, eval, generate, inspect. All but
inspect take `--config FILE` (and an optional `--seed N` override); the
config file owns every other knob. Outputs land under the config's
`run_dir`::

    run_dir/
      .lock                   held while a command is running
      logs/<command>.jsonl    one JSON record per step
      checkpoints/<stage>.dkpt
      results/eval.jsonl      per-task records, aggregate line last
      results/generation.txt

Checkpoints chain by stage name: sft starts from pretrain.dkpt, dpo from
sft.dkpt (falling back to pretrain.dkpt), and eval/generate pick the most
aligned checkpoint present (dpo, then sft, then pretrain) unless the
config names one explicitly. Exit codes: 0 success, 2 config rejected,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .checkpoint import (inspect_checkpoint, load_model,
                         save_model_checkpoint)
from .chat import SftPlan, load_conversations, run_sft
from .data import load_corpus
from .dpo import DpoPlan, DpoStage, dpo_train, load_preference_pairs, lora_merge
from .evals import (evaluate_em_tasks, evaluate_tasks, generate_text,
                    load_tasks, perplexity, save_results)
from .model import fp8_weights, init_params
from .pretrain import Trainer
from .runconfig import (EvalPlan, RunConfig, RunConfigError, group_by_source,
                        load_run_config)
from .tensor import no_grad
from .tokenizer import encode, load_vocab

CHECKPOINT_ORDER = {
    "sft": ("pretrain",),
    "dpo": ("sft", "pretrain"),
    "remap": ("pretrain",),
    "eval": ("dpo", "sft", "pretrain"),
    "generate": ("dpo", "sft", "pretrain"),
}


class CliError(RuntimeError):
    """A command cannot proceed; the message is printed to stderr."""


def _checkpoint_dir(cfg: RunConfig) -> Path:
    return cfg.run_dir / "checkpoints"


def _prepare_run_dir(cfg: RunConfig) -> None:
    for sub in ("logs", "checkpoints", "results"):
        (cfg.run_dir / sub).mkdir(parents=True, exist_ok=True)


def _log_path(cfg: RunConfig, command: str) -> Path:
    # Step logs append record by record; start each run from an empty
    # file so a rerun reproduces the log byte for byte.
    path = cfg.run_dir / "logs" / f"{command}.jsonl"
    path.unlink(missing_ok=True)
    return path


def _acquire_lock(run_dir: Path) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    lock = run_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CliError(
            f"run directory is locked by another command: {lock} "
            f"(remove the file if the owner is gone)") from None
    with os.fdopen(fd, "w") as f:
        f.write(f"{os.getpid()}\n")
    return lock


def _pick_checkpoint(cfg: RunConfig, command: str) -> Path:
    """Explicit checkpoint from the config, else walk the stage chain."""
    key = "init_checkpoint" if command in ("sft", "dpo") else "checkpoint"
    explicit = getattr(getattr(cfg, command), key, None)
    if explicit is not None:
        path = cfg.resolve(explicit)
        if not path.is_file():
            raise CliError(f"{command}.{key}: no such checkpoint: {path}")
        return path
    for stage in CHECKPOINT_ORDER[command]:
        path = _checkpoint_dir(cfg) / f"{stage}.dkpt"
        if path.is_file():
            return path
    names = ", ".join(f"{s}.dkpt" for s in CHECKPOINT_ORDER[command])
    raise CliError(
        f"{command}: no checkpoint found under {_checkpoint_dir(cfg)} "
        f"(looked for {names}); run the earlier stages or set "
        f"{command}.{key}")


def _inference_model(cfg: RunConfig, command: str):
    config, params, _ = load_model(_pick_checkpoint(cfg, command))
    with no_grad():  # with fp8, one rounding serves the whole command
        return config, fp8_weights(params) if cfg.fp8 else params


def _require(command: str, condition: bool, message: str) -> None:
    if not condition:
        raise CliError(f"{command}: {message}")


def cmd_pretrain(cfg: RunConfig) -> int:
    _require("pretrain", cfg.pretrain is not None, "config has no pretrain section")
    _require("pretrain", cfg.data.corpus is not None, "data.corpus is required")
    vocab = cfg.load_vocab()
    sources = group_by_source(load_corpus(cfg.data_path("corpus")))
    val_path = cfg.data_path("val_corpus")
    val_sources = (group_by_source(load_corpus(val_path))
                   if val_path is not None else None)
    params = init_params(cfg.model, seed=cfg.seed, dtype=cfg.dtype)
    trainer = Trainer(params, cfg.model, cfg.pretrain, sources, vocab,
                      val_sources=val_sources,
                      log_path=_log_path(cfg, "pretrain"))
    records = trainer.run()
    out = _checkpoint_dir(cfg) / "pretrain.dkpt"
    save_model_checkpoint(out, params, cfg.model, optimizer=trainer.opt,
                          extra={"stage": "pretrain",
                                 "tokens_seen": trainer.tokens_seen})
    last = records[-1]["train_loss"] if records else float("nan")
    print(f"pretrain: {len(records)} steps, {trainer.tokens_seen} tokens, "
          f"final train_loss {last:.6f}, checkpoint {out}")
    return 0


def cmd_sft(cfg: RunConfig) -> int:
    _require("sft", cfg.data.sft is not None, "data.sft (conversations file) is required")
    vocab = cfg.load_vocab()
    config, params, _ = load_model(_pick_checkpoint(cfg, "sft"))
    conversations = load_conversations(cfg.data_path("sft"))
    plan = cfg.sft or SftPlan(seed=cfg.seed)
    records = run_sft(params, config, conversations, vocab, plan,
                      log_path=_log_path(cfg, "sft"))
    out = _checkpoint_dir(cfg) / "sft.dkpt"
    save_model_checkpoint(out, params, config, extra={"stage": "sft"})
    last = records[-1]["train_loss"] if records else float("nan")
    print(f"sft: {len(records)} steps over {len(conversations)} "
          f"conversations, final train_loss {last:.6f}, checkpoint {out}")
    return 0


def _dpo_stages(cfg: RunConfig, plan: DpoPlan) -> list[DpoStage]:
    stages = []
    for entry in plan.stages:
        path = (cfg.data.preferences if entry.preferences is None
                else entry.preferences)
        _require("dpo", path is not None, "either dpo.stages or data.preferences is required")
        pairs = load_preference_pairs(cfg.resolve(path))
        _require("dpo", bool(pairs), f"no usable preference pairs in {path}")
        stages.append(DpoStage(pairs=tuple(pairs), lr=entry.lr,
                               epochs=entry.epochs))
    return stages


def cmd_dpo(cfg: RunConfig) -> int:
    vocab = cfg.load_vocab()
    config, params, _ = load_model(_pick_checkpoint(cfg, "dpo"))
    plan = cfg.dpo or DpoPlan(seed=cfg.seed)
    stages = _dpo_stages(cfg, plan)
    adapters, records = dpo_train(params, config, stages, vocab, plan,
                                  log_path=_log_path(cfg, "dpo"))
    merged = lora_merge(params, adapters)
    out = _checkpoint_dir(cfg) / "dpo.dkpt"
    save_model_checkpoint(out, merged, config, extra={"stage": "dpo"})
    last = records[-1]["train_loss"] if records else float("nan")
    n_pairs = sum(len(stage.pairs) for stage in stages)
    print(f"dpo: {len(records)} steps over {n_pairs} pairs in "
          f"{len(stages)} stage(s), final train_loss {last:.6f}, "
          f"checkpoint {out}")
    return 0


def cmd_remap(cfg: RunConfig) -> int:
    from .tokenizer import remap_embeddings

    plan = cfg.remap
    _require("remap", plan is not None and plan.new_vocab is not None,
             "remap.new_vocab is required")
    old_vocab = cfg.load_vocab()
    new_vocab = load_vocab(
        cfg.resolve(plan.new_vocab),
        merges_path=(cfg.resolve(plan.new_merges)
                     if plan.new_merges is not None else None),
        bos_id=plan.bos_id, eos_id=plan.eos_id, pad_id=plan.pad_id)
    config, params, _ = load_model(_pick_checkpoint(cfg, "remap"))
    embedding, head, matched = remap_embeddings(
        old_vocab, new_vocab, params.token_embedding, params.lm_head,
        init_std=config.init_std,
        seed=cfg.seed if plan.seed is None else plan.seed)
    new_config = dataclasses.replace(config, vocab_size=len(new_vocab))
    new_params = dataclasses.replace(params, token_embedding=embedding,
                                     lm_head=head)
    out = _checkpoint_dir(cfg) / "remap.dkpt"
    save_model_checkpoint(out, new_params, new_config,
                          extra={"stage": "remap",
                                 "matched_tokens": matched})
    print(f"remap: vocabulary {len(old_vocab)} -> {len(new_vocab)}, "
          f"{matched} token vectors carried over, checkpoint {out}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    plan = cfg.eval or EvalPlan()
    tasks_path = cfg.data_path("tasks")
    val_path = cfg.data_path("val_corpus")
    _require("eval", tasks_path is not None or val_path is not None,
             "needs data.tasks and/or data.val_corpus")
    vocab = cfg.load_vocab()
    config, params = _inference_model(cfg, "eval")

    records: list[dict] = []
    aggregates: dict = {}
    if tasks_path is not None:
        mc_tasks, em_tasks = load_tasks(tasks_path)
        if mc_tasks:
            mc_records, mc_agg = evaluate_tasks(params, config, mc_tasks, vocab,
                                                k=plan.k_shot, seed=cfg.seed)
            records.extend(mc_records)
            aggregates.update(acc=mc_agg["acc"], acc_norm=mc_agg["acc_norm"],
                              n_mc=mc_agg["n_tasks"])
        if em_tasks:
            em_records, em_agg = evaluate_em_tasks(params, config, em_tasks, vocab,
                                                   max_new=plan.max_new)
            records.extend(em_records)
            aggregates.update(em=em_agg["em"], n_em=em_agg["n_tasks"])
    if val_path is not None:
        seq_len = (min(256, config.max_context) if plan.seq_len is None
                   else plan.seq_len)
        token_docs = [encode(doc.text, vocab)
                      for doc in load_corpus(val_path)]
        aggregates["ppl"] = perplexity(params, config, token_docs, seq_len, vocab.eos_id)

    out = cfg.run_dir / "results" / "eval.jsonl"
    save_results(records, aggregates, out)
    print(json.dumps({"results": str(out), **aggregates}, sort_keys=True))
    return 0


def cmd_generate(cfg: RunConfig) -> int:
    plan = cfg.generate
    _require("generate", plan is not None and plan.prompt is not None,
             "generate.prompt is required")
    vocab = cfg.load_vocab()
    config, params = _inference_model(cfg, "generate")
    text = generate_text(params, config, plan.prompt, vocab, max_new=plan.max_new,
                         temperature=plan.temperature,
                         repetition_penalty=plan.repetition_penalty, seed=cfg.seed)
    out = cfg.run_dir / "results" / "generation.txt"
    out.write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_inspect(checkpoint: str) -> int:
    path = Path(checkpoint)
    if not path.is_file():
        raise CliError(f"inspect: no such checkpoint: {path}")
    info = inspect_checkpoint(path)
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


COMMANDS = {
    "pretrain": cmd_pretrain,
    "sft": cmd_sft,
    "dpo": cmd_dpo,
    "remap": cmd_remap,
    "eval": cmd_eval,
    "generate": cmd_generate,
}

_HELP = {
    "pretrain": "train a fresh model through the staged token budget",
    "sft": "supervised fine-tuning on chat conversations",
    "dpo": "preference tuning with low-rank adapters",
    "remap": "swap the vocabulary, carrying shared token vectors over",
    "eval": "score task files and/or corpus perplexity",
    "generate": "decode a completion for the configured prompt",
    "inspect": "print a checkpoint's config and tensor table",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskllm",
        description="byte-level decoder LM pipeline driven by run configs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True,
                       help="run config file (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
    p = sub.add_parser("inspect", help=_HELP["inspect"])
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint file to describe")
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (inspect piped into head, a pager quit).
        # Point stdout at devnull so the interpreter's exit flush does not
        # raise again, and fail quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "inspect":
        try:
            return cmd_inspect(args.checkpoint)
        except CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        cfg = load_run_config(args.config, seed_override=args.seed)
    except RunConfigError as exc:
        print("invalid run config:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2

    lock = None
    try:
        lock = _acquire_lock(cfg.run_dir)
        _prepare_run_dir(cfg)
        return COMMANDS[args.command](cfg)
    except BrokenPipeError:
        raise
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if lock is not None:
            lock.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
