"""Run configuration files: one JSON document drives an entire run.

A run is described by a single structured config file; command-line flags
only select the file and optionally override the seed. Relative paths in
the file are resolved against the directory containing the config file,
so a config directory can be moved or copied as a unit.

Top-level schema (JSON object)::

    run_dir   str   directory owning this run's outputs (required)
    seed      int   master seed, >= 0 (required)
    dtype     str   "f32" or "f64" (default "f64")
    fp8       bool  emulate 8-bit matmul inputs (default false)
    model     obj   decoder shape, passed through to the model config
    data      obj   corpus / vocabulary / task file paths and special ids
    pretrain  obj   staged pre-training plan (optional section)
    sft       obj   supervised fine-tuning plan (optional section)
    dpo       obj   preference-tuning plan (optional section)
    eval      obj   evaluation settings (optional section)
    generate  obj   decoding settings (optional section)
    remap     obj   vocabulary-swap settings (optional section)

Validation is total: `load_run_config` collects every violation it can
find and reports them all at once instead of stopping at the first.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .data import DataStage, Document
from .model import ModelConfig
from .optim import LrSchedule, OptimHyper
from .pretrain import TrainPlan
from .tokenizer import Vocab, load_vocab

TOP_KEYS = ("run_dir", "seed", "dtype", "fp8", "model", "data",
            "pretrain", "sft", "dpo", "eval", "generate", "remap")
DATA_KEYS = ("corpus", "val_corpus", "vocab", "merges",
             "bos_id", "eos_id", "pad_id", "sft", "preferences", "tasks")
DATA_PATH_KEYS = ("corpus", "val_corpus", "vocab", "merges",
                  "sft", "preferences", "tasks")
PRETRAIN_KEYS = ("stages", "warmup_tokens", "total_tokens", "peak_lr",
                 "min_lr", "batch_sequences", "weight_decay", "clip_norm",
                 "max_steps", "val_every", "val_batches")
STAGE_KEYS = ("token_budget", "seq_len", "mix")
SFT_KEYS = ("lr", "batch_size", "epochs", "warmup_fraction",
            "min_lr_fraction", "init_checkpoint")
DPO_KEYS = ("beta", "rank", "alpha", "batch_size", "stages",
            "init_checkpoint")
DPO_STAGE_KEYS = ("preferences", "lr", "epochs")
EVAL_KEYS = ("checkpoint", "k_shot", "seq_len", "max_new")
GENERATE_KEYS = ("checkpoint", "prompt", "max_new", "temperature",
                 "repetition_penalty")
REMAP_KEYS = ("checkpoint", "new_vocab", "new_merges",
              "bos_id", "eos_id", "pad_id", "seed")


class RunConfigError(ValueError):
    """Config file rejected; `violations` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid run config:\n" + "\n".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class RunConfig:
    """A validated run description with all paths resolved."""

    base_dir: Path
    run_dir: Path
    seed: int
    dtype: str
    fp8: bool
    model: ModelConfig
    data: dict = field(default_factory=dict)
    pretrain: dict = field(default_factory=dict)
    sft: dict = field(default_factory=dict)
    dpo: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    generate: dict = field(default_factory=dict)
    remap: dict = field(default_factory=dict)

    def resolve(self, value: str) -> Path:
        return (self.base_dir / value).resolve()

    def data_path(self, key: str) -> Path | None:
        value = self.data.get(key)
        return None if value is None else self.resolve(value)

    def load_vocab(self) -> Vocab:
        """The run's vocabulary with special ids attached from `data`."""
        return load_vocab(
            self.data_path("vocab"),
            merges_path=self.data_path("merges"),
            bos_id=self.data.get("bos_id"),
            eos_id=self.data.get("eos_id"),
            pad_id=self.data.get("pad_id"),
        )


def group_by_source(docs: Sequence[Document]) -> dict[str, list[Document]]:
    sources: dict[str, list[Document]] = {}
    for doc in docs:
        sources.setdefault(doc.source, []).append(doc)
    return sources


def build_train_plan(cfg: RunConfig) -> TrainPlan:
    """Assemble the staged pre-training plan from the `pretrain` section.

    Schedule defaults: warmup over the first 10% of the budget, decay
    across the whole budget. Optimizer defaults come from `OptimHyper`.
    """
    section = cfg.pretrain
    stages = tuple(
        DataStage(token_budget=s["token_budget"], mix=s["mix"],
                  seq_len=s["seq_len"])
        for s in section["stages"]
    )
    total = sum(stage.token_budget for stage in stages)
    schedule = LrSchedule(
        warmup_tokens=section.get("warmup_tokens", max(1.0, 0.1 * total)),
        total_tokens=section.get("total_tokens", total),
        peak_lr=section.get("peak_lr", 2e-4),
        min_lr=section.get("min_lr", 1e-5),
    )
    hyper = OptimHyper(
        weight_decay=section.get("weight_decay", 0.1),
        clip_norm=section.get("clip_norm", 1.0),
    )
    return TrainPlan(
        stages=stages,
        schedule=schedule,
        hyper=hyper,
        batch_sequences=section.get("batch_sequences", 4),
        fp8=cfg.fp8,
        seed=cfg.seed,
        max_steps=section.get("max_steps"),
        val_every=section.get("val_every"),
        val_batches=section.get("val_batches", 2),
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _check_unknown(section: Mapping, known: Sequence[str], where: str,
                   out: list[str]) -> None:
    for key in sorted(set(section) - set(known)):
        out.append(f"{where}.{key}: unknown key")


def _check_path(section: Mapping, key: str, where: str, base_dir: Path,
                out: list[str], required: bool = False,
                must_exist: bool = True) -> None:
    # Checkpoint paths pass must_exist=False: they usually name the output
    # of an earlier command in the same run, so they cannot exist when the
    # config is validated for that earlier command.  Existence is enforced
    # when the checkpoint is actually opened.
    value = section.get(key)
    if value is None:
        if required:
            out.append(f"{where}.{key}: required path is missing")
        return
    if not isinstance(value, str):
        out.append(f"{where}.{key}: expected a path string, got {value!r}")
        return
    if must_exist and not (base_dir / value).resolve().is_file():
        out.append(f"{where}.{key}: no such file: {(base_dir / value).resolve()}")


def _check_section(obj: Mapping, key: str) -> tuple[dict, list[str]]:
    section = obj.get(key, {})
    if not isinstance(section, dict):
        return {}, [f"{key}: expected an object, got {type(section).__name__}"]
    return section, []


def _validate_pretrain(section: Mapping, out: list[str]) -> None:
    _check_unknown(section, PRETRAIN_KEYS, "pretrain", out)
    stages = section.get("stages")
    if not isinstance(stages, list) or not stages:
        out.append("pretrain.stages: expected a non-empty list of stage objects")
        return
    for i, stage in enumerate(stages):
        where = f"pretrain.stages[{i}]"
        if not isinstance(stage, dict):
            out.append(f"{where}: expected an object")
            continue
        _check_unknown(stage, STAGE_KEYS, where, out)
        missing = [k for k in STAGE_KEYS if k not in stage]
        if missing:
            out.append(f"{where}: missing keys: {', '.join(missing)}")
            continue
        try:
            DataStage(token_budget=stage["token_budget"], mix=stage["mix"],
                      seq_len=stage["seq_len"])
        except Exception as exc:
            out.append(f"{where}: {exc}")
    if out:
        return
    # Scalars are validated by building the actual schedule and plan.
    draft = RunConfig(base_dir=Path("."), run_dir=Path("."), seed=0,
                      dtype="f64", fp8=False,
                      model=ModelConfig(8, 16, 1, 1, 1, 16),
                      pretrain=dict(section))
    try:
        build_train_plan(draft)
    except Exception as exc:
        out.append(f"pretrain: {exc}")


def _validate_sft(section: Mapping, base_dir: Path, out: list[str]) -> None:
    from .chat import SftPlan

    _check_unknown(section, SFT_KEYS, "sft", out)
    _check_path(section, "init_checkpoint", "sft", base_dir, out,
                must_exist=False)
    kwargs = {k: section[k] for k in
              ("lr", "batch_size", "epochs", "warmup_fraction",
               "min_lr_fraction") if k in section}
    try:
        SftPlan(**kwargs)
    except Exception as exc:
        out.append(f"sft: {exc}")


def _validate_dpo(section: Mapping, base_dir: Path, out: list[str]) -> None:
    from .dpo import DpoPlan

    _check_unknown(section, DPO_KEYS, "dpo", out)
    _check_path(section, "init_checkpoint", "dpo", base_dir, out,
                must_exist=False)
    kwargs = {k: section[k] for k in ("beta", "rank", "alpha", "batch_size")
              if k in section}
    try:
        DpoPlan(**kwargs)
    except Exception as exc:
        out.append(f"dpo: {exc}")
    stages = section.get("stages")
    if stages is None:
        return
    if not isinstance(stages, list) or not stages:
        out.append("dpo.stages: expected a non-empty list of stage objects")
        return
    for i, stage in enumerate(stages):
        where = f"dpo.stages[{i}]"
        if not isinstance(stage, dict):
            out.append(f"{where}: expected an object")
            continue
        _check_unknown(stage, DPO_STAGE_KEYS, where, out)
        _check_path(stage, "preferences", where, base_dir, out, required=True)
        if not (_is_num(stage.get("lr")) and stage["lr"] > 0):
            out.append(f"{where}.lr: expected a positive number")
        if "epochs" in stage and not (_is_int(stage["epochs"])
                                      and stage["epochs"] >= 1):
            out.append(f"{where}.epochs: expected an int >= 1")


def _validate_eval(section: Mapping, base_dir: Path, out: list[str]) -> None:
    _check_unknown(section, EVAL_KEYS, "eval", out)
    _check_path(section, "checkpoint", "eval", base_dir, out,
                must_exist=False)
    for key, low in (("k_shot", 0), ("seq_len", 2), ("max_new", 1)):
        if key in section and not (_is_int(section[key])
                                   and section[key] >= low):
            out.append(f"eval.{key}: expected an int >= {low}")


def _validate_generate(section: Mapping, base_dir: Path,
                       out: list[str]) -> None:
    _check_unknown(section, GENERATE_KEYS, "generate", out)
    _check_path(section, "checkpoint", "generate", base_dir, out,
                must_exist=False)
    if "prompt" in section and not isinstance(section["prompt"], str):
        out.append("generate.prompt: expected a string")
    if "max_new" in section and not (_is_int(section["max_new"])
                                     and section["max_new"] >= 1):
        out.append("generate.max_new: expected an int >= 1")
    if "temperature" in section and not (_is_num(section["temperature"])
                                         and section["temperature"] >= 0):
        out.append("generate.temperature: expected a number >= 0")
    if "repetition_penalty" in section and not (
            _is_num(section["repetition_penalty"])
            and section["repetition_penalty"] > 0):
        out.append("generate.repetition_penalty: expected a number > 0")


def _validate_remap(section: Mapping, base_dir: Path, out: list[str]) -> None:
    _check_unknown(section, REMAP_KEYS, "remap", out)
    _check_path(section, "checkpoint", "remap", base_dir, out,
                must_exist=False)
    _check_path(section, "new_vocab", "remap", base_dir, out)
    _check_path(section, "new_merges", "remap", base_dir, out)
    for key in ("bos_id", "eos_id", "pad_id", "seed"):
        if section.get(key) is not None and not _is_int(section[key]):
            out.append(f"remap.{key}: expected an int or null")


def validate_config(obj, base_dir: Path) -> list[str]:
    """Every violation found in the parsed document, empty when valid."""
    out: list[str] = []
    if not isinstance(obj, dict):
        return [f"config root: expected a JSON object, got {type(obj).__name__}"]
    _check_unknown(obj, TOP_KEYS, "config", out)

    if not isinstance(obj.get("run_dir"), str) or not obj.get("run_dir"):
        out.append("run_dir: expected a non-empty directory path string")
    if not (_is_int(obj.get("seed")) and obj["seed"] >= 0):
        out.append("seed: expected an int >= 0")
    if obj.get("dtype", "f64") not in ("f32", "f64"):
        out.append(f"dtype: expected \"f32\" or \"f64\", got {obj.get('dtype')!r}")
    if not isinstance(obj.get("fp8", False), bool):
        out.append(f"fp8: expected a bool, got {obj.get('fp8')!r}")

    model = obj.get("model")
    if not isinstance(model, dict):
        out.append("model: required object is missing")
    else:
        try:
            ModelConfig(**model)
        except TypeError as exc:
            msg = str(exc).replace(".__init__()", "")
            out.append(f"model: {msg.replace('__init__() ', '')}")
        except Exception as exc:
            out.append(f"model: {exc}")

    data, errs = _check_section(obj, "data")
    out.extend(errs)
    if not errs:
        _check_unknown(data, DATA_KEYS, "data", out)
        _check_path(data, "vocab", "data", base_dir, out, required=True)
        for key in DATA_PATH_KEYS:
            if key != "vocab":
                _check_path(data, key, "data", base_dir, out)
        for key in ("bos_id", "eos_id", "pad_id"):
            if data.get(key) is not None and not _is_int(data[key]):
                out.append(f"data.{key}: expected an int or null")

    validators = {"pretrain": _validate_pretrain,
                  "sft": _validate_sft,
                  "dpo": _validate_dpo,
                  "eval": _validate_eval,
                  "generate": _validate_generate,
                  "remap": _validate_remap}
    for name, validate in validators.items():
        if name not in obj:
            continue
        section, errs = _check_section(obj, name)
        out.extend(errs)
        if errs:
            continue
        if name == "pretrain":
            validate(section, out)
        else:
            validate(section, base_dir, out)
    return out


def load_run_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse and fully validate a run config file.

    Raises `RunConfigError` carrying the complete violation list when the
    file is malformed or inconsistent. `seed_override` replaces the file's
    seed after validation; everything else comes from the file.
    """
    path = Path(path).resolve()
    base_dir = path.parent
    if not path.is_file():
        raise RunConfigError([f"config file not found: {path}"])
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RunConfigError([f"config is not valid JSON: {exc}"]) from exc

    violations = validate_config(obj, base_dir)
    if violations:
        raise RunConfigError(violations)

    seed = obj["seed"] if seed_override is None else seed_override
    if seed < 0:
        raise RunConfigError([f"seed override must be >= 0, got {seed}"])
    return RunConfig(
        base_dir=base_dir,
        run_dir=(base_dir / obj["run_dir"]).resolve(),
        seed=seed,
        dtype=obj.get("dtype", "f64"),
        fp8=obj.get("fp8", False),
        model=ModelConfig(**obj["model"]),
        data=dict(obj.get("data", {})),
        pretrain=dict(obj.get("pretrain", {})),
        sft=dict(obj.get("sft", {})),
        dpo=dict(obj.get("dpo", {})),
        eval=dict(obj.get("eval", {})),
        generate=dict(obj.get("generate", {})),
        remap=dict(obj.get("remap", {})),
    )
