"""Run configuration files: one JSON document drives an entire run.

A run is described by a single structured config file; command-line flags
only select the file and optionally override the seed. Relative paths in
the file are resolved against the directory containing the config file,
so a config directory can be moved or copied as a unit.

Each section of the file maps to one frozen dataclass. That dataclass
holds the section's defaults and checks its values when it is built. The
section accepts exactly its fields, less those the run fills in: the run
`seed` in `pretrain`, `sft` and `dpo`, and the top-level `fp8` in
`pretrain`::

    run_dir   str   directory owning this run's outputs (required)
    seed      int   master seed, >= 0 (required)
    dtype     str   "f32" or "f64" (default "f64")
    fp8       bool  emulate 8-bit matmul inputs (default false)
    model     `model.ModelConfig` (required)
    data      `DataPaths` (required: `vocab`)
    pretrain  `pretrain.TrainPlan` of `data.DataStage`s, with the fields of
              `optim.LrSchedule` and `weight_decay`, `clip_norm` inline
    sft       `chat.SftPlan`
    dpo       `dpo.DpoPlan` of `dpo.PreferenceStage`s
    eval      `EvalPlan`
    generate  `GeneratePlan`
    remap     `RemapPlan`

A key the section omits takes the field's default, as does a null where
that default is null; a section the file omits is None in the loaded
`RunConfig`. Validation is total: `load_run_config` collects every violation it can find and reports
them all at once instead of stopping at the first.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import ClassVar

from .chat import SftPlan
from .data import DataStage, Document
from .dpo import DpoPlan, PreferenceStage
from .errors import PATH, POSITIVE, ConfigError, check, count, is_int, number
from .model import ModelConfig
from .optim import LrSchedule, OptimHyper
from .pretrain import TrainPlan
from .tokenizer import Vocab, load_vocab

PRETRAIN_HYPER = {"weight_decay", "clip_norm"}
TOKEN_ID = count(nullable=True)


class RunConfigError(ValueError):
    """Config file rejected; `violations` lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid run config:\n" + "\n".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class DataPaths:
    """Input files, which must exist at load time, and special token ids."""

    inputs: ClassVar = ("vocab", "corpus", "val_corpus", "merges", "sft",
                        "preferences", "tasks")
    vocab: str
    corpus: str | None = None
    val_corpus: str | None = None
    merges: str | None = None
    sft: str | None = None
    preferences: str | None = None
    tasks: str | None = None
    bos_id: int | None = None
    eos_id: int | None = None
    pad_id: int | None = None

    def __post_init__(self):
        check(self, **dict.fromkeys(self.inputs, PATH), bos_id=TOKEN_ID,
              eos_id=TOKEN_ID, pad_id=TOKEN_ID)


@dataclass(frozen=True)
class EvalPlan:
    """`seq_len` None means min(256, the checkpoint's max_context)."""

    checkpoint: str | None = None
    k_shot: int = 0
    seq_len: int | None = None
    max_new: int = 32

    def __post_init__(self):
        check(self, checkpoint=PATH, k_shot=count(0),
              seq_len=count(2, nullable=True), max_new=count(1))


@dataclass(frozen=True)
class GeneratePlan:
    checkpoint: str | None = None
    prompt: str | None = None
    max_new: int = 64
    temperature: float = 0.0
    repetition_penalty: float = 1.1

    def __post_init__(self):
        check(self, checkpoint=PATH, max_new=count(1),
              prompt=(lambda v: v is None or isinstance(v, str), "a string"),
              temperature=number(lambda v: v >= 0, "a number >= 0"),
              repetition_penalty=POSITIVE)


@dataclass(frozen=True)
class RemapPlan:
    """`seed` None means the run seed."""

    inputs: ClassVar = ("new_vocab", "new_merges")
    checkpoint: str | None = None
    new_vocab: str | None = None
    new_merges: str | None = None
    bos_id: int | None = None
    eos_id: int | None = None
    pad_id: int | None = None
    seed: int | None = None

    def __post_init__(self):
        check(self, checkpoint=PATH, new_vocab=PATH, new_merges=PATH,
              bos_id=TOKEN_ID, eos_id=TOKEN_ID, pad_id=TOKEN_ID, seed=TOKEN_ID)


@dataclass(frozen=True)
class RunConfig:
    """A validated run description: resolved directories and built plans."""

    base_dir: Path
    run_dir: Path
    seed: int
    model: ModelConfig
    data: DataPaths
    dtype: str = "f64"
    fp8: bool = False
    pretrain: TrainPlan | None = None
    sft: SftPlan | None = None
    dpo: DpoPlan | None = None
    eval: EvalPlan | None = None
    generate: GeneratePlan | None = None
    remap: RemapPlan | None = None

    def resolve(self, value: str) -> Path:
        return (self.base_dir / value).resolve()

    def data_path(self, key: str) -> Path | None:
        value = getattr(self.data, key)
        return None if value is None else self.resolve(value)

    def load_vocab(self) -> Vocab:
        """The run's vocabulary with special ids attached from `data`."""
        return load_vocab(self.data_path("vocab"),
                          merges_path=self.data_path("merges"),
                          bos_id=self.data.bos_id, eos_id=self.data.eos_id,
                          pad_id=self.data.pad_id)


def group_by_source(docs: Sequence[Document]) -> dict[str, list[Document]]:
    sources: dict[str, list[Document]] = {}
    for doc in docs:
        sources.setdefault(doc.source, []).append(doc)
    return sources


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _build(cls, section, where: str, out: list[str], base_dir: Path,
           stage=None, **given):
    """`cls` built from a config section and `given`, or None once every
    problem is in `out`.

    The section may set each field of `cls` except the fields in `given`,
    such as the run seed. A field without a default must be set and not
    null; the files that `cls.inputs` names must exist; `stage` builds a
    `stages` list. A None in `given` is a part that failed to build: the
    section is still checked, but `cls` is not built.
    """
    if not isinstance(section, dict):
        out.append(f"{where}: expected an object, got {type(section).__name__}")
        return None
    if stage is not None and "stages" in section:
        section = dict(section)
        given["stages"] = _build_stages(section.pop("stages"), stage,
                                        f"{where}.stages", out, base_dir)
    known = _names(cls) - set(given)
    out.extend(f"{where}.{key}: unknown key" for key in sorted(set(section) - known))
    missing = [f.name for f in fields(cls) if f.name in known
               and f.default is MISSING and f.default_factory is MISSING
               and section.get(f.name) is None]
    if missing:
        out.append(f"{where}: missing keys: {', '.join(missing)}")
    # Only input files must exist. Checkpoint paths usually name the output
    # of an earlier command in the same run, so they cannot exist when the
    # config is validated for that earlier command; they are checked when
    # a command opens them.
    for name in getattr(cls, "inputs", ()):
        path = section.get(name)
        if isinstance(path, str) and not (base_dir / path).resolve().is_file():
            out.append(f"{where}.{name}: no such file: {(base_dir / path).resolve()}")
    if missing or None in given.values():
        return None
    try:
        return cls(**{k: v for k, v in section.items() if k in known}, **given)
    except ConfigError as exc:
        out.extend(f"{where}.{problem}" for problem in exc.problems)
    except (TypeError, ValueError) as exc:
        out.append(f"{where}: {exc}")
    return None


def _build_stages(entries, cls, where: str, out: list[str], base_dir: Path):
    """A tuple of `cls` from a non-empty list of stage objects, or None."""
    if not isinstance(entries, list) or not entries:
        out.append(f"{where}: expected a non-empty list of stage objects")
        return None
    stages = [_build(cls, entry, f"{where}[{i}]", out, base_dir)
              for i, entry in enumerate(entries)]
    return None if None in stages else tuple(stages)


def _build_train_plan(section, out: list[str], base_dir: Path, **given):
    """The pretrain section: a TrainPlan with its schedule and optimizer
    settings written inline.

    The schedule defaults to warmup over the first 10% of the stages'
    total budget and decay across all of it.
    """
    if not isinstance(section, dict):
        return _build(TrainPlan, section, "pretrain", out, base_dir)
    schedule_keys = _names(LrSchedule)
    stages = _build_stages(section.get("stages"), DataStage,
                           "pretrain.stages", out, base_dir)
    schedule = hyper = None
    if stages is not None:
        total = sum(stage.token_budget for stage in stages)
        schedule = _build(LrSchedule, {
            "warmup_tokens": max(1.0, 0.1 * total), "total_tokens": total,
            **{k: v for k, v in section.items() if k in schedule_keys}},
            "pretrain", out, base_dir)
        hyper = _build(OptimHyper, {k: v for k, v in section.items()
                                    if k in PRETRAIN_HYPER}, "pretrain", out, base_dir)
    rest = {k: v for k, v in section.items()
            if k not in schedule_keys | PRETRAIN_HYPER | {"stages"}}
    return _build(TrainPlan, rest, "pretrain", out, base_dir, stages=stages,
                  schedule=schedule, hyper=hyper, **given)


def _build_run(obj, base_dir: Path, seed_override: int | None,
               out: list[str]) -> RunConfig | None:
    if not isinstance(obj, dict):
        out.append(f"config root: expected a JSON object, got {type(obj).__name__}")
        return None
    top_keys = _names(RunConfig) - {"base_dir"}
    out.extend(f"config.{key}: unknown key" for key in sorted(set(obj) - top_keys))
    if not (isinstance(obj.get("run_dir"), str) and obj["run_dir"]):
        out.append("run_dir: expected a non-empty directory path string")
    if not (is_int(obj.get("seed")) and obj["seed"] >= 0):
        out.append("seed: expected an int >= 0")
    if seed_override is not None and seed_override < 0:
        out.append(f"seed override must be >= 0, got {seed_override}")
    if "dtype" in obj and obj["dtype"] not in ("f32", "f64"):
        out.append(f"dtype: expected \"f32\" or \"f64\", got {obj['dtype']!r}")
    if "fp8" in obj and not isinstance(obj["fp8"], bool):
        out.append(f"fp8: expected a bool, got {obj['fp8']!r}")
    # An invalid seed is already reported; build with 0 to check the rest.
    seed = seed_override if seed_override is not None else obj.get("seed")
    seed = seed if is_int(seed) else 0

    run = {name: _build(cls, obj.get(name, {}), name, out, base_dir)
           for name, cls in (("model", ModelConfig), ("data", DataPaths))}
    if "pretrain" in obj:
        run["pretrain"] = _build_train_plan(obj["pretrain"], out, base_dir,
                                            fp8=obj.get("fp8") is True, seed=seed)
    if "sft" in obj:
        run["sft"] = _build(SftPlan, obj["sft"], "sft", out, base_dir, seed=seed)
    if "dpo" in obj:
        run["dpo"] = _build(DpoPlan, obj["dpo"], "dpo", out, base_dir,
                            stage=PreferenceStage, seed=seed)
    for name, cls in (("eval", EvalPlan), ("generate", GeneratePlan),
                      ("remap", RemapPlan)):
        if name in obj:
            run[name] = _build(cls, obj[name], name, out, base_dir)
    if out:
        return None
    return RunConfig(base_dir=base_dir, run_dir=(base_dir / obj["run_dir"]).resolve(),
                     seed=seed, **{k: obj[k] for k in ("dtype", "fp8") if k in obj},
                     **run)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_run_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse a run config file and build every plan it describes.

    Raises `RunConfigError` carrying the complete violation list when the
    file is malformed or inconsistent. `seed_override` replaces the file's
    seed; everything else comes from the file.
    """
    path = Path(path).resolve()
    if not path.is_file():
        raise RunConfigError([f"config file not found: {path}"])
    try:
        obj = json.loads(path.read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    except ValueError as exc:
        raise RunConfigError([f"config is not valid JSON: {exc}"]) from exc
    out: list[str] = []
    cfg = _build_run(obj, path.parent, seed_override, out)
    if cfg is None:
        raise RunConfigError(out)
    return cfg
