"""Evaluation surface: perplexity, multiple-choice scoring, few-shot
prompt assembly, exact match, and deterministic generation.

Perplexity scores through `pretrain.batch_loss`, the cross-entropy that
training uses. Everything runs through `model.forward`, the same code as
training. Generation feeds each new token after the cached ones in a
preallocated KV cache (`model.DecodeSession`) and must pick the same
tokens as recomputing the full forward pass each step, which the tests
assert. Multiple choice scores the rendered prompt and all its choices
through `dpo.sequence_logprob`, the scorer DPO trains with: one
prefix-shared forward in which the prompt runs once and the choices ride
along as branches that cannot see each other. Evaluation takes no
adapters; score a LoRA policy through `dpo.lora_merge`. The weights
carry the fp8 request: given `model.fp8_weights(params)`, rounded once
by the caller, every call here runs in fp8 and rounds no weight again.
`perplexity(fp8=True)` rounds them itself, once per call. Perplexity
windows and multiple-choice tasks are independent graph-free forwards,
which `tensor.each` runs one per usable CPU at a time; results are
folded in input order, so they do not depend on the CPU count.
Generation runs one token after another.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import pack_sequences, read_jsonl, write_jsonl
from .dpo import sequence_logprob
from .errors import ConfigError
from .model import DecodeSession, ModelConfig, ModelParams, forward, fp8_weights
from .pretrain import batch_loss
from .tensor import IGNORE_INDEX, each, no_grad
from .tokenizer import Vocab, decode, encode

# few-shot constants: exemplar blocks are "question\nanswer" joined by a
# blank line, and the scored choice follows the query question plus "\n"
FEW_SHOT_DELIMITER = "\n\n"
QUERY_SUFFIX = "\n"


# ---------------------------------------------------------------------------
# perplexity

def perplexity(params: ModelParams, config: ModelConfig, token_docs, seq_len: int,
               eos_id: int, *, fp8: bool = False) -> float:
    """exp(mean next-token NLL) over corpus windows packed like training.

    Each window is scored by its own batch_loss call, the windows
    concurrently (`tensor.each`), and the mean over windows is taken in
    Python floats, in window order, rather than in the model dtype.
    fp8=True is the same as passing `fp8_weights(params)`: one rounding per call.
    """
    if seq_len > config.max_context:
        raise ValueError(f"seq_len {seq_len} exceeds context {config.max_context}")
    windows = list(pack_sequences(token_docs, seq_len, eos_id))
    total_nll, scored = 0.0, 0
    with no_grad():
        params = fp8_weights(params) if fp8 else params
        losses = each(lambda window: batch_loss(params, config, [window]), windows)
    for (_, targets), loss in zip(windows, losses):
        n = int(np.sum(targets != IGNORE_INDEX))
        total_nll += float(loss.item()) * n
        scored += n
    if scored == 0:
        raise ValueError("corpus produced no scoreable windows")
    return float(math.exp(total_nll / scored))


# ---------------------------------------------------------------------------
# multiple choice

@dataclass(frozen=True)
class MCTask:
    question: str
    choices: tuple[str, ...]
    gold: int
    exemplars: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        object.__setattr__(self, "exemplars", tuple(tuple(e) for e in self.exemplars))
        if len(self.choices) < 2:
            raise ValueError(f"need >= 2 choices, got {len(self.choices)}")
        if not 0 <= self.gold < len(self.choices):
            raise ValueError(f"gold index {self.gold} out of range")


@dataclass(frozen=True)
class EMTask:
    question: str
    answers: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "answers", tuple(self.answers))
        if not self.answers:
            raise ValueError("need >= 1 gold alias")


def few_shot_render(task: MCTask, k: int, seed: int = 0) -> str:
    """k seeded-shuffled exemplar blocks, then the query question."""
    if k < 0 or k > len(task.exemplars):
        raise ValueError(f"k={k} outside [0, {len(task.exemplars)}]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(task.exemplars))[:k]
    blocks = [f"{task.exemplars[i][0]}\n{task.exemplars[i][1]}" for i in order]
    return FEW_SHOT_DELIMITER.join(blocks + [task.question])


def mc_pick(logprobs: Sequence[float], choices: Sequence[str]) -> tuple[int, int]:
    """acc pick (raw argmax) and acc_norm pick (argmax of lp / byte length)."""
    lp = np.asarray(logprobs, dtype=np.float64)
    lens = np.array([len(c.encode("utf-8")) for c in choices], dtype=np.float64)
    if lp.shape != lens.shape:
        raise ValueError("one log-prob per choice required")
    if np.any(lens == 0):
        raise ValueError("choices must be nonempty strings")
    return int(np.argmax(lp)), int(np.argmax(lp / lens))


def mc_score(params, config, task: MCTask, vocab: Vocab, *, k: int = 0,
             seed: int = 0) -> dict:
    """Score one task: each choice's summed log-prob after the rendered
    prompt, in the model dtype, from one no-grad `dpo.sequence_logprob`
    call, whose context rule applies to each prompt + choice."""
    prompt_ids = encode(few_shot_render(task, k, seed) + QUERY_SUFFIX, vocab)
    with no_grad():
        lps = [float(lp.item()) for lp in sequence_logprob(
            params, config, prompt_ids, [encode(c, vocab) for c in task.choices])]
    acc_pick, acc_norm_pick = mc_pick(lps, task.choices)
    return {"acc_pick": acc_pick, "acc_norm_pick": acc_norm_pick,
            "acc_correct": acc_pick == task.gold,
            "acc_norm_correct": acc_norm_pick == task.gold,
            "logprobs": lps}


# ---------------------------------------------------------------------------
# exact match

def _normalize(text: str) -> str:
    text = text.lower()
    text = text.translate(str.maketrans("", "", string.punctuation))
    return " ".join(text.split())


def exact_match(prediction: str, aliases: Iterable[str]) -> bool:
    """Case-normalized, punctuation-stripped equality against any alias."""
    pred = _normalize(prediction)
    return any(pred == _normalize(a) for a in aliases)


# ---------------------------------------------------------------------------
# generation

def apply_repetition_penalty(logits: np.ndarray, token_ids, penalty: float) -> np.ndarray:
    """CTRL convention: for seen tokens, z -> z/p when z > 0 else z*p."""
    if penalty <= 0:
        raise ConfigError(f"repetition penalty must be positive, got {penalty}")
    out = np.array(logits, dtype=np.float64, copy=True)
    if penalty == 1.0:
        return out
    seen = np.unique(np.asarray(list(token_ids), dtype=np.int64))
    if seen.size and (seen.min() < 0 or seen.max() >= out.shape[-1]):
        raise ValueError("seen token id outside vocabulary")
    vals = out[seen]
    out[seen] = np.where(vals > 0, vals / penalty, vals * penalty)
    return out


def _pick_token(row: np.ndarray, seen_ids, temperature: float, penalty: float,
                rng: np.random.Generator) -> int:
    row = apply_repetition_penalty(row, seen_ids, penalty)
    if temperature == 0.0:
        return int(np.argmax(row))
    z = row / temperature
    z -= z.max()
    e = np.exp(z)
    return int(rng.choice(row.shape[-1], p=e / e.sum()))


def generate(params: ModelParams, config: ModelConfig, prompt_ids, *, max_new: int,
             temperature: float = 0.0, repetition_penalty: float = 1.1, seed: int = 0,
             eos_id: int | None = None, use_cache: bool = True) -> np.ndarray:
    """Decode up to max_new tokens; stops at eos or the context limit.

    Returns the generated ids only (including the terminating eos when
    one is emitted). temperature 0 is strict argmax with ties to the
    lowest id; temperature > 0 divides logits by it and samples with the
    seeded generator.
    """
    prompt = np.asarray(prompt_ids, dtype=np.int64).reshape(-1)
    if prompt.size == 0:
        raise ValueError("prompt must be nonempty")
    if prompt.size > config.max_context:
        raise ValueError(f"prompt of {prompt.size} tokens exceeds context "
                         f"{config.max_context}")
    if temperature < 0:
        raise ConfigError(f"temperature must be >= 0, got {temperature}")
    if max_new < 0:
        raise ValueError(f"max_new must be >= 0, got {max_new}")
    rng = np.random.default_rng(seed)
    ids = prompt.tolist()
    generated: list[int] = []
    session = (DecodeSession(params, config, min(prompt.size + max_new, config.max_context))
               if use_cache else None)
    while len(generated) < max_new and len(ids) < config.max_context:
        if session is not None:
            row = session.step(ids[session.pos:])[-1]
        else:
            with no_grad():
                row = forward(params, ids, config).data[-1]
        nxt = _pick_token(row, ids, temperature, repetition_penalty, rng)
        generated.append(nxt)
        ids.append(nxt)
        if eos_id is not None and nxt == eos_id:
            break
    return np.asarray(generated, dtype=np.int64)


def generate_text(params, config, prompt: str, vocab: Vocab, *, max_new: int,
                  temperature: float = 0.0, repetition_penalty: float = 1.1,
                  seed: int = 0) -> str:
    """Encode, generate with the vocab's eos as stop, and decode to text."""
    ids = np.array(encode(prompt, vocab), dtype=np.int64)
    out = generate(params, config, ids, max_new=max_new, temperature=temperature,
                   repetition_penalty=repetition_penalty, seed=seed, eos_id=vocab.eos_id)
    if vocab.eos_id is not None and out.size and out[-1] == vocab.eos_id:
        out = out[:-1]
    return decode(out, vocab).decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# task files and batch evaluation

def _task(obj: dict) -> MCTask | EMTask:
    if "choices" in obj:
        return MCTask(obj["question"], tuple(obj["choices"]), int(obj["gold"]),
                      tuple(tuple(e) for e in obj.get("exemplars", ())))
    if "answers" in obj:
        return EMTask(obj["question"], tuple(obj["answers"]))
    raise ValueError("task record needs choices+gold or answers")


def load_tasks(path) -> tuple[list[MCTask], list[EMTask]]:
    """Newline-delimited {question, choices, gold[, exemplars]} or
    {question, answers} records."""
    tasks = read_jsonl(path, _task)
    return ([t for t in tasks if isinstance(t, MCTask)],
            [t for t in tasks if isinstance(t, EMTask)])


def evaluate_tasks(params, config, tasks: Sequence[MCTask], vocab: Vocab, *, k: int = 0,
                   seed: int = 0) -> tuple[list[dict], dict]:
    """Per-task records plus aggregate accuracies; order-independent.

    The tasks are scored concurrently (`tensor.each`) under `no_grad`.
    """
    def score(task: MCTask) -> dict:
        result = mc_score(params, config, task, vocab, k=k, seed=seed)
        result["question"] = task.question
        return result

    with no_grad():
        records = each(score, tasks)
    if records:
        aggregates = {"acc": float(np.mean([r["acc_correct"] for r in records])),
                      "acc_norm": float(np.mean([r["acc_norm_correct"] for r in records])),
                      "n_tasks": len(records)}
    else:
        aggregates = {"acc": 0.0, "acc_norm": 0.0, "n_tasks": 0}
    return records, aggregates


def evaluate_em_tasks(params, config, tasks: Sequence[EMTask], vocab: Vocab, *,
                      max_new: int = 32) -> tuple[list[dict], dict]:
    """Greedy-generate an answer per question and score exact match.

    The prediction is the generated text up to its first newline.
    """
    records = []
    for task in tasks:
        text = generate_text(params, config, task.question + QUERY_SUFFIX, vocab,
                             max_new=max_new, temperature=0.0)
        prediction = text.split("\n", 1)[0].strip()
        records.append({"question": task.question, "prediction": prediction,
                        "em_correct": exact_match(prediction, task.answers)})
    em = float(np.mean([r["em_correct"] for r in records])) if records else 0.0
    return records, {"em": em, "n_tasks": len(records)}


def save_results(records: Sequence[dict], aggregates: dict, path) -> None:
    """One record per task, then a final {"aggregate": ...} line."""
    write_jsonl([*records, {"aggregate": aggregates}], path)
