"""Chat templating with prompt-loss masking, plus the SFT training loop.

The template is a fixed constant: every turn renders as
`<|role|>text<|end|>`. Markers are encoded atomically when the vocab
contains them as whole tokens and spelled out as ordinary text
otherwise. The loss mask is 1 exactly on assistant text tokens and the
assistant turn's end marker; everything else (markers, system and user
text) is prompt and contributes neither loss nor gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .data import read_jsonl, write_jsonl
from .errors import PATH, POSITIVE, check, count, number
from .model import ModelConfig, ModelParams
from .optim import AdamW, LrSchedule, cosine_lr
from .pretrain import batch_loss, log_step, no_decay_names, optimize
from .tensor import IGNORE_INDEX, Tensor
from .tokenizer import Vocab, byte_fallback_vocab, encode

ROLE_MARKERS = {"system": b"<|system|>", "user": b"<|user|>", "assistant": b"<|assistant|>"}
END_MARKER = b"<|end|>"


@dataclass(frozen=True)
class Turn:
    role: str
    text: str


@dataclass(frozen=True)
class Conversation:
    turns: tuple[Turn, ...]

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        if not self.turns:
            raise ValueError("conversation has no turns")
        for turn in self.turns:
            if turn.role not in ROLE_MARKERS:
                raise ValueError(f"unknown role {turn.role!r}")
        rest = list(self.turns)
        if rest[0].role == "system":
            rest = rest[1:]
            if not rest:
                raise ValueError("conversation has only a system turn")
        for i, turn in enumerate(rest):
            expected = "user" if i % 2 == 0 else "assistant"
            if turn.role != expected:
                raise ValueError(
                    f"turn {i} after system must be {expected!r}, got {turn.role!r}")


def _marker_ids(marker: bytes, vocab: Vocab) -> list[int]:
    tid = vocab.token_to_id.get(marker)
    return [tid] if tid is not None else encode(marker, vocab)


def render_chat(conv: Conversation, vocab: Vocab) -> tuple[np.ndarray, np.ndarray]:
    """Token ids and per-token loss mask for the fixed chat template."""
    ids: list[int] = []
    mask: list[int] = []
    for turn in conv.turns:
        head = _marker_ids(ROLE_MARKERS[turn.role], vocab)
        body = encode(turn.text, vocab)
        tail = _marker_ids(END_MARKER, vocab)
        flag = 1 if turn.role == "assistant" else 0
        ids.extend(head)
        mask.extend([0] * len(head))
        ids.extend(body)
        mask.extend([flag] * len(body))
        ids.extend(tail)
        mask.extend([flag] * len(tail))
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=np.int64)


def chat_vocab() -> Vocab:
    """Byte fallback plus atomic template markers; the natural test vocab."""
    base = byte_fallback_vocab()
    return Vocab(base.id_to_token + [*ROLE_MARKERS.values(), END_MARKER],
                 bos_id=base.bos_id, eos_id=base.eos_id, pad_id=base.pad_id)


def sft_example(tokens: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-token training pair scoring exactly the mask-1 positions.

    Position i of the inputs predicts token i+1; the target there is kept
    when mask[i+1] is 1 and IGNORE_INDEX otherwise.
    """
    if tokens.shape != mask.shape or tokens.ndim != 1:
        raise ValueError(f"tokens/mask shapes differ: {tokens.shape} vs {mask.shape}")
    if tokens.size < 2:
        raise ValueError("need at least two tokens to form a next-token pair")
    inputs = tokens[:-1]
    targets = np.where(mask[1:] == 1, tokens[1:], IGNORE_INDEX)
    return inputs, targets


def sft_loss(params: ModelParams, config: ModelConfig, examples) -> Tensor | None:
    """Mean over usable examples of mask-restricted cross-entropy.

    Examples with no scored position are skipped with a warning; None is
    returned when nothing in the batch is usable.
    """
    usable = _usable_examples(examples)
    if not usable:
        return None
    return batch_loss(params, config, usable)


def _usable_examples(examples) -> list:
    """The examples that score at least one position; the others are
    skipped with one warning that counts them."""
    usable = [(x, t) for x, t in examples if np.any(t != IGNORE_INDEX)]
    if len(usable) < len(examples):
        warnings.warn(f"skipped {len(examples) - len(usable)} example(s) with no "
                      "assistant tokens", RuntimeWarning)
    return usable


@dataclass(frozen=True)
class SftPlan:
    """SFT settings; `init_checkpoint` is where the sft command starts from."""

    lr: float = 1e-5
    batch_size: int = 8
    epochs: int = 1
    warmup_fraction: float = 0.05
    min_lr_fraction: float = 0.1
    seed: int = 0
    init_checkpoint: str | None = None

    def __post_init__(self):
        check(self, lr=POSITIVE, batch_size=count(1), epochs=count(1),
              warmup_fraction=number(lambda v: 0 < v < 1, "a number in (0, 1)"),
              min_lr_fraction=number(lambda v: 0 < v <= 1, "a number in (0, 1]"),
              init_checkpoint=PATH)


def run_sft(params: ModelParams, config: ModelConfig,
            conversations: Sequence[Conversation], vocab: Vocab,
            plan: SftPlan | None = None, log_path=None) -> list[dict]:
    """Epoch-based SFT over rendered conversations; returns the log records.

    Each step runs its usable examples as `optimize` parts, concurrently,
    and adds their gradients in example order.
    """
    plan = plan if plan is not None else SftPlan()
    examples = [sft_example(*render_chat(conv, vocab)) for conv in conversations]
    for inputs, _ in examples:
        if len(inputs) > config.max_context:
            raise ValueError(
                f"rendered conversation of {len(inputs)} tokens exceeds context "
                f"{config.max_context}")
    total_tokens = plan.epochs * sum(len(x) for x, _ in examples)
    if total_tokens == 0:
        warnings.warn("no conversations to train on", RuntimeWarning)
        return []
    schedule = LrSchedule(
        warmup_tokens=max(1.0, plan.warmup_fraction * total_tokens),
        total_tokens=float(total_tokens),
        peak_lr=plan.lr,
        min_lr=plan.lr * plan.min_lr_fraction)
    opt = AdamW(params.named_tensors(), no_decay=no_decay_names(params))  # default OptimHyper
    records: list[dict] = []
    tokens_seen = 0
    for epoch in range(plan.epochs):
        rng = np.random.default_rng(plan.seed + epoch)
        order = rng.permutation(len(examples))
        for lo in range(0, len(order), plan.batch_size):
            batch = [examples[i] for i in order[lo:lo + plan.batch_size]]
            usable = _usable_examples(batch)
            tokens_seen += sum(len(x) for x, _ in batch)
            if not usable:
                continue
            lr = cosine_lr(tokens_seen, schedule)
            parts = [partial(sft_loss, config=config, examples=[example]) for example in usable]
            train_loss = optimize(parts, opt, lr, params)
            log_step(records, {"step": opt.step_count, "tokens_seen": tokens_seen,
                               "lr": lr, "train_loss": train_loss}, log_path)
    return records


# ---------------------------------------------------------------------------
# conversation files: newline-delimited {"turns": [{"role", "text"}, ...]}

def load_conversations(path) -> list[Conversation]:
    return read_jsonl(path, lambda obj: Conversation(
        tuple(Turn(t["role"], t["text"]) for t in obj["turns"])))


def save_conversations(conversations: Iterable[Conversation], path) -> None:
    write_jsonl(({"turns": [{"role": t.role, "text": t.text} for t in conv.turns]}
                 for conv in conversations), path)
