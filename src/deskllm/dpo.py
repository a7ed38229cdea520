"""Preference alignment: LoRA adapters, the DPO loss, and its training loop.

The policy reads `model.lora_weights`, the base with a low-rank adapter
on every attention and MLP linear, which is what `lora_merge` stores; the
reference is the base alone. Both read the base as constants that share
the caller's arrays and need no grad, so it is frozen by construction and
never copied. `sequence_logprob` scores a pair's chosen and rejected
responses in one prefix-shared forward, so each pair costs one reference
forward, computed once and cached, and one policy forward per epoch.
Multiple choice (`evals.mc_score`) scores its choices through the same
function, under `no_grad`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial, reduce
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .chat import Conversation, Turn, render_chat
from .data import read_jsonl
from .errors import PATH, POSITIVE, ConfigError, check, count, number
from .model import LoraAdapter, ModelConfig, ModelParams, branch_layout, forward, lora_weights
from .optim import AdamW, OptimHyper
from .pretrain import log_step, optimize
from .tensor import Tensor, add, cross_entropy, each, embedding, log_sigmoid, mul, neg, no_grad
from .tokenizer import Vocab

LORA_INIT_STD = 0.02
DPO_HYPER = OptimHyper(weight_decay=0.0)  # adapters are not decayed


def init_lora_adapters(params: ModelParams, rank: int = 4, alpha: float = 16.0,
                       seed: int = 0) -> dict[str, LoraAdapter]:
    """One adapter per `params.linear_names()`, drawn in that order:
    A ~ N(0, 0.02), B = 0."""
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    named = params.named_tensors()
    adapters: dict[str, LoraAdapter] = {}
    for name in params.linear_names():
        w = named[name]
        d_in, d_out = w.shape
        a = rng.normal(0.0, LORA_INIT_STD, size=(d_in, rank)).astype(w.dtype)
        b = np.zeros((rank, d_out), dtype=w.dtype)
        adapters[name] = LoraAdapter(a=Tensor(a, requires_grad=True),
                                     b=Tensor(b, requires_grad=True), alpha=alpha)
    return adapters


def lora_merge(params: ModelParams, adapters: dict[str, LoraAdapter]) -> ModelParams:
    """New parameters holding lora_weights(params, adapters) as plain arrays."""
    with no_grad():
        merged = lora_weights(params, adapters).named_tensors()
    return ModelParams.build(len(params.layers), lambda name: Tensor(merged[name].data.copy()))


def dpo_loss(policy_lp_c, policy_lp_r, ref_lp_c, ref_lp_r, beta: float = 0.2) -> Tensor:
    """Batch-mean of -log sigmoid(beta * (policy margin - reference margin)).

    Each argument is a sequence with one log-prob per pair.
    """
    batches = (policy_lp_c, policy_lp_r, ref_lp_c, ref_lp_r)
    if not policy_lp_c or len({len(b) for b in batches}) != 1:
        raise ValueError("dpo_loss needs four equal-length nonempty batches")
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    terms = [neg(log_sigmoid(mul((c - rc) - (r - rr), beta)))
             for c, r, rc, rr in zip(*batches)]
    return mul(reduce(add, terms), 1.0 / len(terms))


def sequence_logprob(params: ModelParams, config: ModelConfig, prompt_ids,
                     responses) -> list[Tensor]:
    """Summed log-probability of each response given the prompt.

    One prefix-shared forward scores them all: the prompt runs once and
    each response is a branch of it (`model.branch_layout`). The one
    context rule is the forward's position bound: a response's last token
    is scored, never forwarded, so each prompt + response may be
    max_context + 1 tokens, and together they may be longer. An empty
    response scores 0.
    """
    responses = [np.asarray(r, dtype=np.int64) for r in responses]
    ids, segments, rows = branch_layout(prompt_ids, responses)
    logits = forward(params, ids, config, segments=segments)
    # T.embedding gathers the scoring rows (the prompt's last row scores
    # every response's first token) and scatter-adds their grads.
    return [mul(cross_entropy(embedding(logits, r_rows), response), -float(len(r_rows)))
            if len(r_rows) else Tensor(np.zeros((), dtype=params.dtype))
            for response, r_rows in zip(responses, rows)]


@dataclass(frozen=True)
class PreferencePair:
    prompt: Conversation
    chosen: str
    rejected: str

    def __post_init__(self):
        if self.prompt.turns[-1].role != "user":
            raise ValueError("preference prompt must end with a user turn")
        if self.chosen == self.rejected:
            raise ValueError("chosen and rejected responses must differ")


def preference_pair(rec: dict) -> PreferencePair | None:
    """The rank-based pair of a preference record {"prompt_turns": [{"role",
    "text"}, ...], "answers": [{"text", "rank"}, ...], "lang": "en"}:
    chosen = lowest rank, rejected = highest, ties to the first-listed
    answer; None for a record not in English, with fewer than two
    answers, with all-equal ranks or with identical texts."""
    if rec.get("lang") != "en":
        return None
    answers = rec["answers"]
    if len(answers) < 2:
        return None
    ranks = [int(a["rank"]) for a in answers]
    if min(ranks) == max(ranks):
        return None
    chosen = answers[ranks.index(min(ranks))]["text"]
    rejected = answers[ranks.index(max(ranks))]["text"]
    if chosen == rejected:
        return None
    prompt = Conversation(tuple(Turn(t["role"], t["text"])
                                for t in rec["prompt_turns"]))
    return PreferencePair(prompt, chosen, rejected)


def build_preference_pairs(records: Iterable[dict]) -> list[PreferencePair]:
    """The pairs of the records that do not drop, in record order."""
    return [p for p in map(preference_pair, records) if p is not None]


def load_preference_pairs(path) -> list[PreferencePair]:
    """`build_preference_pairs` over a preference file; a malformed record
    raises ValueError naming its file and line."""
    return [p for p in read_jsonl(path, preference_pair) if p is not None]


def render_pair(pair: PreferencePair, vocab: Vocab) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prompt ids (through the assistant marker) and both response id arrays:
    each reply renders as the closing assistant turn and starts after the
    last mask-0 token, which ends the assistant marker."""
    (chosen, mask), (rejected, _) = [
        render_chat(Conversation(pair.prompt.turns + (Turn("assistant", reply),)), vocab)
        for reply in (pair.chosen, pair.rejected)]
    split = int(np.flatnonzero(mask == 0)[-1]) + 1
    return chosen[:split], chosen[split:], rejected[split:]


@dataclass(frozen=True)
class DpoStage:
    pairs: tuple[PreferencePair, ...]
    lr: float
    epochs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        check(self, lr=POSITIVE, epochs=count(1))


@dataclass(frozen=True)
class PreferenceStage:
    """A DPO stage as a run config names it: a preference file and its lr.

    `preferences` None stands for the run's `data.preferences` file.
    """

    inputs: ClassVar = ("preferences",)  # files that must exist at load time
    preferences: str | None
    lr: float
    epochs: int = 1

    def __post_init__(self):
        check(self, preferences=PATH, lr=POSITIVE, epochs=count(1))


def two_stage_plan(general_pairs: Sequence[PreferencePair],
                   curated_pairs: Sequence[PreferencePair],
                   epochs: int = 1) -> tuple[DpoStage, DpoStage]:
    """The published recipe: general pairs at 1e-5, curated pairs at 3e-6."""
    return (DpoStage(tuple(general_pairs), lr=1e-5, epochs=epochs),
            DpoStage(tuple(curated_pairs), lr=3e-6, epochs=epochs))


@dataclass(frozen=True)
class DpoPlan:
    """DPO settings.

    `stages` and `init_checkpoint` say what the dpo command loads;
    `dpo_train` takes the loaded `DpoStage`s as an argument instead.
    """

    beta: float = 0.2
    rank: int = 4
    alpha: float = 16.0
    batch_size: int = 2
    seed: int = 0
    stages: tuple[PreferenceStage, ...] = (PreferenceStage(None, lr=1e-5),)
    init_checkpoint: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        check(self, beta=POSITIVE, rank=count(1), alpha=number(lambda v: True, "a number"),
              batch_size=count(1), init_checkpoint=PATH,
              stages=(lambda v: len(v) > 0, "at least one stage"))


def dpo_train(params: ModelParams, config: ModelConfig, stages: Sequence[DpoStage],
              vocab: Vocab, plan: DpoPlan | None = None, log_path=None
              ) -> tuple[dict[str, LoraAdapter], list[dict]]:
    """Train one shared adapter set across the stages; base weights frozen.

    The reference log-probs are computed once per stage, the pairs
    scored concurrently (`tensor.each`). Each step runs its pairs as
    `optimize` parts on adapted weights built once per step, and one
    seeded backward pulls their summed grads into A and B, which match
    the whole batch's to rounding. Returns the adapters and the per-step
    log records; lora_merge makes a standalone model of them.
    """
    plan = plan if plan is not None else DpoPlan()
    adapters = init_lora_adapters(params, rank=plan.rank, alpha=plan.alpha, seed=plan.seed)
    opt = AdamW({f"{name}.lora_{part}": getattr(adapter, part)
                 for name, adapter in adapters.items() for part in "ab"}, DPO_HYPER)
    named = params.named_tensors()
    base = ModelParams.build(len(params.layers), lambda name: Tensor(named[name].data))
    records: list[dict] = []
    for stage_idx, stage in enumerate(stages):
        rendered = [render_pair(pair, vocab) for pair in stage.pairs]
        if not rendered:
            warnings.warn(f"stage {stage_idx} has no pairs", RuntimeWarning)
            continue
        def ref_logprobs(pair) -> list[float]:
            prompt_ids, chosen, rejected = pair
            return [float(lp.item())
                    for lp in sequence_logprob(base, config, prompt_ids, (chosen, rejected))]

        with no_grad():
            ref_cache = each(ref_logprobs, rendered)

        def pair_loss(leaves: ModelParams, i: int) -> Tensor:
            prompt_ids, chosen, rejected = rendered[i]
            policy_c, policy_r = sequence_logprob(leaves, config, prompt_ids, (chosen, rejected))
            return dpo_loss([policy_c], [policy_r], [ref_cache[i][0]], [ref_cache[i][1]],
                            beta=plan.beta)

        for epoch in range(stage.epochs):
            rng = np.random.default_rng(plan.seed + 104729 * stage_idx + epoch)
            order = rng.permutation(len(rendered))
            for lo in range(0, len(order), plan.batch_size):
                parts = [partial(pair_loss, i=i) for i in order[lo:lo + plan.batch_size]]
                train_loss = optimize(parts, opt, stage.lr, lora_weights(base, adapters))
                log_step(records, {"step": opt.step_count, "stage": stage_idx,
                                   "lr": stage.lr, "train_loss": train_loss}, log_path)
    return adapters, records
