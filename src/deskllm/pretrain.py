"""Staged pretraining loop, and the optimizer step and step log that
pretraining, SFT and DPO share.

A step is a list of micro-batches: each packed window is one. They run
concurrently on the step's weights, built once, one per usable CPU
(`tensor.each`), each backpropagating its loss, times its 1/n share of
the batch, into its own gradients; these are added in window order, so
a step holds one window's autograd graph per unit in flight, and the
gradients it sums are the whole batch's bit for bit on any CPU count.
Validation scores its windows concurrently too, with the same value as
one at a time.

The learning-rate schedule is evaluated after counting the current
batch into tokens_seen, so the first logged lr is peak * batch/warmup
rather than zero. Stage membership (and with it the training sequence
length) is decided from tokens_seen before each batch is drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial, reduce
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import DataStage, Document, pack_sequences, sample_mix, stage_index
from .errors import ConfigError, check, count
from .model import ModelConfig, ModelParams, forward, fp8_weights
from .optim import AdamW, LrSchedule, OptimHyper, clip_grad_norm, cosine_lr
from .tensor import Tensor, accumulate, add, backward, cross_entropy, each, mul, no_grad
from .tokenizer import Vocab, encode


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; the run was aborted."""


def optimize(parts: Sequence[Callable[[ModelParams | None], Tensor]], opt: AdamW, lr: float,
             weights: ModelParams | None = None) -> float:
    """One optimizer step over the micro-batches `parts`; returns the loss.

    `weights` are the step's weights, built once by the caller with grad:
    params, `fp8_weights(params)` or `lora_weights(base, adapters)`. Every
    part reads them, each op result detached into a leaf, and builds one
    micro-batch's mean loss; loss * 1/n is backpropagated into the part's
    own (leaf, grad) list. The parts run concurrently (`tensor.each`)
    and their grads are added into the leaves' `.grad` in part order,
    ((g0 + g1) + g2) + ..., so a step is the same bit for bit on any CPU
    count. The returned mean is the dtype sum of the part losses times
    1/n. Then a seeded backward pulls each detached leaf's grad through
    its weight's graph, before global-norm clipping and AdamW at `lr`.

    A non-finite loss, of any part or of the mean, raises TrainingDiverged
    (the first such part in part order) before any weight, moment or step
    count changes. Gradients are cleared afterwards in every case, also
    when clipping finds a non-finite norm or a later part diverged.
    """
    share = 1.0 / len(parts)
    named = {} if weights is None else weights.named_tensors()
    leaves = {name: w if w._node is None else Tensor(w.data, requires_grad=True)
              for name, w in named.items()}
    shared = None if weights is None else type(weights).build(len(weights.layers), leaves.get)

    def run(part):
        loss = part(shared)
        _check_finite(loss, opt)
        grads: list = []
        backward(mul(loss, share), into=grads)
        return loss.data, grads

    def fold(result):
        loss, grads = result
        accumulate(grads)
        return Tensor(loss)

    try:
        losses = each(run, parts, fold)
        mean = _check_finite(mul(reduce(add, losses), share), opt)
        for w, leaf in zip(named.values(), leaves.values()):
            if leaf is not w and leaf.grad is not None:
                backward(w, leaf.grad)
        clip_grad_norm(opt.grads(), opt.hyper.clip_norm)
        opt.step(lr)
    finally:
        opt.zero_grad()
    return mean


def _check_finite(loss: Tensor, opt: AdamW) -> float:
    value = float(loss.item())
    if not math.isfinite(value):
        raise TrainingDiverged(f"step {opt.step_count}: loss is {value}")
    return value


def log_step(records: list[dict], record: dict, path) -> None:
    """Append `record` to `records` and, when `path` is set, as a JSON
    line to that file."""
    records.append(record)
    if path is not None:
        with Path(path).open("a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")


def no_decay_names(params: ModelParams) -> set[str]:
    """Norm weights are exempt from weight decay; everything else decays."""
    return {name for name in params.named_tensors() if "norm" in name}


@dataclass(frozen=True)
class TrainPlan:
    stages: Sequence[DataStage]
    schedule: LrSchedule
    hyper: OptimHyper = OptimHyper()
    batch_sequences: int = 4
    fp8: bool = False
    seed: int = 0
    max_steps: int | None = None
    val_every: int | None = None
    val_batches: int = 2

    def __post_init__(self):
        check(self, stages=(lambda v: len(v) > 0, "at least one stage"),
              batch_sequences=count(1), max_steps=count(1, nullable=True),
              val_every=count(1, nullable=True), val_batches=count(1))

    @property
    def total_budget(self) -> float:
        return sum(stage.token_budget for stage in self.stages)


def batch_loss(params: ModelParams, config: ModelConfig, examples) -> Tensor:
    """Mean next-token cross-entropy over (inputs, targets) examples.

    The package's one forward-then-cross-entropy: pretrain, SFT and
    perplexity all score through it. (DPO and multiple choice score a
    prompt's continuations in one prefix-shared `dpo.sequence_logprob`.)
    Examples may differ in length, and targets hold IGNORE_INDEX on
    unscored rows. The result is the mean of per-example means; packed
    windows all score seq_len - 1 rows, so for them it is the
    per-position mean. The examples are scored concurrently
    (`tensor.each`), in the caller's grad mode, and summed in input
    order, so the value and its gradients are the same on any CPU count.
    """
    losses = each(lambda ex: cross_entropy(forward(params, ex[0], config), ex[1]), examples)
    return mul(reduce(add, losses), 1.0 / len(losses))


def batch_grads(params: ModelParams, config: ModelConfig, batch) -> dict[str, np.ndarray]:
    """Gradients of the mean batch loss, leaving params' grads cleared."""
    named = params.named_tensors()
    for t in named.values():
        t.zero_grad()
    batch_loss(params, config, batch).backward()
    out = {name: t.grad.copy() for name, t in named.items()}
    for t in named.values():
        t.zero_grad()
    return out


def shard_gradient_gap(params: ModelParams, config: ModelConfig, batch, k: int) -> float:
    """Max elementwise gap between whole-batch grads and the k-shard mean.

    This is the data-parallel correctness contract: averaging each
    shard's mean-loss gradient must reproduce the whole-batch gradient.
    """
    if len(batch) % k != 0:
        raise ValueError(f"batch of {len(batch)} not divisible into {k} shards")
    whole = batch_grads(params, config, batch)
    size = len(batch) // k
    shard_sums: dict[str, np.ndarray] = {name: np.zeros_like(g) for name, g in whole.items()}
    for i in range(k):
        shard = batch[i * size:(i + 1) * size]
        for name, g in batch_grads(params, config, shard).items():
            shard_sums[name] += g
    return max(float(np.max(np.abs(whole[name] - shard_sums[name] / k)))
               for name in whole)


class Trainer:
    """Drives the staged loop over a named-source document corpus."""

    def __init__(self, params: ModelParams, config: ModelConfig, plan: TrainPlan,
                 sources: Mapping[str, Sequence[Document]], vocab: Vocab,
                 val_sources: Mapping[str, Sequence[Document]] | None = None,
                 log_path=None):
        if vocab.eos_id is None:
            raise ConfigError("training requires a vocab with an eos token")
        if len(vocab) > config.vocab_size:
            raise ConfigError(
                f"vocab size {len(vocab)} exceeds model vocab {config.vocab_size}")
        self.params = params
        self.config = config
        self.plan = plan
        self.sources = sources
        self.vocab = vocab
        self.val_sources = val_sources
        self.log_path = log_path
        self.opt = AdamW(params.named_tensors(), plan.hyper,
                         no_decay=no_decay_names(params))
        self.tokens_seen = 0
        self.records: list[dict] = []
        self._stage_index = -1
        self._stream = None
        self._val_set: list = []

    @property
    def step(self) -> int:
        """Optimizer steps taken; `optimize` raises before a failed step counts."""
        return self.opt.step_count

    def _packed_stream(self, stage: DataStage, sources, seed: int):
        docs = sample_mix(stage, sources, seed=seed)
        vocab = self.vocab  # closing over self would make self._stream a reference cycle
        tokens = (encode(doc.text, vocab) for doc in docs)
        return pack_sequences(tokens, stage.seq_len, self.vocab.eos_id)

    def _enter_stage(self, index: int, stage: DataStage) -> None:
        self._stage_index = index
        self._stream = self._packed_stream(stage, self.sources,
                                           seed=self.plan.seed + 7919 * index)
        self._val_set = []
        if self.val_sources is not None:
            val_stream = self._packed_stream(stage, self.val_sources,
                                             seed=self.plan.seed + 7919 * index + 1)
            n = self.plan.val_batches * self.plan.batch_sequences
            self._val_set = [next(val_stream) for _ in range(n)]

    def _weights(self) -> ModelParams:
        return fp8_weights(self.params) if self.plan.fp8 else self.params

    def _val_loss(self) -> float | None:
        if not self._val_set:
            return None
        with no_grad():
            return float(batch_loss(self._weights(), self.config, self._val_set).item())

    def train_step(self, batch, seq_len: int) -> dict:
        """One optimization step on an explicit batch, one window per
        micro-batch; returns the log record."""
        parts = [partial(batch_loss, config=self.config, examples=[window]) for window in batch]
        tokens = sum(len(window) for window, _ in batch)
        lr = cosine_lr(self.tokens_seen + tokens, self.plan.schedule)
        train_loss = optimize(parts, self.opt, lr, self._weights())
        self.tokens_seen += tokens
        return {"step": self.step, "tokens_seen": self.tokens_seen, "lr": lr,
                "seq_len": seq_len, "train_loss": train_loss}

    def _emit(self, record: dict) -> None:
        log_step(self.records, record, self.log_path)

    def run(self, max_steps: int | None = None) -> list[dict]:
        """Train until the total token budget (or a step cap) is reached."""
        cap = max_steps if max_steps is not None else self.plan.max_steps
        while self.tokens_seen < self.plan.total_budget:
            if cap is not None and self.step >= cap:
                break
            index = stage_index(self.tokens_seen, self.plan.stages)
            stage = self.plan.stages[index]
            if index != self._stage_index:
                self._enter_stage(index, stage)
            batch = [next(self._stream) for _ in range(self.plan.batch_sequences)]
            record = self.train_step(batch, stage.seq_len)
            if (self.plan.val_every is not None
                    and self.step % self.plan.val_every == 0):
                val = self._val_loss()
                if val is not None:
                    record["val_loss"] = val
            self._emit(record)
        return self.records
