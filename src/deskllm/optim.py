"""AdamW, global-norm gradient clipping, and a token-denominated cosine schedule.

The learning-rate schedule is a function of tokens consumed, not steps,
so batch size changes (and the sequence-length curriculum) leave the
schedule itself untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable

import numpy as np

from .errors import POSITIVE, check, number
from .tensor import ShapeError, Tensor


class NonFiniteGradError(RuntimeError):
    """Gradient norm is NaN or infinite; the step must be aborted."""


@dataclass(frozen=True)
class OptimHyper:
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    clip_norm: float = 1.0

    def __post_init__(self):
        beta = number(lambda v: 0 < v < 1, "a number in (0, 1)")
        check(self, beta1=beta, beta2=beta, eps=POSITIVE,
              weight_decay=number(lambda v: v >= 0, "a number >= 0"),
              clip_norm=POSITIVE)


@dataclass(frozen=True)
class LrSchedule:
    warmup_tokens: float
    total_tokens: float
    peak_lr: float = 2e-4
    min_lr: float = 1e-5

    def __post_init__(self):
        check(self, peak_lr=POSITIVE, total_tokens=POSITIVE)
        check(self, min_lr=number(lambda v: 0 < v <= self.peak_lr,
                                  f"0 < min_lr <= peak_lr ({self.peak_lr})"),
              warmup_tokens=number(lambda v: 0 < v < self.total_tokens,
                                   f"0 < warmup_tokens < total_tokens ({self.total_tokens})"))


def cosine_lr(tokens_seen: float, schedule: LrSchedule) -> float:
    """Linear warmup from 0 to peak, then cosine decay from peak to min.

    Hits peak_lr exactly at warmup_tokens and min_lr exactly at
    total_tokens; constant at min_lr beyond.
    """
    if tokens_seen < 0:
        raise ValueError(f"tokens_seen must be >= 0, got {tokens_seen}")
    if tokens_seen <= schedule.warmup_tokens:
        return schedule.peak_lr * (tokens_seen / schedule.warmup_tokens)
    if tokens_seen >= schedule.total_tokens:
        return schedule.min_lr
    s = (tokens_seen - schedule.warmup_tokens) / (schedule.total_tokens - schedule.warmup_tokens)
    return schedule.min_lr + 0.5 * (schedule.peak_lr - schedule.min_lr) * (1.0 + math.cos(math.pi * s))


def clip_grad_norm(grads: Iterable[np.ndarray], max_norm: float = 1.0) -> float:
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds it.

    Mutates the arrays in place and returns the pre-clip norm. A
    non-finite norm raises NonFiniteGradError (abort-step signal).
    """
    grads = list(grads)
    total = 0.0
    for g in grads:
        flat = g.ravel().astype(np.float64, copy=False)
        total += float(flat @ flat)
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NonFiniteGradError(f"gradient norm is {norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Names listed in no_decay (norm weights) skip the decay term. Moments
    live in the parameter dtype; step() mutates parameter data in place.
    """

    def __init__(self, params: dict[str, Tensor], hyper: OptimHyper | None = None,
                 no_decay: Collection[str] = ()):
        self.params = dict(params)
        self.hyper = hyper if hyper is not None else OptimHyper()
        self.no_decay = frozenset(no_decay)
        unknown = self.no_decay - set(self.params)
        if unknown:
            raise ValueError(f"no_decay names not in params: {sorted(unknown)}")
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.step_count = 0

    def step(self, lr: float) -> None:
        """One update of every parameter; a missing or misshapen gradient
        raises before any weight, moment or the step count changes."""
        grads = self.grads()
        hy = self.hyper
        self.step_count += 1
        c1 = 1.0 - hy.beta1 ** self.step_count
        c2 = 1.0 - hy.beta2 ** self.step_count
        for (name, p), g in zip(self.params.items(), grads):
            m = self.m[name]
            v = self.v[name]
            m *= hy.beta1
            m += (1.0 - hy.beta1) * g
            v *= hy.beta2
            v += (1.0 - hy.beta2) * (g * g)
            update = (m / c1) / (np.sqrt(v / c2) + hy.eps)
            if name not in self.no_decay and hy.weight_decay != 0.0:
                update = update + hy.weight_decay * p.data
            p.data -= lr * update

    def grads(self) -> list[np.ndarray]:
        """Gradient arrays in parameter order (for global-norm clipping),
        each checked to be present and shaped like its parameter."""
        out = []
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient")
            if p.grad.shape != p.data.shape:
                raise ShapeError(f"parameter {name!r}: gradient shape {p.grad.shape} "
                                 f"!= param shape {p.data.shape}")
            out.append(p.grad)
        return out

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
