"""Shared tiny-model builders and a straight-line forward oracle."""

from __future__ import annotations

import os
import sys

import numpy as np

from deskllm import fp8, model
from deskllm.model import ModelConfig, ModelParams, init_params


def tiny_config(**overrides) -> ModelConfig:
    base = dict(hidden_size=16, intermediate_size=24, n_layers=2, n_heads=4,
                n_kv_heads=2, vocab_size=32, max_context=64, sliding_window=None)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed: int = 0, dtype: str = "f64", **overrides):
    cfg = tiny_config(**overrides)
    return cfg, init_params(cfg, seed=seed, dtype=dtype)


def reference_forward(params: ModelParams, ids, cfg: ModelConfig) -> np.ndarray:
    """Re-derive the logits with explicit per-head, per-position loops.

    Written independently of the library's vectorized path so agreement
    is meaningful: rotations are applied scalar pair by scalar pair and
    attention is restricted to the allowed window instead of masked.
    """
    w = {name: t.data.astype(np.float64) for name, t in params.named_tensors().items()}
    ids = np.asarray(ids)
    t_total = len(ids)
    d = cfg.head_dim
    half = d // 2
    group = cfg.n_heads // cfg.n_kv_heads
    inv = cfg.rope_theta ** (-2.0 * np.arange(half) / d)

    def norm(v, g):
        return v / np.sqrt(np.mean(v * v, axis=-1, keepdims=True) + cfg.norm_eps) * g

    def rot(vec, p):
        out = vec.copy()
        for i in range(half):
            ang = p * inv[i]
            a, b = vec[i], vec[i + half]
            out[i] = a * np.cos(ang) - b * np.sin(ang)
            out[i + half] = a * np.sin(ang) + b * np.cos(ang)
        return out

    x = w["token_embedding"][ids]
    for li in range(cfg.n_layers):
        p = f"layers.{li}"
        h = norm(x, w[f"{p}.norm_attn"])
        q = h @ w[f"{p}.attn.wq"]
        k = h @ w[f"{p}.attn.wk"]
        v = h @ w[f"{p}.attn.wv"]
        ctx = np.zeros((t_total, cfg.hidden_size))
        for head in range(cfg.n_heads):
            kv = head // group
            qs = np.stack([rot(q[t, head * d:(head + 1) * d], t) for t in range(t_total)])
            ks = np.stack([rot(k[t, kv * d:(kv + 1) * d], t) for t in range(t_total)])
            vs = v[:, kv * d:(kv + 1) * d]
            for t in range(t_total):
                lo = 0 if cfg.sliding_window is None else max(0, t - cfg.sliding_window + 1)
                js = np.arange(lo, t + 1)
                scores = np.array([qs[t] @ ks[j] for j in js]) / np.sqrt(d)
                e = np.exp(scores - scores.max())
                ctx[t, head * d:(head + 1) * d] = (e / e.sum()) @ vs[js]
        x = x + ctx @ w[f"{p}.attn.wo"]
        h = norm(x, w[f"{p}.norm_mlp"])
        gate = h @ w[f"{p}.mlp.w_gate"]
        act = gate / (1.0 + np.exp(-gate)) * (h @ w[f"{p}.mlp.w_up"])
        x = x + act @ w[f"{p}.mlp.w_down"]
    return norm(x, w["final_norm"]) @ w["lm_head"]


def count_forwards(monkeypatch) -> list[int]:
    """Record the token count of every `model.forward` call, wherever a
    deskllm module imported it, for the rest of the test."""
    calls: list[int] = []
    real = model.forward

    def counted(params, tokens, *args, **kwargs):
        calls.append(int(np.size(tokens)))
        return real(params, tokens, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("deskllm") and getattr(module, "forward", None) is real:
            monkeypatch.setattr(module, "forward", counted)
    return calls


def count_roundings(monkeypatch) -> list[np.ndarray]:
    """Record every array that `fp8.fp8_e4m3` rounds, for the rest of the test."""
    rounded: list[np.ndarray] = []
    real = fp8.fp8_e4m3

    def counted(x):
        rounded.append(x)
        return real(x)

    monkeypatch.setattr(fp8, "fp8_e4m3", counted)
    return rounded


def weight_roundings(rounded, params: ModelParams) -> dict[str, int]:
    """How many of the `rounded` arrays equal each attention and MLP weight
    matrix of params, the ones `fp8_weights` rounds."""
    return {name: sum(np.shape(x) == t.shape and np.array_equal(x, t.data) for x in rounded)
            for name, t in params.named_tensors().items()
            if name.startswith("layers.") and "norm" not in name}


def use_cpus(monkeypatch, n: int) -> None:
    """Make `tensor.each` see n usable CPUs for the rest of the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
