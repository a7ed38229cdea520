"""Span tracing of deskllm from outside the package.

`Tracer.install` rebinds the public names that deskllm's own callers
look up (module functions, wherever a module imported them by name,
and class methods) to timing wrappers. A target missing from the code
under test is skipped and listed in `missing`; every metric derived
from it is then absent, never a failure.

Each span is (name, start, end, parent index, request id, extra). Spans
stay in memory; `dump` writes them out when the run ends. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Spans that open a new step or request: every span recorded under one
# carries its id.
STEP_SPANS = ("pretrain.train_step", "chat.sft_loss", "dpo.loss",
              "evals.mc_score", "evals.perplexity", "evals.generate")


def _gflop(a, b) -> float:
    """2*m*k*n per matrix product, times the broadcast batch size."""
    *batch, m, k = a.shape
    n = b.shape[-1]
    lead = np.broadcast_shapes(tuple(batch), tuple(b.shape[:-2]))
    return 2.0 * float(np.prod(lead, dtype=np.float64)) * m * k * n / 1e9


def _forward_extra(out, args, kwargs):
    # no_grad() clears this flag for the whole call, so it still holds here.
    tensor_mod = sys.modules.get("deskllm.tensor")
    grad = bool(getattr(tensor_mod, "_grad_enabled", True))
    return {"tokens": int(np.asarray(args[1]).size), "grad": grad}


def _kv_bytes(out, args, kwargs):
    # The session re-concatenates its whole cache on every step, so the
    # cache size after the step is the number of bytes that step copied.
    session = args[0]
    caches = list(getattr(session, "k_cache", [])) + list(getattr(session, "v_cache", []))
    return {"t": int(np.asarray(args[1]).size),
            "kv_bytes": int(sum(c.nbytes for c in caches))}


def _checkpoint_mb(out, args, kwargs):
    return {"mb": os.path.getsize(args[0]) / 1e6}


# (module, attribute path, span name, extra(out, args, kwargs) -> dict or None)
TARGETS = [
    ("deskllm.tensor", "matmul", "tensor.matmul",
     lambda out, a, k: {"gflop": _gflop(a[0], a[1])}),
    ("deskllm.tensor", "silu", "tensor.silu", None),
    ("deskllm.tensor", "softmax", "tensor.softmax", None),
    ("deskllm.tensor", "rms_norm", "tensor.rms_norm", None),
    ("deskllm.tensor", "cross_entropy", "tensor.cross_entropy", None),
    ("deskllm.tensor", "embedding", "tensor.embedding", None),
    ("deskllm.tensor", "backward", "tensor.backward", None),
    ("deskllm.model", "forward", "model.forward", _forward_extra),
    ("deskllm.model", "gqa_attention", "model.attention", None),
    ("deskllm.model", "rope_rotate", "model.rope", None),
    ("deskllm.model", "attention_mask", "model.mask", None),
    ("deskllm.model", "linear", "model.linear", None),
    ("deskllm.fp8", "fp8_e4m3", "fp8.e4m3",
     lambda out, a, k: {"elems": int(np.asarray(a[0]).size)}),
    ("deskllm.optim", "AdamW.step", "optim.adamw_step",
     lambda out, a, k: {"params": int(sum(p.data.size for p in a[0].params.values()))}),
    ("deskllm.optim", "clip_grad_norm", "optim.clip", None),
    ("deskllm.tokenizer", "encode", "tokenizer.encode",
     lambda out, a, k: {"bytes": len(a[0].encode("utf-8") if isinstance(a[0], str) else a[0])}),
    ("deskllm.pretrain", "Trainer.train_step", "pretrain.train_step", None),
    ("deskllm.pretrain", "Trainer._val_loss", "pretrain.val", None),
    ("deskllm.pretrain", "Trainer._emit", "pretrain.log", None),
    ("deskllm.chat", "render_chat", "chat.render", None),
    ("deskllm.chat", "sft_loss", "chat.sft_loss", None),
    ("deskllm.dpo", "dpo_train", "dpo.train", None),
    ("deskllm.dpo", "dpo_loss", "dpo.loss", None),
    ("deskllm.dpo", "sequence_logprob", "dpo.sequence_logprob",
     lambda out, a, k: {"policy": k.get("adapters") is not None}),
    ("deskllm.dpo", "lora_merge", "dpo.merge", None),
    ("deskllm.evals", "mc_score", "evals.mc_score", None),
    ("deskllm.evals", "perplexity", "evals.perplexity", None),
    ("deskllm.evals", "generate", "evals.generate", None),
    ("deskllm.evals", "DecodeSession.step", "evals.session_step", _kv_bytes),
    ("deskllm.evals", "apply_repetition_penalty", "evals.repetition_penalty", None),
    ("deskllm.checkpoint", "save_checkpoint", "checkpoint.save", _checkpoint_mb),
    ("deskllm.checkpoint", "load_checkpoint", "checkpoint.load", None),
]

# Functions returning iterators: each next() on the result is a span.
ITER_TARGETS = [
    ("deskllm.data", "sample_mix", "data.sample_mix"),
    ("deskllm.data", "pack_sequences", "data.pack"),
]

# Counted, not spanned: one call per autograd op result.
COUNT_TARGETS = [
    ("deskllm.tensor", "_make", "tensor.ops"),
]


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the target is absent."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        if name in STEP_SPANS:
            self.request += 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][5] = extra(out, args, kwargs)
            return out
        return traced

    def _wrap_iter(self, name, fn):
        tracer = self

        class TracedIter:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open(name)
                try:
                    return next(self.inner)
                finally:
                    tracer._close(idx)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedIter(fn(*args, **kwargs))
        return traced

    def _wrap_count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation ------------------------------------------------------

    def _rebind(self, module: str, path: str, name: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, attr, original = found
        wrapper = make(original)
        if "." in path:  # a method: rebinding the class attribute is enough
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:  # a function: rebind every deskllm module that imported it by name
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "deskllm" or mod_name.startswith("deskllm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        self.installed.add(name)

    def install(self) -> None:
        self.missing = []
        self.installed = set()
        for module, path, name, extra in TARGETS:
            self._rebind(module, path, name, lambda fn, n=name, e=extra: self._wrap(n, fn, e))
        for module, path, name in ITER_TARGETS:
            self._rebind(module, path, name, lambda fn, n=name: self._wrap_iter(n, fn))
        for module, path, name in COUNT_TARGETS:
            self._rebind(module, path, name, lambda fn, n=name: self._wrap_count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "extra"],
                       "missing": self.missing, "counts": dict(self.counts),
                       "spans": self.spans}, f, separators=(",", ":"))


class SpanStats:
    """Totals, self times and extras per span name, with ancestry queries."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _, _) in enumerate(spans):
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.calls[name] += 1

    def under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def select(self, name: str, ancestor: str | None = None, where=None):
        """Indices of spans called `name`, optionally under `ancestor` and
        matching `where(extra)`."""
        for i, span in enumerate(self.spans):
            if span[0] != name:
                continue
            if ancestor is not None and not self.under(i, ancestor):
                continue
            if where is not None and not where(span[5] or {}):
                continue
            yield i

    def duration(self, indices) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def extra_sum(self, indices, key: str) -> float:
        return sum((self.spans[i][5] or {}).get(key, 0) for i in indices)

    def child_total(self, name: str, child: str) -> float:
        """Time spent in `child` spans that are direct children of `name` spans."""
        return sum(end - start for cname, start, end, parent, _, _ in self.spans
                   if cname == child and parent >= 0 and self.spans[parent][0] == name)
