"""Decoder-only transformer with grouped-query attention and rotary positions.

One code path instantiates both the reference 1.8B shape and tiny test
shapes: untied embeddings, RMSNorm, rotary position embeddings, optional
sliding-window causal masking, grouped-query attention, and a gated
(silu) MLP. No biases and no dropout anywhere; neither is configurable.
Only this module knows the parameter layout: `LAYER_KEYS`, `param_shapes`
and `ModelParams.build`, which makes tensors in `named_tensors` order.
LoRA and fp8 only reparametrize weights (`lora_weights`, `fp8_weights`);
blocks read plain ones; a forward given `Fp8Params` rounds each sublayer's input.
`DecodeSession` caches one model's rotated keys and values, and setting
its `pos` back rewinds it; q, k and v stay [T, heads, head_dim] from
their projections to `T.attention`. Scoring several continuations of
one prompt takes one forward instead: `branch_layout` packs the prompt
and each continuation as a branch, and `segments` gives every branch
the positions after the prompt and a mask that hides the other branches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import POSITIVE, ConfigError, check, count
from .fp8 import fp8_emulate
from .tensor import DTYPES, MASK_NEG, ShapeError, Tensor


def _np_dtype(dtype) -> np.dtype:
    if isinstance(dtype, str):
        return np.dtype(DTYPES[dtype])
    return np.dtype(dtype)


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int
    intermediate_size: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    vocab_size: int
    max_context: int = 16384
    sliding_window: int | None = None
    rope_theta: float = 10000.0
    norm_eps: float = 1e-5
    init_std: float = 0.02

    def __post_init__(self):
        sizes = ("hidden_size", "intermediate_size", "n_layers", "n_heads", "n_kv_heads",
                 "vocab_size", "max_context")
        check(self, **dict.fromkeys(sizes, count(1)), sliding_window=count(1, nullable=True),
              rope_theta=POSITIVE, norm_eps=POSITIVE, init_std=POSITIVE)
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads ({self.n_heads}) must be a multiple of n_kv_heads ({self.n_kv_heads})")
        if self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size ({self.hidden_size}) must be divisible by n_heads ({self.n_heads})")
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary embeddings, got {self.head_dim}")
        if self.sliding_window is not None and self.sliding_window > self.max_context:
            raise ConfigError(f"sliding_window ({self.sliding_window}) cannot exceed "
                              f"max_context ({self.max_context})")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.head_dim * self.n_kv_heads

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads


def config_1p8b() -> ModelConfig:
    """Reference 1.8B shape: 16k context with a 4096-token sliding window."""
    return ModelConfig(hidden_size=2560, intermediate_size=6912, n_layers=24,
                       n_heads=32, n_kv_heads=8, vocab_size=32000,
                       max_context=16384, sliding_window=4096)


def config_1p8b_v2(vocab_size: int = 32000) -> ModelConfig:
    """Revised 1.8B shape: plain causal attention over an 8k context."""
    return ModelConfig(hidden_size=2560, intermediate_size=6912, n_layers=24,
                       n_heads=32, n_kv_heads=8, vocab_size=vocab_size,
                       max_context=8192, sliding_window=None)


# Block tensor names after "layers.<i>."; the last dotted part is the LayerParams field.
LAYER_KEYS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo",
              "mlp.w_gate", "mlp.w_up", "mlp.w_down", "norm_attn", "norm_mlp")


@dataclass
class LayerParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor
    norm_attn: Tensor
    norm_mlp: Tensor


@dataclass
class ModelParams:
    token_embedding: Tensor
    layers: list[LayerParams]
    final_norm: Tensor
    lm_head: Tensor

    @classmethod
    def build(cls, n_layers: int, make) -> ModelParams:
        """Parameters holding make(name) for each name, called in named_tensors order."""
        token_embedding = make("token_embedding")
        layers = [LayerParams(**{key.rsplit(".", 1)[-1]: make(f"layers.{i}.{key}")
                                 for key in LAYER_KEYS})
                  for i in range(n_layers)]
        return cls(token_embedding, layers, make("final_norm"), make("lm_head"))

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping; fixes checkpoint and optimizer order."""
        out = {"token_embedding": self.token_embedding}
        for i, layer in enumerate(self.layers):
            for key in LAYER_KEYS:
                out[f"layers.{i}.{key}"] = getattr(layer, key.rsplit(".", 1)[-1])
        out.update(final_norm=self.final_norm, lm_head=self.lm_head)
        return out

    @property
    def dtype(self) -> np.dtype:
        return self.token_embedding.dtype


class Fp8Params(ModelParams):
    """ModelParams with E4M3 attention and MLP weights; a forward given them runs in fp8."""


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in named_tensors order."""
    h, inter, kv, v = config.hidden_size, config.intermediate_size, config.kv_dim, config.vocab_size
    shape = {"token_embedding": (v, h), "final_norm": (h,), "lm_head": (h, v),
             "attn.wq": (h, h), "attn.wk": (h, kv), "attn.wv": (h, kv), "attn.wo": (h, h),
             "mlp.w_gate": (h, inter), "mlp.w_up": (h, inter), "mlp.w_down": (inter, h),
             "norm_attn": (h,), "norm_mlp": (h,)}
    # Shapes stand in for tensors; a layer tensor's name is "layers.<i>.<key>".
    return ModelParams.build(config.n_layers,
                             lambda name: shape[name.split(".", 2)[-1]]).named_tensors()


def _trunc_normal(rng: np.random.Generator, shape, std: float, np_dtype) -> np.ndarray:
    """Normal(0, std) with values beyond 3 std redrawn until none remain."""
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 3.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out.astype(np_dtype)
        out[bad] = rng.normal(0.0, std, size=n_bad)


def init_params(config: ModelConfig, seed: int = 0, dtype: str = "f32") -> ModelParams:
    """Truncated-normal weight matrices, unit norm scales, untied head."""
    np_dtype = _np_dtype(dtype)
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config)

    def make(name: str) -> Tensor:
        data = (np.ones(shapes[name], np_dtype) if "norm" in name
                else _trunc_normal(rng, shapes[name], config.init_std, np_dtype))
        return Tensor(data, requires_grad=True)

    return ModelParams.build(config.n_layers, make)


def count_params(config: ModelConfig) -> int:
    """Exact parameter count of the architecture, in scalars."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


# ---------------------------------------------------------------------------
# adapters and linear application

@dataclass
class LoraAdapter:
    """Additive low-rank delta for one weight matrix: w_eff = w + scale * (a @ b).

    a is [in, r] and b is [r, out], matching the x @ w orientation used
    throughout the model. scale = alpha / r.
    """
    a: Tensor
    b: Tensor
    alpha: float

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


def lora_weights(params: ModelParams, adapters: dict[str, LoraAdapter]) -> ModelParams:
    """The one LoRA formula: each adapted weight becomes w + scale * (a @ b),
    built from graph ops so gradients reach a and b; every other weight is
    the caller's own tensor. The adapter forward and lora_merge read it.
    Adapt, then round, so that fp8 is never dropped: Fp8Params raise."""
    if isinstance(params, Fp8Params):
        raise TypeError("adapt unrounded weights, then round: fp8_weights(lora_weights(...))")
    named = params.named_tensors()
    unknown = set(adapters) - set(named)
    if unknown:
        raise ConfigError(f"adapters target unknown tensors: {sorted(unknown)}")

    def weight(name: str) -> Tensor:
        w, adapter = named[name], adapters.get(name)
        if adapter is None:
            return w
        if adapter.a.shape[0] != w.shape[0] or adapter.b.shape[1] != w.shape[1]:
            raise ShapeError(f"adapter shapes {adapter.a.shape} @ {adapter.b.shape} "
                             f"do not fit weight {name} {w.shape}")
        return T.add(w, T.mul(T.matmul(adapter.a, adapter.b), adapter.scale))

    return ModelParams.build(len(params.layers), weight)


def fp8_weights(params: ModelParams) -> Fp8Params:
    """The fp8 reparametrization: each attention and MLP weight matrix
    rounded to E4M3, with gradients passed straight through; the
    embedding, norm and lm_head weights are the caller's own tensors.
    A forward given the result runs in fp8, the only way to ask for it.
    Fp8Params come back as they are. They are a snapshot: a later
    in-place update of params does not reach them."""
    if isinstance(params, Fp8Params):
        return params
    named = params.named_tensors()

    def weight(name: str) -> Tensor:
        w = named[name]
        return fp8_emulate(w) if name.startswith("layers.") and "norm" not in name else w

    return Fp8Params.build(len(params.layers), weight)


def linear(x: Tensor, w: Tensor, *, fp8: bool = False) -> Tensor:
    """x @ w; fp8 (set by `forward` for Fp8Params) rounds x to E4M3."""
    return T.matmul(fp8_emulate(x) if fp8 else x, w)


# ---------------------------------------------------------------------------
# positional rotation and masking

def rope_tables(positions, d_head: int, theta: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables [T, d_head] for integer positions (may be negative);
    both halves of a head turn by the same angles."""
    half = d_head // 2
    inv = float(theta) ** (-2.0 * np.arange(half, dtype=np.float64) / d_head)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv[None, :]
    ang = np.concatenate([ang, ang], axis=1)
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def rope_rotate(x: Tensor, positions, theta: float, *, tables=None) -> Tensor:
    """Rotate head vectors by position-dependent angles.

    x is [T, ..., d_head]; dimension i pairs with i + d_head/2 and turns
    by angle p * theta**(-2i/d_head) at position p. `tables` passes
    rope_tables(positions, ...) already computed for x's dtype.
    """
    d = x.shape[-1]
    if d % 2 != 0:
        raise ConfigError(f"rotary embedding needs an even head dim, got {d}")
    positions = np.asarray(positions)
    if positions.ndim != 1 or positions.shape[0] != x.shape[0]:
        raise ShapeError(
            f"positions shape {positions.shape} does not match sequence length {x.shape[0]}")
    cos, sin = tables if tables is not None else rope_tables(positions, d, theta, x.dtype)
    lift = (x.shape[0],) + (1,) * (x.data.ndim - 2) + (d,)
    return T.rotary(x, cos.reshape(lift), sin.reshape(lift))


def segment_positions(segments, seq_len: int) -> np.ndarray:
    """Positions of a prefix-shared layout of seq_len tokens (`branch_layout`).

    Segment 0 is the prompt at positions 0..P-1; every branch k > 0
    restarts at P. Segments must be non-negative and non-decreasing, so
    the prompt comes first and each branch is one contiguous run.
    """
    seg = np.asarray(segments)
    if seg.shape != (seq_len,) or seg.dtype.kind not in "iu":
        raise ValueError(f"segments must be {seq_len} integer ids, got {seg.dtype} {seg.shape}")
    if seg.size and (seg[0] < 0 or np.any(np.diff(seg) < 0)):
        raise ValueError("segments must be non-negative and non-decreasing")
    index = np.arange(seg.size)
    first = np.searchsorted(seg, seg)  # where each token's segment starts
    return np.where(seg > 0, index - first + np.count_nonzero(seg == 0), index)


def attention_mask(seq_len: int, window: int | None = None, dtype="f32", *,
                   start: int = 0, segments=None) -> Tensor:
    """Additive mask: position i may attend j in [max(0, i-window+1), i].

    Window absent means plain causal. Rows are the queries at positions
    start..start+seq_len-1; columns are the keys they can reach, from the
    first query's window start to the last query. Disallowed entries
    carry the dtype's masking constant; allowed entries are zero.

    segments (one id per token, see `segment_positions`) lays out a
    prompt and its branches: a row sees the earlier prompt keys and the
    earlier keys of its own branch, within the window by position, and
    never another branch's keys. All zeros gives the plain mask.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if window is not None and window < 1:
        raise ConfigError(f"sliding window must be positive, got {window!r}")
    np_dtype = _np_dtype(dtype)
    i = np.arange(start, start + seq_len)[:, None]
    j = np.arange(0 if window is None else max(0, start - window + 1), start + seq_len)[None, :]
    allowed = j <= i
    if segments is not None:
        if start != 0:
            raise ValueError("segments lay out a whole sequence; start must be 0")
        pos = segment_positions(segments, seq_len)
        seg = np.asarray(segments)
        allowed &= (seg[None, :] == 0) | (seg[None, :] == seg[:, None])
        i, j = pos[:, None], pos[None, :]
    if window is not None:
        allowed &= j >= i - window + 1
    data = np.where(allowed, 0.0, MASK_NEG[np_dtype]).astype(np_dtype)
    return Tensor(data)


def branch_layout(prompt_ids, continuations) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Pack a prompt and its continuations for one prefix-shared forward.

    The layout is the prompt (segment 0), then each continuation but its
    last token as its own branch (segment 1, 2, ...). Branches go in
    sorted order of their ids, so the logits do not depend on the order
    of `continuations`. Returns the ids, the segments and, for each
    continuation in the given order, the logit rows that score its
    tokens: the prompt's last row, then the rows of its own branch. An
    empty continuation has no rows.
    """
    prompt = np.asarray(prompt_ids, dtype=np.int64)
    if prompt.ndim != 1 or prompt.size == 0:
        raise ValueError("prompt must be a nonempty 1-D id sequence")
    conts = [np.asarray(c, dtype=np.int64) for c in continuations]
    if any(c.ndim != 1 for c in conts):
        raise ValueError("each continuation must be a 1-D id sequence")
    parts, segs = [prompt], [np.zeros(prompt.size, np.int64)]
    rows = [np.zeros(0, np.int64)] * len(conts)
    end = prompt.size
    for seg, k in enumerate(sorted(range(len(conts)), key=lambda k: conts[k].tolist()), 1):
        if conts[k].size == 0:
            continue
        body = conts[k][:-1]
        rows[k] = np.concatenate([[prompt.size - 1], np.arange(end, end + body.size)])
        parts.append(body)
        segs.append(np.full(body.size, seg, np.int64))
        end += body.size
    return np.concatenate(parts), np.concatenate(segs), rows


# ---------------------------------------------------------------------------
# forward pass

def gqa_attention(q: Tensor, k: Tensor, v: Tensor, wo: Tensor, mask: Tensor,
                  config: ModelConfig, *, fp8: bool = False) -> Tensor:
    """Grouped-query scaled dot-product attention with output projection.

    q is [Tq, n_heads, head_dim]; k and v are [Tk, n_kv_heads, head_dim]
    and the mask is [Tq, Tk] (Tk exceeds Tq when earlier keys come from a
    cache). Each group of n_heads/n_kv_heads query heads shares one KV
    head; scores are scaled by 1/sqrt(head_dim), masked, softmaxed,
    applied to values, and the concatenated heads are projected by wo.
    The core is one `T.attention` op, so the graph keeps q, k, v and the
    mask but no [n_kv, group, Tq, Tk] array: the op's pull recomputes
    the softmax weights.
    """
    n_h, n_kv, d = config.n_heads, config.n_kv_heads, config.head_dim
    t_len, t_keys = q.shape[0], k.shape[0]
    if q.shape != (t_len, n_h, d):
        raise ShapeError(f"q shape {q.shape} inconsistent with {n_h} heads of dim {d}")
    if k.shape != (t_keys, n_kv, d) or v.shape != k.shape:
        raise ShapeError(
            f"k/v shapes {k.shape}/{v.shape} inconsistent with {n_kv} KV heads of dim {d}")
    # Query head h = kv*group + g lands at [kv, g]; k and v broadcast over g.
    qh = T.reshape(T.transpose(q, (1, 0, 2)), (n_kv, config.group_size, t_len, d))
    kh = T.reshape(T.transpose(k, (1, 0, 2)), (n_kv, 1, t_keys, d))
    vh = T.reshape(T.transpose(v, (1, 0, 2)), (n_kv, 1, t_keys, d))
    ctx = T.attention(qh, kh, vh, mask, 1.0 / math.sqrt(d))
    ctx = T.reshape(T.transpose(T.reshape(ctx, (n_h, t_len, d)), (1, 0, 2)), (t_len, n_h * d))
    return linear(ctx, wo, fp8=fp8)


def decoder_block(x: Tensor, layer: LayerParams, mask: Tensor, config: ModelConfig,
                  positions=None, *, fp8: bool = False, rope=None, kv=None) -> Tensor:
    """Pre-norm attention and gated-MLP sublayers around residual adds.

    rope is rope_tables for positions when already computed. kv, given a
    session, maps this block's new rotated keys and values, each
    [T, n_kv_heads, head_dim], to the ones its attention reads. fp8, set
    by `forward` for Fp8Params, rounds each linear input to E4M3, a normed
    input once for all its projections.
    """
    t_len, d = x.shape[0], config.head_dim
    if positions is None:
        positions = np.arange(t_len)

    h = T.rms_norm(x, layer.norm_attn, config.norm_eps)
    h = fp8_emulate(h) if fp8 else h
    q, k, v = (T.reshape(linear(h, w), (t_len, -1, d))
               for w in (layer.wq, layer.wk, layer.wv))
    q = rope_rotate(q, positions, config.rope_theta, tables=rope)
    k = rope_rotate(k, positions, config.rope_theta, tables=rope)
    if kv is not None:
        k, v = kv(k, v)
    attn = gqa_attention(q, k, v, layer.wo, mask, config, fp8=fp8)
    x = T.add(x, attn)

    h = T.rms_norm(x, layer.norm_mlp, config.norm_eps)
    h = fp8_emulate(h) if fp8 else h
    gate = T.silu(linear(h, layer.w_gate))
    up = linear(h, layer.w_up)
    y = linear(T.mul(gate, up), layer.w_down, fp8=fp8)
    return T.add(x, y)


class DecodeSession:
    """A KV cache bound to one model; `step` runs the cached `forward`.

    k_cache and v_cache are [n_layers, capacity, n_kv_heads, head_dim]
    buffers sized to the request; rows [0, pos) are live. A step puts its
    tokens at positions pos.., writes their keys and values to the rows
    after the live ones and advances pos; a step past capacity raises.
    Setting pos back rewinds: the next step overwrites the rows past it.
    Each step reads its params as they are then: Fp8Params are a snapshot,
    but plain params are the caller's live tensors, and an in-place update
    (`AdamW.step`) reaches later steps while the cached K/V stay as made.
    """

    def __init__(self, params: ModelParams, config: ModelConfig, capacity: int):
        if not 0 <= capacity <= config.max_context:
            raise ValueError(f"cache capacity {capacity} outside [0, {config.max_context}]")
        self.params, self.config, self.pos = params, config, 0
        shape = (2, config.n_layers, capacity, config.n_kv_heads, config.head_dim)
        self.k_cache, self.v_cache = np.zeros(shape, params.dtype)

    @property
    def capacity(self) -> int:
        return self.k_cache.shape[1]

    def _store(self, layer: int, lo: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Write new rows at pos; return views of rows [lo, pos + new rows)."""
        end = self.pos + k.shape[0]
        self.k_cache[layer, self.pos:end] = k.data
        self.v_cache[layer, self.pos:end] = v.data
        return Tensor(self.k_cache[layer, lo:end]), Tensor(self.v_cache[layer, lo:end])

    def step(self, tokens) -> np.ndarray:
        """Process new tokens; returns their [t, vocab] logit rows."""
        with T.no_grad():
            return forward(self.params, np.asarray(tokens, dtype=np.int64).reshape(-1),
                           self.config, cache=self).data


def forward(params: ModelParams, tokens, config: ModelConfig, *, adapters=None,
            cache: DecodeSession | None = None, segments=None) -> Tensor:
    """Logits [T, vocab] for one token sequence.

    Given Fp8Params (`fp8_weights`), the forward runs in fp8: it reads
    their E4M3 attention/MLP weights and rounds each sublayer's input to
    E4M3; the embedding, lm_head, and norm weights are never rounded.
    adapters maps tensor names (as in named_tensors) to LoraAdapter; the
    forward reads lora_weights(params, adapters), as lora_merge stores.

    With a cache (a DecodeSession, only under no_grad), the tokens
    continue the cached ones: they sit at positions cache.pos.., attend
    to the cached keys and values within the window, and are appended to
    the cache. With segments (see `branch_layout`), the tokens are a
    prompt and its branches: each branch restarts at the prompt's end
    and attends to the prompt and to itself only. max_context bounds the
    positions, not the number of tokens. Training, decoding and scoring
    all run this one path. `T.embedding` rejects ids outside
    [0, vocab_size).
    """
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"tokens must be a non-empty 1-D sequence, got shape {ids.shape}")
    t_len = int(ids.shape[0])
    start = 0
    if cache is not None:
        if segments is not None:
            raise ValueError("a forward takes segments or a cache, not both")
        if T.grad_enabled():
            raise ValueError("a cached forward runs under no_grad()")
        start = cache.pos
        if start + t_len > cache.capacity:
            raise ValueError(f"{start + t_len} positions exceed cache capacity {cache.capacity}")
    positions = (np.arange(start, start + t_len) if segments is None
                 else segment_positions(segments, t_len))
    if positions.max() >= config.max_context:
        raise ValueError(f"{positions.max() + 1} positions exceed max_context "
                         f"{config.max_context}")
    if adapters:
        params = lora_weights(params, adapters)
    fp8 = isinstance(params, Fp8Params)
    mask = attention_mask(t_len, config.sliding_window, dtype=params.dtype, start=start,
                          segments=segments)
    rope = rope_tables(positions, config.head_dim, config.rope_theta, params.dtype)

    x = T.embedding(params.token_embedding, ids)
    first_key = start + t_len - mask.shape[-1]  # the mask's columns end at the last query
    for i, layer in enumerate(params.layers):
        kv = None if cache is None else functools.partial(cache._store, i, first_key)
        x = decoder_block(x, layer, mask, config, positions, fp8=fp8, rope=rope, kv=kv)
    if cache is not None:
        cache.pos = start + t_len
    x = T.rms_norm(x, params.final_norm, config.norm_eps)
    return T.matmul(x, params.lm_head)
