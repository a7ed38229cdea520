"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 or float64) and record a
backward graph as they are combined. The op set is deliberately small:
exactly the kernels a decoder language model needs, each with a
hand-written backward rule. Gradients land on leaf tensors only;
intermediate cotangents live in transient buffers during `backward`.
Under `no_grad` an op result is bare: its array, in its inputs' dtype,
and no edges; the hot ops return it before building their pulls. The
grad mode belongs to the thread that sets it. `each` maps graph-free
units over items, one per usable CPU at a time, with results in input
order and so independent of the CPU count.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

# Target value that excludes a position from loss and gradient.
IGNORE_INDEX = -100

# Additive masking constant per dtype. Used instead of true -inf so that
# f32 softmax never sees NaN from (-inf) - (-inf).
MASK_NEG = {
    np.dtype(np.float32): -1e9,
    np.dtype(np.float64): -1e300,
}


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class EmptyLossError(ValueError):
    """A loss was requested over zero scored positions."""


class _Mode(threading.local):
    """Per-thread state: each thread starts with grad on, outside `each`."""
    grad = True
    in_each = False


_mode = _Mode()


def __getattr__(name: str):
    # perfbench's span extras read `_grad_enabled`: it is the calling
    # thread's mode.
    if name == "_grad_enabled":
        return _mode.grad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def grad_enabled() -> bool:
    """Whether the calling thread's ops record a backward graph (False
    inside `no_grad`)."""
    return _mode.grad


@contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only), for
    the calling thread alone."""
    prev = _mode.grad
    _mode.grad = False
    try:
        yield
    finally:
        _mode.grad = prev


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def each(fn: Callable, items) -> list:
    """`[fn(x) for x in items]`; graph-free, the units run concurrently.

    With the calling thread's grad mode off, up to one unit per usable
    CPU runs at once: the calling thread and helper threads, each under
    `no_grad`, take the items in input order. Results come back in input
    order, so a caller that folds them in that order gets the same value
    as the sequential loop, whatever the CPU count. The first failing
    unit in input order re-raises its exception, and no unit after it
    starts once it has failed. Every helper thread is joined before the
    call returns. With grad on, or inside a unit, it is the plain loop.
    The units overlap where numpy and BLAS release the interpreter lock;
    a multi-threaded BLAS shares the same cores.
    """
    items = list(items)
    width = 1 if _mode.grad or _mode.in_each else min(len(items), _usable_cpus())
    if width < 2:
        return [fn(x) for x in items]
    results: list = [None] * len(items)
    first_failure: list = [len(items), None]  # lowest failing index, its exception
    lock = threading.Lock()
    order = iter(range(len(items)))  # shared; next() on it is atomic under the GIL

    def run():
        _mode.grad, _mode.in_each = False, True
        for i in order:
            if i > first_failure[0]:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    if i < first_failure[0]:
                        first_failure[:] = [i, exc]
                return

    helpers = [threading.Thread(target=run, name=f"deskllm-each-{k}")
               for k in range(width - 1)]
    try:
        for t in helpers:
            t.start()
        run()  # the calling thread's share
    finally:
        _mode.in_each = False
        for t in helpers:
            if t.ident is not None:
                t.join()
    if first_failure[1] is not None:
        raise first_failure[1]
    return results


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """N-dimensional array with an optional gradient and backward record.

    `_pairs` holds (parent, pull) edges where `pull` maps this node's
    cotangent to the parent's contribution. Leaves (no pairs) accumulate
    into `.grad`; anything else is internal to `backward`, which sets an
    op result's `_pairs` to None once it has run its pulls.
    """

    __slots__ = ("data", "grad", "requires_grad", "_pairs", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._pairs: list[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]] | None = []

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={'set' if self.grad is not None else 'none'})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other, self.dtype)))

    def __rsub__(self, other):
        return add(_coerce(other, self.dtype), neg(self))

    def __matmul__(self, other):
        return matmul(self, other)


def _coerce(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, pairs=()) -> Tensor:
    """Build an op result, keeping only edges to grad-needing parents.

    `data` is already an array of the op's dtype, or a numpy scalar from
    an op on 0-d arrays, which is wrapped. With grad off no edges are kept,
    so the hot ops call `_make(data)` before building their pulls.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out._pairs = []
    if pairs and _mode.grad:
        kept = [(p, fn) for p, fn in pairs if p.requires_grad]
        if kept:
            out._pairs = kept
            out.requires_grad = True
    return out


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float64))
    b = _coerce(b, a.dtype)
    data = a.data + b.data
    if not _mode.grad:
        return _make(data)
    return _make(data, [
        (a, lambda g: _sum_to(g, a.shape)),
        (b, lambda g: _sum_to(g, b.shape)),
    ])


def mul(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float64))
    b = _coerce(b, a.dtype)
    data = a.data * b.data
    if not _mode.grad:
        return _make(data)
    return _make(data, [
        (a, lambda g: _sum_to(g * b.data, a.shape)),
        (b, lambda g: _sum_to(g * a.data, b.shape)),
    ])


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, [(a, lambda g: -g)])


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), elementwise."""
    sig = _sigmoid(x.data)
    data = x.data * sig
    if not _mode.grad:
        return _make(data)
    return _make(data, [(x, lambda g: g * (sig * (1.0 + x.data * (1.0 - sig))))])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, so no branch on the sign is needed.
    return 0.5 * (1.0 + np.tanh(x * 0.5))


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x))."""
    data = np.minimum(x.data, 0) - np.log1p(np.exp(-np.abs(x.data)))
    return _make(data, [(x, lambda g: g * _sigmoid(-x.data))])


def rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """x * cos + rotate_half(x) * sin, with constant tables broadcast against x.

    rotate_half maps the last-axis halves (x1, x2) to (-x2, x1). It is a
    quarter turn, so its transpose is its negation.
    """
    half = x.shape[-1] // 2

    def turn(a):
        return np.concatenate([-a[..., half:], a[..., :half]], axis=-1)

    data = x.data * cos + turn(x.data) * sin
    if not _mode.grad:
        return _make(data)
    return _make(data, [(x, lambda g: g * cos - turn(g * sin))])


def straight_through(x: Tensor, fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Apply `fn` to the values; pass gradients through unchanged.

    Used for quantization-aware forward passes where the true derivative
    is zero almost everywhere.
    """
    data = np.asarray(fn(x.data), dtype=x.dtype)
    if data.shape != x.shape:
        raise ShapeError(f"straight_through fn changed shape {x.shape} -> {data.shape}")
    return _make(data, [(x, lambda g: g)])


# ---------------------------------------------------------------------------
# shape ops

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    if not _mode.grad:
        return _make(data)
    return _make(data, [(a, lambda g: g.reshape(a.shape))])


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    if not _mode.grad:
        return _make(data)
    return _make(data, [(a, lambda g: g.transpose(np.argsort(axes)))])


# ---------------------------------------------------------------------------
# matmul and lookups

def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of stacked matrices.

    Both operands must have ndim >= 2; inner extents must match. Leading
    (batch) axes follow numpy matmul broadcasting; gradients are reduced
    back to each operand's shape.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul batch shapes incompatible: {a.shape} @ {b.shape}") from exc
    if not _mode.grad:
        return _make(data)
    return _make(data, [
        (a, lambda g: _sum_to(g @ _swap(b.data), a.shape)),
        (b, lambda g: _sum_to(_swap(a.data) @ g, b.shape)),
    ])


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer id (backward scatter-adds)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got shape {ids.shape}")
    n_rows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ValueError(f"token id out of range [0, {n_rows}): min={ids.min()}, max={ids.max()}")
    data = table.data[ids]  # integer-array indexing copies
    if not _mode.grad:
        return _make(data)

    def pull(g):
        full = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(full, ids, g)
        return full

    return _make(data, [(table, pull)])


# ---------------------------------------------------------------------------
# reductions and normalizations

def tsum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    data = np.asarray(x.data.sum(), dtype=x.dtype)
    return _make(data, [(x, lambda g: np.broadcast_to(g, x.shape).astype(x.dtype, copy=True))])


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along axis, computed in x's own buffer: x must be scratch."""
    m = x.max(axis=axis, keepdims=True)
    masked = m <= MASK_NEG[x.dtype]  # also true for -inf
    with np.errstate(invalid="ignore"):
        x -= m
        s = np.exp(x, out=x)
        s /= s.sum(axis=axis, keepdims=True)
    if masked.any():
        warnings.warn("softmax over fully masked slice; returning zeros", RuntimeWarning)
        s = np.where(masked, 0.0, s).astype(x.dtype)
    return s


def _softmax_pull(s: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * s).sum(axis=axis, keepdims=True)
    return s * (g - inner)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Exp-normalize along `axis` with max subtraction.

    A slice whose entries are all at or below the dtype's masking
    constant (or -inf) is treated as fully masked: its output is all
    zeros rather than NaN/uniform, and a RuntimeWarning is issued.
    """
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    s = _softmax(x.data.copy(), axis)
    return _make(s, [(x, lambda g: _softmax_pull(s, g, axis))])


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Tensor, scale: float) -> Tensor:
    """softmax(q @ k^T * scale + mask) @ v over the last two axes, as one op.

    q is [..., Tq, d]; k and v are [..., Tk, d] and broadcast against q's
    leading axes; mask is a constant [Tq, Tk] additive mask (see
    `softmax` for fully masked rows). The graph keeps q, k, v and the
    softmax weights, not the score arrays. Values and gradients equal,
    bit for bit, those of the matmul, mul, add, softmax, matmul chain.
    """
    scale = np.asarray(scale, dtype=q.dtype)
    scores = q.data @ _swap(k.data)
    scores *= scale
    scores += mask.data
    w = _softmax(scores, -1)
    data = w @ v.data
    if not _mode.grad:
        return _make(data)
    memo = []

    def d_scores(g):  # shared by the q and k pulls
        if not memo:
            memo.append(_softmax_pull(w, g @ _swap(v.data), -1) * scale)
        return memo[0]

    return _make(data, [
        (q, lambda g: _sum_to(d_scores(g) @ k.data, q.shape)),
        (k, lambda g: _swap(_sum_to(_swap(q.data) @ d_scores(g), _swap(k.data).shape))),
        (v, lambda g: _sum_to(_swap(w) @ g, v.shape)),
    ])


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2) + eps) * weight, mean over the last axis."""
    d = x.shape[-1]
    if weight.data.ndim != 1 or weight.shape[0] != d:
        raise ShapeError(f"rms_norm weight shape {weight.shape} does not match last extent {d}")
    if eps < 0:
        raise ValueError(f"rms_norm eps must be >= 0, got {eps}")
    r = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) / d + eps)
    xn = x.data / r
    data = xn * weight.data
    if not _mode.grad:
        return _make(data)

    def pull_x(g):
        gw = g * weight.data
        inner = (gw * x.data).sum(axis=-1, keepdims=True)
        return gw / r - x.data * inner / (d * r**3)

    def pull_w(g):
        gw = g * xn
        return gw.reshape(-1, d).sum(axis=0)

    return _make(data, [(x, pull_x), (weight, pull_w)])


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-softmax probability of `targets`.

    Positions whose target equals IGNORE_INDEX contribute nothing to
    the value or the gradient. Raises EmptyLossError if every position
    is ignored.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [T, V] logits, got {logits.shape}")
    t = np.asarray(targets, dtype=np.int64)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ShapeError(f"targets shape {t.shape} does not match logits rows {logits.shape[0]}")
    scored = t != IGNORE_INDEX
    n = int(scored.sum())
    if n == 0:
        raise EmptyLossError("cross_entropy: every position is ignored")
    vocab = logits.shape[1]
    tv = t[scored]
    if tv.min() < 0 or tv.max() >= vocab:
        raise ValueError(f"target id out of range [0, {vocab}): min={tv.min()}, max={tv.max()}")

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - m).sum(axis=1)) + m[:, 0]
    rows = np.nonzero(scored)[0]
    nll = lse[rows] - z[rows, tv]
    data = np.asarray(nll.mean(), dtype=logits.dtype)
    if not _mode.grad:
        return _make(data)

    def pull(g):
        full = np.zeros_like(z)
        zs = z[rows]
        probs = np.exp(zs - zs.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), tv] -= 1.0
        full[rows] = probs * (g / n)
        return full

    return _make(data, [(logits, pull)])


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor) -> None:
    """Populate `.grad` on every reachable leaf with d(loss)/d(leaf).

    Repeated calls accumulate into existing gradients. `loss` must be a
    scalar (one element). Each op result drops its edges, and with them
    the arrays its pulls hold, as soon as its pulls have run, so a graph
    can be backpropagated once: a later backward that reaches one of its
    op results raises RuntimeError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._pairs is None:
            raise RuntimeError("backward through a graph that was already backpropagated")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._pairs:
            stack.append((parent, False))

    cotangent: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owners: set[int] = set()  # buffers leaf grads hold; clipping scales grads in place
    while order:
        node = order.pop()
        g = cotangent.pop(id(node))  # every node in order lies on a path to loss
        if not node._pairs:
            if node.requires_grad:
                g = np.asarray(g if node.grad is None else node.grad + g)
                owner = id(g if g.base is None else g.base)
                node.grad = g.copy() if owner in owners else g
                owners.add(owner)
            continue
        pairs, node._pairs = node._pairs, None
        for parent, pull in pairs:
            contrib = pull(g)
            key = id(parent)
            if key in cotangent:
                cotangent[key] = cotangent[key] + contrib
            else:
                cotangent[key] = contrib
