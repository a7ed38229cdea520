"""Dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 or float64) and record a
backward graph as they are combined. The op set is deliberately small:
exactly the kernels a decoder language model needs, each with a
hand-written backward rule. Gradients land on leaf tensors only;
intermediate cotangents live in transient buffers during `backward`.
An op result's place in the graph is a data-free node, and each pull
captures only the arrays it reads, so an intermediate no pull reads is
freed as soon as the caller drops it; `rms_norm`, `silu` and
`attention` recompute what they can in their pulls. Under `no_grad` an
op result is bare: its array, in its inputs' dtype, and no node; the
hot ops return it before building their pulls. The grad mode belongs
to the thread that sets it. `each` maps units over items, in the
caller's grad mode, one per usable CPU at a time, with results (and
folds) in input order and so independent of the CPU count.
"""

from __future__ import annotations

import contextvars
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


def each(fn: Callable, items, fold: Callable | None = None) -> list:
    """`[fn(x) for x in items]`, or `[fold(fn(x)) for x in items]` given a
    fold, with up to one unit per usable CPU running at once.

    Each unit runs `fn` on one item, in a copy of the caller's context
    and grad mode, on the calling thread or a helper; inside a unit this
    is the plain loop. The first units, one per thread, begin together,
    and a thread takes its next item only after its unit's fold, so no
    more than one unit per CPU is in flight. The folds run one at a time
    in input order and the results come back in input order, so what a
    caller adds up is the same whatever the CPU count. The first failing
    unit or fold in input order re-raises its exception, and no unit
    after it starts or folds once it has failed. Every helper thread is
    joined before the call returns. The units overlap where numpy and
    BLAS release the interpreter lock; a multi-threaded BLAS shares the
    same cores.
    """
    items = list(items)
    width = 1 if _mode.in_each else min(len(items), _usable_cpus())
    if width < 2:
        return [fn(x) if fold is None else fold(fn(x)) for x in items]
    n = len(items)
    results: list = [None] * n
    failed: list = [n, None]  # lowest failing index, its exception
    taken, folded = [0], [0]  # first units taken; units before this index have folded
    turn = threading.Condition()
    order = iter(range(n))  # shared; next() on it is atomic under the GIL
    grad = _mode.grad

    def run():
        _mode.grad, _mode.in_each = grad, True
        for i in order:
            try:
                with turn:
                    if i < width:  # one per thread: the first units begin together
                        taken[0] += 1
                        turn.notify_all()
                        turn.wait_for(lambda: taken[0] == width or failed[0] < n)
                    if i > failed[0]:
                        return
                out = fn(items[i])
                if fold is not None:
                    with turn:
                        turn.wait_for(lambda: folded[0] == i or failed[0] < i)
                        if failed[0] < i:
                            return
                        out = fold(out)
                        folded[0] += 1
                        turn.notify_all()
                results[i] = out
            except BaseException as exc:  # re-raised by the calling thread
                with turn:
                    if i < failed[0]:
                        failed[:] = [i, exc]
                    turn.notify_all()
                return

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run,),
                                name=f"deskllm-each-{k}")
               for k in range(width - 1)]
    try:
        for t in helpers:
            t.start()
        run()  # the calling thread's share
    except BaseException as exc:  # a helper could not start: release the others
        with turn:
            failed[:] = [-1, exc]
            turn.notify_all()
        raise
    finally:
        _mode.grad, _mode.in_each = grad, False
        for t in helpers:
            if t.ident is not None:
                t.join()
    if failed[1] is not None:
        raise failed[1]
    return results


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class _Node:
    """An op result's place in the graph, without its values.

    `edges` holds (parent, pull) pairs: parent is an op result's node or
    a leaf tensor, and pull maps this node's cotangent to the parent's
    contribution. A pull captures only the arrays it reads, so an op
    result's values are freed once the caller drops the tensor, unless a
    pull reads them. `backward` sets `edges` to None once it has run them.
    """

    __slots__ = ("edges", "__weakref__")

    def __init__(self, edges: list):
        self.edges: list[tuple[_Node | Tensor, Callable[[np.ndarray], np.ndarray]]] | None = edges


class Tensor:
    """N-dimensional array with an optional gradient and graph node.

    An op result that needs a gradient has a `_Node`; a leaf has none
    and, when it requires grad, accumulates into `.grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

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
    """Build an op result, with a node holding edges to grad-needing parents.

    `data` is already an array of the op's dtype, or a numpy scalar from
    an op on 0-d arrays, which is wrapped. `pairs` are (parent tensor,
    pull); a pull must not capture a parent tensor, only the arrays it
    reads. With grad off no node is made, so the hot ops call
    `_make(data)` before building their pulls.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out._node = None
    if pairs and _mode.grad:
        kept = [(p if p._node is None else p._node, fn) for p, fn in pairs if p.requires_grad]
        if kept:
            out._node = _Node(kept)
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
#
# Pulls close over arrays, shapes and constants, never over a Tensor: a
# captured Tensor would keep its values alive for as long as the graph.

def add(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float64))
    b = _coerce(b, a.dtype)
    data = a.data + b.data
    if not _mode.grad:
        return _make(data)
    sa, sb = a.shape, b.shape
    return _make(data, [
        (a, lambda g: _sum_to(g, sa)),
        (b, lambda g: _sum_to(g, sb)),
    ])


def mul(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float64))
    b = _coerce(b, a.dtype)
    data = a.data * b.data
    if not _mode.grad:
        return _make(data)
    xa, xb = a.data, b.data
    return _make(data, [
        (a, lambda g: _sum_to(g * xb, xa.shape)),
        (b, lambda g: _sum_to(g * xa, xb.shape)),
    ])


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, [(a, lambda g: -g)])


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), elementwise; the pull recomputes the sigmoid."""
    xd = x.data
    data = xd * _sigmoid(xd)
    if not _mode.grad:
        return _make(data)

    def pull(g):
        sig = _sigmoid(xd)
        return g * (sig * (1.0 + xd * (1.0 - sig)))

    return _make(data, [(x, pull)])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, so no branch on the sign is needed.
    return 0.5 * (1.0 + np.tanh(x * 0.5))


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x))."""
    xd = x.data
    data = np.minimum(xd, 0) - np.log1p(np.exp(-np.abs(xd)))
    return _make(data, [(x, lambda g: g * _sigmoid(-xd))])


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
    sa = a.shape
    return _make(data, [(a, lambda g: g.reshape(sa))])


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
    xa, xb = a.data, b.data
    return _make(data, [
        (a, lambda g: _sum_to(g @ _swap(xb), xa.shape)),
        (b, lambda g: _sum_to(_swap(xa) @ g, xb.shape)),
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
    shape = table.shape

    def pull(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, ids, g)
        return full

    return _make(data, [(table, pull)])


# ---------------------------------------------------------------------------
# reductions and normalizations

def tsum(x: Tensor) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    data = np.asarray(x.data.sum(), dtype=x.dtype)
    shape, dtype = x.shape, x.dtype
    return _make(data, [(x, lambda g: np.broadcast_to(g, shape).astype(dtype, copy=True))])


def _softmax(x: np.ndarray, axis: int, warn: bool = True) -> np.ndarray:
    """Softmax along axis, computed in x's own buffer: x must be scratch.
    A fully masked slice gives zeros, with a warning when `warn` is set."""
    m = x.max(axis=axis, keepdims=True)
    masked = m <= MASK_NEG[x.dtype]  # also true for -inf
    with np.errstate(invalid="ignore"):
        x -= m
        s = np.exp(x, out=x)
        s /= s.sum(axis=axis, keepdims=True)
    if masked.any():
        if warn:
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


def _attention_weights(q: np.ndarray, k: np.ndarray, mask: np.ndarray, scale: np.ndarray,
                       warn: bool = True) -> np.ndarray:
    scores = q @ _swap(k)
    scores *= scale
    scores += mask
    return _softmax(scores, -1, warn)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Tensor, scale: float) -> Tensor:
    """softmax(q @ k^T * scale + mask) @ v over the last two axes, as one op.

    q is [..., Tq, d]; k and v are [..., Tk, d] and broadcast against q's
    leading axes; mask is a constant [Tq, Tk] additive mask (see
    `softmax` for fully masked rows, which warn once per forward). The
    graph keeps q, k, v and the mask, no [Tq, Tk] array: the pull
    recomputes the softmax weights with the forward's own op sequence,
    as FlashAttention and gradient checkpointing do. Values and
    gradients equal, bit for bit, those of the matmul, mul, add,
    softmax, matmul chain.
    """
    scale = np.asarray(scale, dtype=q.dtype)
    qd, kd, vd, md = q.data, k.data, v.data, mask.data
    data = _attention_weights(qd, kd, md, scale) @ vd
    if not _mode.grad:
        return _make(data)
    memo = []  # [weights, d_scores], made by the first pull, shared by the others

    def recompute(g):
        if not memo:
            w = _attention_weights(qd, kd, md, scale, warn=False)
            memo.extend((w, _softmax_pull(w, g @ _swap(vd), -1) * scale))
        return memo

    return _make(data, [
        (q, lambda g: _sum_to(recompute(g)[1] @ kd, qd.shape)),
        (k, lambda g: _swap(_sum_to(_swap(qd) @ recompute(g)[1], _swap(kd).shape))),
        (v, lambda g: _sum_to(_swap(recompute(g)[0]) @ g, vd.shape)),
    ])


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2) + eps) * weight, mean over the last axis.
    The pulls keep x and the [..., 1] root, and recompute x / r."""
    d = x.shape[-1]
    if weight.data.ndim != 1 or weight.shape[0] != d:
        raise ShapeError(f"rms_norm weight shape {weight.shape} does not match last extent {d}")
    if eps < 0:
        raise ValueError(f"rms_norm eps must be >= 0, got {eps}")
    xd, wd = x.data, weight.data
    r = np.sqrt((xd * xd).sum(axis=-1, keepdims=True) / d + eps)
    data = xd / r * wd
    if not _mode.grad:
        return _make(data)

    def pull_x(g):
        gw = g * wd
        inner = (gw * xd).sum(axis=-1, keepdims=True)
        return gw / r - xd * inner / (d * r**3)

    def pull_w(g):
        gw = g * (xd / r)
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

def backward(out: Tensor, cotangent: np.ndarray | None = None,
             into: list | None = None) -> None:
    """d(out)/d(leaf) for every reachable leaf that requires grad.

    `out` is a scalar loss seeded with 1 or, given a `cotangent` of its
    shape, any output seeded with that (a vector-Jacobian product). The
    gradients are added into the leaves' `.grad`, so repeated calls
    accumulate; given `into`, they are appended to it as (leaf, grad)
    pairs instead, for `accumulate` to add later. Each node drops its
    edges, and with them the arrays its pulls hold, as soon as its pulls
    have run, so a graph can be backpropagated once: a later backward
    that reaches one of its op results raises RuntimeError.
    """
    seed = np.ones_like(out.data) if cotangent is None else cotangent
    if np.shape(seed) != out.shape or (cotangent is None and out.data.size != 1):
        raise ValueError(f"backward needs a scalar loss or a cotangent of shape {out.shape}")
    grads = [] if into is None else into
    root = out if out._node is None else out._node

    order: list = []
    seen: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        edges = node.edges if type(node) is _Node else []
        if edges is None:
            raise RuntimeError("backward through a graph that was already backpropagated")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in edges:
            stack.append((parent, False))

    cotangents = {id(root): seed}
    while order:
        node = order.pop()
        g = cotangents.pop(id(node))  # every node in order lies on a path to out
        if type(node) is not _Node:
            if node.requires_grad:
                grads.append((node, g))
            continue
        edges, node.edges = node.edges, None
        for parent, pull in edges:
            contrib = pull(g)
            key = id(parent)
            if key in cotangents:
                cotangents[key] = cotangents[key] + contrib
            else:
                cotangents[key] = contrib
    if into is None:
        accumulate(grads)


def accumulate(grads) -> None:
    """Add (leaf, grad) pairs, as `backward(loss, into)` collects them,
    into the leaves' `.grad`, in order. No two leaves' grads share a
    buffer, since clipping scales grads in place."""
    owners: set[int] = set()
    for leaf, g in grads:
        g = np.asarray(g if leaf.grad is None else leaf.grad + g)
        owner = id(g if g.base is None else g.base)
        leaf.grad = g.copy() if owner in owners else g
        owners.add(owner)
