"""Fixed reference kernels that gauge how fast the machine runs right now.

On a shared host the same code can run 20-60% slower for minutes at a
time (another tenant on the same core, or on the memory bus), so an
episode's wall time drifts between runs for reasons outside the
program. The run times its workload's reference kernel between
consecutive episodes and scales each episode's time by the mean of the
two readings around it, and each set-up's time by a reading of
SETUP_KERNEL right after it; see `scaled`. The kernels never call
deskllm, so a change to deskllm moves a scaled time exactly as it moves
the wall time, while a slower machine moves both sides.

Different kinds of work slow down by different amounts: in one slow
phase measured on a 2-vCPU Xeon VM, interpreter work and calls on tiny
arrays took 1.6x as long, BLAS 1.4x, activation-sized elementwise numpy
1.1x, while hashing was no slower. A kernel built from one kind of work
over- or under-corrects, so each workload's kernel mixes these parts:
BLAS at the mid shape, elementwise numpy on activation-sized arrays,
single-row products as in decoding, many calls on tiny float64 arrays,
a memory-bound sweep over optimizer-sized arrays, checkpoint-like
hashing, and plain interpreter work. The call counts start from the
shares of time the workload's traced episodes spend on such work and
are set so that, in that slow phase, the kernel slowed down about as
much as the episodes did (pretrain 1.2x, chat and eval 1.35x).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

_RNG = np.random.default_rng(0)


def _normal(*shape, dtype=np.float32):
    return (_RNG.standard_normal(shape) / np.sqrt(shape[-1])).astype(dtype)


_X = _normal(512, 256)  # a mid-shape batch of activations
_W_UP = _normal(256, 688)
_W_DOWN = _normal(688, 256)
_H = _X @ _W_UP
_ROW = _normal(1, 256)  # one decode position
_X64 = _normal(8, 64, dtype=np.float64)  # a small-shape row block
_W64 = _normal(64, 172, dtype=np.float64)
_PARAMS = _normal(1 << 20)  # a third of the mid model's parameters
_M = np.zeros_like(_PARAMS)
_V = np.zeros_like(_PARAMS)


def blas() -> None:
    (_X @ _W_UP) @ _W_DOWN


def elementwise() -> None:
    s = _H / (1.0 + np.exp(-_H))
    z = s - s.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)


def rows() -> None:
    """Single-row products, as in cached decoding."""
    r = _ROW
    for _ in range(16):
        r = np.tanh((r @ _W_UP) @ _W_DOWN)


def tiny() -> None:
    """Many numpy calls on float64 arrays of a few hundred elements."""
    s = _X64
    for _ in range(40):
        s = np.tanh((s @ _W64) @ _W64.T * 0.1)


def sweep() -> None:
    """An AdamW-like update over optimizer-sized arrays (memory-bound)."""
    g = _PARAMS * 1e-3
    _M[:] = 0.9 * _M + 0.1 * g
    _V[:] = 0.999 * _V + 0.001 * g * g
    _PARAMS[:] -= 1e-6 * _M / (np.sqrt(_V) + 1e-8)


def digest() -> None:
    """Serialise and hash parameter-sized bytes, as a checkpoint does."""
    hashlib.sha256(_PARAMS.tobytes()).digest()


def interpreter() -> None:
    """Dict and list work in the interpreter, as tokenizing and bookkeeping."""
    counts: dict[tuple[int, int], int] = {}
    seq = list(range(64)) * 8
    for a, b in zip(seq, seq[1:]):
        counts[(a, b)] = counts.get((a, b), 0) + 1


# A pass of each kernel takes about this long on an unloaded 2-vCPU Xeon VM.
NOMINAL_S = 0.1

# Per workload: (part, calls per pass); the call counts set each part's share.
KERNELS = {
    "pretrain_mid": ((blas, 9), (elementwise, 28), (sweep, 1), (digest, 3), (interpreter, 48)),
    "chat_small": ((tiny, 58), (interpreter, 160), (elementwise, 15), (digest, 2), (blas, 4)),
    "eval_mid": ((blas, 15), (elementwise, 29), (rows, 49), (interpreter, 120)),
}

# Set-ups generate text word by word and count byte pairs: interpreter
# work and scalar numpy calls, which slow down the most.
SETUP_KERNEL = ((interpreter, 480), (tiny, 77))


def reference_s(kernel) -> float:
    """Wall time of one pass of `kernel`, a tuple of (part, calls)."""
    t0 = time.perf_counter()
    for part, calls in kernel:
        for _ in range(calls):
            part()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """`seconds` as it would read on a machine where a pass takes NOMINAL_S.

    `ref_s` is a pass timed next to the measured work.
    """
    return seconds * NOMINAL_S / ref_s
