"""FP8 E4M3 round-trip emulation for low-precision linear layers.

The format has 1 sign bit, 4 exponent bits (bias 7), and 3 mantissa
bits, with no infinities: all-ones exponent codes are reclaimed as
finite values, so the largest finite magnitude is 448 and only the
code S.1111.111 is NaN. Subnormals share the minimum binade, giving a
smallest positive step of 2**-9. Conversion rounds to nearest with
ties to even and saturates beyond +/-448.

Only the numerics are emulated; storage stays in the input float dtype.
The weights carry the fp8 request: a forward given `model.fp8_weights`
reads their rounded attention and MLP matrices and rounds each linear
layer's input at forward time.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, straight_through

E4M3_MAX = 448.0

# Normals occupy binades [2**-6, 2**9); a 3-bit mantissa makes the ulp
# in binade [2**e, 2**(e+1)) equal to 2**(e-3). Below 2**-6 the ulp is
# pinned at the subnormal step 2**-9.
_SUBNORMAL_ULP_EXP = -9


def fp8_e4m3(x) -> np.ndarray:
    """Round an array to the nearest E4M3 value (saturating, NaN-preserving).

    A float array keeps its dtype; any other input is rounded in float64.
    """
    arr = np.asarray(x)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    # Every step writes into one of two buffers (`out=` keeps 0-d input an array).
    work = np.clip(arr, -E4M3_MAX, E4M3_MAX, out=np.empty_like(arr))
    ulp = np.empty_like(work)
    # The exponent bits of v alone (those of inf) encode 2**floor(log2|v|)
    # for a normal v and 0 below the normals: over 2**3 that is the E4M3
    # ulp, which the maximum pins at the subnormal step.
    uint = np.dtype(f"u{arr.dtype.itemsize}")
    np.bitwise_and(work.view(uint), np.array(np.inf, arr.dtype).view(uint), out=ulp.view(uint))
    ulp *= 0.125
    np.maximum(ulp, 2.0 ** _SUBNORMAL_ULP_EXP, out=ulp)
    # Rounding in the input dtype is exact: the ulp is a power of two, so
    # scaling by it is exact, and the dtype holds every E4M3 value.
    with np.errstate(invalid="ignore"):
        work /= ulp
        np.round(work, out=work)
        work *= ulp
    return work


def fp8_emulate(x: Tensor) -> Tensor:
    """Quantize-dequantize a tensor to E4M3, passing gradients straight through."""
    return straight_through(x, fp8_e4m3)
