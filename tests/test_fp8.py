"""E4M3 emulation tests against a full code-point enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskllm.fp8 import E4M3_MAX, fp8_e4m3, fp8_emulate
from deskllm.tensor import Tensor, tsum


def enumerate_codes():
    """All finite E4M3 values with their mantissa code, from the format definition."""
    out = []
    for sign in (1.0, -1.0):
        for exp_field in range(16):
            for mant in range(8):
                if exp_field == 15 and mant == 7:
                    continue  # the only NaN code
                if exp_field == 0:
                    value = sign * (mant / 8.0) * 2.0 ** -6
                else:
                    value = sign * (1.0 + mant / 8.0) * 2.0 ** (exp_field - 7)
                out.append((value, mant))
    return out


def nearest_code(x: float) -> float:
    """Brute-force round-to-nearest-even over the enumerated code points."""
    x = min(max(x, -E4M3_MAX), E4M3_MAX)
    best = None
    for value, mant in enumerate_codes():
        d = abs(x - value)
        if best is None or d < best[0] - 1e-300 or (d == best[0] and mant % 2 == 0):
            best = (d, value, mant)
    return best[1]


def frexp_oracle(a: np.ndarray) -> np.ndarray:
    """E4M3 rounding in a's dtype with the ulp taken from np.frexp."""
    work = np.clip(a, -E4M3_MAX, E4M3_MAX)
    _, exps = np.frexp(work)
    ulp = np.ldexp(a.dtype.type(1.0), np.maximum(exps - 4, -9))
    return np.round(work / ulp) * ulp


class TestCodePoints:
    def test_all_codes_round_trip_exactly(self):
        values = np.array([v for v, _ in enumerate_codes()])
        assert len(values) == 254
        out = fp8_e4m3(values)
        assert out.tobytes() == values.tobytes()

    def test_exact_specials(self):
        x = np.array([0.0, 1.0, -1.0, 1.5, -1.5, 448.0, -448.0])
        assert np.array_equal(fp8_e4m3(x), x)

    def test_signed_zero_preserved(self):
        out = fp8_e4m3(np.array([-0.0, 0.0]))
        assert np.signbit(out[0]) and not np.signbit(out[1])

    def test_max_finite_is_448(self):
        codes = np.array([v for v, _ in enumerate_codes()])
        assert codes.max() == 448.0
        assert codes.min() == -448.0

    def test_smallest_positive_step(self):
        codes = np.sort(np.array([v for v, _ in enumerate_codes()]))
        positive = codes[codes > 0]
        assert positive[0] == 2.0 ** -9


class TestRounding:
    def test_saturation(self):
        assert fp8_e4m3(1000.0) == 448.0
        assert fp8_e4m3(-1000.0) == -448.0
        assert fp8_e4m3(448.0001) == 448.0
        assert fp8_e4m3(np.inf) == 448.0
        assert fp8_e4m3(-np.inf) == -448.0

    def test_nan_propagates(self):
        assert np.isnan(fp8_e4m3(np.nan))

    def test_ties_to_even(self):
        # midpoint of (1.0, 1.125) -> even mantissa 1.0; of (1.125, 1.25) -> 1.25
        np.testing.assert_array_equal(fp8_e4m3([1.0625, 1.1875]), [1.0, 1.25])
        # subnormal tie: midpoint of (0, 2**-9) -> 0
        assert fp8_e4m3(2.0 ** -10) == 0.0

    def test_matches_brute_force_nearest(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([
            rng.uniform(-500, 500, 60),
            rng.normal(0, 1, 60),
            rng.normal(0, 1, 40) * 2.0 ** rng.integers(-12, 9, 40),
        ])
        got = fp8_e4m3(xs)
        for x, g in zip(xs, got):
            assert g == nearest_code(float(x)), x

    def test_normal_range_relative_error(self):
        rng = np.random.default_rng(1)
        mag = 2.0 ** rng.uniform(-6, np.log2(448.0), 5000)
        xs = mag * rng.choice([-1.0, 1.0], 5000)
        err = np.abs(fp8_e4m3(xs) - xs) / np.abs(xs)
        assert err.max() <= 2.0 ** -4

    def test_f32_bit_patterns_match_float64_oracle(self):
        """Rounding in f32 equals rounding in f64, bit for bit, over a sweep of
        every 97th f32 bit pattern (NaNs, signed zeros, subnormals, infinities)."""
        def oracle(a):
            return frexp_oracle(a.astype(np.float64)).astype(np.float32)

        step, chunk = 97, 97 << 20
        specials = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 2.0 ** -149, -2.0 ** -149],
                            dtype=np.float32)
        checked = 0
        with np.errstate(invalid="ignore"):
            for lo in range(0, 1 << 32, chunk):
                bits = np.arange(lo, min(lo + chunk, 1 << 32), step, dtype=np.uint64)
                x = bits.astype(np.uint32).view(np.float32)
                if lo == 0:
                    x = np.concatenate([specials, x])
                got = fp8_e4m3(x)
                assert got.dtype == np.float32
                bad = np.flatnonzero(got.view(np.uint32) != oracle(x).view(np.uint32))
                assert bad.size == 0, x[bad[:5]]
                checked += x.size
        assert checked > 44_000_000

    def test_f64_bit_patterns_match_frexp_oracle(self):
        """In f64 too the exponent-bit ulp rounds as frexp does, bit for bit:
        random bit patterns, values around the E4M3 range, and specials."""
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.integers(0, 1 << 64, 1_000_000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(1_000_000) * 2.0 ** rng.integers(-20, 12, 1_000_000),
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]])
        got = fp8_e4m3(x)
        with np.errstate(invalid="ignore"):
            want = frexp_oracle(x)
        bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert bad.size == 0, x[bad[:5]]

    def test_dtype_preserved(self):
        x32 = np.array([0.3], dtype=np.float32)
        x64 = np.array([0.3], dtype=np.float64)
        assert fp8_e4m3(x32).dtype == np.float32
        assert fp8_e4m3(x64).dtype == np.float64


class TestProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_bitwise(self, values):
        x = np.array(values)
        once = fp8_e4m3(x)
        twice = fp8_e4m3(once)
        assert once.tobytes() == twice.tobytes()

    @given(st.floats(min_value=2.0 ** -6, max_value=448.0))
    @settings(max_examples=200, deadline=None)
    def test_half_ulp_bound(self, x):
        assert abs(fp8_e4m3(x) - x) <= abs(x) * 2.0 ** -4

    def test_output_in_code_set(self):
        codes = {v for v, _ in enumerate_codes()}
        rng = np.random.default_rng(2)
        xs = rng.normal(0, 50, 2000)
        for q in fp8_e4m3(xs):
            assert float(q) in codes


class TestStraightThrough:
    def test_gradient_passes_unchanged(self):
        x = Tensor(np.array([0.3, -2.7, 500.0]), requires_grad=True)
        out = fp8_emulate(x)
        np.testing.assert_array_equal(out.data, fp8_e4m3(x.data))
        tsum(out).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_values_are_quantized(self):
        x = Tensor(np.array([0.3], dtype=np.float32))
        assert fp8_emulate(x).data[0] == np.float32(fp8_e4m3(0.3))
