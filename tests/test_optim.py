"""Optimizer and schedule tests against straight-line reference implementations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from deskllm.optim import (
    AdamW,
    LrSchedule,
    NonFiniteGradError,
    OptimHyper,
    clip_grad_norm,
    cosine_lr,
)
from deskllm.tensor import Tensor, add, mul, tsum


SCHED = LrSchedule(warmup_tokens=2.36e9, total_tokens=1e12)


class TestCosineLr:
    def test_peak_at_warmup_exact(self):
        assert cosine_lr(SCHED.warmup_tokens, SCHED) == 2e-4

    def test_min_at_total_exact(self):
        assert cosine_lr(SCHED.total_tokens, SCHED) == 1e-5

    def test_midpoint(self):
        mid = SCHED.warmup_tokens + 0.5 * (SCHED.total_tokens - SCHED.warmup_tokens)
        assert abs(cosine_lr(mid, SCHED) - 1.05e-4) < 1e-12

    def test_linear_ramp(self):
        quarter = SCHED.warmup_tokens / 4.0
        assert abs(cosine_lr(quarter, SCHED) - 5e-5) < 1e-19
        assert cosine_lr(0, SCHED) == 0.0

    def test_clamped_beyond_total(self):
        assert cosine_lr(SCHED.total_tokens * 3, SCHED) == 1e-5

    def test_continuous_at_warmup(self):
        w = SCHED.warmup_tokens
        assert abs(cosine_lr(w + 1, SCHED) - cosine_lr(w, SCHED)) < 1e-9
        assert abs(cosine_lr(w - 1, SCHED) - cosine_lr(w, SCHED)) < 1e-9

    def test_monotone_nonincreasing_after_warmup(self):
        grid = np.linspace(SCHED.warmup_tokens, SCHED.total_tokens * 1.1, 500)
        lrs = [cosine_lr(t, SCHED) for t in grid]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, SCHED)

    def test_schedule_invariants(self):
        with pytest.raises(ValueError):
            LrSchedule(warmup_tokens=10, total_tokens=5)
        with pytest.raises(ValueError):
            LrSchedule(warmup_tokens=0, total_tokens=5)
        with pytest.raises(ValueError):
            LrSchedule(warmup_tokens=1, total_tokens=5, peak_lr=1e-5, min_lr=2e-4)


class TestClipGradNorm:
    def test_below_threshold_unchanged(self):
        g = np.array([0.3, 0.4])
        norm = clip_grad_norm([g], max_norm=1.0)
        assert norm == 0.5
        np.testing.assert_array_equal(g, [0.3, 0.4])

    def test_three_four_five(self):
        g = np.array([3.0, 4.0])
        norm = clip_grad_norm([g], max_norm=1.0)
        assert norm == 5.0
        np.testing.assert_allclose(g, [0.6, 0.8], rtol=1e-15)

    def test_post_clip_norm(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            grads = [rng.normal(size=s) * rng.uniform(0.1, 10)
                     for s in [(3, 4), (7,), (2, 2, 2)]]
            pre = math.sqrt(sum(float((g * g).sum()) for g in grads))
            returned = clip_grad_norm(grads, max_norm=1.0)
            assert abs(returned - pre) < 1e-12 * max(pre, 1.0)
            post = math.sqrt(sum(float((g * g).sum()) for g in grads))
            assert post <= min(pre, 1.0) + 1e-12

    def test_nonfinite_aborts(self):
        with pytest.raises(NonFiniteGradError):
            clip_grad_norm([np.array([np.nan, 1.0])])
        with pytest.raises(NonFiniteGradError):
            clip_grad_norm([np.array([np.inf])])

    def test_scalar_param_grad_clipped_in_place(self):
        p = Tensor(np.array(2.0), requires_grad=True)
        for norm in (3.0, 4.0):  # a first grad, then 3 accumulated onto the clipped 1
            mul(p, 3.0).backward()
            assert clip_grad_norm([p.grad], max_norm=1.0) == norm
            assert p.grad == 1.0

    def test_leaf_grads_do_not_share_memory(self):
        # add() hands both operands the same cotangent array.
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        tsum(add(p, q)).backward()
        assert clip_grad_norm([p.grad, q.grad], max_norm=1.0) == 2.0
        np.testing.assert_array_equal(p.grad, [0.5, 0.5])
        np.testing.assert_array_equal(q.grad, [0.5, 0.5])


def reference_adamw(p0, grads, lr, beta1, beta2, eps, wd):
    """Textbook AdamW evaluated step by step with scalar math."""
    p = float(p0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * (mhat / (math.sqrt(vhat) + eps) + wd * p)
    return p


class TestAdamW:
    def _single(self, value, wd=0.1):
        p = Tensor(np.array([value]), requires_grad=True)
        hyper = OptimHyper(weight_decay=wd)
        return p, AdamW({"p": p}, hyper)

    def test_zero_grad_pure_decay(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 3))
        p = Tensor(data.copy(), requires_grad=True)
        opt = AdamW({"p": p}, OptimHyper(weight_decay=0.1))
        p.grad = np.zeros_like(data)
        opt.step(lr=1e-3)
        # straight-line recomputation of the decay-only update
        np.testing.assert_array_equal(p.data, data - 1e-3 * (0.1 * data))
        np.testing.assert_allclose(p.data, data * (1 - 1e-4), rtol=1e-15)

    def test_first_step_direction(self):
        for g0 in (0.7, -2.5, 1e-3):
            p, opt = self._single(1.0, wd=0.0)
            p.grad = np.array([g0])
            opt.step(lr=1e-2)
            np.testing.assert_allclose(1.0 - p.data[0], 1e-2 * np.sign(g0), rtol=1e-5)

    def test_trajectory_matches_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            p0 = rng.normal()
            grads = rng.normal(size=100)
            p, opt = self._single(p0, wd=0.1)
            for g in grads:
                p.grad = np.array([g])
                opt.step(lr=3e-3)
                p.grad = None
            expect = reference_adamw(p0, grads, 3e-3, 0.9, 0.95, 1e-8, 0.1)
            assert abs(p.data[0] - expect) < 1e-12

    def test_wd_zero_is_adam(self):
        def reference_adam(p0, grads, lr, beta1, beta2, eps):
            return reference_adamw(p0, grads, lr, beta1, beta2, eps, wd=0.0)

        rng = np.random.default_rng(3)
        p0 = rng.normal()
        grads = rng.normal(size=50)
        p, opt = self._single(p0, wd=0.0)
        for g in grads:
            p.grad = np.array([g])
            opt.step(lr=1e-3)
        assert abs(p.data[0] - reference_adam(p0, grads, 1e-3, 0.9, 0.95, 1e-8)) < 1e-12

    def test_no_decay_exemption(self):
        norm = Tensor(np.ones(4), requires_grad=True)
        mat = Tensor(np.full(4, 2.0), requires_grad=True)
        opt = AdamW({"norm": norm, "mat": mat}, OptimHyper(weight_decay=0.1),
                    no_decay=["norm"])
        norm.grad = np.zeros(4)
        mat.grad = np.zeros(4)
        opt.step(lr=1e-3)
        np.testing.assert_array_equal(norm.data, np.ones(4))
        np.testing.assert_allclose(mat.data, np.full(4, 2.0 * (1 - 1e-4)), rtol=1e-15)

    def test_unknown_no_decay_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            AdamW({"p": p}, no_decay=["q"])

    def test_missing_grad_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"p": p})
        with pytest.raises(ValueError):
            opt.step(lr=1e-3)

    @pytest.mark.parametrize("bad_grad", [None, np.ones(3)], ids=["missing", "misshapen"])
    def test_bad_grad_changes_nothing(self, bad_grad):
        first = Tensor(np.ones(2), requires_grad=True)
        second = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"first": first, "second": second})
        first.grad, second.grad = np.full(2, 2.0), np.full(2, 2.0)
        opt.step(lr=1e-1)
        state = [first.data.copy(), second.data.copy(),
                 *(arr.copy() for arr in (*opt.m.values(), *opt.v.values()))]
        second.grad = bad_grad
        with pytest.raises(ValueError, match="'second'"):
            opt.step(lr=1e-1)
        assert opt.step_count == 1
        after = [first.data, second.data, *opt.m.values(), *opt.v.values()]
        for want, got in zip(state, after, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_step_count_and_moments_update(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW({"p": p}, OptimHyper(weight_decay=0.0))
        p.grad = np.array([2.0])
        opt.step(lr=1e-3)
        assert opt.step_count == 1
        np.testing.assert_allclose(opt.m["p"], [0.2], rtol=1e-15)     # (1-0.9)*2
        np.testing.assert_allclose(opt.v["p"], [0.2], rtol=1e-15)     # (1-0.95)*4

    def test_hyper_invariants(self):
        with pytest.raises(ValueError):
            OptimHyper(beta1=1.0)
        with pytest.raises(ValueError):
            OptimHyper(beta2=0.0)
        with pytest.raises(ValueError):
            OptimHyper(clip_norm=0.0)
        with pytest.raises(ValueError):
            OptimHyper(eps=0.0)
