"""Engine-level tests: op values against closed forms, gradients against
central finite differences, and graph bookkeeping."""

import math
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from deskllm import tensor as T
from deskllm.tensor import (
    EmptyLossError,
    ShapeError,
    Tensor,
    cross_entropy,
    embedding,
    log_sigmoid,
    matmul,
    no_grad,
    reshape,
    rms_norm,
    silu,
    softmax,
    straight_through,
    transpose,
    tsum,
)
from deskllm.model import attention_mask
from fdcheck import central_diff, check_grad, max_rel_err
from modelutil import use_cpus


def leaf(data, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_inner_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        errs = check_grad(lambda: tsum(matmul(a, b)), {"a": a, "b": b})
        assert max(errs.values()) <= 1e-5

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = leaf(rng.normal(size=(2, 3, 3, 4)))
        b = leaf(rng.normal(size=(2, 1, 4, 2)))
        errs = check_grad(lambda: tsum(matmul(a, b)), {"a": a, "b": b})
        assert max(errs.values()) <= 1e-5


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_no_overflow_on_large_inputs(self):
        out = softmax(Tensor([1000.0, 1000.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
        assert np.isfinite(out.data).all()

    def test_closed_form(self):
        out = softmax(Tensor([0.0, math.log(3.0)]), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        out = softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_fully_masked_slice_is_zero_and_warns(self):
        x = np.full((2, 3), 1.0)
        x[1, :] = T.MASK_NEG[np.dtype(np.float64)]
        with pytest.warns(RuntimeWarning, match="fully masked"):
            out = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[0].sum(), 1.0)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = leaf(rng.normal(size=(4, 5)))
        w = rng.normal(size=(4, 5))
        errs = check_grad(lambda: tsum(softmax(x, axis=-1) * w), {"x": x})
        assert errs["x"] <= 1e-5

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((2, 2))), axis=2)


def window_mask(t_q: int, t_k: int, window: int, dtype) -> Tensor:
    """Additive mask for the last t_q of t_k positions, each seeing `window` keys."""
    i = np.arange(t_k - t_q, t_k)[:, None]
    j = np.arange(t_k)[None, :]
    allowed = (j <= i) & (j > i - window)
    return Tensor(np.where(allowed, 0.0, T.MASK_NEG[np.dtype(dtype)]).astype(dtype))


def attention_chain(q, k, v, mask, scale):
    """The attention op spelled as five graph ops."""
    scores = T.mul(matmul(q, transpose(k, (0, 1, 3, 2))), scale)
    return matmul(softmax(T.add(scores, mask), axis=-1), v)


class TestAttention:
    # (n_kv, group, Tq, Tk, window): k and v carry a size-1 group axis,
    # so they broadcast over the query heads of their group.
    CASES = [(2, 3, 5, 5, 2),   # window shorter than T
             (1, 2, 1, 1, 1),   # T = 1
             (2, 2, 3, 7, 4),   # cached keys: Tk > Tq
             (2, 1, 4, 4, 4)]   # plain causal, no broadcast

    def _arrays(self, n_kv, group, t_q, t_k, seed=0):
        rng = np.random.default_rng(seed)
        d = 6
        return (rng.normal(size=(n_kv, group, t_q, d)), rng.normal(size=(n_kv, 1, t_k, d)),
                rng.normal(size=(n_kv, 1, t_k, d)), rng.normal(size=(n_kv, group, t_q, d)))

    @pytest.mark.parametrize("n_kv,group,t_q,t_k,window", CASES)
    def test_gradient(self, n_kv, group, t_q, t_k, window):
        q, k, v, probe = self._arrays(n_kv, group, t_q, t_k)
        q, k, v = leaf(q), leaf(k), leaf(v)
        mask = window_mask(t_q, t_k, window, np.float64)
        errs = check_grad(lambda: tsum(T.attention(q, k, v, mask, 0.4) * probe),
                          {"q": q, "k": k, "v": v})
        assert max(errs.values()) <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_kv,group,t_q,t_k,window", CASES)
    def test_bitwise_equal_to_the_op_chain(self, dtype, n_kv, group, t_q, t_k, window):
        arrays = self._arrays(n_kv, group, t_q, t_k, seed=1)
        mask = window_mask(t_q, t_k, window, dtype)

        def run(op):
            q, k, v = (leaf(a, dtype) for a in arrays[:3])
            out = op(q, k, v, mask, 1.0 / math.sqrt(6))
            tsum(out * arrays[3]).backward()
            return [out.data, q.grad, k.grad, v.grad]

        for got, want in zip(run(T.attention), run(attention_chain)):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


    def test_gradient_over_a_segment_layout(self):
        # a prompt and two branches, as model.branch_layout packs them,
        # within a window shorter than the branches' reach
        segments = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        mask = attention_mask(len(segments), 3, "f64", segments=segments)
        q, k, v, probe = self._arrays(2, 2, 8, 8, seed=2)
        q, k, v = leaf(q), leaf(k), leaf(v)
        errs = check_grad(lambda: tsum(T.attention(q, k, v, mask, 0.4) * probe),
                          {"q": q, "k": k, "v": v})
        assert max(errs.values()) <= 1e-6

    def test_fully_masked_row_warns_once_per_forward(self):
        q, k, v, probe = self._arrays(1, 2, 3, 3, seed=3)
        q, k, v = leaf(q), leaf(k), leaf(v)
        mask = window_mask(3, 3, 2, np.float64)
        mask.data[1] = T.MASK_NEG[np.dtype(np.float64)]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = T.attention(q, k, v, mask, 0.4)
            assert [str(w.message) for w in seen] == [
                "softmax over fully masked slice; returning zeros"]
            tsum(out * probe).backward()
            assert len(seen) == 1  # the pull's recompute does not warn again
        np.testing.assert_array_equal(out.data[:, :, 1], 0.0)
        np.testing.assert_array_equal(q.grad[:, :, 1], 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            errs = check_grad(lambda: tsum(T.attention(q, k, v, mask, 0.4) * probe),
                              {"q": q, "k": k, "v": v})
        assert max(errs.values()) <= 1e-6


class TestRmsNorm:
    def test_unit_rms_passthrough(self):
        x = Tensor([1.0, 1.0, 1.0, 1.0])
        w = Tensor(np.ones(4))
        out = rms_norm(x, w, eps=0.0)
        np.testing.assert_allclose(out.data, [1.0] * 4, atol=1e-15)

    def test_hand_evaluated(self):
        out = rms_norm(Tensor([3.0, 4.0]), Tensor(np.ones(2)), eps=0.0)
        expected = np.array([3.0, 4.0]) / math.sqrt(12.5)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)
        np.testing.assert_allclose(out.data, [0.8485, 1.1314], atol=1e-4)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6))
        w = Tensor(rng.normal(size=6))
        base = rms_norm(Tensor(x), w, eps=0.0)
        for c in (0.5, 3.0, 1e6):
            scaled = rms_norm(Tensor(c * x), w, eps=0.0)
            np.testing.assert_allclose(scaled.data, base.data, rtol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = leaf(rng.normal(size=(3, 6)))
        w = leaf(rng.normal(size=6))
        probe = rng.normal(size=(3, 6))
        errs = check_grad(lambda: tsum(rms_norm(x, w, 1e-5) * probe), {"x": x, "w": w})
        assert max(errs.values()) <= 1e-3

    def test_weight_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rms_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)), 1e-5)


class TestSilu:
    def test_zero(self):
        assert silu(Tensor([0.0])).data[0] == 0.0

    def test_large_positive_approaches_identity(self):
        out = silu(Tensor([40.0]))
        np.testing.assert_allclose(out.data, [40.0], rtol=1e-12)

    def test_closed_form_at_one(self):
        out = silu(Tensor([1.0]))
        np.testing.assert_allclose(out.data, [1.0 / (1.0 + math.exp(-1.0))], atol=1e-15)
        np.testing.assert_allclose(out.data, [0.7311], atol=1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = leaf(rng.normal(size=12) * 3)
        errs = check_grad(lambda: tsum(silu(x)), {"x": x})
        assert errs["x"] <= 1e-3

    @pytest.mark.parametrize("dtype, big", [(np.float64, 1e3), (np.float32, 80.0)])
    def test_extremes_finite_and_closed_form(self, dtype, big):
        import mpmath

        x = Tensor(np.array([-big, big], dtype=dtype), requires_grad=True)
        with np.errstate(over="raise", invalid="raise"):
            outs = {"silu": silu(x), "log_sigmoid": log_sigmoid(x)}
            grads = {}
            for name, out in outs.items():
                x.zero_grad()
                tsum(out).backward()
                grads[name] = x.grad
        with mpmath.workdps(50):
            want = {"silu": ([v / (1 + mpmath.exp(-v)) for v in x.data],
                             [(1 + mpmath.exp(-v) + v * mpmath.exp(-v))
                              / (1 + mpmath.exp(-v)) ** 2 for v in x.data]),
                    "log_sigmoid": ([-mpmath.log(1 + mpmath.exp(-v)) for v in x.data],
                                    [1 / (1 + mpmath.exp(v)) for v in x.data])}
        for name, (values, slopes) in want.items():
            assert np.all(np.isfinite(outs[name].data)) and np.all(np.isfinite(grads[name]))
            if dtype == np.float64:
                np.testing.assert_allclose(outs[name].data, [float(v) for v in values],
                                           rtol=1e-15, atol=1e-15)
                np.testing.assert_allclose(grads[name], [float(v) for v in slopes],
                                           rtol=1e-15, atol=1e-15)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 256)))
        loss = cross_entropy(logits, [5, 9, 200])
        np.testing.assert_allclose(loss.item(), math.log(256.0), rtol=1e-12)

    def test_confident_correct_goes_to_zero(self):
        z = np.zeros((2, 8))
        z[0, 3] = 60.0
        z[1, 1] = 60.0
        loss = cross_entropy(Tensor(z), [3, 1])
        assert loss.item() < 1e-12

    def test_ignored_positions_drop_out(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(6, 10))
        t = rng.integers(0, 10, size=6)
        half = cross_entropy(Tensor(z), np.where(np.arange(6) < 3, t, -100))
        manual = cross_entropy(Tensor(z[:3]), t[:3])
        np.testing.assert_allclose(half.item(), manual.item(), rtol=1e-14)

    def test_all_ignored_raises(self):
        with pytest.raises(EmptyLossError):
            cross_entropy(Tensor(np.zeros((2, 4))), [-100, -100])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_gradient_including_ignored(self):
        rng = np.random.default_rng(8)
        z = leaf(rng.normal(size=(5, 7)))
        targets = [2, -100, 6, 0, -100]
        errs = check_grad(lambda: cross_entropy(z, targets), {"z": z})
        assert errs["z"] <= 1e-5
        z.zero_grad()
        cross_entropy(z, targets).backward()
        np.testing.assert_array_equal(z.grad[1], 0.0)
        np.testing.assert_array_equal(z.grad[4], 0.0)


class TestBackwardSemantics:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = leaf([1.0, -2.0, 3.0])
        tsum(x * x).backward()
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], rtol=1e-15)

    def test_accumulates_until_zeroed(self):
        x = leaf([1.0, 2.0])
        tsum(x).backward()
        tsum(x).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
        tsum(x).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_second_backward_raises(self):
        x = leaf([1.0, 2.0])
        loss = tsum(x * x)
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_graph_on_backpropagated_intermediate_raises(self):
        x = leaf([1.0, 2.0])
        y = x * x
        tsum(y).backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            tsum(y * 3.0).backward()

    def test_backward_releases_the_graph(self):
        x = leaf([1.0, 2.0])
        loss = tsum(x * x)
        inner = weakref.ref(loss._node.edges[0][0])
        loss.backward()
        assert inner() is None
        assert loss._node.edges is None and x._node is None

    def test_graph_keeps_only_what_its_pulls_read(self):
        # add's pulls read shapes only, so the matmul result it consumed
        # is freed once the caller drops it, while the graph lives on.
        rng = np.random.default_rng(12)
        x, w = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 5)))
        y = matmul(x, w)
        values = weakref.ref(y.data)
        loss = tsum(y + 1.0)
        del y
        assert values() is None
        loss.backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 5)) @ w.data.T, rtol=1e-14)
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((3, 5)), rtol=1e-14)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            leaf([1.0, 2.0]).backward()

    def test_non_scalar_output_without_cotangent_rejected(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            T.backward(x * x)
        assert x.grad is None

    def test_seeded_backward_passes_fdcheck(self):
        # backward(out, cotangent) pulls the cotangent back to the leaves:
        # the gradient of sum(cotangent * out)
        rng = np.random.default_rng(21)
        x, w = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 5)))
        cotangent = rng.normal(size=(3, 5))

        def out():
            return silu(matmul(x, w))

        def value():
            with no_grad():
                return float((cotangent * out().data).sum())

        T.backward(out(), cotangent)
        for t in (x, w):
            assert max_rel_err(t.grad, central_diff(value, t.data)) < 1e-6

    def test_cotangent_of_another_shape_rejected(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        y = x * x
        for bad in (np.ones(4), np.ones((2, 1)), np.ones(())):
            with pytest.raises(ValueError, match=r"cotangent of shape \(2, 2\)"):
                T.backward(y, bad)
        T.backward(y, np.ones((2, 2)))  # the graph is still whole
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_diamond_graph_fan_in(self):
        x = leaf([2.0])
        y = x * x
        tsum(y + y).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_no_grad_blocks_recording(self):
        x = leaf([1.0, 2.0])
        with no_grad():
            y = tsum(x * x)
        assert not y.requires_grad
        assert y._node is None

    def test_frozen_leaves_get_no_grad(self):
        x = leaf([1.0, 2.0])
        w = Tensor([3.0, 4.0])
        tsum(x * w).backward()
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])


class TestShapeOps:
    def test_reshape_transpose_roundtrip_grad(self):
        rng = np.random.default_rng(9)
        x = leaf(rng.normal(size=(2, 3, 4)))
        probe = rng.normal(size=(4, 6))

        def build():
            y = transpose(x, (2, 0, 1))
            return tsum(reshape(y, (4, 6)) * probe)

        errs = check_grad(build, {"x": x})
        assert errs["x"] <= 1e-5

    def test_embedding_lookup_and_scatter(self):
        table = leaf(np.arange(12.0).reshape(4, 3))
        out = embedding(table, [1, 1, 3])
        np.testing.assert_array_equal(out.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
        tsum(out).backward()
        np.testing.assert_array_equal(table.grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])

    def test_embedding_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embedding(Tensor(np.zeros((4, 2))), [4])
        with pytest.raises(ValueError, match="out of range"):
            embedding(Tensor(np.zeros((4, 2))), [-1])


class TestMiscOps:
    def test_log_sigmoid_values_and_grad(self):
        import mpmath

        x = leaf([-30.0, -1.0, 0.0, 1.0, 30.0])
        out = log_sigmoid(x)
        with mpmath.workdps(50):
            expected = [float(mpmath.log(1 / (1 + mpmath.exp(-v)))) for v in x.data]
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        errs = check_grad(lambda: tsum(log_sigmoid(x)), {"x": x})
        assert errs["x"] <= 1e-3

    def test_straight_through_passes_grad(self):
        x = leaf([0.3, -1.7])
        out = straight_through(x, np.round)
        np.testing.assert_array_equal(out.data, [0.0, -2.0])
        tsum(out).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_broadcast_add_trailing_vector(self):
        x = leaf(np.ones((2, 2, 3)))
        v = leaf(np.array([1.0, 2.0, 3.0]))
        out = x + v
        assert out.shape == (2, 2, 3)
        tsum(out).backward()
        np.testing.assert_array_equal(v.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(x.grad, np.ones((2, 2, 3)))


class TestDeterminism:
    def test_bitwise_identical_reruns(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 6))
        w = rng.normal(size=(6, 6))

        def run():
            a = Tensor(x.copy())
            b = Tensor(w.copy())
            return rms_norm(softmax(matmul(a, b), axis=-1), Tensor(np.ones(6)), 1e-5).data.tobytes()

        assert run() == run()

    def test_dtype_preserved_f32(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        w = Tensor(np.ones(3, dtype=np.float32))
        for out in (softmax(x, -1), rms_norm(x, w, 1e-5), silu(x), x + x, x * 2.0):
            assert out.dtype == np.float32, out


class TestGradModePerThread:
    def test_no_grad_in_one_thread_leaves_another_alone(self):
        entered, release, seen = threading.Event(), threading.Event(), {}

        def other():
            with no_grad():
                entered.set()
                release.wait(10)
            seen["after"] = T.grad_enabled()

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert entered.wait(10)
            assert T.grad_enabled() and T._grad_enabled  # not turned off here
            with no_grad():
                release.set()
                thread.join(10)
                assert not thread.is_alive()
                assert not T.grad_enabled() and not T._grad_enabled  # not turned back on
            assert T.grad_enabled()
            assert seen == {"after": True}
        finally:
            release.set()
            thread.join(10)


class TestEach:
    """`T.each`: the ordered map over independent units, with optional folds."""

    @staticmethod
    def run(fn, items, cpus, monkeypatch, grad=False, fold=None):
        use_cpus(monkeypatch, cpus)
        if grad:
            return T.each(fn, items, fold)
        with no_grad():
            return T.each(fn, items, fold)

    def test_results_in_input_order(self, monkeypatch):
        def unit(x):
            time.sleep(0.002 * (x % 3))
            return x * x

        assert self.run(unit, range(12), 2, monkeypatch) == [x * x for x in range(12)]

    def two_units_meet(self, monkeypatch, grad):
        meet = threading.Barrier(2, timeout=10)  # breaks unless both units run at once
        seen = []

        def unit(x):
            meet.wait()
            seen.append((threading.get_ident(), T.grad_enabled()))
            return x

        assert self.run(unit, [0, 1], 2, monkeypatch, grad=grad) == [0, 1]
        assert len({ident for ident, _ in seen}) == 2
        assert [g for _, g in seen] == [grad, grad]
        assert T.grad_enabled()

    def test_graph_free_units_run_at_once_under_no_grad(self, monkeypatch):
        self.two_units_meet(monkeypatch, grad=False)

    def test_grad_on_units_run_at_once(self, monkeypatch):
        self.two_units_meet(monkeypatch, grad=True)

    @pytest.mark.parametrize("grad", [False, True], ids=["one_cpu", "one_cpu_grad_on"])
    def test_plain_loop(self, monkeypatch, grad):
        seen = []
        out = self.run(lambda x: seen.append((threading.get_ident(), T.grad_enabled())) or x,
                       range(4), 1, monkeypatch, grad=grad)
        assert out == [0, 1, 2, 3]
        assert seen == [(threading.get_ident(), grad)] * 4

    def test_folds_run_one_at_a_time_in_input_order(self, monkeypatch):
        meet = threading.Barrier(2, timeout=10)  # the first two units overlap
        lock, live, peak, folded = threading.Lock(), [0], [0], []

        def unit(x):
            if x < 2:
                meet.wait()
            time.sleep(0.004 * ((x + 1) % 2))  # odd units finish first
            return x

        def fold(x):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            time.sleep(0.001)
            folded.append(x)
            with lock:
                live[0] -= 1
            return -x

        assert self.run(unit, range(8), 2, monkeypatch, fold=fold) == [-x for x in range(8)]
        assert folded == list(range(8))
        assert peak[0] == 1

    def test_failing_fold_stops_later_folds(self, monkeypatch):
        class FoldFailed(Exception):
            pass

        folded = []

        def fold(x):
            if x == 3:
                raise FoldFailed(x)
            folded.append(x)
            return x

        start = threading.active_count()
        with pytest.raises(FoldFailed) as info:
            self.run(lambda x: x, range(10), 2, monkeypatch, fold=fold)
        assert info.value.args == (3,)
        assert folded == [0, 1, 2]
        assert threading.active_count() == start

    def test_at_most_one_unit_per_cpu_until_its_fold(self, monkeypatch):
        lock, live, peak, threads = threading.Lock(), [0], [0], set()

        def unit(x):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
                threads.add(threading.get_ident())
            return x

        def fold(x):
            time.sleep(0.003 * (x % 2))  # a unit is in flight until its fold is done
            with lock:
                live[0] -= 1
            return x

        assert self.run(unit, range(12), 3, monkeypatch, fold=fold) == list(range(12))
        assert peak[0] <= 3 and len(threads) <= 3

    def test_at_most_one_unit_per_cpu_and_per_item(self, monkeypatch):
        lock, live, peak, threads = threading.Lock(), [0], [0], set()

        def unit(x):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
                threads.add(threading.get_ident())
            time.sleep(0.005)
            with lock:
                live[0] -= 1
            return x

        self.run(unit, range(12), 3, monkeypatch)
        assert peak[0] <= 3 and len(threads) <= 3
        threads.clear()
        self.run(unit, range(2), 8, monkeypatch)
        assert len(threads) <= 2

    def test_first_failure_in_input_order_propagates(self, monkeypatch):
        class UnitFailed(Exception):
            pass

        ran = []

        def unit(x):
            if x in (3, 6):
                time.sleep(0.01 if x == 3 else 0.0)
                raise UnitFailed(x)
            ran.append(x)
            return x

        start = threading.active_count()
        with pytest.raises(UnitFailed) as info:
            self.run(unit, range(10), 2, monkeypatch)
        assert info.value.args == (3,)
        assert threading.active_count() == start
        assert {0, 1, 2} <= set(ran)

    def test_threads_are_joined(self, monkeypatch):
        start = threading.active_count()
        self.run(lambda x: x, range(6), 2, monkeypatch)
        assert threading.active_count() == start

    def test_each_unit_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching threads as often as possible
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = self.run(lambda x: calls.append(x) or -x, range(2000), 8, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert out == [-x for x in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_nested_call_runs_inline(self, monkeypatch):
        def unit(x):
            outer = threading.get_ident()
            inner = T.each(lambda y: threading.get_ident(), range(3))
            return inner == [outer] * 3

        assert self.run(unit, range(4), 2, monkeypatch) == [True] * 4

    def test_cpu_count_when_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(T.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(T.os, "cpu_count", lambda: None)
        main = threading.get_ident()
        with no_grad():
            assert T.each(lambda x: threading.get_ident(), range(3)) == [main] * 3
