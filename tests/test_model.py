"""Architecture tests: config invariants, RoPE, masking, GQA, blocks, forward."""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from deskllm import tensor as T
from deskllm.model import (
    ConfigError,
    DecodeSession,
    LoraAdapter,
    ModelConfig,
    attention_mask,
    branch_layout,
    config_1p8b,
    config_1p8b_v2,
    count_params,
    decoder_block,
    forward,
    fp8_weights,
    gqa_attention,
    init_params,
    lora_weights,
    param_shapes,
    rope_rotate,
    segment_positions,
)
from deskllm.dpo import init_lora_adapters
from deskllm.pretrain import batch_loss
from deskllm.tensor import ShapeError, Tensor, cross_entropy, no_grad

from fdcheck import check_grad
from modelutil import (count_roundings, reference_forward, tiny_config, tiny_model,
                       weight_roundings)


class TestModelConfig:
    def test_valid_config_properties(self):
        cfg = tiny_config()
        assert cfg.head_dim == 4
        assert cfg.kv_dim == 8
        assert cfg.group_size == 2

    def test_rejects_bad_head_ratio(self):
        with pytest.raises(ConfigError):
            tiny_config(n_heads=4, n_kv_heads=3)

    def test_rejects_indivisible_hidden(self):
        with pytest.raises(ConfigError):
            tiny_config(hidden_size=18)

    def test_rejects_odd_head_dim(self):
        with pytest.raises(ConfigError):
            tiny_config(hidden_size=6, n_heads=2, n_kv_heads=2)

    def test_rejects_window_exceeding_context(self):
        with pytest.raises(ConfigError):
            tiny_config(max_context=64, sliding_window=65)

    def test_rejects_nonpositive_fields(self):
        for kw in ({"hidden_size": 0}, {"n_layers": -1}, {"vocab_size": 0},
                   {"sliding_window": 0}, {"rope_theta": 0.0}, {"norm_eps": 0.0},
                   {"init_std": 0.0}):
            with pytest.raises(ConfigError):
                tiny_config(**kw)


class TestCountParams:
    def test_reference_config_exact(self):
        n = count_params(config_1p8b())
        assert n == 1_831_201_280
        assert 1.7e9 <= n <= 1.9e9

    def test_v2_config_same_size(self):
        cfg = config_1p8b_v2()
        assert cfg.sliding_window is None
        assert cfg.max_context == 8192
        assert count_params(cfg) == 1_831_201_280

    def test_matches_allocated_tensors(self):
        cfg = ModelConfig(hidden_size=64, intermediate_size=128, n_layers=2, n_heads=4,
                          n_kv_heads=2, vocab_size=256, max_context=64)
        params = init_params(cfg, seed=0)
        allocated = sum(t.data.size for t in params.named_tensors().values())
        assert count_params(cfg) == allocated
        shapes = {name: t.shape for name, t in params.named_tensors().items()}
        assert list(param_shapes(cfg).items()) == list(shapes.items())


class TestInitParams:
    def test_truncation_and_norm_scales(self):
        cfg = tiny_config(vocab_size=512)
        params = init_params(cfg, seed=1)
        for name, t in params.named_tensors().items():
            if "norm" in name:
                assert np.array_equal(t.data, np.ones_like(t.data))
            else:
                assert np.all(np.abs(t.data) <= 3.0 * cfg.init_std)
        emb = params.token_embedding.data
        assert abs(emb.std() - cfg.init_std) < 0.2 * cfg.init_std

    def test_head_distinct_from_embedding(self):
        params = init_params(tiny_config(), seed=0)
        assert params.lm_head.data is not params.token_embedding.data
        assert not np.shares_memory(params.lm_head.data, params.token_embedding.data)

    def test_deterministic_by_seed(self):
        a = init_params(tiny_config(), seed=7)
        b = init_params(tiny_config(), seed=7)
        c = init_params(tiny_config(), seed=8)
        for name, t in a.named_tensors().items():
            assert np.array_equal(t.data, b.named_tensors()[name].data)
        assert not np.array_equal(a.token_embedding.data, c.token_embedding.data)

    def test_dtype_selection(self):
        assert init_params(tiny_config(), seed=0).dtype == np.float32
        assert init_params(tiny_config(), seed=0, dtype="f64").dtype == np.float64


class TestRope:
    def test_position_zero_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        out = rope_rotate(x, [0], theta=10000.0)
        assert np.array_equal(out.data, x.data)

    def test_isometry(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, 2, 16)))
        out = rope_rotate(x, [0, 3, 100, 4000, 123456], theta=10000.0)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1),
                                   np.linalg.norm(x.data, axis=-1), rtol=1e-12)

    def test_relative_position_identity(self):
        rng = np.random.default_rng(2)
        d = 8
        for i, j in [(5, 3), (2, 7), (10, 0), (0, 4)]:
            q = rng.normal(size=(1, 1, d))
            k = rng.normal(size=(1, 1, d))
            qi = rope_rotate(Tensor(q), [i], 10000.0).data.reshape(d)
            kj = rope_rotate(Tensor(k), [j], 10000.0).data.reshape(d)
            q_rel = rope_rotate(Tensor(q), [i - j], 10000.0).data.reshape(d)
            np.testing.assert_allclose(qi @ kj, q_rel @ k.reshape(d), rtol=0, atol=1e-10)

    def test_matches_rotation_matrix_oracle(self):
        rng = np.random.default_rng(3)
        d, half, theta = 6, 3, 100.0
        x = rng.normal(size=(4, 2, d))
        out = rope_rotate(Tensor(x), [0, 1, 5, 9], theta).data
        for t, p in enumerate([0, 1, 5, 9]):
            rot = np.zeros((d, d))
            for i in range(half):
                ang = p * theta ** (-2.0 * i / d)
                rot[i, i] = np.cos(ang)
                rot[i, i + half] = -np.sin(ang)
                rot[i + half, i] = np.sin(ang)
                rot[i + half, i + half] = np.cos(ang)
            for head in range(2):
                np.testing.assert_allclose(out[t, head], rot @ x[t, head], atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            rope_rotate(Tensor(np.zeros((2, 1, 5))), [0, 1], 10000.0)

    def test_position_length_mismatch(self):
        with pytest.raises(ShapeError):
            rope_rotate(Tensor(np.zeros((2, 1, 4))), [0, 1, 2], 10000.0)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        errs = check_grad(lambda: T.tsum(T.mul(rope_rotate(x, [0, 2, 5], 50.0),
                                               rope_rotate(x, [0, 2, 5], 50.0))),
                          {"x": x})
        assert errs["x"] < 1e-6


class TestAttentionMask:
    def test_causal_pattern(self):
        m = attention_mask(4, None, dtype="f64").data
        allow = m == 0.0
        assert np.array_equal(allow, np.tril(np.ones((4, 4), dtype=bool)))
        assert np.all(m[~allow] == -1e300)

    def test_window_rows(self):
        m = attention_mask(6, 3, dtype="f64").data
        for i in range(6):
            expect = {j for j in range(6) if max(0, i - 2) <= j <= i}
            got = {j for j in range(6) if m[i, j] == 0.0}
            assert got == expect
        assert got == {3, 4, 5}

    def test_window_at_least_seq_is_causal(self):
        causal = attention_mask(5, None, dtype="f32").data
        for window in (5, 6, 100):
            assert np.array_equal(attention_mask(5, window, dtype="f32").data, causal)

    def test_masking_constant_follows_dtype(self):
        assert attention_mask(2, None, dtype="f32").data[0, 1] == np.float32(-1e9)
        assert attention_mask(2, None, dtype="f64").data[0, 1] == -1e300

    def test_offset_rows_cover_reachable_keys(self):
        m = attention_mask(2, 3, dtype="f64", start=5).data
        assert m.shape == (2, 4)  # keys 3..6
        for row, i in enumerate((5, 6)):
            got = {3 + c for c in range(4) if m[row, c] == 0.0}
            assert got == {j for j in range(7) if i - 3 < j <= i}
        assert attention_mask(2, None, dtype="f64", start=5).data.shape == (2, 7)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            attention_mask(0, None)
        with pytest.raises(ConfigError):
            attention_mask(4, 0)

    @pytest.mark.parametrize("window", [None, 1, 3, 6, 9])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_all_zero_segments_are_the_plain_mask(self, window, dtype):
        plain = attention_mask(7, window, dtype=dtype).data
        zeros = attention_mask(7, window, dtype=dtype, segments=np.zeros(7, np.int64)).data
        assert zeros.dtype == plain.dtype and zeros.shape == plain.shape
        assert zeros.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("window", [None, 2, 4])
    def test_branch_rows_see_prompt_and_own_branch(self, window):
        seg = np.array([0, 0, 0, 1, 1, 2, 3, 3, 3])
        pos = np.array([0, 1, 2, 3, 4, 3, 3, 4, 5])
        assert segment_positions(seg, 9).tolist() == pos.tolist()
        m = attention_mask(9, window, dtype="f64", segments=seg).data
        assert m.shape == (9, 9)
        for i in range(9):
            got = {j for j in range(9) if m[i, j] == 0.0}
            assert all(seg[j] in (0, seg[i]) for j in got)  # never another branch
            want = {j for j in range(i + 1) if seg[j] in (0, seg[i])
                    and (window is None or pos[i] - pos[j] < window)}
            assert got == want
        if window == 2:
            assert {j for j in range(9) if m[5, j] == 0.0} == {2, 5}
            assert {j for j in range(9) if m[8, j] == 0.0} == {7, 8}

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            attention_mask(3, None, segments=[0, 1, 0])  # a branch must be contiguous
        with pytest.raises(ValueError):
            attention_mask(3, None, segments=[0, 1])
        with pytest.raises(ValueError):
            attention_mask(2, None, segments=[0.0, 1.0])
        with pytest.raises(ValueError):
            attention_mask(2, None, start=3, segments=[0, 1])


class TestBranchLayout:
    def test_rows_and_segments(self):
        ids, seg, rows = branch_layout([7, 8, 9], [[5, 1], [2], [], [3, 4, 6]])
        # sorted branches: [] and [2] add no tokens, then [3, 4] and [5]
        assert ids.tolist() == [7, 8, 9, 3, 4, 5]
        assert seg.tolist() == [0, 0, 0, 3, 3, 4]
        assert [r.tolist() for r in rows] == [[2, 5], [2], [], [2, 3, 4]]

    def test_order_of_continuations_is_irrelevant(self):
        conts = [[5, 1], [2], [3, 4, 6], [3, 4]]
        ids, seg, rows = branch_layout([7, 8], conts)
        ids2, seg2, rows2 = branch_layout([7, 8], conts[::-1])
        assert ids.tolist() == ids2.tolist() and seg.tolist() == seg2.tolist()
        assert [r.tolist() for r in rows] == [r.tolist() for r in rows2[::-1]]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            branch_layout([], [[1]])
        with pytest.raises(ValueError):
            branch_layout([1], [[[1]]])


def reference_gqa(q, k, v, wo, cfg, window):
    """Loop-based grouped attention: query head h uses KV head h // group."""
    t_total = q.shape[0]
    d = cfg.head_dim
    out = np.zeros((t_total, cfg.n_heads * d))
    for h in range(cfg.n_heads):
        kv = h // cfg.group_size
        qs = q[:, h]
        ks = k[:, kv]
        vs = v[:, kv]
        for t in range(t_total):
            lo = 0 if window is None else max(0, t - window + 1)
            js = np.arange(lo, t + 1)
            sc = np.array([qs[t] @ ks[j] for j in js]) / np.sqrt(d)
            e = np.exp(sc - sc.max())
            out[t, h * d:(h + 1) * d] = (e / e.sum()) @ vs[js]
    return out @ wo


class TestGqaAttention:
    def _inputs(self, cfg, t_len, seed=0):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(t_len, cfg.n_heads, cfg.head_dim))
        k = rng.normal(size=(t_len, cfg.n_kv_heads, cfg.head_dim))
        v = rng.normal(size=(t_len, cfg.n_kv_heads, cfg.head_dim))
        wo = rng.normal(size=(cfg.hidden_size, cfg.hidden_size))
        return q, k, v, wo

    def test_degenerate_grouping_equals_mha(self):
        cfg = tiny_config(n_kv_heads=4)
        q, k, v, wo = self._inputs(cfg, 6)
        out = gqa_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(wo),
                            attention_mask(6, None, "f64"), cfg)
        np.testing.assert_allclose(out.data, reference_gqa(q, k, v, wo, cfg, None),
                                   rtol=0, atol=1e-12)

    def test_grouped_matches_loop_reference(self):
        cfg = tiny_config(sliding_window=2)
        q, k, v, wo = self._inputs(cfg, 7, seed=1)
        out = gqa_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(wo),
                            attention_mask(7, 2, "f64"), cfg)
        np.testing.assert_allclose(out.data, reference_gqa(q, k, v, wo, cfg, 2),
                                   rtol=0, atol=1e-12)

    def test_single_position_is_projected_value(self):
        cfg = tiny_config()
        rng = np.random.default_rng(2)
        v = rng.normal(size=(1, cfg.n_kv_heads, cfg.head_dim))
        wo = rng.normal(size=(cfg.hidden_size, cfg.hidden_size))
        mask = attention_mask(1, None, "f64")
        outs = []
        for seed in (3, 4):
            rng2 = np.random.default_rng(seed)
            q = rng2.normal(size=(1, cfg.n_heads, cfg.head_dim)) * 10.0
            k = rng2.normal(size=(1, cfg.n_kv_heads, cfg.head_dim)) * 10.0
            outs.append(gqa_attention(Tensor(q), Tensor(k), Tensor(v), Tensor(wo),
                                      mask, cfg).data)
        # value vector repeats across the head group before projection
        stacked = np.concatenate([v.reshape(cfg.n_kv_heads, cfg.head_dim)[h // cfg.group_size]
                                  for h in range(cfg.n_heads)]).reshape(1, -1)
        expected = stacked @ wo
        np.testing.assert_allclose(outs[0], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(outs[1], expected, rtol=0, atol=1e-12)

    def test_inconsistent_extents_rejected(self):
        cfg = tiny_config()
        q, k, v, wo = self._inputs(cfg, 3)
        mask = attention_mask(3, None, "f64")
        with pytest.raises(ShapeError):
            gqa_attention(Tensor(q[:, :-1]), Tensor(k), Tensor(v), Tensor(wo), mask, cfg)
        with pytest.raises(ShapeError):
            gqa_attention(Tensor(q), Tensor(k[:, :-1]), Tensor(v), Tensor(wo), mask, cfg)

    def test_reference_shape_group_size(self):
        cfg = ModelConfig(hidden_size=128, intermediate_size=256, n_layers=1,
                          n_heads=32, n_kv_heads=8, vocab_size=64, max_context=32)
        assert cfg.group_size == 4

    def test_gradient(self):
        cfg = tiny_config(hidden_size=8, n_heads=2, n_kv_heads=1, intermediate_size=12)
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 1, 4)), requires_grad=True)
        wo = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        mask = attention_mask(3, None, "f64")
        errs = check_grad(lambda: T.tsum(gqa_attention(q, k, v, wo, mask, cfg)),
                          {"q": q, "k": k, "v": v, "wo": wo})
        assert max(errs.values()) < 1e-6

    def test_graph_keeps_one_weights_array(self):
        # One call's graph holds the softmax weights; every other array it
        # keeps is of q's size, far below one [heads, T, T] array.
        cfg = tiny_config(hidden_size=64, n_heads=8, n_kv_heads=2, max_context=256)
        t_len = 256
        q, k, v, wo = (Tensor(a, requires_grad=True) for a in self._inputs(cfg, t_len, seed=6))
        mask = attention_mask(t_len, 128, "f64")
        weights_nbytes = cfg.n_heads * t_len * t_len * 8
        tracemalloc.start()
        try:
            out = gqa_attention(q, k, v, wo, mask, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained < 1.5 * weights_nbytes

    def test_graph_keeps_no_weights_array(self):
        # The pull recomputes the softmax weights: the graph keeps q, k
        # and v, each of q's size or less, and the projected heads.
        cfg = tiny_config(hidden_size=64, n_heads=8, n_kv_heads=2, max_context=256)
        t_len = 256
        q, k, v, wo = (Tensor(a, requires_grad=True) for a in self._inputs(cfg, t_len, seed=6))
        mask = attention_mask(t_len, 128, "f64")
        weights_nbytes = cfg.n_heads * t_len * t_len * 8
        tracemalloc.start()
        try:
            out = gqa_attention(q, k, v, wo, mask, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained < 0.5 * weights_nbytes


class TestDecoderBlock:
    def test_zero_weights_identity(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0, dtype="f64")
        layer = params.layers[0]
        for t in [layer.wq, layer.wk, layer.wv, layer.wo, layer.w_gate,
                  layer.w_up, layer.w_down, layer.norm_attn, layer.norm_mlp]:
            t.data[...] = 0.0
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, cfg.hidden_size)))
        out = decoder_block(x, layer, attention_mask(5, None, "f64"), cfg)
        assert np.array_equal(out.data, x.data)

    def test_causality_exact(self):
        cfg, params = tiny_model(seed=2)
        layer = params.layers[0]
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, cfg.hidden_size))
        x2 = x.copy()
        x2[4] += 1.0
        mask = attention_mask(6, None, "f64")
        a = decoder_block(Tensor(x), layer, mask, cfg).data
        b = decoder_block(Tensor(x2), layer, mask, cfg).data
        assert np.array_equal(a[:4], b[:4])
        assert not np.array_equal(a[4], b[4])

    def test_window_covering_sequence_matches_causal(self):
        cfg, params = tiny_model(seed=4)
        layer = params.layers[0]
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(5, cfg.hidden_size)))
        out_causal = decoder_block(x, layer, attention_mask(5, None, "f64"), cfg)
        out_window = decoder_block(x, layer, attention_mask(5, 5, "f64"), cfg)
        assert np.array_equal(out_causal.data, out_window.data)

    def test_gradcheck(self):
        cfg, params = tiny_model(seed=6, hidden_size=8, n_heads=2, n_kv_heads=1,
                                 intermediate_size=12)
        layer = params.layers[0]
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        mask = attention_mask(4, None, "f64")
        leaves = {"x": x, "wq": layer.wq, "wo": layer.wo, "w_gate": layer.w_gate,
                  "norm_attn": layer.norm_attn}
        errs = check_grad(lambda: T.tsum(T.mul(decoder_block(x, layer, mask, cfg),
                                               decoder_block(x, layer, mask, cfg))),
                          leaves)
        assert max(errs.values()) < 1e-3


class TestForward:
    def test_logits_shape(self):
        cfg, params = tiny_model(seed=0, dtype="f32")
        out = forward(params, [1, 2, 3], cfg)
        assert out.shape == (3, cfg.vocab_size)
        assert out.dtype == np.float32

    def test_prefix_invariance(self):
        cfg, params = tiny_model(seed=1)
        a = forward(params, [1, 2, 3, 4, 5], cfg).data
        b = forward(params, [1, 2, 3, 9, 8], cfg).data
        assert np.array_equal(a[:3], b[:3])
        assert not np.array_equal(a[3], b[3])

    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_window_reach_is_exact(self, window):
        # Each layer carries a token window - 1 rows further, so an edit
        # at s reaches row s + L·(W − 1) and bitwise no later row.
        cfg, params = tiny_model(seed=4, n_layers=2, sliding_window=window)
        t_len, s = 24, 3
        reach = s + cfg.n_layers * (window - 1)
        assert t_len > reach + 1 and t_len > cfg.n_layers * window
        ids = np.random.default_rng(window).integers(0, cfg.vocab_size, t_len)
        edited = ids.copy()
        edited[s] = (ids[s] + 1) % cfg.vocab_size
        with no_grad():
            a = forward(params, ids, cfg).data
            b = forward(params, edited, cfg).data
        assert a.dtype == np.float64
        assert np.array_equal(a[:s], b[:s])
        assert all(not np.array_equal(a[row], b[row]) for row in range(s, reach + 1))
        assert np.array_equal(a[reach + 1:], b[reach + 1:])

    def test_graph_frees_what_no_pull_reads(self, monkeypatch):
        # While the graph lives, the rope inputs (q and k before rope) and
        # the attention outputs are freed as the forward moves on.
        cfg, params = tiny_model(seed=5)
        freed = []
        real_rotary, real_attention = T.rotary, T.attention

        def rotary(x, cos, sin):  # x is a view of its projection's result
            freed.append(weakref.ref(x.data.base))
            return real_rotary(x, cos, sin)

        def attention(*args):
            out = real_attention(*args)
            freed.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "rotary", rotary)
        monkeypatch.setattr(T, "attention", attention)
        logits = forward(params, [3, 1, 4, 1, 5, 9], cfg)
        assert len(freed) == 3 * cfg.n_layers
        assert all(ref() is None for ref in freed)
        cross_entropy(logits, [1, 4, 1, 5, 9, 2]).backward()
        assert all(t.grad is not None for t in params.named_tensors().values())

    @pytest.mark.parametrize("fp8", [False, True])
    def test_no_pull_captures_a_tensor(self, fp8):
        # A captured Tensor would keep its values alive with the graph.
        cfg, params = tiny_model(seed=5, sliding_window=3)
        adapters = None if fp8 else init_lora_adapters(params, rank=2, seed=1)
        logits = forward(fp8_weights(params) if fp8 else params, [3, 1, 4, 1, 5],
                         cfg, adapters=adapters)
        loss = cross_entropy(logits, [1, 4, 1, 5, 9])

        def captured(fn, seen):
            for cell in fn.__closure__ or ():
                value = cell.cell_contents
                if callable(value) and hasattr(value, "__closure__") and id(value) not in seen:
                    seen.add(id(value))
                    yield from captured(value, seen)
                else:
                    yield value

        nodes, stack, pulls = set(), [loss._node], 0
        while stack:
            node = stack.pop()
            if id(node) in nodes or not isinstance(node, T._Node):
                continue
            nodes.add(id(node))
            for parent, pull in node.edges:
                pulls += 1
                assert not any(isinstance(v, Tensor) for v in captured(pull, set()))
                stack.append(parent)
        assert pulls > 100

    def test_straight_line_oracle(self):
        cfg, params = tiny_model(seed=2, sliding_window=3)
        ids = [5, 1, 9, 9, 0, 30, 17]
        out = forward(params, ids, cfg).data
        ref = reference_forward(params, ids, cfg)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)

    def test_straight_line_oracle_causal(self):
        cfg, params = tiny_model(seed=3)
        ids = [0, 31, 12, 7]
        np.testing.assert_allclose(forward(params, ids, cfg).data,
                                   reference_forward(params, ids, cfg),
                                   rtol=0, atol=1e-10)

    def test_input_errors(self):
        cfg, params = tiny_model(seed=4, max_context=8)
        with pytest.raises(ValueError):
            forward(params, [cfg.vocab_size], cfg)
        with pytest.raises(ValueError):
            forward(params, [-1], cfg)
        with pytest.raises(ValueError):
            forward(params, list(range(9)) if cfg.vocab_size > 9 else [0] * 9, cfg)
        with pytest.raises(ValueError):
            forward(params, [], cfg)

    @pytest.mark.parametrize("window", [None, 2])
    def test_segments_score_each_branch_as_its_own_sequence(self, window):
        # The packed 11 tokens exceed max_context; every position fits.
        cfg, params = tiny_model(seed=11, max_context=8, sliding_window=window)
        prompt, branches = [3, 1, 4, 1, 5], ([9, 2, 6], [5, 3, 5])
        ids, seg, rows = branch_layout(prompt, [b + [0] for b in branches])
        with no_grad():
            packed = forward(params, ids, cfg, segments=seg).data
            for branch, scoring in zip(branches, rows):
                alone = forward(params, prompt + branch, cfg).data
                np.testing.assert_allclose(packed[scoring], alone[4:], rtol=0, atol=1e-12)
            np.testing.assert_allclose(packed[:5], alone[:5], rtol=0, atol=1e-12)
            with pytest.raises(ValueError):  # position 8 is past max_context
                forward(params, prompt + [9, 2, 6, 5], cfg, segments=[0] * 5 + [1] * 4)

    def test_segments_with_cache_rejected(self):
        cfg, params = tiny_model(seed=12)
        with no_grad(), pytest.raises(ValueError):
            forward(params, [1, 2], cfg, cache=DecodeSession(params, cfg, 4), segments=[0, 0])

    @pytest.mark.parametrize("bad", [32, -1])
    def test_token_id_out_of_range(self, bad):
        cfg, params = tiny_model(seed=10)
        message = r"token id out of range \[0, 32\)"
        assert cfg.vocab_size == 32
        with pytest.raises(ValueError, match=message):
            forward(params, [1, bad], cfg)
        session = DecodeSession(params, cfg, 4)
        with no_grad(), pytest.raises(ValueError, match=message):
            forward(params, [1, bad], cfg, cache=session)
        assert session.pos == 0

    def test_end_to_end_gradcheck(self):
        cfg, params = tiny_model(seed=5, hidden_size=8, n_heads=2, n_kv_heads=1,
                                 intermediate_size=12, vocab_size=16, sliding_window=2)
        ids = [3, 1, 4, 1, 5]
        targets = [1, 4, 1, 5, 9]
        leaves = params.named_tensors()
        errs = check_grad(lambda: cross_entropy(forward(params, ids, cfg), targets),
                          leaves)
        assert max(errs.values()) < 1e-3

    def test_fp8_rounds_linear_weights(self):
        cfg, params = tiny_model(seed=6)
        ids = [1, 2, 3]
        base = forward(fp8_weights(params), ids, cfg).data
        # a sub-ulp change to an attention weight must vanish under E4M3
        params.layers[0].wq.data[...] = 1.0
        a = forward(fp8_weights(params), ids, cfg).data
        params.layers[0].wq.data[...] = 1.0 + 1e-6
        b = forward(fp8_weights(params), ids, cfg).data
        assert np.array_equal(a, b)
        assert not np.array_equal(base, a)

    def test_fp8_leaves_head_norms_embedding_alone(self):
        ids = [1, 2, 3]
        for name in ("lm_head", "final_norm", "token_embedding"):
            cfg, params = tiny_model(seed=7)
            before = forward(fp8_weights(params), ids, cfg).data
            tensor = params.named_tensors()[name]
            tensor.data[...] = tensor.data + 1e-6
            after = forward(fp8_weights(params), ids, cfg).data
            assert not np.array_equal(before, after), name

    def test_fp8_differs_from_full_precision(self):
        cfg, params = tiny_model(seed=8)
        ids = [4, 5, 6, 7]
        full = forward(params, ids, cfg).data
        quant = forward(fp8_weights(params), ids, cfg).data
        assert np.all(np.isfinite(quant))
        assert not np.array_equal(full, quant)

    def test_fp8_params_round_four_sublayer_inputs_per_layer(self, monkeypatch):
        # The weights' type is the one fp8 signal: a forward given Fp8Params
        # rounds the two normed inputs, the attention context and the MLP
        # product of every layer, and no weight again.
        cfg, params = tiny_model(seed=8)
        ids = [4, 5, 6, 7]
        with no_grad():
            fp8 = fp8_weights(params)
            rounded = count_roundings(monkeypatch)
            forward(fp8, ids, cfg)
        h, inter = cfg.hidden_size, cfg.intermediate_size
        assert [x.shape for x in rounded] == [(4, h), (4, h), (4, h), (4, inter)] * cfg.n_layers
        assert set(weight_roundings(rounded, fp8).values()) == {0}

    def test_zero_adapter_is_identity(self):
        cfg, params = tiny_model(seed=9)
        rng = np.random.default_rng(10)
        adapters = {"layers.0.attn.wq": LoraAdapter(
            a=Tensor(rng.normal(0, 0.02, size=(cfg.hidden_size, 4))),
            b=Tensor(np.zeros((4, cfg.hidden_size))), alpha=16.0)}
        ids = [1, 2, 3, 4]
        plain = forward(params, ids, cfg).data
        adapted = forward(params, ids, cfg, adapters=adapters).data
        assert np.array_equal(plain, adapted)

    def test_adapter_matches_merged_weight(self):
        cfg, params = tiny_model(seed=11)
        rng = np.random.default_rng(12)
        a = rng.normal(0, 0.1, size=(cfg.hidden_size, 4))
        b = rng.normal(0, 0.1, size=(4, cfg.hidden_size))
        adapter = LoraAdapter(a=Tensor(a), b=Tensor(b), alpha=16.0)
        ids = [6, 7, 8]
        adapted = forward(params, ids, cfg, adapters={"layers.1.attn.wo": adapter}).data
        params.layers[1].wo.data += adapter.scale * (a @ b)
        merged = forward(params, ids, cfg).data
        np.testing.assert_allclose(adapted, merged, rtol=0, atol=1e-12)

    def test_adapter_gradcheck(self):
        cfg, params = tiny_model(seed=13, hidden_size=8, n_heads=2, n_kv_heads=1,
                                 intermediate_size=12, vocab_size=16, sliding_window=2)
        rng = np.random.default_rng(14)
        named = params.named_tensors()
        adapters, leaves = {}, {}
        for name in named:
            if ".attn." in name or ".mlp." in name:
                d_in, d_out = named[name].shape
                adapters[name] = LoraAdapter(
                    a=Tensor(rng.normal(0, 0.3, size=(d_in, 2)), requires_grad=True),
                    b=Tensor(rng.normal(0, 0.3, size=(2, d_out)), requires_grad=True),
                    alpha=4.0)
                leaves[f"{name}.a"] = adapters[name].a
                leaves[f"{name}.b"] = adapters[name].b
        ids = [3, 1, 4, 1, 5]
        targets = [1, 4, 1, 5, 9]
        errs = check_grad(
            lambda: cross_entropy(forward(params, ids, cfg, adapters=adapters), targets),
            leaves)
        assert len(errs) == 14 * cfg.n_layers
        assert max(errs.values()) < 1e-3


class TestLinear:
    def test_adapter_shape_mismatch(self):
        cfg, params = tiny_model(seed=15)
        rng = np.random.default_rng(0)
        h = cfg.hidden_size
        for a_shape, b_shape in (((h + 1, 2), (2, h)), ((h, 2), (2, h - 1))):
            bad = LoraAdapter(a=Tensor(rng.normal(size=a_shape)),
                              b=Tensor(rng.normal(size=b_shape)), alpha=16.0)
            with pytest.raises(ShapeError):
                lora_weights(params, {"layers.0.attn.wq": bad})

    def test_rounded_weights_rejected(self):
        # adapt first, then round: fp8_weights(lora_weights(params, adapters))
        cfg, params = tiny_model(seed=15)
        rng = np.random.default_rng(0)
        h = cfg.hidden_size
        adapter = LoraAdapter(a=Tensor(rng.normal(size=(h, 2))),
                              b=Tensor(rng.normal(size=(2, h))), alpha=16.0)
        with pytest.raises(TypeError, match="fp8_weights"):
            lora_weights(fp8_weights(params), {"layers.0.attn.wq": adapter})
        with pytest.raises(TypeError):
            forward(fp8_weights(params), [1, 2], cfg, adapters={"layers.0.attn.wq": adapter})

    def test_scale_is_alpha_over_rank(self):
        adapter = LoraAdapter(a=Tensor(np.zeros((4, 4))), b=Tensor(np.zeros((4, 4))),
                              alpha=16.0)
        assert adapter.rank == 4
        assert adapter.scale == 4.0


class TestNoGradResults:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_every_result_is_a_bare_array(self, dtype, monkeypatch):
        cfg, params = tiny_model(seed=3, dtype=dtype, sliding_window=3)
        made = []
        make = T._make
        monkeypatch.setattr(T, "_make", lambda *args: made.append(make(*args)) or made[-1])
        ids = np.arange(7) % cfg.vocab_size
        with no_grad():
            fp8 = fp8_weights(params)
            for weights in (params, fp8):
                cross_entropy(forward(weights, ids, cfg), ids)
            # two examples: the loss mean adds and scales 0-d arrays
            batch_loss(params, cfg, [(ids[:-1], ids[1:]), (ids[1:], ids[:-1])])
        DecodeSession(fp8, cfg, 8).step(ids)
        assert len(made) > 100
        for out in made:
            assert type(out.data) is np.ndarray and out.data.dtype == params.dtype
            assert not out.requires_grad and out._node is None and out.grad is None

    def test_the_same_ops_with_grad_pass_fdcheck(self):
        cfg, params = tiny_model(seed=3, hidden_size=8, intermediate_size=12, n_layers=1,
                                 n_heads=2, n_kv_heads=1, vocab_size=8, sliding_window=3)
        ids = np.arange(7) % cfg.vocab_size
        errs = check_grad(
            lambda: batch_loss(params, cfg, [(ids[:-1], ids[1:]), (ids[1:], ids[:-1])]),
            params.named_tensors())
        assert max(errs.values()) < 1e-3  # the c02 bound


class TestKVCache:
    @pytest.mark.parametrize("window", [None, 3])
    def test_rewind_overwrites_stale_rows(self, window):
        cfg, params = tiny_model(seed=7, sliding_window=window)
        cache = DecodeSession(params, cfg, 6)
        with no_grad():
            forward(params, [4, 8, 15, 16], cfg, cache=cache)
            cache.pos = 1
            got = forward(params, [23, 30, 7], cfg, cache=cache).data
            full = forward(params, [4, 23, 30, 7], cfg).data
        assert cache.pos == 4
        np.testing.assert_allclose(got, full[1:], rtol=0, atol=1e-12)

    def test_reads_only_the_window(self):
        cfg, params = tiny_model(seed=8, sliding_window=2)
        cache = DecodeSession(params, cfg, 5)
        with no_grad():
            forward(params, [1, 2, 3], cfg, cache=cache)
            for buf in (cache.k_cache, cache.v_cache):
                buf[:, 0] = np.nan  # position 0 is outside every later query's window
            got = forward(params, [4, 5], cfg, cache=cache).data
            full = forward(params, [1, 2, 3, 4, 5], cfg).data
        np.testing.assert_allclose(got, full[3:], rtol=0, atol=1e-12)

    def test_misuse_rejected(self):
        cfg, params = tiny_model(seed=9, max_context=8)
        with pytest.raises(ValueError):
            forward(params, [1, 2], cfg, cache=DecodeSession(params, cfg, 4))  # records grad
        with pytest.raises(ValueError):
            DecodeSession(params, cfg, 9)
        cache = DecodeSession(params, cfg, 2)
        with no_grad(), pytest.raises(ValueError):
            forward(params, [1, 2, 3], cfg, cache=cache)
