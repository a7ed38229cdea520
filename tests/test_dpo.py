"""LoRA adapters, DPO loss identities, and the preference training loop."""

import json
import math
import re
from functools import reduce

import mpmath
import numpy as np
import pytest

from deskllm.chat import Conversation, Turn, chat_vocab, render_chat, sft_example
from deskllm.data import read_jsonl, write_jsonl
from deskllm.dpo import (DpoPlan, DpoStage, PreferencePair, build_preference_pairs,
                         dpo_loss, dpo_train, init_lora_adapters, load_preference_pairs,
                         lora_merge, render_pair, sequence_logprob, two_stage_plan)
from deskllm import dpo as dpo_module
from deskllm.errors import ConfigError
from deskllm.model import forward, fp8_weights, linear, lora_weights
from deskllm.pretrain import TrainingDiverged, batch_loss
from deskllm.tensor import Tensor, add, mul, no_grad
from deskllm.tokenizer import byte_fallback_vocab, encode

from modelutil import count_forwards, tiny_model, use_cpus
from test_pretrain import StepGrads, capture_step_grads

CHAT_VOCAB = chat_vocab()


def prompt(*texts):
    turns = []
    for i, t in enumerate(texts):
        turns.append(Turn("user" if i % 2 == 0 else "assistant", t))
    return Conversation(tuple(turns))


class TestDpoLoss:
    def test_policy_equals_reference_gives_ln2(self):
        rng = np.random.default_rng(0)
        for beta in (0.05, 0.2, 1.0, 7.5):
            lp = rng.normal(size=4) * 10
            loss = dpo_loss(list(lp[:2]), list(lp[2:]), list(lp[:2]), list(lp[2:]),
                            beta=beta)
            assert abs(float(loss.item()) - math.log(2.0)) < 1e-12

    def test_unit_argument_value(self):
        # beta * margin = 1: policy margin 5, reference margin 0, beta 0.2
        loss = dpo_loss([3.0], [-2.0], [0.0], [0.0], beta=0.2)
        with mpmath.workdps(50):
            expected = float(-mpmath.log(1 / (1 + mpmath.exp(-1))))
        assert expected == pytest.approx(0.313262, abs=5e-7)
        assert abs(float(loss.item()) - expected) < 1e-9

    def test_monotone_decreasing_in_margin(self):
        margins = np.linspace(-30, 30, 121)
        losses = [float(dpo_loss([m], [0.0], [0.0], [0.0], beta=0.2).item())
                  for m in margins]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_limits(self):
        assert float(dpo_loss([1e4], [0.0], [0.0], [0.0], beta=1.0).item()) < 1e-12
        assert float(dpo_loss([-1e2], [0.0], [0.0], [0.0], beta=1.0).item()) > 50

    def test_batch_mean(self):
        separate = [float(dpo_loss([c], [r], [0.0], [0.0], beta=0.2).item())
                    for c, r in ((1.0, 0.5), (-2.0, 3.0), (0.1, 0.1))]
        batched = dpo_loss([1.0, -2.0, 0.1], [0.5, 3.0, 0.1], [0.0] * 3, [0.0] * 3,
                           beta=0.2)
        assert float(batched.item()) == pytest.approx(np.mean(separate), rel=1e-14)

    def test_gradient_signs(self):
        plc = Tensor(np.asarray(0.3), requires_grad=True)
        plr = Tensor(np.asarray(-0.2), requires_grad=True)
        loss = dpo_loss([plc], [plr], [0.1], [0.0], beta=0.2)
        loss.backward()
        assert plc.grad is not None and float(plc.grad) < 0
        assert plr.grad is not None and float(plr.grad) > 0

    def test_gradient_matches_finite_difference(self):
        def f(m):
            return float(dpo_loss([m], [0.0], [0.4], [-0.3], beta=0.2).item())
        for m0 in (-3.0, 0.0, 2.5):
            t = Tensor(np.asarray(m0), requires_grad=True)
            loss = dpo_loss([t], [0.0], [0.4], [-0.3], beta=0.2)
            loss.backward()
            h = 1e-6
            fd = (f(m0 + h) - f(m0 - h)) / (2 * h)
            assert float(t.grad) == pytest.approx(fd, rel=1e-6, abs=1e-12)
            assert float(t.grad) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            dpo_loss([], [], [], [])
        with pytest.raises(ValueError):
            dpo_loss([1.0], [1.0, 2.0], [0.0], [0.0])
        with pytest.raises(ConfigError):
            dpo_loss([1.0], [0.0], [0.0], [0.0], beta=0.0)


class TestSequenceLogprob:
    def test_uniform_model_gives_minus_l_log_v(self):
        cfg, params = tiny_model(seed=0, vocab_size=32)
        for t in params.named_tensors().values():
            t.data[...] = 0.0
        params.final_norm.data[...] = 1.0
        (lp,) = sequence_logprob(params, cfg, [1, 2], [[3, 4, 5]])
        assert float(lp.item()) == pytest.approx(-3 * math.log(32), rel=1e-12)

    def test_empty_response_is_zero(self):
        cfg, params = tiny_model(seed=1)
        (lp,) = sequence_logprob(params, cfg, [1, 2, 3], [[]])
        assert float(lp.item()) == 0.0

    def test_three_token_straight_line_recompute(self):
        cfg, params = tiny_model(seed=2, vocab_size=16)
        prompt_ids = np.array([1, 2, 3, 4])
        response_ids = np.array([5, 6, 7])
        (lp,) = sequence_logprob(params, cfg, prompt_ids, [response_ids])
        with no_grad():
            logits = forward(params, np.concatenate([prompt_ids, response_ids])[:-1],
                             cfg).data.astype(np.float64)
        total = 0.0
        for k, tok in enumerate(response_ids):
            row = logits[len(prompt_ids) - 1 + k]
            row = row - row.max()
            total += row[tok] - math.log(np.sum(np.exp(row)))
        assert float(lp.item()) == pytest.approx(total, rel=1e-12)

    def test_chain_rule_additivity(self):
        cfg, params = tiny_model(seed=3, vocab_size=16)
        p = np.array([1, 2])
        r = np.array([3, 4, 5, 6])
        whole = float(sequence_logprob(params, cfg, p, [r])[0].item())
        first = float(sequence_logprob(params, cfg, p, [r[:2]])[0].item())
        second = float(sequence_logprob(params, cfg, np.concatenate([p, r[:2]]),
                                        [r[2:]])[0].item())
        assert whole == pytest.approx(first + second, rel=1e-10)

    def test_overlength_rejected(self):
        cfg, params = tiny_model(seed=4, max_context=8)
        with pytest.raises(ValueError):
            sequence_logprob(params, cfg, np.arange(6) % 16, [np.arange(6) % 16])

    def test_empty_prompt_rejected(self):
        cfg, params = tiny_model(seed=4)
        with pytest.raises(ValueError):
            sequence_logprob(params, cfg, [], [[1, 2]])

    def test_adapters_change_logprob(self):
        cfg, params = tiny_model(seed=5, vocab_size=16)
        adapters = init_lora_adapters(params, seed=0)
        for a in adapters.values():
            a.b.data[...] = 0.05
        base = float(sequence_logprob(params, cfg, [1, 2], [[3, 4]])[0].item())
        adapted = float(sequence_logprob(lora_weights(params, adapters), cfg, [1, 2],
                                         [[3, 4]])[0].item())
        assert base != adapted


def separate_logprob(params, cfg, prompt_ids, response, adapters=None) -> Tensor:
    """Oracle: one full forward of prompt + response through batch_loss."""
    if len(response) == 0:
        return Tensor(np.zeros(()))
    example = sft_example(np.concatenate([prompt_ids, response]),
                          np.repeat([0, 1], [len(prompt_ids), len(response)]))
    return mul(batch_loss(lora_weights(params, adapters or {}), cfg, [example]),
               -float(len(response)))


class TestPrefixSharedScorer:
    """One prefix-shared forward equals a full forward per response (f64)."""

    CASES = {
        "window_shorter_than_prompt": (3, 7, (5, 3)),
        "branches_of_different_lengths": (None, 4, (1, 5, 3)),
        "one_response": (None, 3, (4,)),
        "empty_response": (None, 3, (3, 0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_logprobs_and_adapter_grads_match_separate_forwards(self, case):
        window, n_prompt, lengths = self.CASES[case]
        cfg, params = tiny_model(seed=31, vocab_size=16, sliding_window=window)
        rng = np.random.default_rng(5)
        prompt_ids = rng.integers(0, 16, n_prompt)
        responses = [rng.integers(0, 16, n) for n in lengths]
        adapters = init_lora_adapters(params, seed=1)
        for ad in adapters.values():
            ad.b.data[...] = rng.normal(0.0, 0.05, ad.b.shape)
        leaves = [getattr(ad, part) for ad in adapters.values() for part in "ab"]

        def run(score):
            # distinct weights per response so a swapped grad would show
            lps = score()
            reduce(add, [mul(lp, float(k + 1)) for k, lp in enumerate(lps)]).backward()
            grads = [np.zeros(t.shape) if t.grad is None else t.grad.copy() for t in leaves]
            for t in leaves:
                t.zero_grad()
            return [float(lp.item()) for lp in lps], grads

        got, got_grads = run(lambda: sequence_logprob(lora_weights(params, adapters), cfg,
                                                      prompt_ids, responses))
        want, want_grads = run(lambda: [separate_logprob(params, cfg, prompt_ids, r, adapters)
                                        for r in responses])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        assert any(np.any(g != 0) for g in want_grads)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)

    def test_context_bounds_each_response_not_the_pair(self):
        cfg, params = tiny_model(seed=32, vocab_size=16, max_context=8)
        prompt_ids, chosen, rejected = [1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11]
        # packed: 4 + 3 + 2 = 9 tokens, but each prompt + response fits in 8
        with no_grad():
            got = [float(lp.item()) for lp in
                   sequence_logprob(params, cfg, prompt_ids, [chosen, rejected])]
            want = [float(separate_logprob(params, cfg, prompt_ids, r).item())
                    for r in (chosen, rejected)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        # a reply's last token is never forwarded: max_context + 1 fits, + 2 does not
        with pytest.raises(ValueError):
            sequence_logprob(params, cfg, prompt_ids, [chosen, [1, 2, 3, 4, 5, 6]])


class TestLoraAdapters:
    def test_target_set_and_shapes(self):
        cfg, params = tiny_model(seed=6)
        adapters = init_lora_adapters(params, rank=4, alpha=16.0, seed=0)
        assert len(adapters) == 7 * cfg.n_layers
        named = params.named_tensors()
        for name, adapter in adapters.items():
            assert ".attn." in name or ".mlp." in name
            w = named[name]
            assert adapter.a.shape == (w.shape[0], 4)
            assert adapter.b.shape == (4, w.shape[1])
            assert adapter.scale == 4.0
            assert adapter.a.dtype == w.dtype

    def test_b_starts_zero_and_a_near_init_std(self):
        cfg, params = tiny_model(seed=7, hidden_size=64, intermediate_size=96)
        adapters = init_lora_adapters(params, rank=8, seed=1)
        all_a = np.concatenate([ad.a.data.ravel() for ad in adapters.values()])
        for adapter in adapters.values():
            assert not adapter.b.data.any()
        assert abs(all_a.std() - 0.02) < 0.002
        assert abs(all_a.mean()) < 0.002

    def test_zero_b_forward_equals_base(self):
        cfg, params = tiny_model(seed=8)
        adapters = init_lora_adapters(params, seed=2)
        x = Tensor(np.random.default_rng(0).normal(size=(5, cfg.hidden_size)))
        w = params.layers[0].wq
        with no_grad():
            base = linear(x, w).data
            adapted = linear(x, lora_weights(params, adapters).layers[0].wq).data
        assert np.array_equal(base, adapted)

    def test_zero_b_merge_equals_base(self):
        cfg, params = tiny_model(seed=9)
        merged = lora_merge(params, init_lora_adapters(params, seed=3))
        base_named = params.named_tensors()
        for name, t in merged.named_tensors().items():
            assert np.array_equal(t.data, base_named[name].data)

    def test_merged_vs_adapter_forward(self):
        # One formula, so the adapter forward equals the merged forward bit
        # for bit at either dtype, also when fp8 rounds the adapted weights.
        for dtype in ("f32", "f64"):
            cfg, params = tiny_model(seed=10, dtype=dtype, vocab_size=16)
            adapters = init_lora_adapters(params, seed=4)
            rng = np.random.default_rng(5)
            for adapter in adapters.values():
                adapter.b.data[...] = rng.normal(0, 0.05, size=adapter.b.shape)
            merged_params = lora_merge(params, adapters)
            ids = np.array([1, 5, 2, 9, 3])
            for fp8 in (False, True):
                if fp8:
                    unmerged = forward(fp8_weights(lora_weights(params, adapters)), ids, cfg).data
                    merged = forward(fp8_weights(merged_params), ids, cfg).data
                else:
                    unmerged = forward(params, ids, cfg, adapters=adapters).data
                    merged = forward(merged_params, ids, cfg).data
                assert np.array_equal(unmerged, merged), (dtype, fp8)

    def test_merge_leaves_input_params_untouched(self):
        cfg, params = tiny_model(seed=11)
        adapters = init_lora_adapters(params, seed=6)
        for adapter in adapters.values():
            adapter.b.data[...] = 1.0
        before = {n: t.data.copy() for n, t in params.named_tensors().items()}
        lora_merge(params, adapters)
        for name, t in params.named_tensors().items():
            assert np.array_equal(t.data, before[name])

    def test_unknown_target_rejected(self):
        cfg, params = tiny_model(seed=12)
        adapters = init_lora_adapters(params, seed=7)
        adapters["layers.9.attn.wq"] = adapters.pop("layers.0.attn.wq")
        with pytest.raises(ConfigError):
            lora_merge(params, adapters)

    def test_bad_rank_rejected(self):
        cfg, params = tiny_model(seed=13)
        with pytest.raises(ConfigError):
            init_lora_adapters(params, rank=0)

    def test_seeded_determinism(self):
        cfg, params = tiny_model(seed=14)
        a1 = init_lora_adapters(params, seed=9)
        a2 = init_lora_adapters(params, seed=9)
        for name in a1:
            assert a1[name].a.data.tobytes() == a2[name].a.data.tobytes()


class TestBuildPreferencePairs:
    def record(self, answers, lang="en"):
        return {"prompt_turns": [{"role": "user", "text": "q"}],
                "answers": answers, "lang": lang}

    def test_min_and_max_rank(self):
        rec = self.record([{"text": "mid", "rank": 1}, {"text": "best", "rank": 0},
                           {"text": "worst", "rank": 2}])
        pairs = build_preference_pairs([rec])
        assert len(pairs) == 1
        assert pairs[0].chosen == "best"
        assert pairs[0].rejected == "worst"

    def test_all_equal_ranks_dropped(self):
        rec = self.record([{"text": "a", "rank": 1}, {"text": "b", "rank": 1}])
        assert build_preference_pairs([rec]) == []

    def test_tie_at_minimum_takes_first_listed(self):
        rec = self.record([{"text": "first", "rank": 0}, {"text": "second", "rank": 0},
                           {"text": "bad", "rank": 3}])
        pairs = build_preference_pairs([rec])
        assert pairs[0].chosen == "first"
        assert pairs[0].rejected == "bad"

    def test_non_english_excluded(self):
        rec = self.record([{"text": "gut", "rank": 0}, {"text": "schlecht", "rank": 1}],
                          lang="de")
        assert build_preference_pairs([rec]) == []

    def test_single_answer_dropped(self):
        assert build_preference_pairs([self.record([{"text": "only", "rank": 0}])]) == []

    def test_identical_texts_dropped(self):
        rec = self.record([{"text": "same", "rank": 0}, {"text": "same", "rank": 2}])
        assert build_preference_pairs([rec]) == []

    def test_pure_function(self):
        recs = [self.record([{"text": "a", "rank": 0}, {"text": "b", "rank": 1}])]
        snapshot = json.dumps(recs, sort_keys=True)
        p1 = build_preference_pairs(recs)
        p2 = build_preference_pairs(recs)
        assert p1 == p2
        assert json.dumps(recs, sort_keys=True) == snapshot

    def test_pair_invariants(self):
        with pytest.raises(ValueError):
            PreferencePair(prompt("q"), "same", "same")
        with pytest.raises(ValueError):
            PreferencePair(prompt("q", "already answered"), "a", "b")


class TestRenderPair:
    def test_layout(self):
        pair = PreferencePair(prompt("hi"), "good", "bad")
        p_ids, chosen, rejected = render_pair(pair, CHAT_VOCAB)
        asst = CHAT_VOCAB.token_to_id[b"<|assistant|>"]
        end = CHAT_VOCAB.token_to_id[b"<|end|>"]
        assert p_ids[-1] == asst
        assert chosen[-1] == end and rejected[-1] == end
        assert bytes(int(i) for i in chosen[:-1]) == b"good"
        assert bytes(int(i) for i in rejected[:-1]) == b"bad"

    @staticmethod
    def hand_built(pair, vocab):
        """The layout spelled out: the rendered prompt, then the assistant
        marker; each reply's text, then the end marker."""
        def marker(text):
            tid = vocab.token_to_id.get(text)
            return [tid] if tid is not None else encode(text, vocab)
        prompt_ids = list(render_chat(pair.prompt, vocab)[0]) + marker(b"<|assistant|>")
        return [np.array(ids, dtype=np.int64) for ids in
                (prompt_ids, encode(pair.chosen, vocab) + marker(b"<|end|>"),
                 encode(pair.rejected, vocab) + marker(b"<|end|>"))]

    @pytest.mark.parametrize("vocab", [CHAT_VOCAB, byte_fallback_vocab()],
                             ids=["atomic_markers", "byte_fallback"])
    @pytest.mark.parametrize("pair", [
        PreferencePair(Conversation((Turn("system", "be kind"), Turn("user", "hi"),
                                     Turn("assistant", "hello"), Turn("user", "and?"))),
                       "yes ü", "no"),
        PreferencePair(prompt("say nothing"), "", "something"),
    ], ids=["multi_turn", "empty_chosen"])
    def test_equals_hand_built_layout(self, pair, vocab):
        got = render_pair(pair, vocab)
        want = self.hand_built(pair, vocab)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    def test_byte_fallback_spells_markers_out(self):
        vocab = byte_fallback_vocab()
        assert b"<|assistant|>" not in vocab.token_to_id
        p_ids, chosen, _ = render_pair(PreferencePair(prompt("hi"), "", "x"), vocab)
        assert bytes(int(i) for i in p_ids).endswith(b"<|user|>hi<|end|><|assistant|>")
        assert bytes(int(i) for i in chosen) == b"<|end|>"


def toy_pairs():
    return (PreferencePair(prompt("ab"), "yes", "no"),
            PreferencePair(prompt("cd"), "up", "down"))


class TestDpoTrain:
    def make_model(self, seed=20):
        return tiny_model(seed=seed, vocab_size=len(CHAT_VOCAB), max_context=64)

    def test_initial_loss_is_ln2(self):
        cfg, params = self.make_model()
        stages = [DpoStage(toy_pairs(), lr=1e-5, epochs=1)]
        _, records = dpo_train(params, cfg, stages, CHAT_VOCAB, DpoPlan(seed=0))
        assert abs(records[0]["train_loss"] - math.log(2.0)) < 1e-12

    def test_margin_positive_after_training(self):
        cfg, params = self.make_model(seed=21)
        pairs = toy_pairs()
        stages = [DpoStage(pairs, lr=5e-3, epochs=30)]
        adapters, records = dpo_train(params, cfg, stages, CHAT_VOCAB, DpoPlan(seed=1))
        assert records[-1]["train_loss"] < records[0]["train_loss"]
        for pair in pairs:
            p_ids, chosen, rejected = render_pair(pair, CHAT_VOCAB)
            with no_grad():
                adapted = lora_weights(params, adapters)
                plc = float(sequence_logprob(adapted, cfg, p_ids, [chosen])[0].item())
                plr = float(sequence_logprob(adapted, cfg, p_ids, [rejected])[0].item())
                rlc = float(sequence_logprob(params, cfg, p_ids, [chosen])[0].item())
                rlr = float(sequence_logprob(params, cfg, p_ids, [rejected])[0].item())
            assert (plc - rlc) - (plr - rlr) > 0

    def test_fresh_adapters_reproduce_reference(self):
        cfg, params = self.make_model(seed=22)
        adapters = init_lora_adapters(params, seed=0)
        pair = toy_pairs()[0]
        p_ids, chosen, _ = render_pair(pair, CHAT_VOCAB)
        with no_grad():
            ref = float(sequence_logprob(params, cfg, p_ids, [chosen])[0].item())
            pol = float(sequence_logprob(lora_weights(params, adapters), cfg, p_ids,
                                         [chosen])[0].item())
        assert pol == ref

    def test_base_weights_frozen(self):
        cfg, params = self.make_model(seed=23)
        before = {n: t.data.copy() for n, t in params.named_tensors().items()}
        stages = [DpoStage(toy_pairs(), lr=1e-2, epochs=3)]
        dpo_train(params, cfg, stages, CHAT_VOCAB, DpoPlan(seed=2))
        for name, t in params.named_tensors().items():
            assert t.data.tobytes() == before[name].data.tobytes()

    def test_nonfinite_loss_stops_before_any_change(self, monkeypatch):
        made = []

        class SpyAdamW(dpo_module.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(dpo_module, "AdamW", SpyAdamW)
        adapter_sets, before = [], {}

        def spy_init(*args, **kwargs):
            adapters = init_lora_adapters(*args, **kwargs)
            adapter_sets.append(adapters)
            before.update({name: (ad.a.data.copy(), ad.b.data.copy())
                           for name, ad in adapters.items()})
            return adapters

        monkeypatch.setattr(dpo_module, "init_lora_adapters", spy_init)
        cfg, params = self.make_model(seed=29)
        params.layers[0].w_up.data[0, 0] = np.nan
        base = {n: t.data.copy() for n, t in params.named_tensors().items()}
        with pytest.raises(TrainingDiverged):
            dpo_train(params, cfg, [DpoStage(toy_pairs(), lr=1e-2)], CHAT_VOCAB,
                      DpoPlan(seed=6))
        (adapters,) = adapter_sets
        for name, ad in adapters.items():
            assert ad.a.data.tobytes() == before[name][0].tobytes()
            assert ad.b.data.tobytes() == before[name][1].tobytes()
            assert ad.a.grad is None and ad.b.grad is None
        for name, t in params.named_tensors().items():
            assert t.data.tobytes() == base[name].tobytes()
        (opt,) = made
        assert opt.step_count == 0
        assert not any(m.any() for m in opt.m.values())
        assert not any(v.any() for v in opt.v.values())

    @pytest.mark.parametrize("poison", [False, True])
    def test_base_requires_grad_restored_and_no_base_grads(self, poison):
        cfg, params = self.make_model(seed=30)
        named = params.named_tensors()
        named["final_norm"].requires_grad = False
        flags = {n: t.requires_grad for n, t in named.items()}
        if poison:
            params.lm_head.data[:, 0] = np.nan
        stages = [DpoStage(toy_pairs(), lr=1e-3, epochs=2)]
        if poison:
            with pytest.raises(TrainingDiverged):
                dpo_train(params, cfg, stages, CHAT_VOCAB, DpoPlan(seed=7))
        else:
            dpo_train(params, cfg, stages, CHAT_VOCAB, DpoPlan(seed=7))
        assert {n: t.requires_grad for n, t in named.items()} == flags
        assert all(t.grad is None for t in named.values())

    def test_base_requires_grad_untouched_during_training(self, monkeypatch):
        cfg, params = self.make_model(seed=31)
        named = params.named_tensors()
        named["final_norm"].requires_grad = False
        flags = {n: t.requires_grad for n, t in named.items()}
        seen = []
        real_optimize = dpo_module.optimize

        def spy(*args, **kwargs):
            seen.append({n: t.requires_grad for n, t in named.items()})
            return real_optimize(*args, **kwargs)

        monkeypatch.setattr(dpo_module, "optimize", spy)
        dpo_train(params, cfg, [DpoStage(toy_pairs(), lr=1e-3, epochs=2)], CHAT_VOCAB,
                  DpoPlan(seed=8))
        assert len(seen) > 1 and all(step == flags for step in seen)

    def test_adapted_weights_built_once_per_step(self, monkeypatch):
        cfg, params = self.make_model(seed=27)
        built = []
        real_lora_weights = dpo_module.lora_weights

        def spy(*args, **kwargs):
            built.append(args)
            return real_lora_weights(*args, **kwargs)

        monkeypatch.setattr(dpo_module, "lora_weights", spy)
        pairs = toy_pairs() + (PreferencePair(prompt("ef"), "left", "right"),)
        _, records = dpo_train(params, cfg, [DpoStage(pairs, lr=1e-3, epochs=2)], CHAT_VOCAB,
                               DpoPlan(seed=3, batch_size=2))
        assert len(records) == 4 and len(built) == len(records)

    @pytest.mark.parametrize("dtype, rel", [("f64", 1e-12), ("f32", 1e-5)])
    def test_pair_grads_match_whole_batch(self, monkeypatch, dtype, rel):
        # A pair feeds the adapters twice (chosen, rejected), so per-pair
        # accumulation sums their grads in another order than one graph.
        cfg, params = tiny_model(seed=32, dtype=dtype, vocab_size=len(CHAT_VOCAB),
                                 max_context=64)
        pairs = toy_pairs() + (PreferencePair(prompt("ef"), "left", "right"),
                               PreferencePair(prompt("gh"), "hot", "cold"))
        made = []
        real_init = dpo_module.init_lora_adapters

        def init_nonzero_b(*args, **kwargs):
            adapters = real_init(*args, **kwargs)
            rng = np.random.default_rng(0)
            for ad in adapters.values():
                ad.b.data[...] = rng.normal(0.0, 0.02, ad.b.shape)
            made.append(adapters)
            return adapters

        monkeypatch.setattr(dpo_module, "init_lora_adapters", init_nonzero_b)
        grads = capture_step_grads(monkeypatch)
        plan = DpoPlan(seed=9, batch_size=len(pairs))
        with pytest.raises(StepGrads):
            dpo_train(params, cfg, [DpoStage(pairs, lr=1e-3)], CHAT_VOCAB, plan)
        (adapters,) = made
        order = np.random.default_rng(plan.seed).permutation(len(pairs))  # epoch 0's
        rendered = [render_pair(pairs[i], CHAT_VOCAB) for i in order]
        with no_grad():
            ref = [[float(sequence_logprob(params, cfg, p, [resp])[0].item())
                    for resp in (c, r)] for p, c, r in rendered]
        policy = [[sequence_logprob(lora_weights(params, adapters), cfg, p, [resp])[0]
                   for resp in (c, r)] for p, c, r in rendered]
        dpo_loss(*zip(*policy), *zip(*ref), beta=plan.beta).backward()
        whole = [getattr(ad, part).grad for ad in adapters.values() for part in "ab"]
        assert len(grads) == len(whole)
        for got, want in zip(grads, whole):
            scale = np.max(np.abs(want))
            assert scale > 0
            assert np.max(np.abs(got - want)) <= rel * scale

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_pair_grads_independent_of_the_cpu_count(self, monkeypatch, dtype):
        cfg, params = tiny_model(seed=32, dtype=dtype, vocab_size=len(CHAT_VOCAB),
                                 max_context=64)
        pairs = toy_pairs() + (PreferencePair(prompt("ef"), "left", "right"),
                               PreferencePair(prompt("gh"), "hot", "cold"))
        plan = DpoPlan(seed=9, batch_size=len(pairs))
        grads = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            grads[cpus] = capture_step_grads(monkeypatch)
            with pytest.raises(StepGrads):
                dpo_train(params, cfg, [DpoStage(pairs, lr=1e-3)], CHAT_VOCAB, plan)
        assert len(grads[1]) == 2 * 7 * cfg.n_layers
        for got, want in zip(grads[2], grads[1]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_reference_logprobs_independent_of_the_cpu_count(self, monkeypatch):
        # the reference pass scores the pairs concurrently, in order
        cfg, params = tiny_model(seed=33, dtype="f32", vocab_size=len(CHAT_VOCAB),
                                 max_context=64)
        pairs = toy_pairs() + (PreferencePair(prompt("ef"), "left", "right"),)
        real_each = dpo_module.each
        refs = {}

        def spy(fn, items):
            refs[cpus] = real_each(fn, items)
            return refs[cpus]

        monkeypatch.setattr(dpo_module, "each", spy)
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            dpo_train(params, cfg, [DpoStage(pairs, lr=1e-3)], CHAT_VOCAB, DpoPlan(seed=5))
        assert len(refs[1]) == len(pairs) and all(len(ref) == 2 for ref in refs[1])
        assert [[lp.hex() for lp in ref] for ref in refs[2]] == \
            [[lp.hex() for lp in ref] for ref in refs[1]]
        p_ids, chosen, rejected = render_pair(pairs[0], CHAT_VOCAB)
        with no_grad():
            first = sequence_logprob(params, cfg, p_ids, (chosen, rejected))
        assert refs[2][0] == [float(lp.item()) for lp in first]

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_one_forward_per_pair_and_pass(self, monkeypatch, epochs):
        # The reference pass scores each pair once per stage, the policy
        # once per epoch; each scores chosen and rejected in one forward.
        cfg, params = self.make_model(seed=26)
        pairs = toy_pairs()
        calls = count_forwards(monkeypatch)
        dpo_train(params, cfg, [DpoStage(pairs, lr=1e-3, epochs=epochs)], CHAT_VOCAB,
                  DpoPlan(seed=5))
        assert len(calls) == len(pairs) * (1 + epochs)

    def test_rerun_is_deterministic(self):
        stages_lr = 1e-3
        runs = []
        for _ in range(2):
            cfg, params = self.make_model(seed=24)
            stages = [DpoStage(toy_pairs(), lr=stages_lr, epochs=2)]
            _, records = dpo_train(params, cfg, stages, CHAT_VOCAB, DpoPlan(seed=3))
            runs.append(records)
        assert runs[0] == runs[1]

    def test_two_stages_share_one_adapter(self, tmp_path):
        cfg, params = self.make_model(seed=25)
        stage1, stage2 = two_stage_plan([toy_pairs()[0]], [toy_pairs()[1]])
        assert stage1.lr == 1e-5 and stage2.lr == 3e-6
        log = tmp_path / "dpo.jsonl"
        adapters, records = dpo_train(params, cfg, (stage1, stage2), CHAT_VOCAB,
                                      DpoPlan(seed=4), log_path=log)
        assert [r["stage"] for r in records] == [0, 1]
        assert [r["lr"] for r in records] == [1e-5, 3e-6]
        assert len(adapters) == 7 * cfg.n_layers
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines == records

    def test_overlength_pair_rejected(self):
        cfg, params = tiny_model(seed=27, vocab_size=len(CHAT_VOCAB), max_context=16)
        pair = PreferencePair(prompt("x" * 40), "yes", "no")
        with pytest.raises(ValueError):
            dpo_train(params, cfg, [DpoStage((pair,), lr=1e-4)], CHAT_VOCAB)

    def test_empty_stage_warns(self):
        cfg, params = self.make_model(seed=28)
        with pytest.warns(RuntimeWarning):
            _, records = dpo_train(params, cfg, [DpoStage((), lr=1e-4)], CHAT_VOCAB)
        assert records == []

    def test_plan_validation(self):
        for kwargs in ({"beta": 0.0}, {"batch_size": 0}, {"rank": 0}):
            with pytest.raises(ConfigError):
                DpoPlan(**kwargs)
        with pytest.raises(ConfigError):
            DpoStage(toy_pairs(), lr=0.0)
        with pytest.raises(ConfigError):
            DpoStage(toy_pairs(), lr=1e-5, epochs=0)


class TestPreferenceIO:
    def test_malformed_record_names_file_and_line(self, tmp_path):
        ok = {"prompt_turns": [{"role": "user", "text": "q"}],
              "answers": [{"text": "a", "rank": 0}, {"text": "b", "rank": 1}],
              "lang": "en"}
        bad = dict(ok, answers=[{"text": "a", "rank": 0}, {"text": "b"}])
        path = tmp_path / "prefs.jsonl"
        write_jsonl([ok, bad], path)
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{path}:2: missing field 'rank'")):
            load_preference_pairs(path)

    def test_round_trip(self, tmp_path):
        records = [{"prompt_turns": [{"role": "user", "text": "qü"}],
                    "answers": [{"text": "a", "rank": 0}, {"text": "b", "rank": 1}],
                    "lang": "en"}]
        path = tmp_path / "prefs.jsonl"
        write_jsonl(records, path)
        assert read_jsonl(path) == records

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_round_trip(self, tmp_path, sep):
        records = [{"prompt_turns": [{"role": "system", "text": f"s{sep}"},
                                     {"role": "user", "text": f"q{sep}q"}],
                    "answers": [{"text": f"a{sep}", "rank": 0}, {"text": sep, "rank": 1}],
                    "lang": "en"}]
        path = tmp_path / "prefs.jsonl"
        write_jsonl(records, path)
        pairs = build_preference_pairs(read_jsonl(path))
        assert pairs == build_preference_pairs(records)
        assert load_preference_pairs(path) == pairs
        assert (pairs[0].chosen, pairs[0].rejected) == (f"a{sep}", sep)
