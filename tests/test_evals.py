"""Perplexity, MC scoring, few-shot assembly, exact match, generation."""

import copy
import json
import math
import re

import numpy as np
import pytest

from deskllm import evals, model
from deskllm.errors import ConfigError
from deskllm.evals import (DecodeSession, EMTask, MCTask, apply_repetition_penalty,
                           evaluate_em_tasks, evaluate_tasks, exact_match,
                           few_shot_render, generate, generate_text, load_tasks,
                           mc_pick, mc_score, perplexity, save_results)
from deskllm.data import write_jsonl
from deskllm.dpo import init_lora_adapters, lora_merge, sequence_logprob
from deskllm.model import forward, fp8_weights
from deskllm.optim import AdamW
from deskllm.pretrain import batch_loss
from deskllm.tensor import no_grad
from deskllm.tokenizer import byte_fallback_vocab, encode

from modelutil import (count_forwards, count_roundings, tiny_config, tiny_model,
                       use_cpus, weight_roundings)


def memorizer_model():
    """Vocab-16 model that always continues token i with (i+1) % 16.

    All mixing paths are zeroed; the residual stream is the one-hot
    embedding, and the head places a huge logit on the successor.
    """
    cfg, params = tiny_model(seed=0, vocab_size=16)
    for t in params.named_tensors().values():
        t.data[...] = 0.0
    params.token_embedding.data[...] = np.eye(16)
    params.final_norm.data[...] = 1.0
    head = np.zeros((16, 16))
    for i in range(16):
        head[i, (i + 1) % 16] = 100.0
    params.lm_head.data[...] = head
    return cfg, params


def adamw_step(params, cfg, ids, lr=0.05):
    """One real optimizer step, which writes every weight in place."""
    ids = np.asarray(ids)
    batch_loss(params, cfg, [(ids[:-1], ids[1:])]).backward()
    AdamW(params.named_tensors()).step(lr)


class TestPerplexity:
    def test_uniform_logits_give_vocab_size(self):
        cfg, params = tiny_model(seed=1, vocab_size=256, hidden_size=16,
                                 intermediate_size=24)
        for t in params.named_tensors().values():
            t.data[...] = 0.0
        params.final_norm.data[...] = 1.0
        docs = [list(range(100)), list(range(50))]
        ppl = perplexity(params, cfg, docs, seq_len=8, eos_id=0)
        assert ppl == pytest.approx(256.0, rel=1e-12)

    def test_memorizer_reaches_one(self):
        cfg, params = memorizer_model()
        docs = [list(range(15))] * 4  # eos 15 closes each cycle 0..15
        ppl = perplexity(params, cfg, docs, seq_len=8, eos_id=15)
        assert abs(ppl - 1.0) < 1e-6

    def test_shard_additivity(self):
        cfg, params = tiny_model(seed=2, vocab_size=32)
        rng = np.random.default_rng(0)
        docs = [list(rng.integers(0, 31, size=15)) for _ in range(4)]
        whole = math.log(perplexity(params, cfg, docs, seq_len=8, eos_id=31))
        a = math.log(perplexity(params, cfg, docs[:2], seq_len=8, eos_id=31))
        b = math.log(perplexity(params, cfg, docs[2:], seq_len=8, eos_id=31))
        assert whole == pytest.approx((a + b) / 2.0, abs=1e-10)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_fp8_reads_the_weights_of_its_own_call(self, dtype):
        # fp8 rounds the weights once per call, so an in-place step between
        # two calls shows in the second, bit for bit as on fresh weights.
        cfg, params = tiny_model(seed=5, dtype=dtype, vocab_size=32)
        docs = [list(np.random.default_rng(5).integers(0, 31, size=30))]
        before = perplexity(params, cfg, docs, seq_len=8, eos_id=31, fp8=True)
        adamw_step(params, cfg, docs[0][:9])
        after = perplexity(params, cfg, docs, seq_len=8, eos_id=31, fp8=True)
        fresh = perplexity(copy.deepcopy(params), cfg, docs, seq_len=8, eos_id=31, fp8=True)
        assert after != before
        assert after.hex() == fresh.hex()

    def test_empty_corpus_rejected(self):
        cfg, params = tiny_model(seed=3)
        with pytest.raises(ValueError):
            perplexity(params, cfg, [], seq_len=8, eos_id=0)
        with pytest.raises(ValueError):
            perplexity(params, cfg, [[1, 2]], seq_len=8, eos_id=0)  # short of a window

    def test_overlong_seq_len_rejected(self):
        cfg, params = tiny_model(seed=4, max_context=16)
        with pytest.raises(ValueError):
            perplexity(params, cfg, [[1] * 100], seq_len=32, eos_id=0)

    @pytest.mark.parametrize("fp8", [False, True], ids=["f32", "fp8"])
    def test_independent_of_the_cpu_count(self, monkeypatch, fp8):
        # the windows are scored concurrently, and their losses summed in order
        cfg, params = tiny_model(seed=6, dtype="f32", vocab_size=32)
        rng = np.random.default_rng(6)
        docs = [list(rng.integers(0, 31, size=n)) for n in (30, 11, 25, 7, 19)]
        ppl = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            ppl[cpus] = perplexity(params, cfg, docs, seq_len=8, eos_id=31, fp8=fp8)
        assert ppl[1].hex() == ppl[2].hex()


class TestMCPick:
    def test_byte_normalization_fixture(self):
        # raw: "a" wins; per-byte: -2/4 = -0.5 beats -1/1
        acc, acc_norm = mc_pick([-1.0, -2.0], ["a", "abcd"])
        assert acc == 0
        assert acc_norm == 1

    def test_tie_breaks_to_first_index(self):
        acc, acc_norm = mc_pick([-1.5, -1.5, -1.5], ["xx", "yy", "zz"])
        assert acc == 0 and acc_norm == 0

    def test_constant_shift_with_equal_lengths_is_invariant(self):
        lps = [-3.0, -1.0, -2.0]
        choices = ["aa", "bb", "cc"]
        base = mc_pick(lps, choices)
        shifted = mc_pick([lp + 7.5 for lp in lps], choices)
        assert base == shifted == (1, 1)

    def test_constant_shift_with_unequal_lengths_can_flip(self):
        choices = ["a", "abcd"]
        assert mc_pick([-1.0, -2.0], choices)[1] == 1
        assert mc_pick([2.0, 1.0], choices)[1] == 0  # same gap, shifted by +3

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_pick([-1.0], ["a", "b"])
        with pytest.raises(ValueError):
            mc_pick([-1.0, -2.0], ["a", ""])


class TestMCScore:
    def test_identical_choices_pick_first(self):
        cfg, params = tiny_model(seed=5, vocab_size=259)
        vocab = byte_fallback_vocab()
        task = MCTask("pick", ("same", "same"), gold=0)
        out = mc_score(params, cfg, task, vocab)
        assert out["acc_pick"] == 0 and out["acc_norm_pick"] == 0
        assert out["acc_correct"] and out["acc_norm_correct"]
        assert out["logprobs"][0] == out["logprobs"][1]

    def test_injected_fixture(self):
        acc_pick, acc_norm_pick = mc_pick([-1.0, -2.0], ("a", "abcd"))
        assert acc_pick == 0  # raw argmax
        assert acc_norm_pick == 1  # per byte: -2/4 beats -1/1

    def test_pick_distribution_uniform_under_random_scores(self):
        rng = np.random.default_rng(7)
        counts = np.zeros(4, dtype=int)
        for _ in range(1000):
            choices = [rng.bytes(4).hex() for _ in range(4)]  # equal byte lengths
            acc_pick, acc_norm_pick = mc_pick([rng.normal() for _ in choices], choices)
            counts[acc_pick] += 1
            assert acc_norm_pick == acc_pick  # equal lengths
        sigma = math.sqrt(1000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 250) < 4 * sigma)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            MCTask("q", ("only",), gold=0)
        with pytest.raises(ValueError):
            MCTask("q", ("a", "b"), gold=2)


def full_forward_logprobs(params, cfg, prompt_ids, choices, vocab, **kwargs):
    """Oracle: one full forward per choice, log-softmax in numpy."""
    out = []
    for choice in choices:
        ids = np.array(list(prompt_ids) + list(encode(choice, vocab)), dtype=np.int64)
        with no_grad():
            z = forward(params, ids[:-1], cfg, **kwargs).data.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        rows = np.arange(len(prompt_ids) - 1, ids.size - 1)
        out.append(float(logp[rows, ids[rows + 1]].sum()))
    return out


class TestPrefixSharedMC:
    """mc_score forwards the prompt once, with every choice as a branch of it."""

    TASK = MCTask("Which?", ("x", "yes", "maybe so"), gold=1,
                  exemplars=(("First q", "ans one"), ("Second q", "two")))

    def _score(self, params, cfg, task, vocab, **kwargs):
        prompt = few_shot_render(task, 2, seed=3) + "\n"
        got = mc_score(params, cfg, task, vocab, k=2, seed=3, **kwargs)["logprobs"]
        want = full_forward_logprobs(params, cfg, encode(prompt, vocab), task.choices,
                                     vocab, **kwargs)
        return len(encode(prompt, vocab)), got, want

    @pytest.mark.parametrize("mode", ["plain", "fp8"])
    def test_matches_full_forward_per_choice(self, mode):
        cfg, params = tiny_model(seed=19, vocab_size=259, sliding_window=8)
        vocab = byte_fallback_vocab()
        weights = fp8_weights(params) if mode == "fp8" else params
        n_prompt, got, want = self._score(weights, cfg, self.TASK, vocab)
        assert n_prompt > cfg.sliding_window
        assert len(encode("x", vocab)) == 1
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_cache_holds_only_the_rows_it_writes(self):
        # Prompt plus longest choice is max_context + 1 tokens, but a
        # choice's last token is scored, never forwarded.
        cfg, params = tiny_model(seed=21, vocab_size=259, max_context=16)
        vocab = byte_fallback_vocab()
        task = MCTask("twelve chars", ("abcd", "x"), gold=0)
        prompt_ids = encode(task.question + "\n", vocab)
        assert len(prompt_ids) + len(encode("abcd", vocab)) == cfg.max_context + 1
        got = mc_score(params, cfg, task, vocab)["logprobs"]
        want = full_forward_logprobs(params, cfg, prompt_ids, task.choices, vocab)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["plain", "fp8"])
    def test_mc_score_is_sequence_logprob(self, mode):
        # f32, where a log-softmax in another dtype would show
        cfg, params = tiny_model(seed=25, dtype="f32", vocab_size=259, sliding_window=8)
        vocab = byte_fallback_vocab()
        weights = fp8_weights(params) if mode == "fp8" else params
        prompt_ids = encode(few_shot_render(self.TASK, 2, seed=3) + "\n", vocab)
        with no_grad():
            want = [float(lp.item()) for lp in sequence_logprob(
                weights, cfg, prompt_ids, [encode(c, vocab) for c in self.TASK.choices])]
        got = mc_score(weights, cfg, self.TASK, vocab, k=2, seed=3)["logprobs"]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_mc_and_dpo_share_one_context_rule(self):
        # prompt + choice of max_context + 1 tokens scores; one more raises
        cfg, params = tiny_model(seed=26, vocab_size=259, max_context=16)
        vocab = byte_fallback_vocab()
        task = MCTask("twelve chars", ("abcd", "x"), gold=0)
        prompt_ids = encode(task.question + "\n", vocab)
        assert len(prompt_ids) + len(encode("abcd", vocab)) == cfg.max_context + 1
        want = full_forward_logprobs(params, cfg, prompt_ids, task.choices, vocab)
        with no_grad():
            dpo = [float(lp.item()) for lp in sequence_logprob(
                params, cfg, prompt_ids, [encode(c, vocab) for c in task.choices])]
        np.testing.assert_allclose(dpo, want, rtol=0, atol=1e-10)
        got = mc_score(params, cfg, task, vocab)["logprobs"]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        with pytest.raises(ValueError):
            sequence_logprob(params, cfg, prompt_ids, [encode("abcde", vocab)])
        with pytest.raises(ValueError):
            mc_score(params, cfg, MCTask(task.question, ("abcde", "x"), gold=0), vocab)

    def test_one_forward_per_task(self, monkeypatch):
        cfg, params = tiny_model(seed=22, vocab_size=259, sliding_window=8)
        vocab = byte_fallback_vocab()
        tasks = [self.TASK, MCTask("Other?", ("a", "bb", "ccc", "d"), gold=3,
                                   exemplars=self.TASK.exemplars)]
        calls = count_forwards(monkeypatch)
        evaluate_tasks(params, cfg, tasks, vocab, k=2)
        assert len(calls) == len(tasks)

    def test_choice_order_is_bitwise_irrelevant(self):
        cfg, params = tiny_model(seed=20, vocab_size=259, sliding_window=8)
        vocab = byte_fallback_vocab()
        task = self.TASK
        flipped = MCTask(task.question, task.choices[::-1], gold=0, exemplars=task.exemplars)
        forward_order = mc_score(params, cfg, task, vocab, k=2, seed=3)["logprobs"]
        reverse_order = mc_score(params, cfg, flipped, vocab, k=2, seed=3)["logprobs"]
        assert np.array(forward_order).tobytes() == np.array(reverse_order[::-1]).tobytes()


class TestFp8Params:
    """Weights rounded once by the caller (`fp8_weights`) serve every forward."""

    @pytest.mark.parametrize("call", ["evaluate_tasks", "mc_score", "generate_uncached"])
    def test_no_weight_is_rounded_again(self, call, monkeypatch):
        cfg, params = tiny_model(seed=23, vocab_size=259, sliding_window=8)
        vocab = byte_fallback_vocab()
        first = TestPrefixSharedMC.TASK
        tasks = [first, MCTask("Other?", ("a", "bb"), gold=1, exemplars=first.exemplars)]
        with no_grad():
            fp8 = fp8_weights(params)
        rounded = count_roundings(monkeypatch)
        calls = count_forwards(monkeypatch)
        if call == "evaluate_tasks":
            evaluate_tasks(fp8, cfg, tasks, vocab, k=2)
        elif call == "mc_score":
            mc_score(fp8, cfg, tasks[0], vocab, k=2)
        else:
            generate(fp8, cfg, [1, 2, 3], max_new=8, use_cache=False)
        # each forward rounds 4 sublayer inputs per layer, and nothing else
        assert len(rounded) == 4 * cfg.n_layers * len(calls) > 0
        for weights in (params, fp8):
            assert set(weight_roundings(rounded, weights).values()) == {0}


class TestFewShotRender:
    EXEMPLARS = (("Q1", "A1"), ("Q2", "A2"), ("Q3", "A3"))

    def test_zero_shot_is_query_alone(self):
        task = MCTask("the question", ("a", "b"), gold=0, exemplars=self.EXEMPLARS)
        assert few_shot_render(task, 0) == "the question"

    def test_two_shot_has_two_blocks(self):
        task = MCTask("query", ("a", "b"), gold=0, exemplars=self.EXEMPLARS)
        text = few_shot_render(task, 2)
        parts = text.split("\n\n")
        assert len(parts) == 3
        assert parts[-1] == "query"
        for block in parts[:-1]:
            q, a = block.split("\n")
            assert (q, a) in self.EXEMPLARS

    def test_seeded_order_is_deterministic(self):
        task = MCTask("query", ("a", "b"), gold=0, exemplars=self.EXEMPLARS)
        assert few_shot_render(task, 3, seed=11) == few_shot_render(task, 3, seed=11)
        orders = {few_shot_render(task, 3, seed=s) for s in range(12)}
        assert len(orders) > 1  # the shuffle actually depends on the seed

    def test_k_too_large_rejected(self):
        task = MCTask("query", ("a", "b"), gold=0, exemplars=self.EXEMPLARS[:1])
        with pytest.raises(ValueError):
            few_shot_render(task, 2)

    def test_injective_on_distinct_exemplar_sets(self):
        seen = {}
        for i in range(30):
            exemplars = ((f"q{i}", f"a{i}"), (f"q{i}x", f"a{i}x"))
            task = MCTask("query", ("a", "b"), gold=0, exemplars=exemplars)
            text = few_shot_render(task, 2, seed=0)
            assert text not in seen
            seen[text] = exemplars


class TestExactMatch:
    def test_case_and_punctuation(self):
        assert exact_match("The Answer!", ["the answer"])
        assert exact_match("the  answer", ["The Answer"])
        assert exact_match("don't", ["dont"])
        assert not exact_match("answer", ["the answer"])

    def test_any_alias(self):
        assert exact_match("LA", ["Los Angeles", "la"])
        assert not exact_match("NYC", ["Los Angeles", "la"])


class TestRepetitionPenalty:
    def test_convention_arithmetic(self):
        row = np.array([2.0, -1.0, 0.5, 0.0])
        out = apply_repetition_penalty(row, [0, 1, 3], 1.1)
        assert out[0] == pytest.approx(2.0 / 1.1, rel=1e-15)
        assert out[0] == pytest.approx(1.8182, abs=1e-4)
        assert out[1] == pytest.approx(-1.0 * 1.1, rel=1e-15)
        assert out[2] == 0.5  # unseen: untouched
        assert out[3] == 0.0  # z = 0 maps to 0 either way

    def test_identity_at_one(self):
        row = np.array([2.0, -1.0, 0.5])
        out = apply_repetition_penalty(row, [0, 1, 2], 1.0)
        assert np.array_equal(out, row)

    def test_input_not_mutated(self):
        row = np.array([2.0, -1.0])
        apply_repetition_penalty(row, [0, 1], 1.3)
        assert np.array_equal(row, [2.0, -1.0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            apply_repetition_penalty(np.array([1.0]), [0], 0.0)
        with pytest.raises(ValueError):
            apply_repetition_penalty(np.array([1.0, 2.0]), [5], 1.1)


class TestDecodeSession:
    @pytest.mark.parametrize("window", [None, 6, 2])
    def test_logits_match_full_forward(self, window):
        cfg, params = tiny_model(seed=8, vocab_size=32, sliding_window=window)
        ids = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        session = DecodeSession(params, cfg, ids.size)
        rows = [session.step(ids[:3])]
        for tok in ids[3:]:
            rows.append(session.step([tok]))
        incremental = np.concatenate(rows, axis=0)
        with no_grad():
            full = forward(params, ids, cfg).data
        assert np.max(np.abs(incremental - full)) < 1e-10

    def test_is_the_model_session(self):
        # perfbench times deskllm.evals.DecodeSession.step; model owns the class.
        assert DecodeSession is model.DecodeSession

    def test_context_overflow_rejected(self):
        cfg, params = tiny_model(seed=9, max_context=4)
        session = DecodeSession(params, cfg, 4)
        session.step([1, 2, 3])
        with pytest.raises(ValueError):
            session.step([4, 5])

    def test_bad_ids_rejected(self):
        cfg, params = tiny_model(seed=9)
        session = DecodeSession(params, cfg, 4)
        with pytest.raises(ValueError):
            session.step([cfg.vocab_size])
        with pytest.raises(ValueError):
            session.step([])


class TestGenerate:
    @pytest.mark.parametrize("window", [None, 5])
    def test_cache_equals_full_reforward(self, window):
        cfg, params = tiny_model(seed=10, vocab_size=32, sliding_window=window)
        prompt = [3, 1, 4, 1, 5]
        cached = generate(params, cfg, prompt, max_new=20, use_cache=True)
        full = generate(params, cfg, prompt, max_new=20, use_cache=False)
        assert np.array_equal(cached, full)

    def test_cache_equality_with_adapters_and_fp8(self):
        cfg, params = tiny_model(seed=11, vocab_size=32)
        adapters = init_lora_adapters(params, seed=1)
        for a in adapters.values():
            a.b.data[...] = 0.03
        merged = lora_merge(params, adapters)
        for weights in (merged, fp8_weights(params)):
            cached = generate(weights, cfg, [1, 2, 3], max_new=8, use_cache=True)
            full = generate(weights, cfg, [1, 2, 3], max_new=8, use_cache=False)
            assert np.array_equal(cached, full)
        # fp8_weights reads the weights as they are when it is called: after
        # an in-place step, rounding again reads the stepped weights.
        adamw_step(params, cfg, [1, 2, 3, 4, 5, 6], lr=0.2)
        stepped = generate(fp8_weights(params), cfg, [1, 2, 3], max_new=8)
        assert not np.array_equal(stepped, cached)
        for weights, use_cache in ((params, False), (copy.deepcopy(params), True)):
            assert np.array_equal(stepped, generate(fp8_weights(weights), cfg, [1, 2, 3],
                                                    max_new=8, use_cache=use_cache))

    def test_greedy_is_bitwise_deterministic(self):
        cfg, params = tiny_model(seed=12, vocab_size=32)
        a = generate(params, cfg, [7, 7, 7], max_new=16)
        b = generate(params, cfg, [7, 7, 7], max_new=16)
        assert a.tobytes() == b.tobytes()

    def test_eos_stops_generation(self):
        cfg, params = tiny_model(seed=13, vocab_size=32)
        first = generate(params, cfg, [1, 2], max_new=1)[0]
        out = generate(params, cfg, [1, 2], max_new=50, eos_id=int(first))
        assert out.tolist() == [int(first)]

    def test_max_new_and_context_limits(self):
        cfg, params = tiny_model(seed=14, vocab_size=32, max_context=8)
        out = generate(params, cfg, [1, 2, 3, 4, 5], max_new=100)
        assert out.size == 3  # context 8 minus prompt 5
        out2 = generate(params, cfg, [1, 2], max_new=4)
        assert out2.size == 4
        assert generate(params, cfg, [1], max_new=0).size == 0

    def test_sampling_seeded(self):
        cfg, params = tiny_model(seed=15, vocab_size=32)
        a = generate(params, cfg, [5, 6], max_new=30, temperature=1.5, seed=9)
        b = generate(params, cfg, [5, 6], max_new=30, temperature=1.5, seed=9)
        c = generate(params, cfg, [5, 6], max_new=30, temperature=1.5, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        cfg, params = tiny_model(seed=16, max_context=8)
        with pytest.raises(ValueError):
            generate(params, cfg, [], max_new=4)
        with pytest.raises(ValueError):
            generate(params, cfg, list(range(9)), max_new=1)
        with pytest.raises(ConfigError):
            generate(params, cfg, [1], max_new=1, temperature=-0.5)
        with pytest.raises(ValueError):
            generate(params, cfg, [1], max_new=-1)

    def test_generate_text_round_trip(self):
        cfg, params = tiny_model(seed=17, vocab_size=259)
        vocab = byte_fallback_vocab()
        a = generate_text(params, cfg, "ab", vocab, max_new=8)
        b = generate_text(params, cfg, "ab", vocab, max_new=8)
        assert a == b
        assert isinstance(a, str)


class TestTaskFilesAndReports:
    def test_load_tasks_both_kinds(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        lines = [
            json.dumps({"question": "q1", "choices": ["a", "b"], "gold": 1}),
            json.dumps({"question": "q2", "choices": ["x", "y", "z"], "gold": 0,
                        "exemplars": [["eq", "ea"]]}),
            json.dumps({"question": "q3", "answers": ["ans", "answer"]}),
        ]
        path.write_text("\n".join(lines) + "\n")
        mc, em = load_tasks(path)
        assert len(mc) == 2 and len(em) == 1
        assert mc[1].exemplars == (("eq", "ea"),)
        assert em[0].answers == ("ans", "answer")

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps({"question": "q"}) + "\n")
        with pytest.raises(ValueError):
            load_tasks(path)

    def test_bad_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps({"question": "q", "answers": ["a"]}) + "\n"
                        + json.dumps({"question": "q"}) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}:2: task record needs choices+gold or answers")):
            load_tasks(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_round_trip(self, tmp_path, sep):
        path = tmp_path / "tasks.jsonl"
        write_jsonl([{"question": f"q{sep}1", "choices": [sep, "b"], "gold": 1,
                      "exemplars": [[f"e{sep}q", "ea"]]},
                     {"question": "q2", "answers": [f"an{sep}s"]}], path)
        mc, em = load_tasks(path)
        assert mc == [MCTask(f"q{sep}1", (sep, "b"), 1, ((f"e{sep}q", "ea"),))]
        assert em == [EMTask("q2", (f"an{sep}s",))]

    def test_evaluate_tasks_independent_of_the_cpu_count(self, monkeypatch):
        cfg, params = tiny_model(seed=24, dtype="f32", vocab_size=259, sliding_window=8)
        vocab = byte_fallback_vocab()
        exemplars = (("First q", "ans one"), ("Second q", "two"), ("Third", "3"))
        tasks = [MCTask(f"Question {i}?", ("yes", "no", "maybe")[:2 + i % 2], gold=i % 2,
                        exemplars=exemplars) for i in range(5)]
        runs = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            runs[cpus] = evaluate_tasks(params, cfg, tasks, vocab, k=2, seed=1)
        assert runs[1] == runs[2]
        assert [r["question"] for r in runs[2][0]] == [t.question for t in tasks]
        assert (np.array([lp for r in runs[1][0] for lp in r["logprobs"]]).tobytes()
                == np.array([lp for r in runs[2][0] for lp in r["logprobs"]]).tobytes())

    def test_evaluate_tasks_aggregates_and_order_independence(self, monkeypatch):
        lps = {"a": -1.0, "abcd": -2.0, "x": -5.0, "y": -1.0}
        tasks = [MCTask("q1", ("a", "abcd"), gold=1),
                 MCTask("q2", ("x", "y"), gold=1)]

        def fixed_mc_score(params, config, task, vocab, *, k, seed):
            acc_pick, acc_norm_pick = mc_pick([lps[c] for c in task.choices], task.choices)
            return {"acc_correct": acc_pick == task.gold,
                    "acc_norm_correct": acc_norm_pick == task.gold}

        monkeypatch.setattr(evals, "mc_score", fixed_mc_score)
        recs, agg = evaluate_tasks(None, None, tasks, None)
        assert agg == {"acc": 0.5, "acc_norm": 1.0, "n_tasks": 2}
        recs_r, agg_r = evaluate_tasks(None, None, tasks[::-1], None)
        assert agg_r == agg
        by_q = {r["question"]: r for r in recs}
        for r in recs_r:
            assert by_q[r["question"]] == r

    def test_evaluate_em_tasks_structure(self):
        cfg, params = tiny_model(seed=18, vocab_size=259)
        vocab = byte_fallback_vocab()
        tasks = [EMTask("2+2?", ("4", "four"))]
        recs, agg = evaluate_em_tasks(params, cfg, tasks, vocab, max_new=6)
        assert set(recs[0]) == {"question", "prediction", "em_correct"}
        assert isinstance(recs[0]["em_correct"], bool)
        assert agg["n_tasks"] == 1

    def test_save_results_layout(self, tmp_path):
        path = tmp_path / "results.jsonl"
        save_results([{"question": "q", "acc_correct": True}], {"acc": 1.0}, path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["question"] == "q"
        assert json.loads(lines[-1]) == {"aggregate": {"acc": 1.0}}
