"""Chat template rendering, loss masking, and the SFT loop."""

import json
import re

import numpy as np
import pytest

from deskllm.chat import (Conversation, SftPlan, Turn, chat_vocab, load_conversations,
                          render_chat, run_sft, save_conversations, sft_example, sft_loss)
from deskllm import chat as chat_module
from deskllm.model import forward
from deskllm.pretrain import TrainingDiverged, batch_grads
from deskllm.tensor import IGNORE_INDEX, cross_entropy, no_grad
from deskllm.tokenizer import byte_fallback_vocab, encode

from modelutil import tiny_model, use_cpus
from test_pretrain import StepGrads, capture_step_grads

CHAT_VOCAB = chat_vocab()


def conv(*turns):
    return Conversation(tuple(Turn(r, t) for r, t in turns))


class TestConversation:
    def test_valid_shapes(self):
        conv(("user", "hi"), ("assistant", "hello"))
        conv(("system", "be brief"), ("user", "hi"), ("assistant", "ok"))
        conv(("user", "hi"))  # trailing user is a generation prompt
        conv(("user", "a"), ("assistant", "b"), ("user", "c"), ("assistant", "d"))

    def test_assistant_first_rejected(self):
        with pytest.raises(ValueError):
            conv(("assistant", "hi"))

    def test_double_user_rejected(self):
        with pytest.raises(ValueError):
            conv(("user", "a"), ("user", "b"))

    def test_double_assistant_rejected(self):
        with pytest.raises(ValueError):
            conv(("user", "a"), ("assistant", "b"), ("assistant", "c"))

    def test_system_not_first_rejected(self):
        with pytest.raises(ValueError):
            conv(("user", "a"), ("system", "b"))

    def test_system_only_rejected(self):
        with pytest.raises(ValueError):
            conv(("system", "a"))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            conv(("narrator", "meanwhile"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Conversation(())


class TestRenderChat:
    def test_atomic_markers_used_when_present(self):
        ids, mask = render_chat(conv(("user", "hi"), ("assistant", "ok")), CHAT_VOCAB)
        user_id = CHAT_VOCAB.token_to_id[b"<|user|>"]
        asst_id = CHAT_VOCAB.token_to_id[b"<|assistant|>"]
        end_id = CHAT_VOCAB.token_to_id[b"<|end|>"]
        expected = ([user_id] + encode("hi", CHAT_VOCAB) + [end_id]
                    + [asst_id] + encode("ok", CHAT_VOCAB) + [end_id])
        assert ids.tolist() == expected

    def test_mask_covers_assistant_text_and_end(self):
        ids, mask = render_chat(conv(("user", "hi"), ("assistant", "ok")), CHAT_VOCAB)
        # layout: <|user|> h i <|end|> <|assistant|> o k <|end|>
        assert mask.tolist() == [0, 0, 0, 0, 0, 1, 1, 1]

    def test_two_turn_mask_census(self):
        # Mask-1 count is the assistant token total plus one end marker per
        # assistant turn.
        c = conv(("user", "hi"), ("assistant", "ok"),
                 ("user", "more"), ("assistant", "fine!"))
        ids, mask = render_chat(c, CHAT_VOCAB)
        spans = len(encode("ok", CHAT_VOCAB)) + len(encode("fine!", CHAT_VOCAB))
        assert int(mask.sum()) == spans + 2

    def test_empty_assistant_masks_only_end(self):
        ids, mask = render_chat(conv(("user", "hi"), ("assistant", "")), CHAT_VOCAB)
        assert int(mask.sum()) == 1
        assert mask[-1] == 1
        assert ids[-1] == CHAT_VOCAB.token_to_id[b"<|end|>"]

    def test_system_text_unmasked(self):
        c = conv(("system", "be brief"), ("user", "hi"), ("assistant", "ok"))
        ids, mask = render_chat(c, CHAT_VOCAB)
        n_prefix = 1 + len(encode("be brief", CHAT_VOCAB)) + 1  # sys turn tokens
        assert mask[:n_prefix].sum() == 0

    def test_chat_vocab_extends_the_byte_fallback(self):
        base = byte_fallback_vocab()
        assert CHAT_VOCAB.id_to_token[:len(base)] == base.id_to_token
        assert (CHAT_VOCAB.bos_id, CHAT_VOCAB.eos_id, CHAT_VOCAB.pad_id) == (256, 257, 258)
        assert CHAT_VOCAB.id_to_token[len(base):] == [
            b"<|system|>", b"<|user|>", b"<|assistant|>", b"<|end|>"]

    def test_markers_spelled_out_without_atomic_tokens(self):
        # A plain byte vocab still renders; markers become ordinary bytes.
        vocab = byte_fallback_vocab()
        ids, mask = render_chat(conv(("user", "hi"), ("assistant", "ok")), vocab)
        rendered = bytes(int(i) for i in ids)
        assert rendered == b"<|user|>hi<|end|><|assistant|>ok<|end|>"
        # mask covers the two assistant bytes plus the 7-byte end marker
        assert int(mask.sum()) == 2 + len(b"<|end|>")
        assert mask[:-9].sum() == 0

    def test_rerender_is_identical(self):
        c = conv(("system", "s"), ("user", "abc"), ("assistant", "defg"))
        a_ids, a_mask = render_chat(c, CHAT_VOCAB)
        b_ids, b_mask = render_chat(c, CHAT_VOCAB)
        assert a_ids.tobytes() == b_ids.tobytes()
        assert a_mask.tobytes() == b_mask.tobytes()

    def test_mask_positions_decode_to_assistant_span(self):
        c = conv(("user", "q"), ("assistant", "xyz"))
        ids, mask = render_chat(c, CHAT_VOCAB)
        scored = [CHAT_VOCAB.id_to_token[int(i)] for i in ids[mask == 1]]
        assert b"".join(scored) == b"xyz<|end|>"


class TestSftExample:
    def test_shift_and_mask(self):
        tokens = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        mask = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        inputs, targets = sft_example(tokens, mask)
        assert inputs.tolist() == [10, 11, 12, 13]
        assert targets.tolist() == [IGNORE_INDEX, IGNORE_INDEX, 13, 14]

    def test_scored_count_equals_mask_sum(self):
        ids, mask = render_chat(conv(("user", "hi"), ("assistant", "ok")), CHAT_VOCAB)
        _, targets = sft_example(ids, mask)
        assert int(np.sum(targets != IGNORE_INDEX)) == int(mask.sum())

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            sft_example(np.array([1]), np.array([0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sft_example(np.array([1, 2, 3]), np.array([0, 1]))


class TestSftLoss:
    def test_hand_oracle_two_scored_positions(self):
        # 5-token example masking only the last two predictions; the loss is
        # the mean of exactly those two NLL terms.
        cfg, params = tiny_model(seed=5, vocab_size=16)
        tokens = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        mask = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        example = sft_example(tokens, mask)
        loss = sft_loss(params, cfg, [example])
        with no_grad():
            logits = forward(params, example[0], cfg).data.astype(np.float64)
        nll = []
        for pos, target in ((2, 1), (3, 5)):
            row = logits[pos]
            row = row - row.max()
            logprob = row[target] - np.log(np.sum(np.exp(row)))
            nll.append(-logprob)
        expected = (nll[0] + nll[1]) / 2.0
        assert abs(float(loss.item()) - expected) < 1e-12

    def test_all_scored_matches_plain_cross_entropy(self):
        cfg, params = tiny_model(seed=6, vocab_size=16)
        inputs = np.array([1, 2, 3, 4], dtype=np.int64)
        targets = np.array([2, 3, 4, 5], dtype=np.int64)
        loss = sft_loss(params, cfg, [(inputs, targets)])
        with no_grad():
            ref = cross_entropy(forward(params, inputs, cfg), targets)
        assert float(loss.item()) == pytest.approx(float(ref.item()), rel=1e-12)

    def test_masked_positions_carry_no_gradient(self):
        # Two batches differing only in an ignored target produce identical
        # losses and identical gradients.
        cfg, params = tiny_model(seed=7, vocab_size=16)
        inputs = np.array([1, 2, 3, 4], dtype=np.int64)
        t_a = np.array([IGNORE_INDEX, IGNORE_INDEX, 4, 5], dtype=np.int64)
        loss = sft_loss(params, cfg, [(inputs, t_a)])
        loss.backward()
        grad_a = params.lm_head.grad.copy()
        for p in params.named_tensors().values():
            p.zero_grad()
        loss_b = sft_loss(params, cfg, [(inputs, t_a)])
        loss_b.backward()
        assert np.array_equal(grad_a, params.lm_head.grad)
        # and the prompt rows of lm_head's input see no loss signal: scoring
        # fewer positions than the full sequence must change the loss
        t_full = np.array([2, 3, 4, 5], dtype=np.int64)
        for p in params.named_tensors().values():
            p.zero_grad()
        loss_full = sft_loss(params, cfg, [(inputs, t_full)])
        assert float(loss_full.item()) != pytest.approx(float(loss.item()), rel=1e-9)

    def test_empty_batch_skipped_with_warning(self):
        cfg, params = tiny_model(seed=8, vocab_size=16)
        inputs = np.array([1, 2, 3], dtype=np.int64)
        none_scored = np.full(3, IGNORE_INDEX, dtype=np.int64)
        with pytest.warns(RuntimeWarning):
            out = sft_loss(params, cfg, [(inputs, none_scored)])
        assert out is None

    def test_mixed_batch_scores_usable_only(self):
        cfg, params = tiny_model(seed=9, vocab_size=16)
        inputs = np.array([1, 2, 3], dtype=np.int64)
        good = (inputs, np.array([IGNORE_INDEX, 3, 4], dtype=np.int64))
        empty = (inputs, np.full(3, IGNORE_INDEX, dtype=np.int64))
        with pytest.warns(RuntimeWarning):
            mixed = sft_loss(params, cfg, [good, empty])
        alone = sft_loss(params, cfg, [good])
        assert float(mixed.item()) == pytest.approx(float(alone.item()), rel=1e-15)


def training_conversations():
    base = [
        conv(("user", "hi"), ("assistant", "hello there")),
        conv(("system", "short"), ("user", "color?"), ("assistant", "blue")),
        conv(("user", "count"), ("assistant", "1 2 3")),
        conv(("user", "bye"), ("assistant", "bye!")),
    ]
    return base * 4


class TestRunSft:
    def test_loss_decreases_on_small_corpus(self):
        cfg, params = tiny_model(seed=10, vocab_size=len(CHAT_VOCAB), max_context=64)
        plan = SftPlan(lr=5e-3, batch_size=4, epochs=25, seed=0)
        records = run_sft(params, cfg, training_conversations(), CHAT_VOCAB, plan)
        assert records[-1]["train_loss"] < 0.5 * records[0]["train_loss"]

    def test_record_schema_and_log_file(self, tmp_path):
        cfg, params = tiny_model(seed=11, vocab_size=len(CHAT_VOCAB), max_context=64)
        log = tmp_path / "sft.jsonl"
        plan = SftPlan(lr=1e-3, batch_size=8, epochs=1, seed=0)
        records = run_sft(params, cfg, training_conversations(), CHAT_VOCAB, plan, log_path=log)
        assert len(records) == 2  # 16 conversations / batch 8
        for rec in records:
            assert set(rec) == {"step", "tokens_seen", "lr", "train_loss"}
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines == records

    def test_rerun_is_deterministic(self):
        plan = SftPlan(lr=1e-3, batch_size=4, epochs=2, seed=3)
        runs = []
        for _ in range(2):
            cfg, params = tiny_model(seed=12, vocab_size=len(CHAT_VOCAB), max_context=64)
            runs.append(run_sft(params, cfg, training_conversations(), CHAT_VOCAB, plan))
        assert runs[0] == runs[1]

    def test_epoch_order_is_shuffled_deterministically(self):
        cfg, params = tiny_model(seed=13, vocab_size=len(CHAT_VOCAB), max_context=64)
        convs = training_conversations()
        plan = SftPlan(lr=1e-4, batch_size=1, epochs=1, seed=5)
        records = run_sft(params, cfg, convs, CHAT_VOCAB, plan)
        lens = [rec["tokens_seen"] for rec in records]
        rng = np.random.default_rng(5)
        order = rng.permutation(len(convs))
        from deskllm.chat import render_chat as rc
        expected = np.cumsum([len(rc(convs[i], CHAT_VOCAB)[0]) - 1 for i in order])
        assert lens == expected.tolist()

    def test_no_usable_conversations_warns(self):
        cfg, params = tiny_model(seed=14, vocab_size=len(CHAT_VOCAB), max_context=64)
        convs = [conv(("user", "hi"), ("assistant", ""))] * 2
        # assistant end markers are still scored, so these DO train; the
        # warn-and-skip path needs a batch with nothing scored at all, which
        # rendering cannot produce. Instead check the empty-input path.
        with pytest.warns(RuntimeWarning):
            out = run_sft(params, cfg, [], CHAT_VOCAB, SftPlan())
        assert out == []

    def test_overlong_conversation_rejected(self):
        cfg, params = tiny_model(seed=15, vocab_size=len(CHAT_VOCAB), max_context=8)
        convs = [conv(("user", "a" * 50), ("assistant", "b"))]
        with pytest.raises(ValueError):
            run_sft(params, cfg, convs, CHAT_VOCAB, SftPlan())

    def test_nonfinite_loss_stops_before_any_change(self, monkeypatch):
        made = []

        class SpyAdamW(chat_module.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(chat_module, "AdamW", SpyAdamW)
        cfg, params = tiny_model(seed=17, vocab_size=len(CHAT_VOCAB), max_context=64)
        params.token_embedding.data[:] = np.nan
        named = params.named_tensors()
        before = {n: t.data.copy() for n, t in named.items()}
        with pytest.raises(TrainingDiverged):
            run_sft(params, cfg, training_conversations(), CHAT_VOCAB, SftPlan(lr=1e-2))
        for name, t in named.items():
            assert np.array_equal(t.data, before[name], equal_nan=True)
            assert t.grad is None
        (opt,) = made
        assert opt.step_count == 0
        assert not any(m.any() for m in opt.m.values())
        assert not any(v.any() for v in opt.v.values())

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_example_grads_equal_whole_batch_bitwise(self, monkeypatch, dtype):
        cfg, params = tiny_model(seed=18, dtype=dtype, vocab_size=len(CHAT_VOCAB),
                                 max_context=64)
        convs = training_conversations()[:6]
        plan = SftPlan(lr=1e-3, batch_size=len(convs), epochs=1, seed=2)
        order = np.random.default_rng(plan.seed).permutation(len(convs))  # epoch 0's
        whole = batch_grads(params, cfg, [sft_example(*render_chat(convs[i], CHAT_VOCAB))
                                          for i in order])
        grads = capture_step_grads(monkeypatch)
        with pytest.raises(StepGrads):
            run_sft(params, cfg, convs, CHAT_VOCAB, plan)
        assert len(grads) == len(whole)
        for got, want in zip(grads, whole.values()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_example_grads_independent_of_the_cpu_count(self, monkeypatch, dtype):
        cfg, params = tiny_model(seed=18, dtype=dtype, vocab_size=len(CHAT_VOCAB),
                                 max_context=64)
        convs = training_conversations()[:6]
        plan = SftPlan(lr=1e-3, batch_size=len(convs), epochs=1, seed=2)
        grads = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            grads[cpus] = capture_step_grads(monkeypatch)
            with pytest.raises(StepGrads):
                run_sft(params, cfg, convs, CHAT_VOCAB, plan)
        assert len(grads[1]) == len(params.named_tensors())
        for got, want in zip(grads[2], grads[1]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_lr_follows_cosine_schedule(self):
        cfg, params = tiny_model(seed=16, vocab_size=len(CHAT_VOCAB), max_context=64)
        plan = SftPlan(lr=1e-3, batch_size=4, epochs=1, seed=0)
        records = run_sft(params, cfg, training_conversations(), CHAT_VOCAB, plan)
        # final batch lands exactly on the budget, so lr ends at the floor
        assert records[-1]["lr"] == pytest.approx(plan.lr * plan.min_lr_fraction, rel=1e-12)
        assert all(r["lr"] > 0 for r in records)


class TestSftPlanValidation:
    def test_bad_values_rejected(self):
        from deskllm.errors import ConfigError
        for kwargs in ({"lr": 0.0}, {"batch_size": 0}, {"epochs": 0},
                       {"warmup_fraction": 0.0}, {"warmup_fraction": 1.0},
                       {"min_lr_fraction": 0.0}, {"min_lr_fraction": 1.5}):
            with pytest.raises(ConfigError):
                SftPlan(**kwargs)


class TestConversationIO:
    def test_round_trip(self, tmp_path):
        convs = [
            conv(("system", "söme ünïcode"), ("user", "hi"), ("assistant", "ok")),
            conv(("user", "a\nb"), ("assistant", "c\td")),
        ]
        path = tmp_path / "chats.jsonl"
        save_conversations(convs, path)
        assert load_conversations(path) == convs

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "chats.jsonl"
        line = json.dumps({"turns": [{"role": "user", "text": "x"},
                                     {"role": "assistant", "text": "y"}]})
        path.write_text(line + "\n\n" + line + "\n")
        assert len(load_conversations(path)) == 2

    def test_non_object_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "chats.jsonl"
        path.write_text("[1]\n")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}:1: expected a JSON object, got list")):
            load_conversations(path)

    def test_invalid_conversation_names_its_line(self, tmp_path):
        path = tmp_path / "chats.jsonl"
        good = json.dumps({"turns": [{"role": "user", "text": "x"},
                                     {"role": "assistant", "text": "y"}]})
        bad = json.dumps({"turns": [{"role": "assistant", "text": "y"}]})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: turn 0")):
            load_conversations(path)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
    def test_line_separator_round_trip(self, tmp_path, sep):
        convs = [conv(("system", f"be{sep}brief"), ("user", sep), ("assistant", f"ok{sep}")),
                 conv(("user", "plain"), ("assistant", "text"))]
        path = tmp_path / "chats.jsonl"
        save_conversations(convs, path)
        assert load_conversations(path) == convs
