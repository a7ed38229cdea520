"""Alignment in two acts: masked supervised fine-tuning, then preference
tuning with low-rank adapters.

Act one renders conversations into the chat template and trains with the
loss masked to assistant tokens only, so the model learns to produce
answers rather than to imitate questions. Act two freezes the result as
its own reference and nudges low-rank adapters so preferred answers gain
log-probability margin over rejected ones, with the sigmoid loss starting
at exactly ln 2 and falling as the margin opens.
"""

import math

import numpy as np

from deskllm.chat import (Conversation, SftPlan, Turn, chat_vocab,
                          render_chat, run_sft)
from deskllm.dpo import (DpoPlan, DpoStage, PreferencePair, dpo_train,
                         init_lora_adapters, render_pair, sequence_logprob)
from deskllm.model import ModelConfig, init_params, lora_weights
from deskllm.tensor import no_grad

vocab = chat_vocab()
config = ModelConfig(hidden_size=32, intermediate_size=48, n_layers=2,
                     n_heads=4, n_kv_heads=2, vocab_size=len(vocab),
                     max_context=96)
params = init_params(config, seed=0, dtype="f64")

print("== the chat template and its loss mask ==")
conv = Conversation((Turn("user", "say calm"), Turn("assistant", "calm")))
tokens, mask = render_chat(conv, vocab)
rendered = [vocab.id_to_token[t].decode("utf-8", "replace") for t in tokens]
print("tokens:", rendered)
print("mask:  ", mask.tolist())
print("loss lands on the assistant text and its end marker, nothing else")

print("\n== act one: supervised fine-tuning ==")
words = ["calm", "warm", "soft", "slow", "kind", "neat"]
conversations = [
    Conversation((Turn("user", f"say {w}"), Turn("assistant", w)))
    for w in words
]
plan = SftPlan(lr=3e-3, batch_size=3, epochs=20, seed=0)
records = run_sft(params, config, conversations, vocab, plan)
print(f"{len(records)} steps, loss "
      f"{records[0]['train_loss']:.4f} -> {records[-1]['train_loss']:.4f}")

print("\n== act two: preference tuning ==")
pairs = [
    PreferencePair(
        prompt=Conversation((Turn("user", f"say {w}"),)),
        chosen=w, rejected=bad)
    for w, bad in zip(words, ["loud", "cold", "hard", "fast", "rude", "messy"])
]


def margin(adapters):
    total = 0.0
    with no_grad():
        adapted = lora_weights(params, adapters)
        for pair in pairs:
            prompt, chosen, rejected = render_pair(pair, vocab)
            # one prefix-shared forward scores both responses
            lc, lr_ = sequence_logprob(adapted, config, prompt, (chosen, rejected))
            total += lc.item() - lr_.item()
    return total / len(pairs)


fresh = init_lora_adapters(params, rank=4, alpha=16.0, seed=0)
print(f"adapter targets: {len(fresh)} weight matrices, rank 4, scale "
      f"{next(iter(fresh.values())).scale}")
print(f"margin before: {margin(fresh):+.4f} (inherited from SFT; the "
      f"zero-initialized adapters are a no-op, so policy == reference)")

stages = [DpoStage(pairs=tuple(pairs), lr=1e-3, epochs=15)]
dpo_plan = DpoPlan(beta=0.2, rank=4, alpha=16.0, batch_size=3, seed=0)
adapters, dpo_records = dpo_train(params, config, stages, vocab, dpo_plan)

first, last = dpo_records[0]["train_loss"], dpo_records[-1]["train_loss"]
print(f"loss starts at ln 2 = {math.log(2):.4f}: first step {first:.4f}")
print(f"{len(dpo_records)} steps, loss -> {last:.4f}")
print(f"margin after:  {margin(adapters):+.4f} "
      f"(chosen answers now out-score rejected ones)")

frozen = params.named_tensors()["layers.0.attn.wq"].data
reloaded = init_params(config, seed=0, dtype="f64")
trained_sft = run_sft(reloaded, config, conversations, vocab, plan)
same = np.array_equal(frozen, reloaded.named_tensors()["layers.0.attn.wq"].data)
print(f"\nbase weights untouched by preference tuning: {same}")
print("(rerunning SFT from the same seed reproduces them bit for bit)")
