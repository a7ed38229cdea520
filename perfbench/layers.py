"""Per-layer metrics derived from a traced run's spans.

Layers are the modules of `src/deskllm`. Times are seconds per episode
(summed over the traced episodes, divided by their number). `self`
marks a span's duration minus the time of its child spans; every other
time is the span's whole duration. A metric whose span target does not
exist in the code under test is left out.
"""

from __future__ import annotations

from spans import STEP_SPANS, SpanStats

# Metrics an episode measures without tracing, by the workload that
# runs the phase. A workload that does not run a phase reports 0.
PHASE_METRICS = [
    ("pretrain.tok_s", "1/s", "higher"),
    ("sft.examples_s", "1/s", "higher"),
    ("dpo.pairs_s", "1/s", "higher"),
    ("eval.mc_tasks_s", "1/s", "higher"),
    ("eval.ppl_tok_s", "1/s", "higher"),
    ("eval.ppl_fp8_tok_s", "1/s", "higher"),
    ("eval.ttft_s.p50", "s", "lower"),
    ("eval.decode_tok_s", "1/s", "higher"),
]


class Context:
    def __init__(self, stats: SpanStats, counts: dict, episodes: int):
        self.s = stats
        self.counts = counts
        self.ep = max(episodes, 1)
        self.steps = sum(stats.calls[name] for name in STEP_SPANS)

    def total(self, name):
        return self.s.total[name] / self.ep

    def self_time(self, name):
        return self.s.self_time[name] / self.ep

    def calls(self, name):
        return self.s.calls[name] / self.ep

    def extra(self, name, key, ancestor=None, where=None):
        return self.s.extra_sum(self.s.select(name, ancestor, where), key) / self.ep

    def duration(self, name, ancestor=None, where=None):
        return self.s.duration(self.s.select(name, ancestor, where)) / self.ep


def _ratio(num, den):
    return num / den if den else 0.0


def _decode_steps(extra):
    return extra.get("t") == 1


# (metric, unit, better, spans it needs, value(context))
LAYER_METRICS = [
    ("tensor.ops_per_step", "count", "lower", ("tensor.ops",),
     lambda c: _ratio(c.counts.get("tensor.ops", 0), c.steps)),
    ("tensor.backward_s", "s", "lower", ("tensor.backward",), lambda c: c.total("tensor.backward")),
    ("tensor.matmul_s", "s", "lower", ("tensor.matmul",), lambda c: c.self_time("tensor.matmul")),
    ("tensor.matmul_calls", "count", "lower", ("tensor.matmul",),
     lambda c: c.calls("tensor.matmul")),
    ("tensor.matmul_gflop", "GFLOP", "lower", ("tensor.matmul",),
     lambda c: c.extra("tensor.matmul", "gflop")),
    ("tensor.silu_s", "s", "lower", ("tensor.silu",), lambda c: c.self_time("tensor.silu")),
    ("tensor.softmax_s", "s", "lower", ("tensor.softmax",),
     lambda c: c.self_time("tensor.softmax")),
    ("tensor.rms_norm_s", "s", "lower", ("tensor.rms_norm",),
     lambda c: c.self_time("tensor.rms_norm")),
    ("tensor.cross_entropy_s", "s", "lower", ("tensor.cross_entropy",),
     lambda c: c.self_time("tensor.cross_entropy")),
    ("tensor.embedding_s", "s", "lower", ("tensor.embedding",),
     lambda c: c.self_time("tensor.embedding")),
    ("model.forward_calls_per_step", "count", "lower", ("model.forward",),
     lambda c: _ratio(c.s.calls["model.forward"], c.steps)),
    ("model.forward_s", "s", "lower", ("model.forward",),
     lambda c: c.duration("model.forward", where=lambda e: e.get("grad"))),
    ("model.forward_nograd_s", "s", "lower", ("model.forward",),
     lambda c: c.duration("model.forward", where=lambda e: not e.get("grad"))),
    # attention core: the whole span minus its wo projection
    ("model.attention_s", "s", "lower", ("model.attention", "model.linear"),
     lambda c: (c.s.total["model.attention"]
                - c.s.child_total("model.attention", "model.linear")) / c.ep),
    ("model.rope_s", "s", "lower", ("model.rope",), lambda c: c.total("model.rope")),
    ("model.rope_calls_per_forward", "count", "lower", ("model.rope", "model.forward"),
     lambda c: _ratio(c.s.calls["model.rope"], c.s.calls["model.forward"])),
    ("model.mask_builds", "count", "lower", ("model.mask",), lambda c: c.calls("model.mask")),
    ("model.mask_s", "s", "lower", ("model.mask",), lambda c: c.total("model.mask")),
    ("model.linear_s", "s", "lower", ("model.linear",), lambda c: c.self_time("model.linear")),
    ("fp8.e4m3_s", "s", "lower", ("fp8.e4m3",), lambda c: c.self_time("fp8.e4m3")),
    ("fp8.e4m3_melems", "Melem", "lower", ("fp8.e4m3",),
     lambda c: c.extra("fp8.e4m3", "elems") / 1e6),
    ("optim.adamw_step_s", "s", "lower", ("optim.adamw_step",),
     lambda c: c.total("optim.adamw_step")),
    ("optim.clip_s", "s", "lower", ("optim.clip",), lambda c: c.total("optim.clip")),
    ("optim.params_updated", "count", "lower", ("optim.adamw_step",),
     lambda c: _ratio(c.s.extra_sum(c.s.select("optim.adamw_step"), "params"),
                      c.s.calls["optim.adamw_step"])),
    ("data.wait_s", "s", "lower", ("data.pack",), lambda c: c.total("data.pack")),
    ("data.sample_mix_s", "s", "lower", ("data.sample_mix",),
     lambda c: c.total("data.sample_mix")),
    ("data.pack_s", "s", "lower", ("data.pack",), lambda c: c.self_time("data.pack")),
    ("tokenizer.encode_s", "s", "lower", ("tokenizer.encode",),
     lambda c: c.total("tokenizer.encode")),
    ("tokenizer.encode_calls", "count", "lower", ("tokenizer.encode",),
     lambda c: c.calls("tokenizer.encode")),
    ("tokenizer.bytes_encoded", "B", "lower", ("tokenizer.encode",),
     lambda c: c.extra("tokenizer.encode", "bytes")),
    ("pretrain.train_step_s", "s", "lower", ("pretrain.train_step",),
     lambda c: c.total("pretrain.train_step")),
    ("pretrain.val_s", "s", "lower", ("pretrain.val",), lambda c: c.total("pretrain.val")),
    ("pretrain.log_s", "s", "lower", ("pretrain.log",), lambda c: c.total("pretrain.log")),
    ("chat.render_s", "s", "lower", ("chat.render",), lambda c: c.total("chat.render")),
    ("chat.sft_loss_s", "s", "lower", ("chat.sft_loss",), lambda c: c.total("chat.sft_loss")),
    ("dpo.ref_pass_s", "s", "lower", ("dpo.sequence_logprob", "dpo.train"),
     lambda c: c.duration("dpo.sequence_logprob", "dpo.train", lambda e: not e.get("policy"))),
    ("dpo.policy_s", "s", "lower", ("dpo.sequence_logprob", "dpo.train"),
     lambda c: c.duration("dpo.sequence_logprob", "dpo.train", lambda e: e.get("policy"))),
    ("dpo.merge_s", "s", "lower", ("dpo.merge",), lambda c: c.total("dpo.merge")),
    # each pair is scored once per epoch by the policy, on chosen and rejected
    ("dpo.forward_tokens_per_pair", "count", "lower",
     ("model.forward", "dpo.train", "dpo.sequence_logprob"),
     lambda c: _ratio(c.s.extra_sum(c.s.select("model.forward", "dpo.train"), "tokens"),
                      sum(1 for _ in c.s.select("dpo.sequence_logprob", "dpo.train",
                                                lambda e: e.get("policy"))) / 2)),
    ("evals.mc_forward_tokens_per_task", "count", "lower", ("model.forward", "evals.mc_score"),
     lambda c: _ratio(c.s.extra_sum(c.s.select("model.forward", "evals.mc_score"), "tokens"),
                      c.s.calls["evals.mc_score"])),
    ("evals.prefill_s", "s", "lower", ("evals.session_step",),
     lambda c: c.duration("evals.session_step", where=lambda e: not _decode_steps(e))),
    ("evals.decode_step_s", "s", "lower", ("evals.session_step",),
     lambda c: c.duration("evals.session_step", where=_decode_steps)),
    ("evals.repetition_penalty_s", "s", "lower", ("evals.repetition_penalty",),
     lambda c: c.total("evals.repetition_penalty")),
    ("evals.kv_bytes_copied_per_token", "B", "lower", ("evals.session_step",),
     lambda c: _ratio(c.s.extra_sum(c.s.select("evals.session_step", where=_decode_steps),
                                    "kv_bytes"),
                      sum(1 for _ in c.s.select("evals.session_step", where=_decode_steps)))),
    ("checkpoint.save_s", "s", "lower", ("checkpoint.save",), lambda c: c.total("checkpoint.save")),
    ("checkpoint.load_s", "s", "lower", ("checkpoint.load",), lambda c: c.total("checkpoint.load")),
    ("checkpoint.mb", "MB", "lower", ("checkpoint.save",),
     lambda c: _ratio(c.s.extra_sum(c.s.select("checkpoint.save"), "mb"),
                      c.s.calls["checkpoint.save"])),
]


def layer_metrics(stats: SpanStats, counts: dict, installed: set, episodes: int) -> dict:
    ctx = Context(stats, counts, episodes)
    out = {}
    for name, unit, _, needs, value in LAYER_METRICS:
        if all(n in installed for n in needs):
            out[name] = {"value": float(value(ctx)), "unit": unit}
    return out
