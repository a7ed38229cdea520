"""The three benchmark workloads.

Each workload has `setup(seed, out_dir)`, which builds every input from
the seed, `episode(state, ops)`, one fixed unit of timed work through
deskllm's public API, and `final_checks(state, ops)`, output checks that
run once per run. Episodes and checks report through `Ops`, whose
counts become the result's `attempted` and `failed`.

deskllm is always reached through module attributes at call time
(`D.pretrain.Trainer`, `D.evals.generate`), so the traced run's
rebinding sees every call.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import deskllm as D
import inputs

# The "mid" shape; the window is shorter than the 256-token context stage.
MID = dict(hidden_size=256, intermediate_size=688, n_layers=4, n_heads=8, n_kv_heads=2,
           vocab_size=512, max_context=1024, sliding_window=128)
SMALL = dict(hidden_size=64, intermediate_size=172, n_layers=2, n_heads=4, n_kv_heads=2,
             max_context=512)
N_MERGES = 240
MERGE_DOCS = 120  # corpus documents the merges are counted over


class EpisodeFailed(Exception):
    """An operation in the episode raised; the episode is not timed."""


class Ops:
    """Counts operations attempted and failed (raised or failed a check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise EpisodeFailed(getattr(fn, "__name__", repr(fn))) from exc

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)


def bpe_vocab(seed: int, docs: list[str]):
    """Byte vocab with specials plus the merges counted over `docs`."""
    merges = inputs.derive_merges(docs, N_MERGES)
    base = D.byte_fallback_vocab()
    tokens = base.id_to_token + [left + right for left, right in merges]
    return D.Vocab(tokens, bos_id=base.bos_id, eos_id=base.eos_id, pad_id=base.pad_id,
                   merges=merges)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8)))


# ---------------------------------------------------------------------------
# pretrain_mid

@dataclass
class PretrainState:
    seed: int
    config: object
    plan: object
    sources: dict
    val_sources: dict
    vocab: object
    out_dir: Path


PRETRAIN_STAGE_TOKENS = 1024  # per stage: 2 steps at 128, then 1 step at 256
PRETRAIN_CKPT_EVERY = 2  # steps between checkpoint saves


def pretrain_setup(seed: int, out_dir: Path) -> PretrainState:
    texts = inputs.corpus(seed, n_web=160, n_code=80)
    val_texts = inputs.corpus(seed, n_web=16, n_code=8, stream="val")
    vocab = bpe_vocab(seed, texts["web"][:MERGE_DOCS // 2] + texts["code"][:MERGE_DOCS // 2])
    mix = {"web": 0.7, "code": 0.3}
    stages = (D.DataStage(token_budget=PRETRAIN_STAGE_TOKENS, mix=mix, seq_len=128),
              D.DataStage(token_budget=PRETRAIN_STAGE_TOKENS, mix=mix, seq_len=256))
    total = 2 * PRETRAIN_STAGE_TOKENS
    plan = D.TrainPlan(stages=stages,
                       schedule=D.LrSchedule(warmup_tokens=total // 8, total_tokens=total,
                                             peak_lr=3e-3, min_lr=3e-4),
                       batch_sequences=4, seed=seed, val_every=2, val_batches=1)

    def docs(group):
        return {name: [D.Document(t, name) for t in group[name]] for name in group}

    return PretrainState(seed, D.ModelConfig(**MID), plan, docs(texts), docs(val_texts),
                         vocab, out_dir)


def pretrain_episode(st: PretrainState, ops: Ops) -> dict:
    params = D.init_params(st.config, seed=st.seed, dtype="f32")
    log = st.out_dir / "pretrain.jsonl"
    log.unlink(missing_ok=True)
    ckpt = st.out_dir / "pretrain.dkpt"
    t0 = time.perf_counter()
    trainer = ops.call(D.pretrain.Trainer, params, st.config, st.plan, st.sources, st.vocab,
                       val_sources=st.val_sources, log_path=log)
    while trainer.tokens_seen < st.plan.total_budget:
        ops.call(trainer.run, max_steps=trainer.step + PRETRAIN_CKPT_EVERY)
        ops.call(D.checkpoint.save_model_checkpoint, ckpt, params, st.config,
                 optimizer=trainer.opt, extra={"step": trainer.step})
    loaded = ops.call(D.checkpoint.load_checkpoint, ckpt)
    elapsed = time.perf_counter() - t0

    losses = [r["train_loss"] for r in trainer.records]
    val = [r["val_loss"] for r in trainer.records if "val_loss" in r]
    ln_v = math.log(st.config.vocab_size)
    ops.check("pretrain.first_loss_near_ln_v", abs(losses[0] - ln_v) <= 0.05 * ln_v,
              f"{losses[0]} vs ln V {ln_v}")
    ops.check("pretrain.losses_finite", all(math.isfinite(x) for x in losses + val), str(losses))
    ops.check("pretrain.loss_decreased", losses[-1] < losses[0], f"{losses[0]} -> {losses[-1]}")
    saved = {name: t.data for name, t in params.named_tensors().items()}
    for name in trainer.opt.params:
        saved[f"optim.m.{name}"] = trainer.opt.m[name]
        saved[f"optim.v.{name}"] = trainer.opt.v[name]
    same = (set(saved) == set(loaded.tensors)
            and all(bitwise_equal(saved[k], loaded.tensors[k]) for k in saved))
    ops.check("pretrain.checkpoint_roundtrip_bitwise", same)
    return {"episode_s": elapsed, "pretrain.tok_s": trainer.tokens_seen / elapsed}


def pretrain_final_checks(st: PretrainState, ops: Ops) -> None:
    pass  # every pretrain check runs on every episode


# ---------------------------------------------------------------------------
# chat_small

@dataclass
class ChatState:
    seed: int
    config: object
    vocab: object
    conversations: list
    stage: object
    sft_plan: object
    dpo_plan: object
    last: tuple | None = None  # (params, adapters, merged) of the latest episode


N_SFT = 32
N_PAIRS = 16


def chat_setup(seed: int, out_dir: Path) -> ChatState:
    vocab = D.chat.chat_vocab()
    config = D.ModelConfig(vocab_size=len(vocab), **SMALL)
    convs = [D.Conversation(tuple(D.Turn(role, text) for role, text in turns))
             for turns in inputs.conversations(seed, N_SFT)]
    pairs = [D.dpo.PreferencePair(D.Conversation((D.Turn("user", prompt),)), chosen, rejected)
             for prompt, chosen, rejected in inputs.preference_pairs(seed, N_PAIRS)]
    return ChatState(seed, config, vocab, convs,
                     D.DpoStage(tuple(pairs), lr=1e-3),
                     D.SftPlan(lr=1e-3, batch_size=8, seed=seed),
                     D.DpoPlan(rank=4, alpha=16.0, batch_size=4, seed=seed))


def chat_episode(st: ChatState, ops: Ops) -> dict:
    params = D.init_params(st.config, seed=st.seed, dtype="f64")
    t0 = time.perf_counter()
    sft = ops.call(D.chat.run_sft, params, st.config, st.conversations, st.vocab, st.sft_plan)
    t1 = time.perf_counter()
    adapters, dpo = ops.call(D.dpo.dpo_train, params, st.config, [st.stage], st.vocab,
                             st.dpo_plan)
    t2 = time.perf_counter()
    merged = ops.call(D.dpo.lora_merge, params, adapters)
    t3 = time.perf_counter()

    ops.check("chat.sft_losses_finite", all(math.isfinite(r["train_loss"]) for r in sft))
    first = dpo[0]["train_loss"]
    ops.check("chat.first_dpo_loss_is_ln2", abs(first - math.log(2.0)) <= 1e-12,
              f"{first!r}")
    st.last = (params, adapters, merged)
    return {"episode_s": t3 - t0,
            "sft.examples_s": len(st.conversations) / (t1 - t0),
            "dpo.pairs_s": len(st.stage.pairs) / (t2 - t1)}


def chat_final_checks(st: ChatState, ops: Ops) -> None:
    params, adapters, merged = st.last
    ids = D.chat.render_chat(st.conversations[0], st.vocab)[0]
    with D.no_grad():
        via_adapters = ops.call(D.forward, params, ids, st.config, adapters=adapters).data
        via_merged = ops.call(D.forward, merged, ids, st.config).data
    ops.check("chat.merged_matches_adapters",
              np.allclose(via_merged, via_adapters, rtol=1e-9, atol=1e-9),
              f"max diff {np.max(np.abs(via_merged - via_adapters))}")


# ---------------------------------------------------------------------------
# eval_mid

@dataclass
class EvalState:
    seed: int
    config: object
    params: object
    vocab: object
    tasks: list
    ppl_docs: list
    ppl_scored: int
    prompts: list


N_MC = 4
K_SHOT = 5
PPL_SEQ = 256
PPL_WINDOWS = 4
N_PROMPTS = 2
PROMPT_LEN = 128
MAX_NEW = 48
CHECK_NEW = 24  # tokens compared between cached and uncached greedy decoding


def eval_setup(seed: int, out_dir: Path) -> EvalState:
    texts = inputs.corpus(seed, n_web=80, n_code=40)
    vocab = bpe_vocab(seed, texts["web"][:MERGE_DOCS // 2] + texts["code"][:MERGE_DOCS // 2])
    config = D.ModelConfig(**MID)
    ckpt = out_dir / "eval_model.dkpt"
    D.checkpoint.save_model_checkpoint(ckpt, D.init_params(config, seed=seed, dtype="f32"),
                                       config)
    config, params, _ = D.checkpoint.load_model(ckpt)
    held_out = inputs.corpus(seed, n_web=8, n_code=4, stream="heldout")
    # Cut the encoded documents to exactly PPL_WINDOWS packed windows
    # (each document is followed by one eos when packed).
    ppl_docs, room = [], PPL_WINDOWS * PPL_SEQ
    for text in held_out["web"] + held_out["code"]:
        if room < 2:
            break
        ids = D.encode(text, vocab)[:room - 1]
        ppl_docs.append(ids)
        room -= len(ids) + 1
    encoded = [D.encode(t, vocab) for t in texts["web"][:12] + texts["code"][:6]]
    tasks = [D.evals.MCTask(q, choices, gold, exemplars)
             for q, choices, gold, exemplars in inputs.mc_tasks(seed, N_MC)]
    return EvalState(seed, config, params, vocab, tasks, ppl_docs, PPL_WINDOWS * (PPL_SEQ - 1),
                     inputs.token_windows(encoded, N_PROMPTS, PROMPT_LEN, seed, "prompts"))


def eval_episode(st: EvalState, ops: Ops) -> dict:
    p, cfg = st.params, st.config
    t0 = time.perf_counter()
    records, _ = ops.call(D.evals.evaluate_tasks, p, cfg, st.tasks, st.vocab, k=K_SHOT,
                          seed=st.seed)
    t1 = time.perf_counter()
    ppl = ops.call(D.evals.perplexity, p, cfg, st.ppl_docs, PPL_SEQ, st.vocab.eos_id)
    t2 = time.perf_counter()
    ppl8 = ops.call(D.evals.perplexity, p, cfg, st.ppl_docs, PPL_SEQ, st.vocab.eos_id,
                    fp8=True)
    t3 = time.perf_counter()
    ttft, decode = [], []
    for prompt in st.prompts:
        a = time.perf_counter()
        ops.call(D.evals.generate, p, cfg, prompt, max_new=1, eos_id=None)
        b = time.perf_counter()
        out = ops.call(D.evals.generate, p, cfg, prompt, max_new=MAX_NEW, eos_id=None)
        c = time.perf_counter()
        ops.check("eval.generate_ran_to_max_new", out.size == MAX_NEW, str(out.size))
        ttft.append(b - a)
        decode.append((MAX_NEW - 1) / ((c - b) - (b - a)))
    t4 = time.perf_counter()

    ops.check("eval.mc_logprobs_finite",
              len(records) == len(st.tasks)
              and all(len(r["logprobs"]) == 4 and all(map(math.isfinite, r["logprobs"]))
                      for r in records))
    ops.check("eval.perplexity_finite", math.isfinite(ppl) and ppl > 0, str(ppl))
    ops.check("eval.perplexity_fp8_finite", math.isfinite(ppl8) and ppl8 > 0, str(ppl8))
    return {"episode_s": t4 - t0,
            "eval.mc_tasks_s": len(st.tasks) / (t1 - t0),
            "eval.ppl_tok_s": st.ppl_scored / (t2 - t1),
            "eval.ppl_fp8_tok_s": st.ppl_scored / (t3 - t2),
            "eval.ttft_s": ttft,
            "eval.decode_tok_s": decode}


def eval_final_checks(st: EvalState, ops: Ops) -> None:
    p, cfg = st.params, st.config
    prompt = st.prompts[0]
    cached = ops.call(D.evals.generate, p, cfg, prompt, max_new=CHECK_NEW, eos_id=None)
    plain = ops.call(D.evals.generate, p, cfg, prompt, max_new=CHECK_NEW, eos_id=None,
                     use_cache=False)
    ops.check("eval.cached_greedy_matches_recompute", np.array_equal(cached, plain),
              f"{cached.tolist()} vs {plain.tolist()}")

    # One task's log-probs against a straight forward plus numpy log-softmax.
    task = st.tasks[0]
    got = ops.call(D.evals.mc_score, p, cfg, task, st.vocab, k=K_SHOT, seed=st.seed)["logprobs"]
    prompt_text = D.evals.few_shot_render(task, K_SHOT, seed=st.seed) + D.evals.QUERY_SUFFIX
    prompt_ids = D.encode(prompt_text, st.vocab)
    want = []
    for choice in task.choices:
        choice_ids = D.encode(choice, st.vocab)
        ids = np.array(prompt_ids + choice_ids, dtype=np.int64)
        with D.no_grad():
            z = D.forward(p, ids[:-1], cfg).data.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        rows = np.arange(len(prompt_ids) - 1, ids.size - 1)
        want.append(float(logp[rows, ids[rows + 1]].sum()))
    ops.check("eval.mc_logprobs_match_forward",
              np.allclose(got, want, rtol=1e-4, atol=1e-3), f"{got} vs {want}")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: object
    episode: object
    final_checks: object


WORKLOADS = {
    "pretrain_mid": Workload(pretrain_setup, pretrain_episode, pretrain_final_checks),
    "chat_small": Workload(chat_setup, chat_episode, chat_final_checks),
    "eval_mid": Workload(eval_setup, eval_episode, eval_final_checks),
}
