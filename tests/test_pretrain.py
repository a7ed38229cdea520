"""Training-loop tests: schedule wiring, logs, curriculum, shard equivalence."""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from deskllm import pretrain as pretrain_module
from deskllm.data import DataStage, Document
from deskllm.errors import ConfigError
from deskllm.optim import AdamW, LrSchedule, NonFiniteGradError, OptimHyper
from deskllm.pretrain import (
    TrainPlan,
    Trainer,
    TrainingDiverged,
    batch_grads,
    batch_loss,
    optimize,
    shard_gradient_gap,
)
from deskllm.tokenizer import byte_fallback_vocab, encode
from deskllm.tensor import IGNORE_INDEX, Tensor, mul, tsum

from modelutil import count_roundings, tiny_model, use_cpus, weight_roundings

VOCAB = byte_fallback_vocab()


def make_sources(n_docs=8):
    texts = ["the cat sat on the mat", "a quick brown fox", "pack my box",
             "hello world again", "numbers 123 and 456", "short", "x" * 30,
             "the end of the corpus"]
    docs = [Document(texts[i % len(texts)], "web") for i in range(n_docs)]
    return {"web": docs}


def stage(seq_len=8, budget=1e9, mix=None):
    return DataStage(token_budget=budget, mix=mix or {"web": 1.0}, seq_len=seq_len)


def make_trainer(params=None, cfg=None, stages=None, log_path=None, val=False,
                 **plan_kw):
    if cfg is None:
        cfg, params = tiny_model(seed=0, vocab_size=len(VOCAB))
    plan_defaults = dict(
        stages=stages or [stage()],
        schedule=LrSchedule(warmup_tokens=1000, total_tokens=1_000_000,
                            peak_lr=2e-4, min_lr=1e-5),
        hyper=OptimHyper(),
        batch_sequences=2,
        seed=0,
    )
    plan_defaults.update(plan_kw)
    plan = TrainPlan(**plan_defaults)
    return Trainer(params, cfg, plan, make_sources(), VOCAB,
                   val_sources=make_sources(4) if val else None,
                   log_path=log_path), cfg, params


def fixed_batch(cfg, seq_len=8, n=2, seed=0):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(n):
        window = rng.integers(0, min(cfg.vocab_size, 200), seq_len)
        targets = np.concatenate([window[1:], [IGNORE_INDEX]])
        batch.append((window, targets))
    return batch


class TestTrainStep:
    def test_first_record_lr_is_warmup_line(self):
        trainer, cfg, _ = make_trainer()
        records = trainer.run(max_steps=1)
        batch_tokens = 2 * 8
        assert records[0]["lr"] == pytest.approx(2e-4 * batch_tokens / 1000, rel=1e-12)
        assert records[0]["tokens_seen"] == batch_tokens
        assert records[0]["step"] == 1

    def test_step_reads_the_optimizer_count(self):
        trainer, cfg, _ = make_trainer()
        records = trainer.run(max_steps=3)
        assert [r["step"] for r in records] == [1, 2, 3]
        assert trainer.step == trainer.opt.step_count == 3
        with pytest.raises(AttributeError):
            trainer.step = 0

    def test_loss_decreases_on_repeated_batch(self):
        trainer, cfg, _ = make_trainer(
            schedule=LrSchedule(warmup_tokens=16, total_tokens=1e9,
                                peak_lr=1e-2, min_lr=1e-3))
        batch = fixed_batch(cfg)
        losses = [trainer.train_step(batch, seq_len=8)["train_loss"]
                  for _ in range(50)]
        assert losses[-1] < 0.5 * losses[0]
        drops = np.diff(losses) < 0
        assert drops.mean() > 0.9
        assert losses[-1] == min(losses)

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        trainer, cfg, params = make_trainer()
        params.token_embedding.data[: ] = np.nan
        named = params.named_tensors()
        before = {n: t.data.copy() for n, t in named.items()}
        with pytest.raises(TrainingDiverged, match="step 0: loss is nan"):
            trainer.train_step(fixed_batch(cfg), seq_len=8)
        assert (trainer.step, trainer.tokens_seen, trainer.opt.step_count) == (0, 0, 0)
        for name, t in named.items():
            assert np.array_equal(t.data, before[name], equal_nan=True)
            assert t.grad is None
            assert not trainer.opt.m[name].any() and not trainer.opt.v[name].any()

    def test_nonfinite_third_window_leaves_the_step_undone(self, monkeypatch):
        use_cpus(monkeypatch, 1)  # one window at a time
        trainer, cfg, params = make_trainer()
        batch = fixed_batch(cfg, n=4)
        trainer.train_step(batch, seq_len=8)  # nonzero moments to compare against
        named = params.named_tensors()
        opt = trainer.opt
        before = {n: (t.data.copy(), opt.m[n].copy(), opt.v[n].copy())
                  for n, t in named.items()}
        real_batch_loss = pretrain_module.batch_loss
        grads_seen = []

        def third_window_diverges(*args, **kwargs):
            grads_seen.append(all(t.grad is not None for t in named.values()))
            loss = real_batch_loss(*args, **kwargs)
            return mul(loss, np.nan) if len(grads_seen) == 3 else loss

        monkeypatch.setattr(pretrain_module, "batch_loss", third_window_diverges)
        with pytest.raises(TrainingDiverged, match="step 1: loss is nan"):
            trainer.train_step(batch, seq_len=8)
        # the first two windows were backpropagated before the third diverged
        assert grads_seen == [False, True, True]
        assert (trainer.step, trainer.tokens_seen, opt.step_count) == (1, 32, 1)
        for name, t in named.items():
            data, m, v = before[name]
            assert t.data.tobytes() == data.tobytes()
            assert opt.m[name].tobytes() == m.tobytes()
            assert opt.v[name].tobytes() == v.tobytes()
            assert t.grad is None

    def test_nonfinite_third_window_on_two_cpus(self, monkeypatch):
        # Windows 0 and 1 are built at once, before any grad lands; a later
        # window is built only after window 0's grads landed.
        use_cpus(monkeypatch, 2)
        real_batch_loss = pretrain_module.batch_loss
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                trainer, cfg, params = make_trainer()
                batch = fixed_batch(cfg, n=4)
                trainer.train_step(batch, seq_len=8)
                named = params.named_tensors()
                opt = trainer.opt
                before = {n: (t.data.copy(), opt.m[n].copy(), opt.v[n].copy())
                          for n, t in named.items()}
                built = {}

                def third_window_diverges(params, config, examples):
                    (window,) = examples
                    i = next(k for k, w in enumerate(batch) if w is window)
                    built[i] = all(t.grad is not None for t in named.values())
                    loss = real_batch_loss(params, config, examples)
                    return mul(loss, np.nan) if i == 2 else loss

                monkeypatch.setattr(pretrain_module, "batch_loss", third_window_diverges)
                with pytest.raises(TrainingDiverged, match="step 1: loss is nan"):
                    trainer.train_step(batch, seq_len=8)
                monkeypatch.setattr(pretrain_module, "batch_loss", real_batch_loss)
                assert built[0] is False and built[1] is False
                assert built[2] is True and built.get(3, True) is True
                assert (trainer.step, trainer.tokens_seen, opt.step_count) == (1, 32, 1)
                for name, t in named.items():
                    data, m, v = before[name]
                    assert t.data.tobytes() == data.tobytes()
                    assert opt.m[name].tobytes() == m.tobytes()
                    assert opt.v[name].tobytes() == v.tobytes()
                    assert t.grad is None
        finally:
            sys.setswitchinterval(interval)

    def test_fp8_step_runs_and_is_finite(self):
        trainer, cfg, _ = make_trainer(fp8=True)
        batch = fixed_batch(cfg)
        for _ in range(3):
            record = trainer.train_step(batch, seq_len=8)
            assert np.isfinite(record["train_loss"])


class TestOptimize:
    def scalar_param(self, value):
        p = Tensor(np.array([value]), requires_grad=True)
        return p, AdamW({"p": p}, OptimHyper(weight_decay=0.0))

    def test_step_returns_loss_and_clears_grads(self):
        p, opt = self.scalar_param(2.0)
        assert optimize([lambda _: tsum(mul(p, 3.0))], opt, lr=0.1) == 6.0
        assert p.grad is None and opt.step_count == 1
        assert p.data[0] == pytest.approx(1.9, abs=1e-8)  # clipped to norm 1

    def test_nonfinite_loss_changes_nothing(self):
        p, opt = self.scalar_param(2.0)
        with pytest.raises(TrainingDiverged):
            optimize([lambda _: tsum(mul(p, np.inf))], opt, lr=0.1)
        assert p.grad is None and opt.step_count == 0 and p.data[0] == 2.0
        assert opt.m["p"][0] == 0.0 and opt.v["p"][0] == 0.0

    def test_parts_run_concurrently_each_once(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        p, opt = self.scalar_param(2.0)
        meet = threading.Barrier(2, timeout=10)  # breaks unless parts 0 and 1 run at once
        built = []

        def part(i, _):
            built.append(i)
            if i < 2:
                meet.wait()
            return tsum(mul(p, float(i + 1)))

        start = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loss = optimize([partial(part, i) for i in range(8)], opt, lr=0.1)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(built) == list(range(8))
        assert loss == 2.0 * 36 / 8 and opt.step_count == 1 and p.grad is None
        assert threading.active_count() == start

    def test_folds_in_part_order_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as possible: a fold
        # out of order, or a lost one, moves the rounded sum of the grads
        coeffs = np.random.default_rng(13).normal(size=(64, 3)) * 10.0 ** np.arange(-4, 5, 3)
        grads = {}
        for cpus in (1, 8):
            use_cpus(monkeypatch, cpus)
            p = Tensor(np.zeros(3), requires_grad=True)
            opt = AdamW({"p": p}, OptimHyper(weight_decay=0.0))
            grads[cpus] = capture_step_grads(monkeypatch)
            parts = [partial(lambda c, _: tsum(mul(p, c)), c) for c in coeffs]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with pytest.raises(StepGrads):
                    optimize(parts, opt, lr=0.1)
            finally:
                sys.setswitchinterval(interval)
        want = np.zeros(3)
        for c in coeffs:  # ((g0 + g1) + g2) + ...
            want = want + c * (1.0 / len(coeffs))
        assert grads[8][0].tobytes() == grads[1][0].tobytes() == want.tobytes()

    def test_first_nonfinite_part_in_order_diverges(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        p, opt = self.scalar_param(2.0)
        optimize([lambda _: tsum(mul(p, 3.0))], opt, lr=0.1)  # nonzero moments
        before = (p.data.copy(), opt.m["p"].copy(), opt.v["p"].copy())

        def part(i, _):
            if i == 1:  # fails after part 2, which fails at once
                time.sleep(0.02)
                return tsum(mul(p, np.inf))
            return tsum(mul(p, np.nan if i == 2 else 1.0))

        start = threading.active_count()
        with pytest.raises(TrainingDiverged, match="step 1: loss is inf"):
            optimize([partial(part, i) for i in range(6)], opt, lr=0.1)
        assert threading.active_count() == start
        assert opt.step_count == 1 and p.grad is None
        for got, want in zip((p.data, opt.m["p"], opt.v["p"]), before):
            assert got.tobytes() == want.tobytes()

    def test_nonfinite_gradient_norm_clears_grads(self):
        p, opt = self.scalar_param(1.0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteGradError):
            optimize([lambda _: tsum(mul(p, 1e308))], opt, lr=0.1)
        assert p.grad is None and opt.step_count == 0 and p.data[0] == 1.0


class StepGrads(Exception):
    """Raised at the clip to stop a step once every micro-batch is backpropagated."""


def capture_step_grads(monkeypatch) -> list:
    """Make the next `optimize` record its accumulated gradients, in the
    optimizer's parameter order, and raise StepGrads before clipping."""
    grads = []

    def spy(arrays, max_norm):
        grads.extend(g.copy() for g in arrays)
        raise StepGrads

    monkeypatch.setattr(pretrain_module, "clip_grad_norm", spy)
    return grads


class TestAccumulation:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_window_grads_equal_whole_batch_bitwise(self, monkeypatch, dtype):
        cfg, params = tiny_model(seed=3, dtype=dtype, vocab_size=len(VOCAB))
        trainer, _, _ = make_trainer(params=params, cfg=cfg)
        batch = fixed_batch(cfg, n=4, seed=1)
        whole = batch_grads(params, cfg, batch)
        grads = capture_step_grads(monkeypatch)
        with pytest.raises(StepGrads):
            trainer.train_step(batch, seq_len=8)
        assert len(grads) == len(whole)
        for got, want in zip(grads, whole.values()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_step_memory_does_not_grow_with_the_batch(self, monkeypatch):
        # Each window's graph is freed before the next is built, so a
        # 4-window step peaks near a 1-window one; one graph over the
        # whole batch would peak at about 3x.
        use_cpus(monkeypatch, 1)
        cfg, params = tiny_model(seed=4, dtype="f32", hidden_size=64, intermediate_size=172,
                                 n_heads=8, n_kv_heads=2, vocab_size=len(VOCAB),
                                 max_context=128)
        trainer, _, _ = make_trainer(params=params, cfg=cfg)
        batch = fixed_batch(cfg, seq_len=128, n=4)
        trainer.train_step(batch[:1], seq_len=128)  # warm-up
        peaks = []
        tracemalloc.start()
        try:
            for n in (1, 4):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                trainer.train_step(batch[:n], seq_len=128)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]


    def test_step_memory_on_two_cpus(self, monkeypatch):
        # Two windows are in flight, each holding its own graph, so the
        # peak stays flat in the batch size and below twice the 1-CPU
        # peak. How much two graphs overlap in time varies from step to
        # step with thread scheduling (a single 2-window step peaks at
        # 60-100% of the worst case); an 8-window step has four pairs in
        # flight one after another, so the 2-window peak is taken over
        # 24 steps, enough to include the pairs that overlap most.
        cfg, params = tiny_model(seed=4, dtype="f32", hidden_size=64, intermediate_size=172,
                                 n_heads=8, n_kv_heads=2, vocab_size=len(VOCAB),
                                 max_context=128)
        trainer, _, _ = make_trainer(params=params, cfg=cfg)
        batch = fixed_batch(cfg, seq_len=128, n=8)
        trainer.train_step(batch[:1], seq_len=128)  # warm-up
        peaks = {}
        tracemalloc.start()
        try:
            for cpus, n, steps in ((1, 4, 1), (2, 2, 24), (2, 4, 1), (2, 8, 1)):
                use_cpus(monkeypatch, cpus)
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                for _ in range(steps):
                    trainer.train_step(batch[:n], seq_len=128)
                peaks[cpus, n] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peaks[2, 8] < 1.25 * peaks[2, 2]
        assert peaks[2, 4] < 2 * peaks[1, 4]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_window_grads_independent_of_the_cpu_count(self, monkeypatch, dtype):
        cfg, params = tiny_model(seed=3, dtype=dtype, vocab_size=len(VOCAB))
        trainer, _, _ = make_trainer(params=params, cfg=cfg)
        batch = fixed_batch(cfg, n=4, seed=1)
        grads = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            grads[cpus] = capture_step_grads(monkeypatch)
            with pytest.raises(StepGrads):
                trainer.train_step(batch, seq_len=8)
        assert len(grads[1]) == len(params.named_tensors())
        for got, want in zip(grads[2], grads[1]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRunLoop:
    def test_seq_len_staircase(self):
        stages = [stage(seq_len=4, budget=64), stage(seq_len=8, budget=64)]
        trainer, _, _ = make_trainer(stages=stages)
        records = trainer.run()
        seq_lens = [r["seq_len"] for r in records]
        assert seq_lens == [4] * 8 + [8] * 4
        assert records[-1]["tokens_seen"] == 128
        assert all(a <= b for a, b in zip(seq_lens, seq_lens[1:]))

    def test_budget_terminates_run(self):
        trainer, _, _ = make_trainer(stages=[stage(seq_len=8, budget=32)])
        records = trainer.run()
        assert len(records) == 2
        assert records[-1]["tokens_seen"] == 32

    def test_log_file_and_schema(self, tmp_path):
        log = tmp_path / "train.jsonl"
        trainer, _, _ = make_trainer(stages=[stage(seq_len=8, budget=48)],
                                     log_path=log)
        records = trainer.run()
        lines = log.read_text().splitlines()
        assert [json.loads(line) for line in lines] == records
        for i, r in enumerate(records):
            assert set(r) == {"step", "tokens_seen", "lr", "seq_len", "train_loss"}
            assert r["step"] == i + 1

    def test_validation_logged_at_interval(self):
        trainer, _, _ = make_trainer(stages=[stage(seq_len=8, budget=96)],
                                     val=True, val_every=2)
        records = trainer.run()
        for r in records:
            if r["step"] % 2 == 0:
                assert "val_loss" in r and np.isfinite(r["val_loss"])
            else:
                assert "val_loss" not in r

    def test_fp8_validation_rounds_each_weight_once(self, monkeypatch):
        trainer, _, params = make_trainer(val=True, fp8=True, batch_sequences=4, val_batches=1)
        trainer._enter_stage(0, trainer.plan.stages[0])
        assert len(trainer._val_set) == 4
        rounded = count_roundings(monkeypatch)
        assert np.isfinite(trainer._val_loss())
        counts = weight_roundings(rounded, params)
        assert len(counts) == 14 and set(counts.values()) == {1}

    def test_val_loss_independent_of_the_cpu_count(self, monkeypatch):
        # the validation windows are scored concurrently, and summed in order
        cfg, params = tiny_model(seed=3, dtype="f32", vocab_size=len(VOCAB))
        trainer, _, _ = make_trainer(params, cfg, val=True, batch_sequences=4, val_batches=1)
        trainer._enter_stage(0, trainer.plan.stages[0])
        losses = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            losses[cpus] = trainer._val_loss()
        assert losses[1].hex() == losses[2].hex()

    def test_fp8_step_rounds_each_weight_once_per_step(self, monkeypatch):
        # the step's weights are built once, and its three windows read them
        trainer, cfg, params = make_trainer(fp8=True)
        rounded = count_roundings(monkeypatch)
        trainer.train_step(fixed_batch(cfg, n=3), 8)
        counts = weight_roundings(rounded, params)
        assert len(counts) == 14 and set(counts.values()) == {1}

    def test_rerun_is_bitwise_identical(self):
        runs = []
        for _ in range(2):
            trainer, _, _ = make_trainer(stages=[stage(seq_len=8, budget=64)],
                                         val=True, val_every=3)
            runs.append(trainer.run())
        assert runs[0] == runs[1]

    def test_step_cap(self):
        trainer, _, _ = make_trainer(max_steps=3)
        assert len(trainer.run()) == 3

    def test_finished_trainer_freed_without_cycle_collector(self):
        # Optimizer state must go when the last reference does, not at the
        # next full garbage collection.
        trainer, _, _ = make_trainer(max_steps=2, val=True, val_every=1)
        trainer.run()
        state = weakref.ref(trainer.opt)
        gc.disable()
        try:
            del trainer
            assert state() is None
        finally:
            gc.enable()


class TestShardEquivalence:
    def test_shard_means_match_whole_batch(self):
        cfg, params = tiny_model(seed=1, vocab_size=64)
        batch = fixed_batch(cfg, seq_len=8, n=4, seed=2)
        assert shard_gradient_gap(params, cfg, batch, k=1) == 0.0
        assert shard_gradient_gap(params, cfg, batch, k=2) < 1e-10
        assert shard_gradient_gap(params, cfg, batch, k=4) < 1e-10

    def test_indivisible_batch_rejected(self):
        cfg, params = tiny_model(seed=1, vocab_size=64)
        with pytest.raises(ValueError):
            shard_gradient_gap(params, cfg, fixed_batch(cfg, n=3), k=2)

    def test_batch_grads_leaves_grads_clear(self):
        cfg, params = tiny_model(seed=3, vocab_size=64)
        grads = batch_grads(params, cfg, fixed_batch(cfg))
        assert set(grads) == set(params.named_tensors())
        assert all(t.grad is None for t in params.named_tensors().values())

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_batch_grads_independent_of_the_cpu_count(self, monkeypatch, dtype):
        cfg, params = tiny_model(seed=3, dtype=dtype, vocab_size=64)
        batch = fixed_batch(cfg, n=4, seed=1)
        grads = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            grads[cpus] = batch_grads(params, cfg, batch)
        for name, want in grads[1].items():
            got = grads[2][name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestWiring:
    def test_no_decay_covers_exactly_norms(self):
        cfg, params = tiny_model(seed=0, vocab_size=64)
        names = params.norm_names()
        assert "final_norm" in names
        assert "layers.0.norm_attn" in names
        assert "layers.1.norm_mlp" in names
        assert all("norm" in n for n in names)
        assert "token_embedding" not in names
        assert len(names) == 2 * cfg.n_layers + 1

    def test_trainer_does_not_decay_the_norm_names(self):
        trainer, _, params = make_trainer()
        assert trainer.opt.no_decay == frozenset(params.norm_names())

    def test_vocab_without_eos_rejected(self):
        cfg, params = tiny_model(seed=0, vocab_size=300)
        plan = TrainPlan(stages=[stage()], schedule=LrSchedule(1000, 1e6))
        with pytest.raises(ConfigError):
            Trainer(params, cfg, plan, make_sources(),
                    byte_fallback_vocab(specials=False))

    def test_vocab_larger_than_model_rejected(self):
        cfg, params = tiny_model(seed=0, vocab_size=64)
        plan = TrainPlan(stages=[stage()], schedule=LrSchedule(1000, 1e6))
        with pytest.raises(ConfigError):
            Trainer(params, cfg, plan, make_sources(), VOCAB)

    def test_plan_validation(self):
        sched = LrSchedule(1000, 1e6)
        with pytest.raises(ConfigError):
            TrainPlan(stages=[], schedule=sched)
        with pytest.raises(ConfigError):
            TrainPlan(stages=[stage()], schedule=sched, batch_sequences=0)
        with pytest.raises(ConfigError):
            TrainPlan(stages=[stage()], schedule=sched, val_every=0)
        for kwargs in ({"max_steps": 0}, {"max_steps": -3}, {"val_batches": 0}):
            with pytest.raises(ConfigError, match=f"^{next(iter(kwargs))}: expected an int >= 1"):
                TrainPlan(stages=[stage()], schedule=sched, **kwargs)

    def test_batch_loss_matches_manual_mean(self):
        cfg, params = tiny_model(seed=4, vocab_size=64)
        batch = fixed_batch(cfg, n=3, seed=5)
        from deskllm.model import forward
        from deskllm.tensor import cross_entropy
        manual = np.mean([cross_entropy(forward(params, w, cfg), t).item()
                          for w, t in batch])
        assert batch_loss(params, cfg, batch).item() == pytest.approx(manual, rel=1e-12)
