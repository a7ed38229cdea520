"""Desk-scale decoder language model lab on numpy.

The package covers the full small-LLM lifecycle: a reverse-mode autograd
core (`tensor`), a grouped-query sliding-window decoder (`model`), 8-bit
matmul emulation (`fp8`), AdamW with a token-denominated cosine schedule
(`optim`), byte-fallback BPE with vocabulary remapping (`tokenizer`),
corpus filtering / stage mixes / packing (`data`), the staged pre-training
loop (`pretrain`), chat templating and supervised fine-tuning (`chat`),
preference tuning with low-rank adapters (`dpo`), evaluation and decoding
(`evals`), binary checkpoints (`checkpoint`), and a config-driven command
line (`runconfig`, `cli`).
"""

from .checkpoint import (Checkpoint, inspect_checkpoint, load_checkpoint,
                         load_model, save_checkpoint, save_model_checkpoint)
from .chat import Conversation, SftPlan, Turn, render_chat, run_sft, sft_loss
from .data import DataStage, Document, curriculum_stages, pack_sequences, quality_filter
from .dpo import DpoPlan, DpoStage, dpo_loss, dpo_train, init_lora_adapters, lora_merge
from .errors import ConfigError
from .evals import generate, generate_text, mc_score, perplexity
from .fp8 import fp8_e4m3
from .model import LoraAdapter, ModelConfig, ModelParams, count_params, forward, init_params
from .optim import AdamW, LrSchedule, OptimHyper, clip_grad_norm, cosine_lr
from .pretrain import TrainPlan, Trainer, batch_loss
from .runconfig import RunConfig, RunConfigError, load_run_config
from .tensor import Tensor, cross_entropy, no_grad
from .tokenizer import Vocab, byte_fallback_vocab, decode, encode, remap_embeddings

__version__ = "0.1.0"

__all__ = [
    "AdamW", "Checkpoint", "ConfigError", "Conversation", "DataStage",
    "Document", "DpoPlan", "DpoStage", "LoraAdapter", "LrSchedule",
    "ModelConfig", "ModelParams", "OptimHyper", "RunConfig",
    "RunConfigError", "SftPlan", "Tensor", "TrainPlan", "Trainer", "Turn",
    "Vocab", "batch_loss", "byte_fallback_vocab", "clip_grad_norm",
    "cosine_lr", "count_params",
    "cross_entropy", "curriculum_stages", "decode", "dpo_loss", "dpo_train",
    "encode", "forward", "fp8_e4m3", "generate", "generate_text",
    "init_lora_adapters", "init_params", "inspect_checkpoint",
    "load_checkpoint", "load_model", "load_run_config", "mc_score",
    "no_grad", "pack_sequences", "perplexity", "quality_filter",
    "remap_embeddings", "render_chat", "run_sft", "save_checkpoint",
    "save_model_checkpoint", "sft_loss",
]
