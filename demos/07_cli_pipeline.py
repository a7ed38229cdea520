"""The whole pipeline from one config file: pretrain to generation.

Builds a self-contained workspace (vocabulary, corpus, conversations,
preference records, task file, one JSON config), then drives the command
line through pretrain -> sft -> dpo -> eval -> generate. Every knob lives
in the config; the commands chain checkpoints by stage and leave logs,
checkpoints, and results under the run directory.
"""

import atexit
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from deskllm.chat import Conversation, Turn, chat_vocab, save_conversations
from deskllm.cli import main
from deskllm.data import Document, save_corpus, write_jsonl
from deskllm.tokenizer import save_vocab

base = Path(tempfile.mkdtemp(prefix="deskllm_demo_"))
atexit.register(shutil.rmtree, base, ignore_errors=True)
print(f"workspace: {base} (removed when the demo ends)\n")

save_vocab(chat_vocab(), base / "vocab.txt")

rng = np.random.default_rng(5)
words = ["alpha", "bravo", "carbon", "delta", "ember", "falcon"]
docs = [Document(" ".join(words[i] for i in rng.integers(0, 6, size=12)),
                 source) for source in ("web", "wiki") for _ in range(30)]
save_corpus(docs, base / "corpus.jsonl")
save_corpus(docs[:6] + docs[-6:], base / "val.jsonl")

save_conversations(
    [Conversation((Turn("user", f"say {w}"), Turn("assistant", w)))
     for w in words],
    base / "sft.jsonl")

write_jsonl(
    [{"lang": "en",
      "prompt_turns": [{"role": "user", "text": f"pick {a} or {b}"}],
      "answers": [{"text": a, "rank": 0}, {"text": b, "rank": 1}]}
     for a, b in (("calm", "loud"), ("warm", "cold"), ("soft", "hard"),
                  ("slow", "fast"))],
    base / "prefs.jsonl")

tasks = [
    {"question": "alpha or bravo", "choices": ["alpha", "bravo"], "gold": 0},
    {"question": "warm or cold", "choices": ["warm", "cold"], "gold": 1},
    {"question": "say ember", "answers": ["ember"]},
]
write_jsonl(tasks, base / "tasks.jsonl")

config = {
    "run_dir": "run",
    "seed": 0,
    "dtype": "f64",
    "model": {"hidden_size": 16, "intermediate_size": 32, "n_layers": 2,
              "n_heads": 2, "n_kv_heads": 1, "vocab_size": 263,
              "max_context": 64},
    "data": {"corpus": "corpus.jsonl", "val_corpus": "val.jsonl",
             "vocab": "vocab.txt", "bos_id": 256, "eos_id": 257,
             "pad_id": 258, "sft": "sft.jsonl",
             "preferences": "prefs.jsonl", "tasks": "tasks.jsonl"},
    "pretrain": {"stages": [{"token_budget": 1024, "seq_len": 32,
                             "mix": {"web": 0.5, "wiki": 0.5}}],
                 "warmup_tokens": 128, "peak_lr": 1e-3, "min_lr": 1e-4,
                 "batch_sequences": 2},
    "sft": {"lr": 1e-3, "batch_size": 2, "epochs": 1},
    "dpo": {"rank": 2, "batch_size": 2,
            "stages": [{"preferences": "prefs.jsonl", "lr": 1e-3}]},
    "eval": {"k_shot": 0, "seq_len": 32, "max_new": 4},
    "generate": {"prompt": "alpha bravo", "max_new": 12,
                 "temperature": 0.0, "repetition_penalty": 1.1},
}
config_path = base / "run.json"
config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

for command in ("pretrain", "sft", "dpo", "eval", "generate"):
    print(f"$ deskllm {command} --config run.json")
    code = main([command, "--config", str(config_path)])
    assert code == 0, f"{command} exited {code}"
    print()

print("$ deskllm inspect --checkpoint run/checkpoints/dpo.dkpt")
main(["inspect", "--checkpoint", str(base / "run/checkpoints/dpo.dkpt")])

print("\nrun directory:")
for path in sorted((base / "run").rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(base)}  ({path.stat().st_size} bytes)")
