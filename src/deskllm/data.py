"""Token-stream construction: quality filtering, stage mixing, and packing.

A corpus is a stream of (text, source) documents. Stages declare a token
budget, a source-mix distribution, and a training sequence length; the
same stage type expresses both the four-stage sequence-length curriculum
and the three-stage web-share schedule. The whole pipeline is a pure
function of (corpus, config, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import POSITIVE, ConfigError, check, count, is_number
from .tensor import IGNORE_INDEX


@dataclass(frozen=True)
class Document:
    text: str
    source: str


@dataclass(frozen=True)
class DataStage:
    token_budget: float
    mix: Mapping[str, float]
    seq_len: int

    def __post_init__(self):
        check(self, token_budget=POSITIVE, seq_len=count(2),
              mix=(lambda m: isinstance(m, Mapping) and len(m) > 0
                   and all(is_number(p) and 0 <= p <= 1 for p in m.values()),
                   "a non-empty map from source to a proportion in [0, 1]"))
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mix: proportions must sum to 1, got {total}")


def curriculum_stages() -> list[DataStage]:
    """Four-stage sequence-length curriculum over a 1T-token budget.

    700B tokens at 2048, then 100B each at 4096, 8192, and 16384.
    """
    mix = {"web": 1.0}
    return [
        DataStage(token_budget=700e9, mix=mix, seq_len=2048),
        DataStage(token_budget=100e9, mix=mix, seq_len=4096),
        DataStage(token_budget=100e9, mix=mix, seq_len=8192),
        DataStage(token_budget=100e9, mix=mix, seq_len=16384),
    ]


def web_share_stages() -> list[DataStage]:
    """Three data-mix stages with declining web share: 84.5%, 72.8%, 55.5%.

    Budgets are 1T, 0.95T, and 0.05T tokens; non-web categories are
    folded into a single "other" bucket. All three run at length 8192.
    """
    shares = [(1e12, 0.845), (0.95e12, 0.728), (0.05e12, 0.555)]
    return [DataStage(token_budget=budget, mix={"web": share, "other": 1.0 - share},
                      seq_len=8192)
            for budget, share in shares]


def stage_index(tokens_seen: float, stages: Sequence[DataStage]) -> int:
    """Index of the stage whose half-open cumulative interval [start, end)
    holds tokens_seen.

    Past the final budget the last stage stays active.
    """
    if not stages:
        raise ValueError("stages must be nonempty")
    if tokens_seen < 0:
        raise ValueError(f"tokens_seen must be >= 0, got {tokens_seen}")
    end = 0.0
    for i, stage in enumerate(stages):
        end += stage.token_budget
        if tokens_seen < end:
            return i
    return len(stages) - 1


def curriculum_schedule(tokens_seen: float, stages: Sequence[DataStage]) -> DataStage:
    """The stage `stage_index` picks."""
    return stages[stage_index(tokens_seen, stages)]


# ---------------------------------------------------------------------------
# quality filtering

@dataclass(frozen=True)
class HeuristicScorer:
    """Mean of three features: alphabetic fraction, 8-gram uniqueness, length flag.

    Uniqueness is distinct/total character 8-grams (1.0 when the text is
    too short to have any); the length flag is 1.0 iff len(text) lies in
    [min_len, max_len]. All three land in [0, 1], so the score does too.
    """
    threshold: float = 0.5
    min_len: int = 50
    max_len: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "threshold", min(max(self.threshold, 0.0), 1.0))
        if not 0 <= self.min_len <= self.max_len:
            raise ConfigError(f"need 0 <= min_len <= max_len, got {self.min_len}, {self.max_len}")

    def score(self, text: str) -> float:
        n = len(text)
        alpha = sum(ch.isalpha() for ch in text) / n if n else 0.0
        grams = [text[i:i + 8] for i in range(n - 7)]
        unique = len(set(grams)) / len(grams) if grams else 1.0
        in_range = 1.0 if self.min_len <= n <= self.max_len else 0.0
        return (alpha + unique + in_range) / 3.0


def quality_filter(docs: Iterable[Document], scorer) -> Iterator[Document]:
    """Documents whose score meets the (clamped) threshold, original order."""
    threshold = min(max(scorer.threshold, 0.0), 1.0)
    for doc in docs:
        if scorer.score(doc.text) >= threshold:
            yield doc


# ---------------------------------------------------------------------------
# stage mixing

def sample_mix(stage: DataStage, sources: Mapping[str, Sequence[Document]],
               seed: int) -> Iterator[Document]:
    """Endless stream whose per-document source is i.i.d. from the stage mix.

    Exhausted sources recycle from their start. Deterministic under seed
    regardless of mapping insertion order.
    """
    names = sorted(stage.mix)
    for name in names:
        if name not in sources:
            raise ConfigError(f"mix source {name!r} has no document stream")
        if stage.mix[name] > 0.0 and len(sources[name]) == 0:
            raise ConfigError(f"mix source {name!r} has positive share but no documents")
    probs = np.array([stage.mix[name] for name in names])
    cum = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    positions = {name: 0 for name in names}

    def stream() -> Iterator[Document]:
        while True:
            idx = min(int(np.searchsorted(cum, rng.random(), side="right")), len(names) - 1)
            name = names[idx]
            docs = sources[name]
            yield docs[positions[name] % len(docs)]
            positions[name] += 1

    return stream()


# ---------------------------------------------------------------------------
# packing

def pack_sequences(token_docs: Iterable[Sequence[int]], seq_len: int,
                   eos_id: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Concatenate docs (each followed by one eos) into seq_len windows.

    Yields (inputs, targets) pairs: targets are the window shifted left
    by one with the final position set to IGNORE_INDEX, so every window
    scores exactly seq_len - 1 positions. The trailing partial window is
    dropped.
    """
    if seq_len < 2:
        raise ValueError(f"seq_len must be >= 2, got {seq_len}")
    buf: list[int] = []
    for doc in token_docs:
        buf.extend(int(t) for t in doc)
        buf.append(int(eos_id))
        for lo in range(0, len(buf) - seq_len + 1, seq_len):
            window = np.array(buf[lo:lo + seq_len], dtype=np.int64)
            yield window, np.append(window[1:], IGNORE_INDEX)
        del buf[:len(buf) - len(buf) % seq_len]  # once per doc: linear in its length


# ---------------------------------------------------------------------------
# record files: newline-delimited JSON, one value per line. Corpus,
# conversation, preference, task and eval result files all use this pair.

def read_jsonl(path, record: Callable[[dict], Any] | None = None) -> list:
    """The JSON value on each non-blank line, split on "\\n" only so that
    U+2028, U+2029 and U+0085 stay inside their record; `read_text` has
    already turned CRLF and CR into "\\n".

    With `record`, each value must be a JSON object and the list holds
    `record(obj)`. A line that does not parse, or that `record` rejects
    with KeyError, TypeError or ValueError, raises ValueError
    "<path>:<line>: <why>" with the 1-based line number.
    """
    text = Path(path).read_text(encoding="utf-8")
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if record is not None:
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                obj = record(obj)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON at column {exc.colno}: "
                             f"{exc.msg}") from exc
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        out.append(obj)
    return out


def write_jsonl(objects: Iterable, path) -> None:
    """Each value as unescaped-UTF-8 JSON on its own "\\n"-terminated line."""
    Path(path).write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n"
                                  for obj in objects), encoding="utf-8")


def load_corpus(path) -> list[Document]:
    """Corpus records {"text", "source"}."""
    return read_jsonl(path, lambda obj: Document(text=obj["text"], source=obj["source"]))


def save_corpus(docs: Iterable[Document], path) -> None:
    write_jsonl(({"text": d.text, "source": d.source} for d in docs), path)
