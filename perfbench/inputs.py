"""Seeded input generators for the deskllm benchmark.

Every input a workload feeds to deskllm is built here from the run's
seed: the two-source pretraining corpus, the BPE merges derived from it
by pair counting, chat conversations, preference pairs, multiple-choice
tasks and decode prompts. The same seed gives the same inputs; deskllm
only ever sees the generated values.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_OPS = ("+", "-", "*")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named input stream."""
    key = [int(seed)] + [ord(c) for c in stream]
    return np.random.default_rng(np.random.SeedSequence(key))


def word_pool(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct pronounceable words of 1-4 syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        syllables = rng.integers(1, 5)
        w = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
                    for _ in range(syllables))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def _sentence(rng, words, weights, lo: int, hi: int) -> str:
    idx = rng.choice(len(words), size=int(rng.integers(lo, hi + 1)), p=weights)
    text = " ".join(words[i] for i in idx)
    return text[0].upper() + text[1:] + "."


def text_of_bytes(rng, words, weights, n_bytes: int) -> str:
    """Capitalized words cut to exactly n_bytes, ending in a period.

    Fixed byte lengths keep a workload's work the same for every seed;
    the seed only changes which words appear.
    """
    parts: list[str] = []
    size = 0
    while size < n_bytes:
        w = words[rng.choice(len(words), p=weights)]
        parts.append(w)
        size += len(w) + 1
    text = " ".join(parts)
    return text[0].upper() + text[1:n_bytes - 1] + "."


def web_doc(rng, words, weights, target_bytes: int) -> str:
    parts: list[str] = []
    size = 0
    while size < target_bytes:
        s = _sentence(rng, words, weights, 5, 14)
        parts.append(s)
        size += len(s) + 1
    return " ".join(parts)[:target_bytes]


def code_doc(rng, words, weights, target_bytes: int) -> str:
    lines: list[str] = []
    size = 0
    while size < target_bytes:
        name = words[rng.choice(len(words), p=weights)]
        a, b = (words[i] for i in rng.choice(len(words), size=2, p=weights))
        op = _OPS[rng.integers(len(_OPS))]
        block = (f"def {name}_{rng.integers(10)}({a}, {b}):\n"
                 f"    return {a} {op} {rng.integers(1, 100)} * {b}\n")
        lines.append(block)
        size += len(block)
    return "".join(lines)[:target_bytes]


def corpus(seed: int, n_web: int, n_code: int, stream: str = "corpus"
           ) -> dict[str, list[str]]:
    """Two sources of documents of 200-600 bytes: prose and code.

    Target lengths follow the document index, not the seed.
    """
    rng = rng_for(seed, stream)
    words = word_pool(rng_for(seed, "words"), 400)
    weights = _zipf_weights(len(words))
    return {
        "web": [web_doc(rng, words, weights, 200 + (97 * i) % 400) for i in range(n_web)],
        "code": [code_doc(rng, words, weights, 200 + (89 * i) % 400) for i in range(n_code)],
    }


def derive_merges(texts, n_merges: int) -> list[tuple[bytes, bytes]]:
    """Byte-pair merges by repeated most-frequent-pair counting.

    Words (with their leading space) are the counting unit; ties break
    on the pair bytes so the result is a pure function of the texts.
    """
    counts: Counter[bytes] = Counter()
    for text in texts:
        counts.update(re.findall(rb" ?[^ ]+", text.encode("utf-8")))
    words = [[bytes([b]) for b in w] for w in counts]
    freq = list(counts.values())
    pairs: Counter[tuple[bytes, bytes]] = Counter()
    for symbols, c in zip(words, freq):
        for pair in zip(symbols, symbols[1:]):
            pairs[pair] += c
    merges: list[tuple[bytes, bytes]] = []
    while len(merges) < n_merges:
        pairs = +pairs  # drop pairs whose count fell to zero
        if not pairs:
            break
        best = max(pairs.items(), key=lambda kv: (kv[1], kv[0]))[0]
        merges.append(best)
        left, right = best
        merged = left + right
        for w, symbols in enumerate(words):
            if left not in symbols or best not in zip(symbols, symbols[1:]):
                continue
            c = freq[w]
            for pair in zip(symbols, symbols[1:]):
                pairs[pair] -= c
            out: list[bytes] = []
            i = 0
            while i < len(symbols):
                if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            words[w] = out
            for pair in zip(out, out[1:]):
                pairs[pair] += c
    return merges


def conversations(seed: int, n: int) -> list[list[tuple[str, str]]]:
    """Two-turn (user, assistant) conversations of varied short lengths.

    Turn i is 16-56 bytes from the user and 24-96 from the assistant,
    by index, so every seed gives the same lengths.
    """
    rng = rng_for(seed, "chat")
    words = word_pool(rng_for(seed, "words"), 400)
    weights = _zipf_weights(len(words))
    return [[("user", text_of_bytes(rng, words, weights, 16 + 8 * (i % 6))),
             ("assistant", text_of_bytes(rng, words, weights, 24 + 12 * (i % 7)))]
            for i in range(n)]


def preference_pairs(seed: int, n: int) -> list[tuple[str, str, str]]:
    """(user prompt, chosen, rejected) with distinct responses of varied length.

    Lengths follow the pair index, as in `conversations`.
    """
    rng = rng_for(seed, "pairs")
    words = word_pool(rng_for(seed, "words"), 400)
    weights = _zipf_weights(len(words))
    out = []
    for i in range(n):
        prompt = text_of_bytes(rng, words, weights, 16 + 8 * (i % 5))
        chosen = rejected = ""
        while chosen == rejected:
            chosen = text_of_bytes(rng, words, weights, 20 + 10 * (i % 6))
            rejected = text_of_bytes(rng, words, weights, 20 + 10 * ((i + 3) % 6))
        out.append((prompt, chosen, rejected))
    return out


def mc_tasks(seed: int, n: int, n_choices: int = 4, n_exemplars: int = 6
             ) -> list[tuple[str, tuple[str, ...], int, tuple[tuple[str, str], ...]]]:
    """(question, choices, gold, exemplars) records for few-shot scoring."""
    rng = rng_for(seed, "mc")
    words = word_pool(rng_for(seed, "words"), 400)
    weights = _zipf_weights(len(words))

    def question() -> str:
        return "Question: " + text_of_bytes(rng, words, weights, 32)

    def answer(n_bytes: int) -> str:
        return "Answer: " + text_of_bytes(rng, words, weights, n_bytes)

    out = []
    for _ in range(n):
        exemplars = tuple((question(), answer(12)) for _ in range(n_exemplars))
        choices: list[str] = []
        while len(choices) < n_choices:
            c = answer(8 + 4 * len(choices))
            if c not in choices:
                choices.append(c)
        out.append((question(), tuple(choices), int(rng.integers(n_choices)), exemplars))
    return out


def token_windows(token_docs: list[list[int]], n: int, length: int, seed: int,
                  stream: str) -> list[np.ndarray]:
    """n slices of `length` ids cut at seeded offsets of the joined docs."""
    flat = np.concatenate([np.asarray(d, dtype=np.int64) for d in token_docs])
    if flat.size <= length:
        raise ValueError(f"need more than {length} tokens, have {flat.size}")
    rng = rng_for(seed, stream)
    starts = rng.integers(0, flat.size - length, size=n)
    return [flat[s:s + length].copy() for s in starts]
