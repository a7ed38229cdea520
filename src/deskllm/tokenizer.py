"""Token tables, merge-queue BPE encoding, vocab files, and embedding transplant.

A vocabulary is an immutable list of byte-string tokens (line number =
id in the file format) with optional special ids and an optional merge
table. A 256-token byte-level fallback ships so every pipeline stage
runs without external vocabulary files; external BPE vocabularies are
loaded, never trained here.

`encode` applies the merge table with a min-heap of (rank, position)
entries over a linked list of symbols: it takes every entry of the
lowest rank, merges those pairs left to right, skips stale entries,
and only then looks at the pairs the merges created. That is O(n log n)
per document of n bytes.
"""

from __future__ import annotations

import base64
import binascii
import heapq
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .tensor import Tensor


class Vocab:
    """Immutable token table with optional specials and BPE merge ranks."""

    def __init__(self, id_to_token: Sequence[bytes], bos_id: int | None = None,
                 eos_id: int | None = None, pad_id: int | None = None,
                 merges: Iterable[tuple[bytes, bytes]] = ()):
        self.id_to_token: list[bytes] = [bytes(t) for t in id_to_token]
        self.token_to_id: dict[bytes, int] = {}
        for i, tok in enumerate(self.id_to_token):
            if tok in self.token_to_id:
                raise ValueError(
                    f"duplicate token {tok!r} at ids {self.token_to_id[tok]} and {i}")
            self.token_to_id[tok] = i
        size = len(self.id_to_token)
        for name, sid in (("bos_id", bos_id), ("eos_id", eos_id), ("pad_id", pad_id)):
            if sid is not None and not 0 <= sid < size:
                raise ValueError(f"{name} {sid} out of range for vocab size {size}")
        self.bos_id = bos_id
        self.eos_id = eos_id
        self.pad_id = pad_id
        self.merges: list[tuple[bytes, bytes]] = [(bytes(l), bytes(r)) for l, r in merges]
        self.merge_ranks: dict[tuple[bytes, bytes], int] = {}
        for rank, (left, right) in enumerate(self.merges):
            for part in (left, right, left + right):
                if part not in self.token_to_id:
                    raise ValueError(
                        f"merge {left!r}+{right!r} references token {part!r} not in vocab")
            self.merge_ranks.setdefault((left, right), rank)

    def __len__(self) -> int:
        return len(self.id_to_token)


def byte_fallback_vocab(specials: bool = True) -> Vocab:
    """256 single-byte tokens, optionally followed by bos/eos/pad markers."""
    tokens = [bytes([i]) for i in range(256)]
    if specials:
        tokens += [b"<|bos|>", b"<|eos|>", b"<|pad|>"]
        return Vocab(tokens, bos_id=256, eos_id=257, pad_id=258)
    return Vocab(tokens)


def encode(text: str | bytes, vocab: Vocab) -> list[int]:
    """BPE from single bytes by a rank-ordered merge queue.

    A min-heap holds (rank, position) for every adjacent pair of the
    linked list of symbols that has a merge rank. Each round pops every
    entry of the lowest rank r, then applies them in position order:
    that merges all occurrences of the pair, left to right, so a run
    "aaa" under (a, a) becomes aa, a. An entry whose left symbol was
    merged away, or whose pair no longer has rank r, is stale and
    skipped. The pairs a merge creates are pushed and popped only in
    later rounds, even those of rank below r; a merge never creates a
    pair of rank r itself. Each merge pushes at most two entries, so a
    document of n bytes costs O(n log n). With no merge table this is
    plain byte-level encoding.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    symbols: list[bytes | None] = [bytes([b]) for b in text]  # None: merged away
    ranks = vocab.merge_ranks
    n = len(symbols)
    if n > 1 and ranks:
        nxt = list(range(1, n + 1))  # n: no right neighbour
        prv = list(range(-1, n - 1))  # -1: no left neighbour
        heap = [(rank, i) for i, pair in enumerate(zip(symbols, symbols[1:]))
                if (rank := ranks.get(pair)) is not None]
        heapq.heapify(heap)
        while heap:
            rank = heap[0][0]
            batch = []  # pops in position order
            while heap and heap[0][0] == rank:
                batch.append(heapq.heappop(heap)[1])
            for i in batch:
                left = symbols[i]
                j = nxt[i]
                if left is None or j == n or ranks.get((left, symbols[j])) != rank:
                    continue
                merged = symbols[i] = left + symbols[j]
                symbols[j] = None
                k = nxt[i] = nxt[j]
                if k < n:
                    prv[k] = i
                    new_rank = ranks.get((merged, symbols[k]))
                    if new_rank is not None:
                        heapq.heappush(heap, (new_rank, i))
                h = prv[i]
                if h >= 0:
                    new_rank = ranks.get((symbols[h], merged))
                    if new_rank is not None:
                        heapq.heappush(heap, (new_rank, h))
    try:
        return [vocab.token_to_id[s] for s in symbols if s is not None]
    except KeyError as exc:
        raise ValueError(f"token {exc.args[0]!r} not in vocabulary") from None


def decode(ids: Iterable[int], vocab: Vocab) -> bytes:
    out = []
    size = len(vocab)
    for i in ids:
        i = int(i)
        if not 0 <= i < size:
            raise ValueError(f"token id {i} out of range for vocab size {size}")
        out.append(vocab.id_to_token[i])
    return b"".join(out)


# ---------------------------------------------------------------------------
# file format: one base64 token per line, line number = id

def save_vocab(vocab: Vocab, path) -> None:
    lines = [base64.b64encode(tok).decode("ascii") for tok in vocab.id_to_token]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _b64(path, lineno: int, field: str) -> bytes:
    try:
        return base64.b64decode(field, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{path}:{lineno}: {field!r} is not base64: {exc}") from exc


def load_vocab(path, merges_path=None, bos_id: int | None = None,
               eos_id: int | None = None, pad_id: int | None = None) -> Vocab:
    """One base64 token per line; an empty line is the empty token. Lines
    end at "\\n" only, not at the \\v, \\f or \\x1c-\\x1e of `str.splitlines`.
    A line that is not base64, or that repeats an earlier line's token,
    raises ValueError "<path>:<line>: ..."."""
    lines = Path(path).read_text(encoding="ascii").split("\n")
    lines = lines[:-1] if lines[-1] == "" else lines  # the field after a final "\n"
    tokens = [_b64(path, lineno, line) for lineno, line in enumerate(lines, start=1)]
    first_line: dict[bytes, int] = {}
    for lineno, token in enumerate(tokens, start=1):
        if first_line.setdefault(token, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: duplicate token {token!r}, "
                             f"first at line {first_line[token]}")
    merges = load_merges(merges_path) if merges_path is not None else ()
    return Vocab(tokens, bos_id=bos_id, eos_id=eos_id, pad_id=pad_id, merges=merges)


def save_merges(merges: Iterable[tuple[bytes, bytes]], path) -> None:
    lines = [base64.b64encode(l).decode("ascii") + " " + base64.b64encode(r).decode("ascii")
             for l, r in merges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_merges(path) -> list[tuple[bytes, bytes]]:
    """One "left right" pair of base64 fields per non-empty line, split on
    "\\n" only. Any other line raises ValueError "<path>:<line>: ..."."""
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").split("\n"), start=1):
        if not line:
            continue
        fields = line.split(" ")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two base64 fields split by one space, "
                             f"got {line!r}")
        out.append((_b64(path, lineno, fields[0]), _b64(path, lineno, fields[1])))
    return out


# ---------------------------------------------------------------------------
# embedding transplant across vocabularies

def remap_embeddings(old_vocab: Vocab, new_vocab: Vocab, old_embedding: Tensor,
                     old_head: Tensor, init_std: float = 0.02,
                     seed: int = 0) -> tuple[Tensor, Tensor, int]:
    """Carry embedding rows and head columns over to a new vocabulary.

    Tokens present in both vocabularies (exact byte-string equality) keep
    their old vectors bit for bit; tokens only in the new vocabulary get
    normal(0, init_std) draws from the seeded generator. Returns
    (new_embedding, new_head, matched_count).
    """
    emb = old_embedding.data
    head = old_head.data
    if emb.ndim != 2 or emb.shape[0] != len(old_vocab):
        raise ValueError(
            f"embedding shape {emb.shape} does not match old vocab size {len(old_vocab)}")
    if head.ndim != 2 or head.shape[1] != len(old_vocab):
        raise ValueError(
            f"head shape {head.shape} does not match old vocab size {len(old_vocab)}")
    if emb.shape[1] != head.shape[0]:
        raise ValueError(f"hidden extents differ: embedding {emb.shape}, head {head.shape}")
    hidden = emb.shape[1]
    rng = np.random.default_rng(seed)
    new_emb = rng.normal(0.0, init_std, size=(len(new_vocab), hidden)).astype(emb.dtype)
    new_head = rng.normal(0.0, init_std, size=(hidden, len(new_vocab))).astype(head.dtype)
    matched = 0
    for tok, new_id in new_vocab.token_to_id.items():
        old_id = old_vocab.token_to_id.get(tok)
        if old_id is not None:
            new_emb[new_id] = emb[old_id]
            new_head[:, new_id] = head[:, old_id]
            matched += 1
    return (Tensor(new_emb, requires_grad=old_embedding.requires_grad),
            Tensor(new_head, requires_grad=old_head.requires_grad), matched)
