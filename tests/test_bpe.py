"""The merge-queue `encode` against the rescan-per-merge oracle, id for id."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpe_oracle import reference_encode
from deskllm.tokenizer import Vocab, encode

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402

BYTES = [bytes([i]) for i in range(256)]


def bpe_vocab(merges) -> Vocab:
    """All 256 bytes, then each merge product once, in merge order."""
    tokens = list(BYTES)
    for left, right in merges:
        if left + right not in tokens:
            tokens.append(left + right)
    return Vocab(tokens, merges=merges)


def ids_of(vocab: Vocab, *tokens: bytes) -> list[int]:
    return [vocab.token_to_id[t] for t in tokens]


@st.composite
def merge_tables(draw, alphabet: bytes):
    """Valid merge tables over `alphabet`: each side is a byte or the
    product of another merge, so merges build on merges. The table is
    then shuffled, so a product may rank before the merge that makes it;
    a pair may repeat, and then `merge_ranks` keeps its first rank."""
    pool = [bytes([b]) for b in alphabet]
    merges = []
    for _ in range(draw(st.integers(0, 16))):
        left = draw(st.sampled_from(pool))
        right = draw(st.sampled_from(pool))
        merges.append((left, right))
        if left + right not in pool:
            pool.append(left + right)
    return draw(st.permutations(merges))


class TestAgainstOracle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_two_letters(self, data):
        # Two letters, and texts spliced from merge products, make long
        # runs, overlaps and chained merges common.
        merges = data.draw(merge_tables(b"ab"))
        pieces = [b"a", b"b"] + [left + right for left, right in merges]
        text = b"".join(data.draw(st.lists(st.sampled_from(pieces), max_size=40)))
        vocab = bpe_vocab(merges)
        assert encode(text, vocab) == reference_encode(text, vocab)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, data):
        alphabet = data.draw(st.binary(min_size=1, max_size=6))
        merges = data.draw(merge_tables(alphabet))
        text = data.draw(st.binary(max_size=120) | st.lists(
            st.sampled_from(alphabet), max_size=120).map(bytes))
        vocab = bpe_vocab(merges)
        assert encode(text, vocab) == reference_encode(text, vocab)

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_str_input_is_utf8(self, text):
        vocab = bpe_vocab([(b"\xc3", b"\xa9"), (b"e", b" "), (b"e ", b"\xc3\xa9")])
        assert encode(text, vocab) == reference_encode(text, vocab)
        assert encode(text, vocab) == encode(text.encode("utf-8"), vocab)


class TestNamedCases:
    @pytest.mark.parametrize("text, tokens", [
        (b"aaa", (b"aa", b"a")),
        (b"aaaa", (b"aa", b"aa")),
        (b"aaaaa", (b"aa", b"aa", b"a")),
    ])
    def test_overlapping_runs_merge_left_to_right(self, text, tokens):
        vocab = bpe_vocab([(b"a", b"a")])
        assert encode(text, vocab) == ids_of(vocab, *tokens)
        assert encode(text, vocab) == reference_encode(text, vocab)

    def test_duplicate_pair_keeps_first_rank(self):
        vocab = bpe_vocab([(b"b", b"c"), (b"a", b"b"), (b"b", b"c")])
        assert vocab.merge_ranks[(b"b", b"c")] == 0
        assert encode(b"abc", vocab) == ids_of(vocab, b"a", b"bc")
        assert encode(b"abc", vocab) == reference_encode(b"abc", vocab)

    def test_all_pairs_of_one_rank_merge_before_lower_created_pairs(self):
        # Merging (a, a) at 0 creates (aa, a) of lower rank 0; the queue
        # still merges (a, a) at 2 first, as the oracle's full pass does.
        # Popping one entry at a time would give [aaa, a].
        vocab = bpe_vocab([(b"aa", b"a"), (b"a", b"a")])
        assert encode(b"aaaa", vocab) == ids_of(vocab, b"aa", b"aa")
        assert encode(b"aaaa", vocab) == reference_encode(b"aaaa", vocab)
        assert encode(b"aaaaa", vocab) == ids_of(vocab, b"aa", b"aaa")

    def test_empty_merge_table_is_byte_level(self):
        vocab = bpe_vocab([])
        assert encode(b"hello", vocab) == list(b"hello")
        assert encode(b"", vocab) == []

    def test_byte_missing_from_vocab_raises(self):
        vocab = Vocab([b"a", b"b", b"ab"], merges=[(b"a", b"b")])
        with pytest.raises(ValueError, match=r"token b'c' not in vocabulary"):
            encode(b"abcab", vocab)
        with pytest.raises(ValueError, match=r"token b'c' not in vocabulary"):
            reference_encode(b"abcab", vocab)

    def test_benchmark_merge_table_over_corpus(self):
        # The 240 merges pretrain_mid learns for seed 1 from its first 60
        # web and 60 code documents, over 20 documents it also streams.
        texts = inputs.corpus(1, n_web=160, n_code=80)
        merges = inputs.derive_merges(texts["web"][:60] + texts["code"][:60], 240)
        assert len(merges) == 240
        vocab = bpe_vocab(merges)
        for doc in texts["web"][60:70] + texts["code"][60:70]:
            assert encode(doc, vocab) == reference_encode(doc, vocab)
