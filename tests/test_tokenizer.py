"""Vocab, BPE, file-format, and embedding-transplant tests."""

from __future__ import annotations

import base64
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskllm.tensor import Tensor
from deskllm.tokenizer import (
    Vocab,
    byte_fallback_vocab,
    decode,
    encode,
    load_merges,
    load_vocab,
    remap_embeddings,
    save_merges,
    save_vocab,
)


def toy_bpe_vocab():
    """Bytes plus merge products for a 3-merge table."""
    tokens = [bytes([i]) for i in range(256)] + [b"aa", b"aaa", b"ab"]
    merges = [(b"a", b"a"), (b"aa", b"a"), (b"a", b"b")]
    return Vocab(tokens, merges=merges)


class TestVocab:
    def test_inverse_maps(self):
        v = byte_fallback_vocab()
        for i, tok in enumerate(v.id_to_token):
            assert v.token_to_id[tok] == i
        assert len(v) == 259

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            Vocab([b"a", b"b", b"a"])

    def test_special_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Vocab([b"a", b"b"], eos_id=2)
        with pytest.raises(ValueError):
            Vocab([b"a"], bos_id=-1)

    def test_merge_referencing_missing_token_rejected(self):
        with pytest.raises(ValueError):
            Vocab([b"a", b"b"], merges=[(b"a", b"b")])  # "ab" missing
        with pytest.raises(ValueError):
            Vocab([b"a", b"ab"], merges=[(b"a", b"b")])  # "b" missing


class TestByteFallback:
    def test_empty_round_trip(self):
        v = byte_fallback_vocab()
        assert encode("", v) == []
        assert decode([], v) == b""

    def test_known_bytes(self):
        v = byte_fallback_vocab()
        assert encode("AB", v) == [65, 66]
        assert decode([72, 105], v) == b"Hi"

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_round_trip(self, blob):
        v = byte_fallback_vocab(specials=False)
        assert decode(encode(blob, v), v) == blob

    def test_decode_range_error(self):
        v = byte_fallback_vocab(specials=False)
        with pytest.raises(ValueError):
            decode([256], v)
        with pytest.raises(ValueError):
            decode([-1], v)


class TestGreedyBpe:
    def test_hand_traced_merge_sequence(self):
        # "aaab": (a,a) wins first -> [aa,a,b]; (aa,a) next -> [aaa,b]
        v = toy_bpe_vocab()
        assert encode("aaab", v) == [v.token_to_id[b"aaa"], v.token_to_id[b"b"]]

    def test_left_to_right_nonoverlapping(self):
        # "aaaa": one pass of (a,a) pairs positions 0-1 and 2-3 -> [aa, aa]
        v = toy_bpe_vocab()
        assert encode("aaaa", v) == [v.token_to_id[b"aa"]] * 2

    def test_rank_priority_beats_position(self):
        # "aab": rank-0 (a,a) merges before rank-2 (a,b) touches the tail
        v = toy_bpe_vocab()
        assert encode("aab", v) == [v.token_to_id[b"aa"], v.token_to_id[b"b"]]

    def test_single_pair_merge(self):
        v = toy_bpe_vocab()
        assert encode("ab", v) == [v.token_to_id[b"ab"]]

    def test_unmerged_text_stays_bytes(self):
        v = toy_bpe_vocab()
        assert encode("xyz", v) == [120, 121, 122]

    def test_round_trip_with_merges(self):
        v = toy_bpe_vocab()
        for text in ("aaab", "abab", "banana", "aa" * 10 + "b"):
            assert decode(encode(text, v), v) == text.encode()


class TestVocabFiles:
    def test_vocab_file_round_trip(self, tmp_path):
        v = toy_bpe_vocab()
        path = tmp_path / "vocab.txt"
        save_vocab(v, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == v.id_to_token

    def test_line_number_is_id(self, tmp_path):
        v = Vocab([b"hello", b"\n\n", b"\xff\xfe", b""])
        path = tmp_path / "vocab.txt"
        save_vocab(v, path)
        lines = path.read_text(encoding="ascii").splitlines()
        for i, line in enumerate(lines):
            assert base64.b64decode(line) == v.id_to_token[i]
        assert load_vocab(path).id_to_token == v.id_to_token  # the empty line is b""

    def test_merges_file_round_trip(self, tmp_path):
        merges = [(b"a", b"a"), (b"aa", b"a"), (b"a", b"b")]
        path = tmp_path / "merges.txt"
        save_merges(merges, path)
        assert load_merges(path) == merges

    def test_full_bpe_reload_encodes_identically(self, tmp_path):
        v = toy_bpe_vocab()
        save_vocab(v, tmp_path / "vocab.txt")
        save_merges(v.merges, tmp_path / "merges.txt")
        loaded = load_vocab(tmp_path / "vocab.txt", merges_path=tmp_path / "merges.txt")
        for text in ("aaab", "mixed aaa b text"):
            assert encode(text, loaded) == encode(text, v)

    def test_vocab_line_not_base64_names_file_and_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("YQ==\n!!\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: '!!' is not base64"):
            load_vocab(path)

    def test_first_of_two_bad_vocab_lines_is_named(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("YQ==\n!!\n??\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: "):
            load_vocab(path)

    def test_duplicate_vocab_line_names_both_lines(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("Yg==\nYQ==\nYw==\nYQ==\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: duplicate token "
                                             r"b'a', first at line 2$"):
            load_vocab(path)

    def test_merges_line_without_space_names_file_and_line(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("YQ== Yg==\nYQ==YQ==\n", encoding="ascii")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}:2: expected two base64 fields"):
            load_merges(path)

    def test_merges_field_not_base64_names_file_and_line(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("\nYQ== !!\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: '!!' is not base64"):
            load_merges(path)

    def test_vocab_line_holding_a_form_feed_is_not_two_lines(self, tmp_path):
        # str.splitlines would cut line 1 at the form feed and load 4 tokens
        path = tmp_path / "vocab.txt"
        path.write_text("YQ==\fYg==\nYw==\nZA==\n", encoding="ascii")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}:1: 'YQ==\\x0cYg==' is not base64"):
            load_vocab(path)

    def test_merges_line_holding_a_group_separator_is_not_two_merges(self, tmp_path):
        # str.splitlines would cut the line at \x1c and load two merges
        path = tmp_path / "merges.txt"
        path.write_text("YQ== Yg==\x1cYQ== Yw==\n", encoding="ascii")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: expected two "
                                             r"base64 fields split by one space, got "
                                             r"'YQ== Yg==\\x1cYQ== Yw=='$"):
            load_merges(path)

    def test_specials_supplied_at_load(self, tmp_path):
        v = byte_fallback_vocab()
        save_vocab(v, tmp_path / "vocab.txt")
        loaded = load_vocab(tmp_path / "vocab.txt", bos_id=256, eos_id=257, pad_id=258)
        assert loaded.eos_id == 257
        assert loaded.id_to_token[257] == b"<|eos|>"


class TestRemapEmbeddings:
    def _model_tensors(self, vocab_size, hidden, seed=0):
        rng = np.random.default_rng(seed)
        emb = Tensor(rng.normal(size=(vocab_size, hidden)), requires_grad=True)
        head = Tensor(rng.normal(size=(hidden, vocab_size)), requires_grad=True)
        return emb, head

    def test_identical_vocab_bitwise_identity(self):
        v = Vocab([b"a", b"b", b"c"])
        emb, head = self._model_tensors(3, 4)
        new_emb, new_head, matched = remap_embeddings(v, v, emb, head, seed=1)
        assert matched == 3
        assert new_emb.data.tobytes() == emb.data.tobytes()
        assert new_head.data.tobytes() == head.data.tobytes()

    def test_partial_overlap(self):
        old = Vocab([b"a", b"b", b"c"])
        new = Vocab([b"b", b"c", b"d"])
        emb, head = self._model_tensors(3, 4, seed=2)
        new_emb, new_head, matched = remap_embeddings(old, new, emb, head,
                                                      init_std=0.02, seed=3)
        assert matched == 2
        assert new_emb.data[0].tobytes() == emb.data[1].tobytes()  # b
        assert new_emb.data[1].tobytes() == emb.data[2].tobytes()  # c
        assert new_head.data[:, 0].tobytes() == head.data[:, 1].tobytes()
        assert new_head.data[:, 1].tobytes() == head.data[:, 2].tobytes()
        # d is fresh and small-scale, unlike the unit-scale old rows
        assert np.abs(new_emb.data[2]).max() < 0.2
        assert not np.array_equal(new_emb.data[2], emb.data[0])

    def test_disjoint_vocabs_clt_bound(self):
        old = Vocab([bytes([i]) for i in range(64)])
        new = Vocab([bytes([i + 64]) for i in range(64)])
        hidden = 32
        emb, head = self._model_tensors(64, hidden, seed=4)
        std = 0.02
        new_emb, new_head, matched = remap_embeddings(old, new, emb, head,
                                                      init_std=std, seed=5)
        assert matched == 0
        n = new_emb.data.size
        assert abs(new_emb.data.mean()) < 3 * std / np.sqrt(n)
        assert abs(new_emb.data.std() - std) < 0.1 * std

    def test_deterministic_under_seed(self):
        old = Vocab([b"a", b"b"])
        new = Vocab([b"b", b"x", b"y"])
        emb, head = self._model_tensors(2, 4, seed=6)
        a = remap_embeddings(old, new, emb, head, seed=9)
        b = remap_embeddings(old, new, emb, head, seed=9)
        c = remap_embeddings(old, new, emb, head, seed=10)
        assert a[0].data.tobytes() == b[0].data.tobytes()
        assert a[1].data.tobytes() == b[1].data.tobytes()
        assert a[0].data.tobytes() != c[0].data.tobytes()

    def test_shape_validation(self):
        old = Vocab([b"a", b"b"])
        new = Vocab([b"a"])
        emb, head = self._model_tensors(3, 4)
        with pytest.raises(ValueError):
            remap_embeddings(old, new, emb, head)

    def test_dtype_preserved(self):
        old = Vocab([b"a", b"b"])
        new = Vocab([b"a", b"z"])
        rng = np.random.default_rng(7)
        emb = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        head = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        new_emb, new_head, _ = remap_embeddings(old, new, emb, head)
        assert new_emb.dtype == np.float32
        assert new_head.dtype == np.float32
