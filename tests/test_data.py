"""Data pipeline tests: scoring, filtering, mixing, packing, curriculum."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskllm.data import (
    DataStage,
    Document,
    HeuristicScorer,
    curriculum_schedule,
    curriculum_stages,
    load_corpus,
    pack_sequences,
    quality_filter,
    read_jsonl,
    sample_mix,
    save_corpus,
    web_share_stages,
    write_jsonl,
)
from deskllm.errors import ConfigError
from deskllm.tensor import IGNORE_INDEX

# Characters str.splitlines() breaks on but JSON leaves unescaped.
LINE_SEPARATORS = ["\u2028", "\u2029", "\u0085"]


class TestDataStage:
    def test_valid(self):
        stage = DataStage(token_budget=100.0, mix={"web": 0.8, "other": 0.2}, seq_len=64)
        assert stage.seq_len == 64

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            DataStage(token_budget=1, mix={"web": 0.8, "other": 0.1}, seq_len=8)

    def test_mix_proportions_in_range(self):
        with pytest.raises(ConfigError):
            DataStage(token_budget=1, mix={"web": 1.5, "other": -0.5}, seq_len=8)

    def test_budget_positive(self):
        with pytest.raises(ConfigError):
            DataStage(token_budget=0, mix={"web": 1.0}, seq_len=8)

    def test_seq_len_at_least_two(self):
        with pytest.raises(ConfigError):
            DataStage(token_budget=1, mix={"web": 1.0}, seq_len=1)


class TestHeuristicScorer:
    def test_hand_computed_fixture(self):
        scorer = HeuristicScorer(threshold=0.5, min_len=5, max_len=20)
        # all alphabetic, one distinct 8-gram, in range -> (1 + 1 + 1)/3
        assert scorer.score("abcdefgh") == pytest.approx(1.0, abs=1e-12)
        # 10 a's: alpha 1, three identical 8-grams -> 1/3 distinct, in range
        assert scorer.score("a" * 10) == pytest.approx((1.0 + 1.0 / 3.0 + 1.0) / 3.0,
                                                       abs=1e-12)
        # digits and spaces: alpha 0, single 8-gram, in range
        assert scorer.score("12 34 56") == pytest.approx(2.0 / 3.0, abs=1e-12)
        # too short for the range flag and for any 8-gram
        assert scorer.score("hi") == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_empty_text(self):
        scorer = HeuristicScorer(min_len=0, max_len=10)
        # alpha 0, uniqueness 1 (no grams), length 0 in [0, 10]
        assert scorer.score("") == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_score_in_unit_interval(self):
        scorer = HeuristicScorer()
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(0, 300))
            text = "".join(chr(int(c)) for c in rng.integers(32, 1000, n))
            assert 0.0 <= scorer.score(text) <= 1.0

    def test_threshold_clamped(self):
        assert HeuristicScorer(threshold=1.5).threshold == 1.0
        assert HeuristicScorer(threshold=-0.2).threshold == 0.0


class TestQualityFilter:
    DOCS = [Document("abcdefgh", "web"), Document("a" * 10, "web"),
            Document("12 34 56", "web")]

    def _scorer(self, threshold):
        return HeuristicScorer(threshold=threshold, min_len=5, max_len=20)

    def test_threshold_zero_passes_all(self):
        out = list(quality_filter(self.DOCS, self._scorer(0.0)))
        assert out == self.DOCS

    def test_threshold_one_keeps_only_perfect(self):
        out = list(quality_filter(self.DOCS, self._scorer(1.0)))
        assert out == [self.DOCS[0]]

    def test_above_one_clamps(self):
        out = list(quality_filter(self.DOCS, self._scorer(1.5)))
        assert out == [self.DOCS[0]]

    def test_order_preserved(self):
        out = list(quality_filter(self.DOCS, self._scorer(0.7)))
        assert out == [self.DOCS[0], self.DOCS[1]]


def _sources(n_web=5, n_other=3):
    return {
        "web": [Document(f"web {i}", "web") for i in range(n_web)],
        "other": [Document(f"other {i}", "other") for i in range(n_other)],
    }


class TestSampleMix:
    def test_single_source(self):
        stage = DataStage(token_budget=1, mix={"web": 1.0}, seq_len=8)
        stream = sample_mix(stage, _sources(), seed=0)
        docs = list(itertools.islice(stream, 50))
        assert all(d.source == "web" for d in docs)

    @pytest.mark.parametrize("share", [0.845, 0.728, 0.555])
    def test_web_share_converges(self, share):
        stage = DataStage(token_budget=1, mix={"web": share, "other": 1.0 - share},
                          seq_len=8)
        stream = sample_mix(stage, _sources(), seed=42)
        n = 100_000
        count = sum(d.source == "web" for d in itertools.islice(stream, n))
        assert abs(count / n - share) < 0.01
        assert abs(count / n - share) < 4.0 * np.sqrt(share * (1 - share) / n)

    def test_deterministic_under_seed(self):
        stage = DataStage(token_budget=1, mix={"web": 0.5, "other": 0.5}, seq_len=8)
        a = list(itertools.islice(sample_mix(stage, _sources(), seed=7), 200))
        b = list(itertools.islice(sample_mix(stage, _sources(), seed=7), 200))
        c = list(itertools.islice(sample_mix(stage, _sources(), seed=8), 200))
        assert a == b
        assert a != c

    def test_independent_of_dict_order(self):
        stage = DataStage(token_budget=1, mix={"web": 0.5, "other": 0.5}, seq_len=8)
        src = _sources()
        reordered = {"other": src["other"], "web": src["web"]}
        a = list(itertools.islice(sample_mix(stage, src, seed=3), 100))
        b = list(itertools.islice(sample_mix(stage, reordered, seed=3), 100))
        assert a == b

    def test_exhausted_source_recycles(self):
        stage = DataStage(token_budget=1, mix={"web": 1.0}, seq_len=8)
        docs = [Document("x", "web"), Document("y", "web")]
        stream = sample_mix(stage, {"web": docs}, seed=0)
        texts = [d.text for d in itertools.islice(stream, 6)]
        assert texts == ["x", "y", "x", "y", "x", "y"]

    def test_positive_share_empty_source_rejected(self):
        stage = DataStage(token_budget=1, mix={"web": 0.5, "other": 0.5}, seq_len=8)
        with pytest.raises(ConfigError):
            sample_mix(stage, {"web": [Document("x", "web")], "other": []}, seed=0)

    def test_zero_share_empty_source_allowed(self):
        stage = DataStage(token_budget=1, mix={"web": 1.0, "other": 0.0}, seq_len=8)
        stream = sample_mix(stage, {"web": [Document("x", "web")], "other": []}, seed=0)
        assert next(stream).text == "x"

    def test_missing_stream_rejected(self):
        stage = DataStage(token_budget=1, mix={"web": 0.5, "other": 0.5}, seq_len=8)
        with pytest.raises(ConfigError):
            sample_mix(stage, {"web": [Document("x", "web")]}, seed=0)


class TestPackSequences:
    def test_hand_traced_windows(self):
        doc = list(range(10))
        out = list(pack_sequences([doc], seq_len=4, eos_id=99))
        assert len(out) == 2
        np.testing.assert_array_equal(out[0][0], [0, 1, 2, 3])
        np.testing.assert_array_equal(out[1][0], [4, 5, 6, 7])
        np.testing.assert_array_equal(out[0][1], [1, 2, 3, IGNORE_INDEX])
        np.testing.assert_array_equal(out[1][1], [5, 6, 7, IGNORE_INDEX])

    def test_eos_between_documents(self):
        out = list(pack_sequences([[1, 2, 3], [4, 5]], seq_len=4, eos_id=0))
        # 3 + eos fills the first window; 4,5,eos is a dropped partial
        assert len(out) == 1
        np.testing.assert_array_equal(out[0][0], [1, 2, 3, 0])
        out = list(pack_sequences([[1, 2], [3, 4], [5]], seq_len=4, eos_id=9))
        np.testing.assert_array_equal(out[0][0], [1, 2, 9, 3])
        np.testing.assert_array_equal(out[1][0], [4, 9, 5, 9])

    def test_empty_stream(self):
        assert list(pack_sequences([], seq_len=4, eos_id=0)) == []

    def test_every_window_scores_len_minus_one(self):
        for window, targets in pack_sequences([list(range(23))], seq_len=5, eos_id=0):
            assert (targets != IGNORE_INDEX).sum() == 4
            np.testing.assert_array_equal(targets[:-1], window[1:])

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_conservation_identity(self, lengths):
        docs = [[7] * n for n in lengths]
        seq_len = 6
        windows = list(pack_sequences(docs, seq_len=seq_len, eos_id=9))
        total = sum(lengths) + len(lengths)
        assert len(windows) * seq_len == seq_len * (total // seq_len)
        emitted = sum(w.size for w, _ in windows)
        assert emitted == seq_len * (total // seq_len)

    def test_seq_len_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            list(pack_sequences([[1, 2]], seq_len=1, eos_id=0))


class TestCurriculum:
    def test_reference_stage_boundaries(self):
        stages = curriculum_stages()
        assert curriculum_schedule(0, stages).seq_len == 2048
        assert curriculum_schedule(699e9, stages).seq_len == 2048
        assert curriculum_schedule(700e9, stages).seq_len == 4096
        assert curriculum_schedule(800e9, stages).seq_len == 8192
        assert curriculum_schedule(900e9, stages).seq_len == 16384
        assert curriculum_schedule(999e9, stages).seq_len == 16384

    def test_past_final_budget_stays_on_last_stage(self):
        stages = curriculum_stages()
        assert curriculum_schedule(5e12, stages).seq_len == 16384

    def test_half_open_boundaries(self):
        stages = [DataStage(token_budget=10, mix={"web": 1.0}, seq_len=2),
                  DataStage(token_budget=10, mix={"web": 1.0}, seq_len=4)]
        assert curriculum_schedule(9.999, stages).seq_len == 2
        assert curriculum_schedule(10, stages).seq_len == 4

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError):
            curriculum_schedule(0, [])

    def test_total_budget_is_one_trillion(self):
        assert sum(s.token_budget for s in curriculum_stages()) == 1e12


class TestWebShareStages:
    def test_shares_and_budgets(self):
        stages = web_share_stages()
        assert [s.mix["web"] for s in stages] == [0.845, 0.728, 0.555]
        assert [s.token_budget for s in stages] == [1e12, 0.95e12, 0.05e12]
        for s in stages:
            assert abs(sum(s.mix.values()) - 1.0) < 1e-9


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        docs = [Document("hello world", "web"),
                Document("ünïcödé — line\nbreak", "other"),
                Document("", "web")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "a", "source": "web"}\n\n{"text": "b", "source": "web"}\n')
        docs = load_corpus(path)
        assert [d.text for d in docs] == ["a", "b"]

    @pytest.mark.parametrize("sep", LINE_SEPARATORS)
    def test_line_separator_round_trip(self, tmp_path, sep):
        docs = [Document(f"one{sep}two", "web"), Document(sep, f"we{sep}b")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files_load(self, tmp_path, newline):
        path = tmp_path / "corpus.jsonl"
        lines = [b'{"text": "a", "source": "web"}', b'{"text": "b", "source": "wiki"}']
        path.write_bytes(newline.join(lines) + newline)
        assert load_corpus(path) == [Document("a", "web"), Document("b", "wiki")]

    def test_record_without_source_names_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "a"}\n')
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{path}:1: missing field 'source'")):
            load_corpus(path)

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"text": "a", "source": "web"}\n \t \n{"text": "b", "source": "web"}\n')
        assert [d.text for d in load_corpus(path)] == ["a", "b"]


class TestJsonl:
    def test_bad_json_names_its_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"n": 1}\n{"n": \n')
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: invalid JSON")):
            read_jsonl(path)

    def test_blank_lines_count_toward_line_numbers(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "a", "source": "web"}\n\n{"text": "b"}\n')
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{path}:3: missing field 'source'")):
            load_corpus(path)

    def test_empty_iterable_writes_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(iter(()), path)
        assert path.read_bytes() == b""
        assert read_jsonl(path) == []

    def test_unescaped_utf8_one_newline_per_record(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"text": "ünï €\u2028x", "n": 1}, ["a\nb"], "z"]
        write_jsonl(records, path)
        expected = ('{"text": "ünï €\u2028x", "n": 1}\n["a\\nb"]\n"z"\n').encode("utf-8")
        assert path.read_bytes() == expected
        assert read_jsonl(path) == records
