import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daanet import data
from daanet.data import (
    Example,
    Vocab,
    binarize_priority,
    build_vocab,
    leave_one_out_split,
    load_embeddings,
    make_batches,
    read_corpus,
    tokenize,
    write_corpus,
)
from daanet.errors import DataError, LabelError, ParameterError, SplitError


def ex(event, text, labels=None):
    return Example(event, text, tokenize(text), labels or {})


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Death toll RISES") == ["death", "toll", "rises"]

    def test_url_mention_hashtag(self):
        assert tokenize("pray for #boston http://t.co/x") == ["pray", "for", "#boston", "<url>"]
        assert tokenize("@alice Stay safe!") == ["<user>", "stay", "safe"]

    def test_punctuation_boundaries(self):
        assert tokenize("flood,fire;smoke") == ["flood", "fire", "smoke"]

    def test_empty_result_allowed(self):
        assert tokenize("!!! ...") == []

    token_alphabet = st.text(alphabet="abcdefgh0123456789_", min_size=1, max_size=8).filter(
        lambda s: tokenize(s) == [s]
    )

    @given(st.lists(token_alphabet, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_idempotence(self, tokens):
        assert tokenize(" ".join(tokens)) == tokens


class TestBuildVocab:
    def test_frequency_order_with_alphabetic_ties(self):
        corpus = [ex("e", "a b"), ex("e", "b c")]
        vocab = build_vocab(corpus, min_freq=1)
        assert vocab.tokens == ["<pad>", "<unk>", "b", "a", "c"]

    def test_min_freq_prunes(self):
        corpus = [ex("e", "a b"), ex("e", "b c")]
        vocab = build_vocab(corpus, min_freq=2)
        assert vocab.tokens == ["<pad>", "<unk>", "b"]

    def test_determinism(self):
        corpus = [ex("e", "storm flood storm"), ex("e", "flood rain")]
        v1 = build_vocab(corpus)
        v2 = build_vocab(corpus)
        assert v1.tokens == v2.tokens and v1.index == v2.index


class TestLoadEmbeddings:
    def write_file(self, tmp_path, lines, header=None):
        path = tmp_path / "vectors.txt"
        content = ([header] if header else []) + lines
        path.write_text("\n".join(content) + "\n", encoding="utf-8")
        return path

    def test_in_file_token_exact_and_locked(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["storm 1.5 -2.0 0.25"])
        emb = load_embeddings(path, vocab, dim=3, seed=1)
        idx = vocab.id_of("storm")
        assert np.array_equal(emb.table.value[idx], [1.5, -2.0, 0.25])
        assert emb.locked[idx]
        assert not emb.locked[vocab.id_of("flood")]
        assert np.array_equal(emb.table.value[0], np.zeros(3))
        assert emb.locked[0]

    def test_header_line_skipped(self, tmp_path):
        vocab = Vocab(["storm"])
        path = self.write_file(tmp_path, ["storm 1 2 3"], header="1 3")
        emb = load_embeddings(path, vocab, dim=3)
        assert np.array_equal(emb.table.value[vocab.id_of("storm")], [1, 2, 3])

    def test_missing_token_rows_are_seeded_and_repeatable(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["storm 1 2 3"])
        e1 = load_embeddings(path, vocab, dim=3, seed=9)
        e2 = load_embeddings(path, vocab, dim=3, seed=9)
        assert np.array_equal(e1.table.value, e2.table.value)
        row = e1.table.value[vocab.id_of("flood")]
        assert np.all(np.abs(row) <= 0.25) and np.any(row != 0)

    def test_coverage_matches_set_intersection(self, tmp_path):
        tokens = ["storm", "flood", "rain", "wind"]
        vocab = Vocab(tokens)
        file_tokens = ["storm", "rain", "levee"]
        path = self.write_file(tmp_path, [f"{t} 1 1" for t in file_tokens])
        emb = load_embeddings(path, vocab, dim=2)
        expected = len(set(tokens) & set(file_tokens)) / len(tokens)
        assert emb.coverage == pytest.approx(expected)

    def test_dimension_mismatch_reports_line(self, tmp_path):
        vocab = Vocab(["storm"])
        path = self.write_file(tmp_path, ["storm 1 2"])
        with pytest.raises(DataError, match=":1:"):
            load_embeddings(path, vocab, dim=3)

    def test_table_is_float32(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["storm 0.1 2 3"])
        emb = load_embeddings(path, vocab, dim=3)
        assert emb.table.value.dtype == np.float32
        assert np.array_equal(emb.table.value[vocab.id_of("storm")], np.float32([0.1, 2, 3]))

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e39"])
    def test_component_not_finite_in_float32_reports_line(self, tmp_path, component):
        # 1e39 is finite in float64 but would become inf in the float32 table
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["flood 1 2 3", f"storm 1 {component} 3"])
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:2: .*not a finite float32"):
            load_embeddings(path, vocab, dim=3)

    def test_largest_float32_component_accepted(self, tmp_path):
        vocab = Vocab(["storm"])
        path = self.write_file(tmp_path, ["storm 3.4028234e38 -3.4028234e38 0"])
        emb = load_embeddings(path, vocab, dim=3)
        assert np.all(np.isfinite(emb.table.value))


class TestBinarizePriority:
    def test_mapping(self):
        assert binarize_priority("low") == 0
        assert binarize_priority("medium") == 1
        assert binarize_priority("high") == 1
        assert binarize_priority("critical") == 1
        assert binarize_priority("Critical") == 1

    def test_unknown_rejected(self):
        with pytest.raises(LabelError):
            binarize_priority("urgent")


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        examples = [
            Example("quake", "ground shaking", tokenize("ground shaking"), {"priority": 1}),
            Example("flood", "river rising", tokenize("river rising"), {"priority": 0, "factoid": 1}),
            Example("flood", "no labels here", tokenize("no labels here"), {}),
        ]
        path = tmp_path / "corpus.tsv"
        write_corpus(path, examples, ["priority", "factoid"])
        loaded, tasks = read_corpus(path)
        assert tasks == ["priority", "factoid"]
        assert len(loaded) == 3
        assert loaded[0].labels == {"priority": 1}
        assert loaded[1].labels == {"priority": 0, "factoid": 1}
        assert loaded[2].labels == {}

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("foo\tbar\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_corpus(path)

    def test_bad_label_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("event_id\ttext\tpriority\ne1\thello there\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            read_corpus(path)

    def test_empty_tokenization_dropped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "event_id\ttext\tpriority\ne1\t...\t1\ne1\treal text\t0\n", encoding="utf-8"
        )
        loaded, _ = read_corpus(path)
        assert len(loaded) == 1


class TestLeaveOneOutSplit:
    def make_corpus(self, n_events=10, per_event=4):
        examples = []
        for e in range(n_events):
            for i in range(per_event):
                examples.append(ex(f"ev{e:02d}", f"text number {i} from {e}", {"t": i % 2}))
        return examples

    def test_ten_events_gives_nine_domains(self):
        corpus = self.make_corpus(10)
        split = leave_one_out_split(corpus, "ev03")
        assert split.n_domains == 9
        assert "ev03" not in split.domain_index
        split2 = leave_one_out_split(corpus, "ev03")
        assert split.domain_index == split2.domain_index

    def test_single_event_rejected(self):
        with pytest.raises(SplitError):
            leave_one_out_split(self.make_corpus(1), "ev00")

    def test_unknown_event_rejected(self):
        with pytest.raises(SplitError):
            leave_one_out_split(self.make_corpus(3), "nope")

    def test_disjointness_and_partition(self):
        corpus = self.make_corpus(5)
        split = leave_one_out_split(corpus, "ev02")
        train_keys = {(e.event_id, e.text) for e in split.train_labeled}
        test_keys = {(e.event_id, e.text) for e in split.test}
        assert not train_keys & test_keys
        labeled = [e for e in corpus if e.labels]
        assert len(split.train_labeled) + len(split.test) == len(labeled)

    def test_domain_examples_are_stripped_and_indexed(self):
        corpus = self.make_corpus(4)
        split = leave_one_out_split(corpus, "ev00")
        assert split.domain_examples
        for dex in split.domain_examples:
            assert dex.labels == {}
            assert dex.domain_idx == split.domain_index[dex.event_id]
            assert dex.event_id != "ev00"


class TestMakeBatches:
    def build(self, n):
        examples = [ex("e", f"tok{i} tok{i + 1} tok{i + 2}", {"t": i % 2}) for i in range(n)]
        vocab = build_vocab(examples)
        return examples, vocab

    def test_batch_sizes(self):
        examples, vocab = self.build(70)
        batches = make_batches(examples, vocab, t_x=5, batch_size=32)
        assert [b.size for b in batches] == [32, 32, 6]

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_non_positive_batch_size_rejected(self, batch_size):
        examples, vocab = self.build(5)
        with pytest.raises(ParameterError, match="batch size"):
            make_batches(examples, vocab, t_x=5, batch_size=batch_size)

    def test_truncation_to_t_x(self):
        text = " ".join(f"w{i}" for i in range(40))
        examples = [ex("e", text, {"t": 1})]
        vocab = build_vocab(examples)
        batches = make_batches(examples, vocab, t_x=30, batch_size=4)
        assert batches[0].mask[0].sum() == 30
        assert np.all(batches[0].ids[0] != 0)

    def test_round_trip_decoding(self):
        examples, vocab = self.build(6)
        batches = make_batches(examples, vocab, t_x=5, batch_size=8)
        for row, example in zip(batches[0].ids, examples):
            decoded = vocab.decode(row)
            assert decoded == example.tokens[:5]

    def test_ids_below_vocab_size_and_padding(self):
        examples, vocab = self.build(10)
        batches = make_batches(examples, vocab, t_x=6, batch_size=4)
        for bi, b in enumerate(batches):
            assert b.ids.max() < len(vocab)
            chunk = examples[4 * bi : 4 * bi + 4]
            for row_mask, row_ids, example in zip(b.mask, b.ids, chunk):
                length = min(len(example.tokens), 6)
                assert np.array_equal(row_mask[:length], np.ones(length))
                assert np.array_equal(row_mask[length:], np.zeros(6 - length))
                assert np.all(row_ids[length:] == 0)

    def test_unknown_tokens_map_to_unk(self):
        examples, vocab = self.build(4)
        new = ex("e", "completely novel words", {"t": 0})
        batches = make_batches([new], vocab, t_x=5, batch_size=4)
        assert np.all(batches[0].ids[0][:3] == data.UNK_ID)

    def test_shuffle_uses_rng(self):
        examples, vocab = self.build(40)
        b1 = make_batches(examples, vocab, t_x=5, batch_size=8, rng=np.random.default_rng(1))
        b2 = make_batches(examples, vocab, t_x=5, batch_size=8, rng=np.random.default_rng(1))
        b3 = make_batches(examples, vocab, t_x=5, batch_size=8, rng=np.random.default_rng(2))
        assert all(np.array_equal(x.ids, y.ids) for x, y in zip(b1, b2))
        assert any(not np.array_equal(x.ids, y.ids) for x, y in zip(b1, b3))

    def test_domain_onehot(self):
        examples = [
            Example("a", "x y", ["x", "y"], {}, domain_idx=0),
            Example("b", "y z", ["y", "z"], {}, domain_idx=2),
        ]
        vocab = build_vocab(examples)
        batches = make_batches(examples, vocab, t_x=3, batch_size=4, tasks=(), n_domains=3)
        assert np.array_equal(batches[0].domain_onehot, [[1, 0, 0], [0, 0, 1]])
