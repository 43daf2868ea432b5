import logging
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import BAD_SEEDS
from hypothesis import given, settings
from hypothesis import strategies as st

from daanet import data
from daanet.data import (
    Example,
    Vocab,
    build_vocab,
    leave_one_out_split,
    load_embeddings,
    make_batches,
    read_corpus,
    tokenize,
    write_corpus,
)
from daanet.errors import ContractError, DataError, LabelError, ParameterError, SplitError


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

    @staticmethod
    def reference_tokenize(text):
        """Per-piece tokenizer: placeholders kept whole, other pieces split by the token regex."""
        t = data._MENTION_RE.sub(" <user> ", data._URL_RE.sub(" <url> ", text.lower()))
        tokens = []
        for piece in t.split():
            if piece in ("<url>", "<user>"):
                tokens.append(piece)
            else:
                tokens.extend(re.findall(r"#?\w+", piece))
        return tokens

    @staticmethod
    def whole_string_tokenize(text):
        """The token regex run once over the whole substituted text."""
        t = data._MENTION_RE.sub(" <user> ", data._URL_RE.sub(" <url> ", text.lower()))
        return re.findall(r"#?\w+|(?<!\S)<(?:url|user)>(?!\S)", t)

    fragments = st.sampled_from(
        ["<url>", "a<url>b", "<user>", "@user", "@a_1", "http://t.co/x", "https://a.b/c?d=1",
         "www.x.org", "#tag_1", "#", "<", ">", "a", "Storm", "ÉTÉ", "straße", "٣", "_", "!",
         ",", ".", " ", "\t", "\n", "\xa0", "\u3000", "\u2028", "\x1c", "\x85", "\u200b",
         "İstanbul", "\u212a", "²", "a_b", "##x", "a#b", "<user>x", "x<url>", "://", "www.", "@"]
    )
    texts = st.lists(st.one_of(fragments, st.text(max_size=3)), max_size=12).map("".join)

    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_piece_reference(self, text):
        assert tokenize(text) == self.reference_tokenize(text)

    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_string_reference(self, text):
        assert tokenize(text) == self.whole_string_tokenize(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("İstanbul", ["i", "stanbul"]),  # lowercases to i + U+0307, which is not \w
            ("\u212a9", ["k9"]),  # the Kelvin sign lowercases to ASCII k
            ("x² a_b", ["x²", "a_b"]),
            ("##x a#b", ["#x", "a", "#b"]),
            ("<user>x x<url> <url>", ["user", "x", "x", "url", "<url>"]),
            ("a://b www. @", ["a", "b", "www"]),
        ],
    )
    def test_fragments(self, text, tokens):
        assert tokenize(text) == tokens == self.whole_string_tokenize(text)

    def test_character_classes_match_str_methods(self):
        # tokenize rests on these: regex \w is isalnum() or "_", regex \s is
        # isspace(), and str.split() splits on exactly the \s characters
        every = "".join(map(chr, range(sys.maxunicode + 1)))  # in code point order
        assert re.fullmatch(r"\w", "_")
        assert "".join(re.findall(r"[^\W_]", every)) == "".join(filter(str.isalnum, every))
        assert "".join(re.findall(r"\s", every)) == "".join(filter(str.isspace, every))
        assert "".join(every.split()) == re.sub(r"\s", "", every)


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

    @pytest.mark.parametrize(
        "min_freq, message",
        [("2", "must be integers"), (0.5, "must be integers"), (True, "must be integers"),
         (0, "must be at least 1"), (-2, "must be at least 1")],
    )
    def test_bad_min_freq_rejected(self, min_freq, message):
        with pytest.raises(ParameterError, match=f"min_freq {message}, got min_freq="):
            build_vocab([ex("e", "a b")], min_freq=min_freq)


def reference_load_embeddings(path, vocab, dim, seed=0):
    """Per-line loader: split each line, parse each component with float()."""
    vectors = {}  # token -> (line number, components)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if lineno == 1 and len(parts) == 2 and all(p.isdecimal() for p in parts):
                if int(parts[1]) != dim:
                    raise DataError(
                        f"header gives dim {parts[1]}, expected {dim}", path=str(path), line=1
                    )
                continue
            if len(parts) < 2 or not parts[0]:
                continue
            token, values = parts[0], parts[1:]
            if token not in vocab.index:
                continue
            if len(values) != dim:
                raise DataError(
                    f"expected {dim} components, found {len(values)}", path=str(path), line=lineno
                )
            try:
                vectors[token] = (lineno, np.array([float(v) for v in values]))
            except ValueError as exc:
                raise DataError(f"bad float: {exc}", path=str(path), line=lineno) from None
    v = len(vocab)
    table = np.zeros((v, dim), dtype=np.float32)
    locked = np.zeros(v, dtype=bool)
    locked[0] = True
    rng = np.random.default_rng(seed)
    matched = 0
    with np.errstate(over="ignore"):
        for idx in range(2, v):
            entry = vectors.get(vocab.tokens[idx])
            if entry is None:
                table[idx] = rng.uniform(-0.25, 0.25, size=dim)
            else:
                table[idx] = entry[1]
                locked[idx] = True
                matched += 1
    finite = np.isfinite(table)
    if not finite.all():
        row = np.flatnonzero(~finite.all(axis=1))[0]
        lineno, vec = vectors[vocab.tokens[row]]
        raise DataError(
            f"component {vec[~finite[row]][0]} is not a finite float32", path=str(path), line=lineno
        )
    return table, locked, matched / max(v - 2, 1) if v > 2 else 0.0


def load_both(path, vocab, dim, seed=0):
    """Run load_embeddings and the reference; each side is its error message
    or (table bytes, lock flags, coverage)."""
    out = []
    for load in (load_embeddings, reference_load_embeddings):
        try:
            got = load(path, vocab, dim, seed=seed)
        except DataError as exc:
            out.append(str(exc))
            continue
        if isinstance(got, tuple):
            table, locked, coverage = got
        else:
            table, locked, coverage = got.table.value, got.locked, got.coverage
        assert table.dtype == np.float32 and table.shape == (len(vocab), dim)
        out.append((table.tobytes(), locked.tolist(), coverage))
    return out


EMB_VOCAB = Vocab(["storm", "flood", "rain", "wind", "1", "2"])
COMPONENTS = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.6f}"),
    st.sampled_from(
        ["0", "-0", "1", "2", ".5", "1e39", "-3.4028234e38", "nan", "-inf", "1_0", "１",
         "\u30001", "1\xa0", "\x1c1", "1\x1f", "", "x", "1,0", "0x1"]
    ),
)
TOKENS = st.sampled_from(["storm", "flood", "rain", "wind", "1", "2", "<pad>", "<unk>", "levee", ""])


@st.composite
def embedding_files(draw, dim):
    """Text of an embedding file, mostly well-formed, with its line end."""
    lines = []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 9))} {draw(st.sampled_from([dim, dim, dim + 1]))}")
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", " storm 1", "storm", "levee 1 x"])))
            continue
        n = dim if kind > 1 else draw(st.integers(max(dim - 1, 1), dim + 1))
        comps = draw(st.lists(COMPONENTS, min_size=n, max_size=n))
        lines.append(" ".join([draw(TOKENS)] + comps))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + (end if lines and draw(st.booleans()) else "")


class TestLoadEmbeddings:
    def write_file(self, tmp_path, lines, header=None):
        path = tmp_path / "vectors.txt"
        content = ([header] if header else []) + lines
        path.write_text("\n".join(content) + "\n", encoding="utf-8")
        return path

    @given(st.data(), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_line_reference(self, draw, dim, seed):
        text = draw.draw(embedding_files(dim))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "EMBEDDING_CHUNK", 3)
            path = Path(tmp) / "vectors.txt"
            path.write_text(text, encoding="utf-8", newline="")
            got, want = load_both(path, EMB_VOCAB, dim, seed)
        assert got == want

    def test_chunk_boundaries_and_repeated_tokens(self, tmp_path, monkeypatch):
        # with 3 lines per chunk, "storm" repeats within the first chunk and
        # "flood" across chunks: the last line wins, as in one dict
        monkeypatch.setattr(data, "EMBEDDING_CHUNK", 3)
        vocab = Vocab(["storm", "flood", "rain", "wind"])
        lines = ["storm 1 1", "flood 2 2", "storm 3 3", "rain 4 4", "wind 5 5", "flood 6 6", "storm 7 7"]
        path = self.write_file(tmp_path, lines)
        got, want = load_both(path, vocab, 2)
        assert got == want
        emb = load_embeddings(path, vocab, dim=2)
        assert emb.table.value[2:].tolist() == [[7, 7], [6, 6], [4, 4], [5, 5]]
        assert emb.locked.tolist() == [True, False, True, True, True, True]
        assert emb.coverage == 1.0

    def test_blank_space_led_and_bad_out_of_vocab_lines_skipped(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        lines = ["", "storm 1 2", " flood 9 9", "   ", "levee 1", "levee x y", "levee", "flood 3 4"]
        emb = load_embeddings(self.write_file(tmp_path, lines), vocab, dim=2)
        assert emb.table.value[2:].tolist() == [[1, 2], [3, 4]]
        assert emb.coverage == 1.0

    @pytest.mark.parametrize(
        "components, value",
        [("1_0 2", [10.0, 2.0]), ("１ 2", [1.0, 2.0]), (" 2", None), ("\x1c1 2", None)],
        ids=["underscore", "fullwidth-digit", "leading-space", "file-separator"],
    )
    def test_text_numpy_rejects_takes_float_path(self, tmp_path, monkeypatch, components, value):
        # np.loadtxt rejects each of these, or would strip the "\x1c" that
        # float() refuses; the per-line float() path decides, as before
        calls = []
        line_floats = data._line_floats
        monkeypatch.setattr(
            data, "_line_floats", lambda *args: calls.append(args) or line_floats(*args)
        )
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["flood 0.5 2", f"storm {components}"])
        got, want = load_both(path, vocab, 2)
        assert got == want
        assert calls
        if value is None:
            assert got.startswith(f"{path}:2: bad float")
        else:
            assert load_embeddings(path, vocab, dim=2).table.value[2].tolist() == value

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_carriage_return_line_ends(self, tmp_path, end):
        vocab = Vocab(["storm", "flood"])
        path = tmp_path / "vectors.txt"
        path.write_text(end.join(["2 2", "storm 1 2", "flood 3 4"]) + end, encoding="utf-8", newline="")
        got, want = load_both(path, vocab, 2)
        assert got == want
        emb = load_embeddings(path, vocab, dim=2)
        assert emb.table.value[2:].tolist() == [[1, 2], [3, 4]]

    def test_errors_in_file_order_within_a_chunk(self, tmp_path):
        # the bad float at line 2 and the count error at line 5 share a chunk
        vocab = Vocab(["storm", "flood", "rain", "wind"])
        lines = ["flood 1 2 3", "storm 1 x 3", "rain 1 2 3", "wind 1 2 3", "storm 1 2"]
        with pytest.raises(DataError, match=":2: bad float"):
            load_embeddings(self.write_file(tmp_path, lines), vocab, dim=3)

    def test_not_finite_reports_last_vector_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "EMBEDDING_CHUNK", 2)
        vocab = Vocab(["storm", "flood"])
        lines = ["storm 1 nan", "flood 1 2", "storm 1e39 2", "flood inf 2", "flood 3 4"]
        path = self.write_file(tmp_path, lines)
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:3: component 1e\\+39 is not"):
            load_embeddings(path, vocab, dim=2)

    def test_dim_one_first_line_is_a_vector(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        emb = load_embeddings(self.write_file(tmp_path, ["storm 0.5", "flood 0.25"]), vocab, dim=1)
        assert emb.table.value[2:].tolist() == [[0.5], [0.25]]
        assert emb.locked.tolist() == [True, False, True, True]
        assert emb.coverage == 1.0

    def test_header_dim_mismatch_rejected(self, tmp_path):
        vocab = Vocab(["storm"])
        path = self.write_file(tmp_path, ["storm 0.5"], header="3 300")
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:1: header gives dim 300"):
            load_embeddings(path, vocab, dim=1)

    def test_in_file_token_exact_and_locked(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["storm 1.5 -2.0 0.25"])
        emb = load_embeddings(path, vocab, dim=3, seed=1)
        idx = vocab.index["storm"]
        assert np.array_equal(emb.table.value[idx], [1.5, -2.0, 0.25])
        assert emb.locked[idx]
        assert not emb.locked[vocab.index["flood"]]
        assert np.array_equal(emb.table.value[0], np.zeros(3))
        assert emb.locked[0]

    def test_header_line_skipped(self, tmp_path):
        vocab = Vocab(["storm"])
        path = self.write_file(tmp_path, ["storm 1 2 3"], header="1 3")
        emb = load_embeddings(path, vocab, dim=3)
        assert np.array_equal(emb.table.value[vocab.index["storm"]], [1, 2, 3])

    def test_missing_token_rows_are_seeded_and_repeatable(self, tmp_path):
        vocab = Vocab(["storm", "flood"])
        path = self.write_file(tmp_path, ["storm 1 2 3"])
        e1 = load_embeddings(path, vocab, dim=3, seed=9)
        e2 = load_embeddings(path, vocab, dim=3, seed=9)
        assert np.array_equal(e1.table.value, e2.table.value)
        row = e1.table.value[vocab.index["flood"]]
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
        assert np.array_equal(emb.table.value[vocab.index["storm"]], np.float32([0.1, 2, 3]))

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

    def write_with_bom(self, tmp_path, lines, header=None):
        path = self.write_file(tmp_path, lines, header=header)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return path

    def test_byte_order_mark_skipped(self, tmp_path):
        # the mark once became part of the first token, which then missed the vocabulary
        path = self.write_with_bom(tmp_path, ["storm 1 2", "flood 3 4"])
        emb = load_embeddings(path, Vocab(["storm", "flood"]), dim=2)
        assert emb.table.value[2:].tolist() == [[1, 2], [3, 4]]
        assert emb.locked.tolist() == [True, False, True, True]

    def test_header_after_byte_order_mark_is_checked(self, tmp_path):
        path = self.write_with_bom(tmp_path, ["storm 1 2"], header="1 3")
        with pytest.raises(DataError, match=":1: header gives dim 3, expected 2"):
            load_embeddings(path, Vocab(["storm"]), dim=2)

    @pytest.mark.parametrize(
        "dim, message",
        [(0, "must be at least 1"), (-1, "must be at least 1"), ("2", "must be integers"),
         (2.0, "must be integers"), (True, "must be integers")],
    )
    def test_bad_dim_rejected_before_reading(self, tmp_path, dim, message):
        # a dim of 0 was blamed on line 1 of the file; the file need not exist
        with pytest.raises(ParameterError, match=f"embedding dim {message}, got dim="):
            load_embeddings(tmp_path / "missing.txt", Vocab(["storm"]), dim=dim)

    @BAD_SEEDS
    def test_bad_seed_rejected_before_reading(self, tmp_path, seed, message):
        # None drew the missing rows from OS entropy; the file need not exist
        with pytest.raises(ParameterError, match=message):
            load_embeddings(tmp_path / "missing.txt", Vocab(["storm"]), dim=2, seed=seed)


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

    def test_empty_tokenization_dropped(self, tmp_path, caplog):
        path = tmp_path / "c.tsv"
        path.write_text(
            "event_id\ttext\tpriority\ne1\t...\t1\ne1\treal text\t0\ne2\t!? --\t-\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.INFO, logger="daanet.data"):
            loaded, _ = read_corpus(path)
        assert [ex.text for ex in loaded] == ["real text"]
        assert f"dropped 2 examples with empty tokenization from {path}" in caplog.messages

    def test_byte_order_mark_skipped(self, tmp_path):
        # the mark once failed the header check at line 1
        path = tmp_path / "c.tsv"
        path.write_text("\ufeffevent_id\ttext\tp\ne1\tstorm\t1\n", encoding="utf-8")
        loaded, tasks = read_corpus(path)
        assert tasks == ["p"]
        assert [(ex.event_id, ex.tokens, ex.labels) for ex in loaded] == [("e1", ["storm"], {"p": 1})]

    def test_event_id_is_not_a_token(self, tmp_path):
        # the piece "@" has no token; sharing one memo with event ids made it "@"
        path = tmp_path / "c.tsv"
        path.write_text("event_id\ttext\tp\n@\tstorm\t1\n@\t@ a\t0\n", encoding="utf-8")
        loaded, _ = read_corpus(path)
        assert [ex.tokens for ex in loaded] == [["storm"], tokenize("@ a")] == [["storm"], ["a"]]

    shared_pieces = st.sampled_from(
        ["storm", "Storm", "storm!", "#storm", "#Flood", "flood,storm", "@alice", "@", "#", "_",
         "a_b", "http://t.co/x", "www.x.org", "<url>", "x<user>", "...", "ÉTÉ", "٣", "éte"]
    )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["e1", "e2", "@", "storm", "#flood"]),
                st.lists(shared_pieces, max_size=6).map(" ".join),
                st.sampled_from([0, 1, None]),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_read_tokens_are_shared_and_unchanged(self, records):
        examples = [Example(e, text, tokenize(text), {} if y is None else {"p": y})
                    for e, text, y in records]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.tsv"
            write_corpus(path, examples, ["p"])
            loaded, _ = read_corpus(path)
        assert [ex.tokens for ex in loaded] == [tokenize(ex.text) for ex in loaded]
        tokens = [tok for ex in loaded for tok in ex.tokens]
        assert len({id(tok) for tok in tokens}) == len(set(tokens))
        event_ids = [ex.event_id for ex in loaded]
        assert len({id(e) for e in event_ids}) == len(set(event_ids))
        one_of = {tok: tok for tok in tokens}
        assert all(tok is one_of[tok] for tok in build_vocab(loaded).tokens[2:])

    def test_blank_and_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "event_id\ttext\tpriority\n\ne1\tstorm\t1\n \t \t \n\t\t\n   \ne2\tflood\t-\n\n",
            encoding="utf-8",
        )
        loaded, _ = read_corpus(path)
        assert [(ex.event_id, ex.text, ex.labels) for ex in loaded] == [
            ("e1", "storm", {"priority": 1}),
            ("e2", "flood", {}),
        ]

    def test_bad_cell_after_blank_lines_reports_its_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "event_id\ttext\tpriority\ne1\tstorm\t1\n\n \t \ne1\tflood\tyes\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match=":5: label for priority"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            ("foo\tbar\n", "1: header must be 'event_id<TAB>text<TAB><task>...'"),
            ("event_id\ttext\n", "1: header must be 'event_id<TAB>text<TAB><task>...'"),
            ("event_id\ttext\tp\ne1\thi\n", "2: expected 3 columns, found 2"),
            ("event_id\ttext\tp\ne1\thi\t1\t0\n", "2: expected 3 columns, found 4"),
            ("event_id\ttext\tp\tq\ne1\thi\t1\t2\n", "2: label for q must be 0, 1 or '-', found '2'"),
            ("event_id\ttext\tp\ne1\thi\t 1\n", "2: label for p must be 0, 1 or '-', found ' 1'"),
            ("event_id\ttext\tp\ne1\thi\t\n", "2: label for p must be 0, 1 or '-', found ''"),
            ("event_id\ttext\tprio\tprio\n", "1: duplicate task name 'prio' in header"),
            ("event_id\ttext\t\n", "1: empty task name in header column 3"),
            ("event_id\ttext\tprio\t\ne1\thi\t1\t0\n", "1: empty task name in header column 4"),
        ],
        ids=["header", "no_task", "short_row", "long_row", "bad_label", "padded_label",
             "empty_label", "duplicate_task", "empty_task", "trailing_tab_task"],
    )
    def test_error_messages(self, tmp_path, content, message):
        path = tmp_path / "bad.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            read_corpus(path)
        assert str(excinfo.value) == f"{path}:{message}"

    @pytest.mark.parametrize("field", ["event_id", "text", "task"])
    @pytest.mark.parametrize("bad", ["\t", "\n", "\r"], ids=["tab", "newline", "return"])
    def test_write_rejects_field_breaks(self, tmp_path, field, bad):
        # a text "x<TAB>1<LF>e9<TAB>forged" was written as two records
        value = f"x{bad}1{bad}e9{bad}forged"
        event_id, text, task = (value if f == field else "e1" for f in ("event_id", "text", "task"))
        examples = [Example("e0", "fine", ["fine"], {}), Example(event_id, text, [], {task: 0})]
        path = tmp_path / "c.tsv"
        with pytest.raises(DataError, match="tab or line break"):
            write_corpus(path, examples, [task])
        assert not path.exists()

    @pytest.mark.parametrize("label", [7, -1, 0.5, "1", None, float("nan")])
    def test_write_rejects_bad_label(self, tmp_path, label):
        path = tmp_path / "c.tsv"
        with pytest.raises(LabelError, match="label for t must be 0 or 1"):
            write_corpus(path, [Example("e1", "storm", ["storm"], {"t": label})], ["t"])
        assert not path.exists()

    @pytest.mark.parametrize("task_names", [["t", "t"], ["t", ""]], ids=["duplicate", "empty"])
    def test_write_rejects_bad_task_names(self, tmp_path, task_names):
        path = tmp_path / "c.tsv"
        with pytest.raises(DataError, match=":1: (duplicate|empty) task name"):
            write_corpus(path, [Example("e1", "storm", ["storm"], {})], task_names)
        assert not path.exists()

    record_fields = st.text(
        alphabet=st.sampled_from("ab -#@!.\x0b\x0c\x1c\x1d\x1e\x85\xa0\u2028\u2029é٣"),
        max_size=6,
    )

    @given(
        st.lists(
            st.tuples(record_fields, record_fields, st.lists(st.sampled_from([0, 1, None]),
                                                              min_size=2, max_size=2)),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_write_read_round_trip(self, records):
        examples = [
            Example(event_id, text, tokenize(text),
                    {t: y for t, y in zip(("p", "q"), cells) if y is not None})
            for event_id, text, cells in records
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.tsv"
            write_corpus(path, examples, ["p", "q"])
            loaded, tasks = read_corpus(path)
        assert tasks == ["p", "q"]
        assert [(ex.event_id, ex.text, ex.tokens, ex.labels) for ex in loaded] == [
            (ex.event_id, ex.text, ex.tokens, ex.labels) for ex in examples if ex.tokens
        ]


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

    def interleaved_corpus(self):
        # events interleaved, and every third example unlabeled
        return [
            ex(f"ev{i % 3:02d}", f"text {i}", {"t": i % 2} if i % 3 else {}) for i in range(18)
        ]

    def test_domain_examples_are_the_source_examples(self):
        corpus = self.interleaved_corpus()
        split = leave_one_out_split(corpus, "ev01")
        sources = [e for e in corpus if e.event_id != "ev01"]
        assert len(split.domain_examples) == len(sources) == 12
        assert all(got is want for got, want in zip(split.domain_examples, sources))
        assert any(not e.labels for e in split.domain_examples)
        assert split.domain_index == {"ev00": 0, "ev02": 1}
        labeled = [e for e in sources if e.labels]
        assert all(got is want for got, want in zip(split.train_labeled, labeled))
        assert len(split.train_labeled) == len(labeled)

    def test_domain_batches_carry_event_indices(self):
        split = leave_one_out_split(self.interleaved_corpus(), "ev01")
        vocab = build_vocab(split.domain_examples)
        batches = make_batches(
            split.domain_examples, vocab, t_x=4, batch_size=5, tasks=(), domains=split.domain_index
        )
        got = np.concatenate([b.domain for b in batches])
        want = [split.domain_index[e.event_id] for e in split.domain_examples]
        assert got.dtype == np.int64 and got.tolist() == want
        assert all(b.labels == {} for b in batches)

    def test_target_event_has_no_domain(self):
        corpus = self.interleaved_corpus()
        split = leave_one_out_split(corpus, "ev01")
        with pytest.raises(ContractError, match="'ev01'"):
            make_batches(corpus, build_vocab(corpus), t_x=4, tasks=(), domains=split.domain_index)


class TestMakeBatches:
    def build(self, n):
        examples = [ex("e", f"tok{i} tok{i + 1} tok{i + 2}", {"t": i % 2}) for i in range(n)]
        vocab = build_vocab(examples)
        return examples, vocab

    def test_batch_sizes(self):
        examples, vocab = self.build(70)
        batches = make_batches(examples, vocab, t_x=5, batch_size=32, tasks=("t",))
        assert [b.size for b in batches] == [32, 32, 6]

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_non_positive_batch_size_rejected(self, batch_size):
        examples, vocab = self.build(5)
        with pytest.raises(ParameterError, match="batch size"):
            make_batches(examples, vocab, t_x=5, batch_size=batch_size, tasks=("t",))

    @pytest.mark.parametrize(
        "t_x, batch_size, message",
        [
            (2.5, 4, "must be integers, got t_x=2.5"),
            (True, 4, "must be integers, got t_x=True"),
            (5, 2.5, "must be integers, got batch_size=2.5"),
            (-1, 4, "must be at least 1, got t_x=-1"),
            (0, 4, "must be at least 1, got t_x=0"),
        ],
    )
    def test_bad_sizes_rejected(self, t_x, batch_size, message):
        # each raised a bare TypeError or a numpy ValueError, or built empty rows
        examples, vocab = self.build(5)
        with pytest.raises(ParameterError, match=f"t_x and batch size {message}$"):
            make_batches(examples, vocab, t_x=t_x, batch_size=batch_size, tasks=("t",))

    def test_bare_string_tasks_rejected(self):
        # "t0" read as the tasks "t" and "0" left every label absent
        examples, vocab = self.build(5)
        with pytest.raises(ParameterError, match="tasks must be a sequence"):
            make_batches(examples, vocab, t_x=5, tasks="t0")

    @pytest.mark.parametrize("label", [2, 0.5, -1, "1", "yes", float("nan")])
    def test_label_other_than_0_or_1_rejected(self, label):
        # bce_loss trained on such targets, and evaluate scored 2 as negative;
        # "1" batched as 1.0, "yes" raised a bare ValueError, NaN read as absent
        examples, vocab = self.build(6)
        examples[4].labels["t"] = label
        message = re.escape(f"example 4: label for 't' must be 0 or 1, found {label!r}")
        with pytest.raises(LabelError, match=message):
            make_batches(examples, vocab, t_x=5, batch_size=4, tasks=("t",))

    @pytest.mark.parametrize(
        "label, value", [(True, 1.0), (False, 0.0), (1.0, 1.0), (np.int64(0), 0.0)]
    )
    def test_bool_and_float_labels_of_0_or_1_accepted(self, label, value):
        # write_corpus's rule, label in (0, 1)
        examples, vocab = self.build(2)
        examples[1].labels["t"] = label
        (batch,) = make_batches(examples, vocab, t_x=5, tasks=("t",))
        y, present = batch.labels["t"]
        assert (y.tolist(), present.tolist()) == ([0.0, value], [1.0, 1.0])

    def test_tasks_from_an_iterator_label_every_batch(self):
        # a generator of task names was used up by the first batch
        examples, vocab = self.build(10)
        batches = make_batches(examples, vocab, t_x=5, batch_size=4, tasks=iter(["t"]))
        assert [sorted(b.labels) for b in batches] == [["t"]] * 3

    def test_truncation_to_t_x(self):
        text = " ".join(f"w{i}" for i in range(40))
        examples = [ex("e", text, {"t": 1})]
        vocab = build_vocab(examples)
        batches = make_batches(examples, vocab, t_x=30, batch_size=4, tasks=("t",))
        assert batches[0].mask[0].sum() == 30
        assert np.all(batches[0].ids[0] != 0)

    def test_round_trip_decoding(self):
        examples, vocab = self.build(6)
        batches = make_batches(examples, vocab, t_x=5, batch_size=8, tasks=("t",))
        for row, example in zip(batches[0].ids, examples):
            decoded = [vocab.tokens[i] for i in row if i != data.PAD_ID]
            assert decoded == example.tokens[:5]

    def test_ids_below_vocab_size_and_padding(self):
        examples, vocab = self.build(10)
        batches = make_batches(examples, vocab, t_x=6, batch_size=4, tasks=("t",))
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
        batches = make_batches([new], vocab, t_x=5, batch_size=4, tasks=("t",))
        assert np.all(batches[0].ids[0][:3] == data.UNK_ID)

    def test_shuffle_uses_rng(self):
        examples, vocab = self.build(40)

        def shuffled(seed):
            rng = np.random.default_rng(seed)
            return make_batches(examples, vocab, t_x=5, batch_size=8, rng=rng, tasks=("t",))

        b1, b2, b3 = shuffled(1), shuffled(1), shuffled(2)
        assert all(np.array_equal(x.ids, y.ids) for x, y in zip(b1, b2))
        assert any(not np.array_equal(x.ids, y.ids) for x, y in zip(b1, b3))

    @staticmethod
    def reference_batch(chunk, vocab, t_x, tasks, domains):
        """Per-token, per-task and per-row encoder."""
        n = len(chunk)
        ids = np.zeros((n, t_x), dtype=np.int64)
        mask = np.zeros((n, t_x))
        for r, example in enumerate(chunk):
            for j, tok in enumerate(example.tokens[:t_x]):
                ids[r, j] = vocab.index.get(tok, data.UNK_ID)
                mask[r, j] = 1.0
        labels = {}
        for task in tasks:
            y, present = np.zeros(n), np.zeros(n)
            for r, example in enumerate(chunk):
                if task in example.labels:
                    y[r] = example.labels[task]
                    present[r] = 1.0
            labels[task] = (y, present)
        domain = np.zeros(n, dtype=np.int64)
        for r, example in enumerate(chunk):
            domain[r] = domains[example.event_id]
        return ids, mask, labels, domain

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_encoder(self, seed):
        rng = np.random.default_rng(seed)
        pool = [f"w{i}" for i in range(12)]
        examples = []
        for i in range(int(rng.integers(1, 60))):
            tokens = [pool[k] for k in rng.integers(0, len(pool), size=rng.integers(1, 9))]
            labels = {t: int(rng.integers(0, 2)) for t in ("a", "b") if rng.random() < 0.6}
            event = f"e{rng.integers(0, 3)}"
            examples.append(Example(event, " ".join(tokens), tokens, labels))
        vocab = Vocab(pool[:8])  # w8..w11 map to <unk>
        domains = {"e2": 0, "e0": 1, "e1": 2}
        t_x, size = 5, int(rng.integers(1, 9))
        shuffle = np.random.default_rng(seed)
        batches = make_batches(
            examples, vocab, t_x, size, rng=shuffle, tasks=("a", "b"), domains=domains
        )
        order = np.random.default_rng(seed).permutation(len(examples))
        assert len(batches) == -(-len(examples) // size)
        for k, batch in enumerate(batches):
            chunk = [examples[i] for i in order[k * size : (k + 1) * size]]
            ids, mask, labels, domain = self.reference_batch(chunk, vocab, t_x, ("a", "b"), domains)
            for got, want in [(batch.ids, ids), (batch.mask, mask), (batch.domain, domain)]:
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert batch.labels.keys() == labels.keys()
            for task, (y, present) in labels.items():
                for got, want in zip(batch.labels[task], (y, present)):
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_domain_labels(self):
        examples = [ex("a", "x y", {"t": 1}), ex("b", "y z")]
        vocab = build_vocab(examples)
        batches = make_batches(
            examples, vocab, t_x=3, batch_size=4, tasks=(), domains={"a": 0, "b": 2}
        )
        assert batches[0].domain.tolist() == [0, 2] and batches[0].labels == {}
        assert make_batches(examples, vocab, t_x=3, tasks=("t",))[0].domain is None
