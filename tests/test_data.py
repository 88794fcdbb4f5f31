import json

import numpy as np
import pytest

from modir.data import (
    read_embedding_block,
    read_jsonl_records,
    read_records,
    read_triples,
    tokenize,
    write_embedding_block,
)
from modir.errors import FormatError, InvalidConfigError, ParseError
from modir.scoring import NUM_SPECIAL


class TestTokenizer:
    def test_deterministic_across_calls(self):
        assert tokenize("Hello, World!", 64) == tokenize("hello world", 64)

    def test_ids_stay_in_text_range(self):
        ids = tokenize("a b c d e f g h i j", 16)
        assert all(NUM_SPECIAL <= t < 16 for t in ids)

    def test_splits_on_non_alphanumerics(self):
        assert len(tokenize("one,two;three--four", 256)) == 4

    def test_empty_text(self):
        assert tokenize("...", 64) == []

    def test_vocab_too_small_rejected(self):
        with pytest.raises(InvalidConfigError):
            tokenize("word", NUM_SPECIAL)


class TestJsonl:
    def test_text_and_embedding_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [
            {"id": "a", "language": "en", "text": "hello there"},
            {"id": "b", "embeddings": [[1.0, 2.0], [3.0, 4.0]]},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        records = read_jsonl_records(path)
        assert records[0].text == "hello there"
        assert records[0].language == "en"
        assert records[1].embeddings.shape == (2, 2)

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(ParseError, match="line 2"):
            read_jsonl_records(path)

    def test_both_text_and_embeddings_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x", "embeddings": [[1.0]]}\n')
        with pytest.raises(ParseError):
            read_jsonl_records(path)

    def test_neither_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ParseError):
            read_jsonl_records(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            read_jsonl_records(path)


class TestEmbeddingBlock:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        records = {"p1": rng.normal(size=(3, 4)).astype(np.float32), "p2": rng.normal(size=(1, 4)).astype(np.float32)}
        path = tmp_path / "corpus.emb"
        write_embedding_block(records, path)
        loaded = read_embedding_block(path)
        assert [r.id for r in loaded] == ["p1", "p2"]
        np.testing.assert_allclose(loaded[0].embeddings, records["p1"], atol=0)
        np.testing.assert_allclose(loaded[1].embeddings, records["p2"], atol=0)

    def test_dispatch_by_magic(self, tmp_path):
        path = tmp_path / "corpus.bin"
        write_embedding_block({"x": np.ones((2, 3), dtype=np.float32)}, path)
        records = read_records(path)
        assert records[0].id == "x"
        jsonl = tmp_path / "corpus.jsonl"
        jsonl.write_text('{"id": "y", "text": "hi"}\n')
        assert read_records(jsonl)[0].id == "y"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.emb"
        path.write_bytes(b"MVEBxx")  # magic ok, truncated header
        with pytest.raises(Exception):
            read_embedding_block(path)
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_embedding_block(path)


def _small_block(path):
    write_embedding_block({"p1": np.ones((3, 4), dtype=np.float32), "p2": np.zeros((2, 4), dtype=np.float32)}, path)
    return path.read_bytes()


@pytest.mark.parametrize("cut", [lambda raw: raw[:-5], lambda raw: raw[:20]], ids=["cut-by-5", "cut-to-20"])
def test_truncated_embedding_block_is_format_error(tmp_path, cut):
    path = tmp_path / "corpus.emb"
    path.write_bytes(cut(_small_block(path)))
    with pytest.raises(FormatError, match="truncated"):
        read_embedding_block(path)


class TestTriples:
    def test_parse(self, tmp_path):
        path = tmp_path / "triples.tsv"
        path.write_text("q1 p1 p2\nq2 p3 p4\n\n")
        assert read_triples(path) == [("q1", "p1", "p2"), ("q2", "p3", "p4")]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "triples.tsv"
        path.write_text("q1 p1 p2\nq2 p3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_triples(path)


@pytest.mark.parametrize("reader,good,bad", [
    (read_jsonl_records, b'{"id": "a", "text": "x"}\n', b'{"id": "b", "text": "\xe9"}\n'),
    (read_triples, b"q1 p1 p2\n", b"q2 p\xe9 p4\n"),
], ids=["jsonl", "triples"])
def test_non_utf8_line_is_a_parse_error_naming_it(tmp_path, reader, good, bad):
    path = tmp_path / "input.txt"
    path.write_bytes(good + b"\n" + bad)
    with pytest.raises(ParseError, match="line 3: .*input.txt is not UTF-8"):
        reader(path)
