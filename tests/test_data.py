import json
import re
import struct
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modir import cli, data, evaluation
from modir.data import (
    ByteReader,
    FileReader,
    TermTable,
    encode_varints,
    read_embedding_block,
    read_jsonl_records,
    read_records,
    read_triples,
    text_fields,
    tokenize,
    write_embedding_block,
)
from modir.errors import DimensionMismatchError, FormatError, InvalidConfigError, ParseError
from modir.index import build_index
from modir.scoring import NUM_SPECIAL


def passage_rows(table, pid):
    """The rows of passage ``pid``: its offset slice of the table's rows."""
    i = table.ids.index(pid)
    return table.rows[table.offsets[i] : table.offsets[i + 1]]


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

    @pytest.mark.parametrize("line", ["5", '"xidx"', '["id", "a"]', "null"], ids=["number", "string", "list", "null"])
    def test_a_line_that_is_not_an_object_is_a_parse_error(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + line + "\n")
        with pytest.raises(ParseError, match="line 2: a record must be a JSON object"):
            read_jsonl_records(path)

    def test_zero_width_embedding_rows_rejected_with_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "embeddings": [[1.0]]}\n{"id": "b", "embeddings": [[]]}\n')
        with pytest.raises(ParseError, match="line 2"):
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

    @pytest.mark.parametrize(
        "record,message",
        [
            ('{"id": "b", "language": "en", "text": null}', "'text' must be a string"),
            ('{"id": "b", "text": 7}', "'text' must be a string"),
            ('{"id": "b", "text": ["a", "b"]}', "'text' must be a string"),
            ('{"id": "b", "language": null, "text": "x"}', "'language' must be a string"),
            ('{"id": "b", "language": 3, "embeddings": [[1.0]]}', "'language' must be a string"),
            ('{"id": true, "text": "x"}', "'id' must be a string or an integer"),
            ('{"id": 1.5, "text": "x"}', "'id' must be a string or an integer"),
            ('{"id": null, "text": "x"}', "'id' must be a string or an integer"),
            ('{"id": ["b"], "text": "x"}', "'id' must be a string or an integer"),
        ],
        ids=["null-text", "number-text", "list-text", "null-language", "number-language",
             "bool-id", "float-id", "null-id", "list-id"],
    )
    def test_a_field_of_the_wrong_json_type_is_a_parse_error_naming_the_line(self, tmp_path, record, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 1, "language": "en", "text": "x"}\n' + record + "\n")
        with pytest.raises(ParseError) as exc:
            read_jsonl_records(path)
        assert exc.value.message == f"line 2: {message}"

    def test_an_integer_id_reads_as_its_decimal_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 12, "text": "x"}\n')
        assert read_jsonl_records(path)[0].id == "12"


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
        with pytest.raises(FormatError):
            read_embedding_block(path)
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_embedding_block(path)


_ROWS = np.ones((2, 3), dtype=np.float32)
_REFUSED_BLOCKS = {
    "1-d first record": ({"p0": np.ones(3), "p1": _ROWS}, "record 'p0' rows must be (count, dim >= 1)"),
    "no columns": ({"p0": np.ones((2, 0))}, "record 'p0' rows must be (count, dim >= 1)"),
    "same id as text": ({1: _ROWS, "1": _ROWS}, "record '1' repeats the id '1' of record 1"),
    "id over 65,535 bytes": ({"p0": _ROWS, "\u00e9" * 32_768: _ROWS},
                             f"record id {'é' * 40!r}... is 65536 UTF-8 bytes; a u16 length field holds at most 65535"),
    "beyond float32": ({"p0": _ROWS, "p1": np.array([[1.0, 1e39, 2.0]])},
                       "record 'p1' holds a finite value beyond float32's range"),
}


@pytest.mark.parametrize("case", list(_REFUSED_BLOCKS))
def test_a_block_the_reader_would_refuse_is_not_written(tmp_path, case):
    records, message = _REFUSED_BLOCKS[case]
    path = tmp_path / "corpus.emb"
    path.write_bytes(b"an earlier block")
    with pytest.raises(InvalidConfigError) as exc:
        write_embedding_block(records, path)
    assert exc.value.message == message
    assert path.read_bytes() == b"an earlier block"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.emb"]


def test_non_finite_values_and_the_longest_id_are_written_as_they_are(tmp_path):
    rows = np.array([[np.nan, np.inf, -np.inf], [1.0, -2.0, 3.0]])
    long_id = "x" * 65_535
    path = tmp_path / "corpus.emb"
    write_embedding_block({"p0": rows, long_id: np.zeros((0, 3))}, path)
    block = read_embedding_block(path)
    assert [r.id for r in block] == ["p0", long_id]
    assert block[0].embeddings.tobytes() == rows.astype(np.float32).tobytes()


def _small_block(path):
    write_embedding_block({"p1": np.ones((3, 4), dtype=np.float32), "p2": np.zeros((2, 4), dtype=np.float32)}, path)
    return path.read_bytes()


@pytest.mark.parametrize("cut", [lambda raw: raw[:-5], lambda raw: raw[:20]], ids=["cut-by-5", "cut-to-20"])
def test_truncated_embedding_block_is_format_error(tmp_path, cut):
    path = tmp_path / "corpus.emb"
    path.write_bytes(cut(_small_block(path)))
    with pytest.raises(FormatError, match="truncated"):
        read_embedding_block(path)


_SMALL_BLOCK = {"p2": np.arange(12, dtype=np.float32).reshape(3, 4), "p1": np.zeros((0, 4), dtype=np.float32),
                "p0": -np.ones((2, 4), dtype=np.float32)}


@pytest.fixture(scope="module")
def small_block_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("block") / "corpus.emb"
    write_embedding_block(_SMALL_BLOCK, path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_truncation_of_an_embedding_block_is_a_format_error(small_block_bytes, tmp_path_factory, data):
    cut = data.draw(st.integers(0, len(small_block_bytes) - 1))
    path = tmp_path_factory.mktemp("cut") / "corpus.emb"
    path.write_bytes(small_block_bytes[:cut])
    with pytest.raises(FormatError):
        read_embedding_block(path)


@pytest.mark.parametrize("u32_max", [False, True], ids=["one-row-past-the-end", "u32-max"])
def test_row_count_beyond_the_file_is_a_format_error(tmp_path, small_block_bytes, u32_max):
    # the first record ("p2", 3 rows of dim 4) starts after the 16-byte header, its 2-byte id length and id
    raw = bytearray(small_block_bytes)
    at = 16 + 2 + 2
    assert struct.unpack_from("<I", raw, at) == (3,)
    rows = 2**32 - 1 if u32_max else (len(raw) - at - 4) // 16 + 1
    struct.pack_into("<I", raw, at, rows)
    path = tmp_path / "corpus.emb"
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            read_embedding_block(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # the read buffer; no table is allocated before the sizes are checked


_U63 = st.integers(0, 2**63 - 1)


class TestVarints:
    """``encode_varints`` and ``ByteReader.varints`` define the index files'
    unsigned LEB128 varints; the reader's errors name the file."""

    @pytest.mark.parametrize(
        "value,raw",
        [(0, b"\x00"), (127, b"\x7f"), (128, b"\x80\x01"), (2**63 - 1, b"\xff" * 8 + b"\x7f")],
    )
    def test_pinned_encodings(self, value, raw):
        assert encode_varints([value]) == raw
        assert ByteReader(raw, "f.bin").varints(1).tolist() == [value]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_U63, max_size=20), tail=st.binary(max_size=3))
    @example(values=[0, 127, 128, 2**63 - 1], tail=b"")
    def test_round_trip_stops_at_the_last_value(self, values, tail):
        reader = ByteReader(encode_varints(values) + tail, "f.bin")
        out = reader.varints(len(values))
        assert out.dtype == np.int64 and out.tolist() == values
        assert reader.view[reader.offset :] == tail

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_U63, min_size=1, max_size=8), data=st.data())
    def test_every_truncation_is_a_format_error(self, values, data):
        raw = encode_varints(values)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(FormatError, match=r"f\.bin is truncated"):
            ByteReader(raw[:cut], "f.bin").varints(len(values))

    @pytest.mark.parametrize("raw", [b"\x80" * 9 + b"\x01", encode_varints([2**63])], ids=["ten-bytes", "2**63"])
    def test_a_varint_over_nine_bytes_is_a_format_error(self, raw):
        assert len(raw) == 10
        with pytest.raises(FormatError, match=r"f\.bin: a varint at offset 1 is over 9 bytes long"):
            ByteReader(b"\x05" + raw, "f.bin").varints(2)

    def test_finish_counts_the_bytes_left(self):
        reader = ByteReader(encode_varints([300, 1]) + b"xy", "f.bin")
        assert reader.varints(2).tolist() == [300, 1]
        with pytest.raises(FormatError, match=r"^f\.bin has 2 trailing bytes$"):
            reader.finish()
        assert reader.text(2) == "xy"
        reader.finish()

    def test_file_reader_reads_varints_from_its_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"ab" + encode_varints([5, 2**40]) + b"c")
        with open(path, "rb") as fh:
            fh.read(2)
            reader = FileReader(fh, path)
            assert reader.varints(2).tolist() == [5, 2**40]
            assert reader.take(1) == b"c"
            reader.finish()
            with pytest.raises(FormatError, match="truncated"):
                reader.varints(1)


def encode_texts(texts) -> bytes:
    """Strings as passages.bin stores explicit ids: varint byte length, then UTF-8."""
    return b"".join(encode_varints([len(raw)]) + raw for raw in (t.encode("utf-8") for t in texts))


class TestTexts:
    """``ByteReader.texts`` splits varint-length-prefixed UTF-8 strings; its
    errors name the file."""

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(max_size=200), max_size=20), tail=st.binary(max_size=3))
    @example(texts=["", "a" * 128, "\u00e9"], tail=b"")  # a two-byte length, a two-byte character
    def test_round_trip_stops_at_the_last_string(self, texts, tail):
        reader = ByteReader(b"x" + encode_texts(texts) + tail, "f.bin", 1)
        assert reader.texts(len(texts)) == texts
        assert reader.view[reader.offset :] == tail

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(max_size=150), min_size=1, max_size=6), data=st.data())
    def test_every_truncation_is_a_format_error(self, texts, data):
        raw = encode_texts(texts)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(FormatError, match=r"^f\.bin is truncated"):
            ByteReader(raw[:cut], "f.bin").texts(len(texts))

    def test_a_string_that_is_not_utf8_is_a_format_error(self):
        with pytest.raises(FormatError, match=r"^f\.bin: a name at offset 4 is not UTF-8$"):
            ByteReader(encode_texts(["ab"]) + b"\x02\xff\xfe", "f.bin").texts(2)

    def test_a_length_over_nine_bytes_is_a_format_error(self):
        with pytest.raises(FormatError, match=r"^f\.bin: a varint at offset 2 is over 9 bytes long$"):
            ByteReader(encode_texts(["a"]) + b"\x80" * 9 + b"\x01", "f.bin").texts(2)


class TestBlockTable:
    """An embedding block is read as one float32 TermTable in id order; its
    records keep file order and read their rows through that table."""

    def test_records_keep_file_order_and_the_table_is_in_id_order(self, tmp_path):
        path = tmp_path / "corpus.emb"
        write_embedding_block(_SMALL_BLOCK, path)
        records = read_embedding_block(path)
        assert [r.id for r in records] == ["p2", "p1", "p0"]
        table = records.table
        assert table.ids == ["p0", "p1", "p2"]
        assert table.rows.dtype == np.float32
        assert table.offsets.tolist() == [0, 2, 2, 5]
        for rec in records:
            assert np.array_equal(rec.embeddings, _SMALL_BLOCK[rec.id])
            assert np.array_equal(rec.embeddings, passage_rows(table, rec.id))
            assert rec.text is None and rec.language == ""
        assert [r.id for r in records[1:]] == ["p1", "p0"]
        assert records[-1].id == "p0"
        with pytest.raises(IndexError):
            records[3]

    def test_duplicate_id_and_trailing_bytes_are_format_errors(self, tmp_path):
        path = tmp_path / "corpus.emb"
        write_embedding_block({"a": np.ones((1, 2), dtype=np.float32)}, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=r"corpus\.emb has 1 trailing bytes$"):
            read_embedding_block(path)
        one = path.read_bytes()[16:-1]  # the record alone
        path.write_bytes(b"MVEB" + struct.pack("<III", 1, 2, 2) + one + one)
        with pytest.raises(FormatError, match="duplicate"):
            read_embedding_block(path)

    def test_dim_zero_is_a_format_error(self, tmp_path):
        path = tmp_path / "corpus.emb"
        path.write_bytes(b"MVEB" + struct.pack("<III", 1, 0, 1) + struct.pack("<H", 1) + b"a" + struct.pack("<I", 3))
        with pytest.raises(FormatError, match="dim 0"):
            read_embedding_block(path)

    def test_empty_block(self, tmp_path):
        path = tmp_path / "corpus.emb"
        path.write_bytes(b"MVEB" + struct.pack("<III", 1, 4, 0))
        records = read_embedding_block(path)
        assert len(records) == 0 and records.table.rows.shape == (0, 4)


@st.composite
def shuffled_blocks(draw):
    """``{id: float32 rows}`` under distinct ids drawn in any order, some
    records with no rows, and the width of the rows."""
    dim = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))
    ids = draw(st.lists(st.text(max_size=4), min_size=len(counts), max_size=len(counts), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {pid: rng.normal(size=(count, dim)).astype(np.float32) for pid, count in zip(ids, counts)}, dim


class TestBlockRows:
    """An embedding block's rows are read from its file when they are asked
    for, and equal the in-memory table of the same passages in id order."""

    @settings(max_examples=150, deadline=None)
    @given(block=shuffled_blocks(), data=st.data())
    @example(block=({"b": np.ones((2, 3), dtype=np.float32), "a": np.zeros((0, 3), dtype=np.float32)}, 3), data=None)
    def test_rows_equal_an_in_memory_table(self, tmp_path_factory, block, data):
        corpus, dim = block
        path = tmp_path_factory.mktemp("rows") / "corpus.emb"
        write_embedding_block(corpus, path)
        table = read_embedding_block(path).table
        reference = np.concatenate([corpus[pid] for pid in sorted(corpus)])
        total = reference.shape[0]
        if data is None:
            lo, hi, idx = 0, total, list(range(total))[::-1]
        else:
            lo = data.draw(st.integers(0, total))
            hi = data.draw(st.integers(lo, total))
            idx = data.draw(st.lists(st.integers(0, total - 1), max_size=12)) if total else []
        idx = np.array(idx, dtype=np.int64)
        assert table.rows.shape == reference.shape and table.rows.ndim == 2 and table.rows.dtype == np.float32
        for got, expect in ((table.rows[lo:hi], reference[lo:hi]), (table.rows[idx], reference[idx])):
            assert got.dtype == np.float32 and got.shape == expect.shape and got.tobytes() == expect.tobytes()
        for pid, rows in corpus.items():
            got = passage_rows(table, pid)
            assert got.shape == rows.shape and got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("key", [[True, False, True], [[0]], [3], [-1], [0.5]],
                             ids=["mask", "2-d", "past-the-end", "negative", "float"])
    def test_rows_are_asked_for_by_row_numbers(self, tmp_path, key):
        path = tmp_path / "corpus.emb"
        write_embedding_block({"b": np.ones((2, 3)), "a": np.zeros((1, 3))}, path)
        rows = read_embedding_block(path).table.rows
        with pytest.raises(IndexError, match="^rows are asked for by a slice or a 1-d array of row numbers below 3$"):
            rows[key]

    def test_reading_a_block_allocates_far_less_than_its_rows(self, tmp_path):
        rows = np.random.default_rng(0).normal(size=(32, 64)).astype(np.float32)
        path = tmp_path / "corpus.emb"
        write_embedding_block({f"p{i:04d}": rows for i in range(2000)}, path)
        row_bytes = 2000 * rows.nbytes  # 16 MB
        tracemalloc.start()
        try:
            records = read_embedding_block(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.table.rows.shape == (64_000, 64)
        assert peak < row_bytes / 8, f"reading the block peaked at {peak / 1e6:.1f} MB, its rows are {row_bytes / 1e6:.1f} MB"

    @staticmethod
    def _block(path):
        """40 records of 3 rows of dim 4 in id order; record i's rows start at
        byte 16 + 57 i + 9 (the file header, then 57-byte records)."""
        write_embedding_block({f"p{i:02d}": np.full((3, 4), i, dtype=np.float32) for i in range(40)}, path)
        return read_embedding_block(path).table

    @pytest.mark.parametrize("change", ["truncate", "rewrite"])
    def test_a_block_that_changes_after_its_headers_are_read_is_a_format_error(self, tmp_path, change):
        path = tmp_path / "corpus.emb"
        table = self._block(path)
        if change == "truncate":
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - 10)
        else:  # the same sizes, other values
            write_embedding_block({f"p{i:02d}": np.full((3, 4), -i, dtype=np.float32) for i in range(40)}, path)
        message = f"{path} changed after its headers were read; the rows of record 'p05' cannot be read"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            table.rows[15:30]
        with pytest.raises(FormatError, match="the rows of record 'p00' cannot be read$"):
            build_index(table, seed=0)

    def test_a_short_read_names_the_record_it_cuts(self, tmp_path):
        path = tmp_path / "corpus.emb"
        table = self._block(path)
        with open(path, "r+b") as fh:
            fh.truncate(16 + 57 * 30 + 9 + 20)  # inside the rows of p30
        with open(path, "rb") as fh:
            table.rows._stamp = data._file_stamp(fh)  # as if it shrank after the check
        assert table.rows[:90].tobytes() == np.repeat(np.arange(30, dtype=np.float32), 12).tobytes()
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))} is truncated in the rows of record 'p30'$"):
            table.rows[60:120]


class TestTermTable:
    def test_passages_are_offset_slices_of_the_rows(self):
        rows = np.arange(10.0).reshape(5, 2)
        table = TermTable(["a", "b", "c"], rows, [0, 2, 2, 5])
        assert table.ids == ["a", "b", "c"] and len(table.ids) == 3
        assert np.array_equal(passage_rows(table, "c"), rows[2:]) and passage_rows(table, "b").shape == (0, 2)
        assert "b" in table.ids and "d" not in table.ids
        # the offsets are the one way to a passage's rows: no id lookup
        assert not isinstance(table, Mapping) and not hasattr(table, "__getitem__")

    @pytest.mark.parametrize("ids,offsets,match", [
        (["b", "a"], [0, 1, 2], "ascending"),
        (["a", "a"], [0, 1, 2], "ascending"),
        ([1, 2], [0, 1, 2], "strings"),
        (["a", "b"], [0, 2], "offsets"),
        (["a", "b"], [1, 1, 2], "offsets"),
        (["a", "b"], [0, 2, 1], "offsets"),
        (["a", "b"], [0, 1, 3], "offsets"),
    ])
    def test_rejects_a_bad_layout(self, ids, offsets, match):
        with pytest.raises(InvalidConfigError, match=match):
            TermTable(ids, np.zeros((2, 3)), offsets)

    def test_stack_orders_by_str_id_in_float64(self):
        corpus = {10: np.ones((1, 2), dtype=np.float32), 2: [[0.5, 1.5], [2.5, 3.5]], "a": np.zeros((1, 2))}
        table = TermTable.stack(corpus)
        assert table.ids == ["10", "2", "a"]
        assert table.rows.dtype == np.float64
        assert table.offsets.tolist() == [0, 1, 3, 4]
        assert np.array_equal(passage_rows(table, "2"), [[0.5, 1.5], [2.5, 3.5]])

    def test_stack_rejects_what_build_index_rejects(self):
        with pytest.raises(InvalidConfigError, match="same string form"):
            TermTable.stack({1: [[1.0]], "1": [[2.0]]})
        with pytest.raises(InvalidConfigError, match="nonempty 2-d"):
            TermTable.stack({"a": [1.0, 2.0]})
        with pytest.raises(DimensionMismatchError):
            TermTable.stack({"a": np.ones((1, 2)), "b": np.ones((1, 3))})


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

    @pytest.mark.parametrize("line", ["q2 p3", "q2 p3 p4 p5"], ids=["short", "long"])
    def test_wrong_width_line_quotes_the_layout_and_the_line(self, tmp_path, line):
        path = tmp_path / "triples.tsv"
        path.write_text(f"q1 p1 p2\n\n  {line}\t\n")
        with pytest.raises(ParseError) as exc:
            read_triples(path)
        assert exc.value.line == 3
        assert exc.value.message == f"line 3: expected 'qid pos_pid neg_pid', got {line!r}"


class TestTextFields:
    def test_yields_the_fields_of_each_nonblank_line_with_its_number(self, tmp_path):
        path = tmp_path / "fields.txt"
        path.write_text("a b\n\n \t\nc\td  \n")
        assert list(text_fields(path, "x y")) == [(1, ["a", "b"]), (4, ["c", "d"])]

    def test_a_line_of_another_width_is_a_parse_error(self, tmp_path):
        path = tmp_path / "fields.txt"
        path.write_text("a b\na b c\n")
        fields = text_fields(path, "x y")
        assert next(fields) == (1, ["a", "b"])
        with pytest.raises(ParseError, match=r"^line 2: expected 'x y', got 'a b c'$"):
            next(fields)


@pytest.mark.parametrize("reader,good,bad", [
    (read_jsonl_records, b'{"id": "a", "text": "x"}\n', b'{"id": "b", "text": "\xe9"}\n'),
    (read_triples, b"q1 p1 p2\n", b"q2 p\xe9 p4\n"),
], ids=["jsonl", "triples"])
def test_non_utf8_line_is_a_parse_error_naming_it(tmp_path, reader, good, bad):
    path = tmp_path / "input.txt"
    path.write_bytes(good + b"\n" + bad)
    with pytest.raises(ParseError, match="line 3: .*input.txt is not UTF-8"):
        reader(path)


class _FailsOnSecondWrite:
    """A file whose second write raises, as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        self.writes += 1
        if self.writes == 2:
            raise OSError("disk full")
        return self.fh.write(chunk)


WRITERS = {
    "run": lambda path, v: evaluation.write_run({"q1": [("a", v), ("b", v / 2)], "q2": [("c", v / 4)]}, path),
    "report": lambda path, v: cli._write_report(path, [v, v / 2, v / 4]),
    "embedding-block": lambda path, v: write_embedding_block({"p0": np.full((2, 3), v), "p1": np.ones((1, 3))}, path),
}  # checkpoints: tests/test_encoder.py::TestCheckpoint::test_failed_save_keeps_the_earlier_checkpoint


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_write_that_fails_halfway_keeps_the_earlier_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.file"
    WRITERS[writer](path, 1.0)
    before = path.read_bytes()
    real_open = open
    monkeypatch.setattr(data, "open", lambda *a, **k: _FailsOnSecondWrite(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path, 2.0)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]
    monkeypatch.undo()
    WRITERS[writer](path, 2.0)  # and the same write, when it does not fail, replaces the file
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]
