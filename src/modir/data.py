"""Corpus/query ingestion: hash tokenizer, JSONL records, and the binary
embedding block format.

A JSONL record is ``{"id": ..., "language": ..., "text": ...}`` or
``{"id": ..., "embeddings": [[...], ...]}`` (exactly one of text/embeddings).

The binary embedding block lets externally computed term embeddings drop in
without any model dependency (all integers little-endian)::

    magic    4 bytes b"MVEB"
    u32      format version (1)
    u32      embedding dim
    u32      record count
    per record: u16 id byte length, UTF-8 id, u32 row count,
                rows x dim float32, row-major
"""

import json
import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidConfigError, ParseError
from .scoring import NUM_SPECIAL

_MAGIC = b"MVEB"
_WORD = re.compile(r"[0-9a-z]+")


def tokenize(text: str, vocab: int) -> list[int]:
    """Lowercase, split on non-alphanumerics, hash into [NUM_SPECIAL, vocab)."""
    if vocab <= NUM_SPECIAL:
        raise InvalidConfigError(f"vocab must exceed {NUM_SPECIAL}, got {vocab}")
    span = vocab - NUM_SPECIAL
    return [NUM_SPECIAL + zlib.crc32(w.encode("utf-8")) % span for w in _WORD.findall(text.lower())]


@dataclass(frozen=True)
class CorpusRecord:
    """One passage or query: raw text (to be tokenized) or precomputed rows."""

    id: str
    language: str = ""
    text: str | None = None
    embeddings: np.ndarray | None = None


def text_lines(path):
    """(line number from 1, line) for each nonblank line of a UTF-8 text
    file. A line holding bytes that are not UTF-8 is a ParseError naming it."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # undecodable bytes came back as lone surrogates
            except UnicodeEncodeError:
                raise ParseError(f"{path} is not UTF-8 text", line=lineno) from None
            if line.strip():
                yield lineno, line


def read_jsonl_records(path) -> list[CorpusRecord]:
    records = []
    seen = set()
    for lineno, line in text_lines(path):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", line=lineno) from None
        if "id" not in raw:
            raise ParseError("record is missing 'id'", line=lineno)
        rid = str(raw["id"])
        if rid in seen:
            raise ParseError(f"duplicate record id {rid!r}", line=lineno)
        seen.add(rid)
        has_text = "text" in raw
        has_emb = "embeddings" in raw
        if has_text == has_emb:
            raise ParseError("record needs exactly one of 'text' or 'embeddings'", line=lineno)
        if has_text:
            records.append(CorpusRecord(id=rid, language=str(raw.get("language", "")), text=str(raw["text"])))
        else:
            try:
                emb = np.asarray(raw["embeddings"], dtype=np.float64)
            except (TypeError, ValueError):  # rows of unequal length, or not numbers
                emb = None
            if emb is None or emb.ndim != 2 or emb.shape[0] == 0:
                raise ParseError("'embeddings' must be a nonempty list of equal-length rows of numbers", line=lineno)
            records.append(CorpusRecord(id=rid, language=str(raw.get("language", "")), embeddings=emb))
    return records


def write_embedding_block(records: dict, path):
    """Serialize ``{id: (rows, dim) array}`` to the binary block format."""
    items = list(records.items())
    if not items:
        raise InvalidConfigError("cannot write an empty embedding block")
    dim = np.asarray(items[0][1]).shape[1]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, dim, len(items)))
        for rid, rows in items:
            mat = np.asarray(rows, dtype=np.float32)
            if mat.ndim != 2 or mat.shape[1] != dim:
                raise InvalidConfigError(f"record {rid!r} rows must be (count, {dim})")
            raw = str(rid).encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", mat.shape[0]))
            fh.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


class ByteReader:
    """Consecutive fields of a binary file held in memory. A read past the
    end raises FormatError naming the file, so a truncated file never reaches
    ``struct`` or ``np.frombuffer``."""

    def __init__(self, data: bytes, path, offset: int = 0):
        self.view = memoryview(data)
        self.path = path
        self.offset = offset

    def take(self, size: int) -> memoryview:
        left = len(self.view) - self.offset
        if size > left:
            raise FormatError(f"{self.path} is truncated: {size} bytes wanted at offset {self.offset}, {left} left")
        self.offset += size
        return self.view[self.offset - size : self.offset]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: a name at offset {self.offset - size} is not UTF-8") from None


def read_embedding_block(path) -> list[CorpusRecord]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path} is not an embedding block (bad magic)")
    reader = ByteReader(data, path, 4)
    version, dim, count = reader.unpack("<III")
    if version != 1:
        raise FormatError(f"unsupported embedding block version {version}")
    records = []
    seen = set()
    for _ in range(count):
        (id_len,) = reader.unpack("<H")
        rid = reader.text(id_len)
        (rows,) = reader.unpack("<I")
        mat = np.frombuffer(reader.take(4 * rows * dim), dtype="<f4").reshape(rows, dim)
        if rid in seen:
            raise FormatError(f"duplicate record id {rid!r} in embedding block")
        seen.add(rid)
        records.append(CorpusRecord(id=rid, embeddings=mat.astype(np.float64)))
    if reader.offset != len(data):
        raise FormatError(f"{path} has {len(data) - reader.offset} trailing bytes")
    return records


def read_records(path) -> list[CorpusRecord]:
    """Dispatch on the file magic: binary embedding block or JSONL."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return read_embedding_block(path)
    return read_jsonl_records(path)


def read_triples(path) -> list[tuple[str, str, str]]:
    """Whitespace-separated ``qid positive_pid negative_pid`` lines."""
    triples = []
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'qid pos_pid neg_pid', got {line.strip()!r}", line=lineno)
        triples.append((parts[0], parts[1], parts[2]))
    return triples
