"""Corpus/query ingestion: hash tokenizer, JSONL records, the binary
embedding block format, and ``TermTable``, the one ragged table a corpus
travels in from the reader to the index.

A JSONL record is ``{"id": ..., "language": ..., "text": ...}`` or
``{"id": ..., "embeddings": [[...], ...]}`` (exactly one of text/embeddings).

Every text file is read through ``text_lines``, which numbers the nonblank
lines and rejects bytes that are not UTF-8. Every whitespace-separated text
file (triples here; run and qrels files in ``evaluation``) is split by
``text_fields``, the one place that checks a line's field count and words
its ParseError.

The binary embedding block lets externally computed term embeddings drop in
without any model dependency (all integers little-endian)::

    magic    4 bytes b"MVEB"
    u32      format version (1)
    u32      embedding dim
    u32      record count
    per record: u16 id byte length, UTF-8 id, u32 row count,
                rows x dim float32, row-major

``read_embedding_block`` reads only the record headers; the rows stay in
the file, and the ``BlockRows`` of the block's ``TermTable`` reads the rows
asked for when they are asked for.

``ByteReader`` parses the fields of every binary artifact the pipeline
hands on: this block, the encoder checkpoint and the index files that
hold stored facts (``index.load_index`` rebuilds the derived ones). A field
that runs past the end of its file, and a byte left over after the last
field, is a FormatError naming the file. The varint format (unsigned
LEB128) that the index files use is defined here too, for writing
(``encode_varints``) and for reading (``ByteReader.varints``, and
``ByteReader.texts`` for varint-length-prefixed strings).
"""

import json
import os
import re
import struct
import zlib
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FormatError, InvalidConfigError, ParseError
from .scoring import NUM_SPECIAL

_MAGIC = b"MVEB"
_WORD = re.compile(r"[0-9a-z]+")
_READ_BUFFER = 1 << 20  # bytes; an embedding block is read in large sequential pieces


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


def check_seed(seed):
    """The seed rule of ``config.RunConfig`` for the library calls that take a
    seed: an integer, or a tuple of them as numpy's generators take, none
    negative. numpy itself would raise a bare ValueError."""
    if np.min(seed) < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file to write (text is UTF-8) that replaces ``path`` when the block
    ends; a failed write leaves ``path`` as it was and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def text_fields(path, layout: str):
    """(line number from 1, fields) for each nonblank line of a whitespace
    separated text file, such as a run, qrels or triples file. ``layout``
    names the fields, for example ``'qid 0 pid grade'``; a line with another
    number of fields is a ParseError quoting it, as is one ``text_lines``
    rejects."""
    width = len(layout.split())
    for lineno, line in text_lines(path):
        fields = line.split()
        if len(fields) != width:
            raise ParseError(f"expected {layout!r}, got {line.strip()!r}", line=lineno)
        yield lineno, fields


def read_jsonl_records(path) -> list[CorpusRecord]:
    records = []
    seen = set()
    for lineno, line in text_lines(path):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", line=lineno) from None
        if not isinstance(raw, dict):
            raise ParseError("a record must be a JSON object", line=lineno)
        if "id" not in raw:
            raise ParseError("record is missing 'id'", line=lineno)
        if isinstance(raw["id"], bool) or not isinstance(raw["id"], (str, int)):  # a bool is an int too
            raise ParseError("'id' must be a string or an integer", line=lineno)
        for key in ("language", "text"):
            if not isinstance(raw.get(key, ""), str):
                raise ParseError(f"{key!r} must be a string", line=lineno)
        rid = str(raw["id"])
        if rid in seen:
            raise ParseError(f"duplicate record id {rid!r}", line=lineno)
        seen.add(rid)
        has_text = "text" in raw
        has_emb = "embeddings" in raw
        if has_text == has_emb:
            raise ParseError("record needs exactly one of 'text' or 'embeddings'", line=lineno)
        if has_text:
            records.append(CorpusRecord(id=rid, language=raw.get("language", ""), text=raw["text"]))
        else:
            try:
                emb = np.asarray(raw["embeddings"], dtype=np.float64)
            except (TypeError, ValueError):  # rows of unequal length, or not numbers
                emb = None
            if emb is None or emb.ndim != 2 or 0 in emb.shape:
                raise ParseError(
                    "'embeddings' must be a nonempty list of equal-length nonempty rows of numbers", line=lineno
                )
            records.append(CorpusRecord(id=rid, language=raw.get("language", ""), embeddings=emb))
    return records


def short_text_bytes(text: str, what: str) -> bytes:
    """``text`` as UTF-8 for a field with a u16 byte length, as the embedding
    block stores ids and the encoder checkpoint language names:
    InvalidConfigError naming the ``what`` (its first 40 characters) when it
    is over 65,535 bytes or holds a lone surrogate, which UTF-8 cannot
    encode."""
    name = f"{what} {text[:40]!r}{'...' if len(text) > 40 else ''}"
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidConfigError(f"{name} is not encodable as UTF-8") from None
    if len(raw) > 0xFFFF:
        raise InvalidConfigError(f"{name} is {len(raw)} UTF-8 bytes; a u16 length field holds at most 65535")
    return raw


def write_embedding_block(records: dict, path):
    """Serialize ``{id: (rows, dim) array}`` to the binary block format.

    Every record is checked before the file is opened, so nothing that
    ``read_embedding_block`` refuses is written and ``path`` keeps what it
    held. InvalidConfigError names the first record whose rows are not a
    2-d matrix as wide as the first record's, at least one column; whose id,
    as text, repeats an earlier one or is not ``short_text_bytes``; or that
    holds a finite value beyond float32's range. NaN and infinities are
    written as they are.
    """
    if not records:
        raise InvalidConfigError("cannot write an empty embedding block")
    dim = None
    keys = {}  # id text -> the record key it came from
    blocks = []
    for rid, rows in records.items():
        mat = np.asarray(rows)
        if dim is None and mat.ndim == 2 and mat.shape[1] > 0:
            dim = mat.shape[1]
        if mat.ndim != 2 or mat.shape[1] != dim:
            raise InvalidConfigError(f"record {rid!r} rows must be (count, {dim or 'dim >= 1'})")
        key = str(rid)
        if key in keys:
            raise InvalidConfigError(f"record {rid!r} repeats the id {key!r} of record {keys[key]!r}")
        keys[key] = rid
        raw = short_text_bytes(key, "record id")
        with np.errstate(over="ignore"):
            narrow = mat.astype("<f4", copy=False)
        if not np.array_equal(np.isfinite(narrow), np.isfinite(mat)):
            raise InvalidConfigError(f"record {rid!r} holds a finite value beyond float32's range")
        blocks.append((raw, narrow))
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, dim, len(blocks)))
        for raw, mat in blocks:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", mat.shape[0]))
            fh.write(np.ascontiguousarray(mat).tobytes())


def encode_varints(values) -> bytes:
    """Each value as an unsigned LEB128 varint: seven bits a byte, least
    significant first, the high bit set on every byte but the last."""
    out = bytearray()
    for value in values:
        v = int(value)
        while v > 0x7F:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


class ByteReader:
    """Consecutive fields of a binary file held in memory. A read past the
    end raises FormatError naming the file, so a truncated file never reaches
    ``struct`` or ``np.frombuffer``; ``finish`` checks that nothing is left."""

    def __init__(self, data: bytes, path, offset: int = 0):
        self.view = memoryview(data)
        self.path = path
        self.offset = offset
        self.size = len(self.view)

    def _read(self, start: int, size: int):
        """The ``size`` bytes at ``start``, which the caller has checked."""
        return self.view[start : start + size]

    def skip(self, size: int) -> int:
        """Move past ``size`` bytes and return where they start."""
        left = self.size - self.offset
        if size > left:
            raise FormatError(f"{self.path} is truncated: {size} bytes wanted at offset {self.offset}, {left} left")
        self.offset += size
        return self.offset - size

    def take(self, size: int):
        return self._read(self.skip(size), size)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, size: int) -> str:
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: a name at offset {self.offset - size} is not UTF-8") from None

    def _varint(self, raw, pos: int) -> tuple[int, int]:
        """The unsigned LEB128 varint at ``raw[pos]``, where ``raw`` holds the
        bytes from ``offset`` on, and the position after it."""
        acc = shift = 0
        while True:
            if shift > 56:
                raise FormatError(f"{self.path}: a varint at offset {self.offset + pos - 9} is over 9 bytes long")
            if pos == len(raw):
                raise FormatError(f"{self.path} is truncated: a varint runs past the end")
            byte = raw[pos]
            pos += 1
            acc |= (byte & 0x7F) << shift
            if byte < 0x80:
                return acc, pos
            shift += 7

    def varints(self, count: int) -> np.ndarray:
        """``count`` unsigned LEB128 varints as int64. A varint that runs
        past the end, or one longer than 9 bytes (63 bits), is FormatError."""
        left = self.size - self.offset
        if count > left:  # every varint takes at least one byte
            raise FormatError(f"{self.path} is truncated: {count} varints wanted at offset {self.offset}, {left} left")
        raw = self._read(self.offset, min(left, 9 * count))
        values = np.empty(count, dtype=np.int64)
        pos = 0
        for i in range(count):
            values[i], pos = self._varint(raw, pos)
        self.skip(pos)
        return values

    def texts(self, count: int) -> list[str]:
        """``count`` strings, each a varint byte length and that many UTF-8
        bytes, split from one read of the rest of the file. A length that
        breaks a ``varints`` rule, a string cut short, or one that is not
        UTF-8 is FormatError."""
        raw = bytes(self._read(self.offset, self.size - self.offset))
        out = []
        pos = 0
        for _ in range(count):
            size, pos = self._varint(raw, pos)
            if size > len(raw) - pos:
                raise FormatError(
                    f"{self.path} is truncated: {size} bytes wanted at offset {self.offset + pos}, {len(raw) - pos} left"
                )
            try:
                out.append(raw[pos : pos + size].decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"{self.path}: a name at offset {self.offset + pos} is not UTF-8") from None
            pos += size
        self.skip(pos)
        return out

    def finish(self):
        """FormatError unless every byte has been read."""
        if self.offset != self.size:
            raise FormatError(f"{self.path} has {self.size - self.offset} trailing bytes")


class FileReader(ByteReader):
    """A ByteReader over an open binary file: fields are read on demand, and
    every size is checked against the file's size before it is read, or
    skipped with ``skip``, which reads nothing."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.offset = fh.tell()
        self.size = os.fstat(fh.fileno()).st_size

    def _read(self, start: int, size: int) -> bytes:
        self.fh.seek(start)
        raw = self.fh.read(size)
        if len(raw) != size:  # the file shrank since it was opened
            raise FormatError(f"{self.path} is truncated at offset {start + len(raw)}")
        return raw


class TermTable(Mapping):
    """Passage id -> term matrix, held as one ragged row table: the ids are
    strings in strictly ascending order, and passage ``ids[i]`` is
    ``rows[offsets[i]:offsets[i + 1]]``. ColBERTv2 and PLAID hold a corpus
    the same way, as one flat embedding tensor plus per-passage lengths.

    ``rows`` is a 2-d array or an embedding block's ``BlockRows``, which
    reads the rows asked for from the file on demand; either has ``shape``,
    ``ndim`` and ``dtype`` and is sliced by row ranges and row index arrays.
    ``build_index`` asks for the sampled passages once and for every row
    twice, so it reads an embedding block's rows from the file that often.
    The rows keep the dtype they were made with: an embedding block's are
    its float32 values, stacked matrices are float64.
    """

    def __init__(self, ids, rows, offsets):
        name = type(self).__name__
        self.ids = list(ids)
        if not all(isinstance(pid, str) for pid in self.ids):
            raise InvalidConfigError(f"{name} ids must be strings")
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise InvalidConfigError(f"{name} ids must be strictly ascending")
        self.rows = rows
        self.offsets = np.asarray(offsets, dtype=np.int64)
        if (
            rows.ndim != 2
            or self.offsets.shape != (len(self.ids) + 1,)
            or self.offsets[0] != 0
            or self.offsets[-1] != rows.shape[0]
            or np.any(np.diff(self.offsets) < 0)
        ):
            raise InvalidConfigError(f"{name} offsets must rise from 0 to the row count, one per passage and one more")

    @classmethod
    def stack(cls, corpus: Mapping) -> "TermTable":
        """Stack ``{id: (rows, dim) matrix}`` into one float64 table, in the
        order of the ``str`` ids. Two keys with the same ``str`` form, a
        matrix that is not 2-d or has no rows, and a dimension that differs
        from the first passage's are InvalidConfigError or
        DimensionMismatchError naming the key."""
        keys = sorted(corpus, key=str)
        ids = [str(k) for k in keys]
        if len(set(ids)) != len(ids):
            raise InvalidConfigError("two passage ids have the same string form")
        matrices = []
        for key in keys:
            mat = np.asarray(corpus[key], dtype=np.float64)
            if mat.ndim != 2 or mat.shape[0] == 0:
                raise InvalidConfigError(f"passage {key!r} must be a nonempty 2-d matrix")
            if matrices and mat.shape[1] != matrices[0].shape[1]:
                raise DimensionMismatchError(f"passage {key!r} dim {mat.shape[1]} != {matrices[0].shape[1]}")
            matrices.append(mat)
        offsets = np.concatenate(([0], np.cumsum([m.shape[0] for m in matrices], dtype=np.int64)))
        return cls(ids, np.vstack(matrices) if matrices else np.empty((0, 0)), offsets)

    @cached_property
    def passages(self) -> list:
        """Every passage's rows, as views of an in-memory table, in id order."""
        bounds = self.offsets.tolist()
        return [self.rows[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def _position(self) -> dict:
        return {pid: i for i, pid in enumerate(self.ids)}

    def __getitem__(self, pid):
        i = self._position[pid]
        return self.rows[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)


def _file_stamp(fh) -> tuple:
    """What tells one version of an open file from another: its inode,
    size and modification time."""
    st = os.fstat(fh.fileno())
    return st.st_ino, st.st_size, st.st_mtime_ns


class BlockRows:
    """The rows of an embedding block's ``TermTable``, in id order, read
    from the file when they are asked for; nothing holds them all.

    ``rows[lo:hi]`` and ``rows[index array]`` return a new float32 array of
    those rows. They are read with one read per run of rows, in the order
    asked for, whose records sit next to each other in the file, and
    gathered out of those bytes without a loop over records. Every read
    first checks that ``_file_stamp`` is still that of the header pass, and
    that it read every byte it asked for: a block that shrank or changed
    since is FormatError naming the file and a record.
    """

    ndim = 2
    dtype = np.dtype("<f4")

    def __init__(self, path, stamp: tuple, dim: int, offsets, ranks, ids: list, starts: list):
        self.path = path
        self.shape = (int(offsets[-1]), dim)
        self._stamp = stamp  # the file's _file_stamp at the header pass
        self._offsets = offsets  # each passage's first row, in id order
        self._ranks = ranks  # each passage's record number in the file
        self._ids = ids  # the records' ids, in file order
        self._starts = np.array(starts, dtype=np.int64)  # where each record's rows start, in file order

    def __getitem__(self, key) -> np.ndarray:
        n, dim = self.shape
        if isinstance(key, slice):
            rows = np.arange(*key.indices(n))
        else:
            rows = np.asarray(key)
            if rows.ndim != 1 or rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n):
                raise IndexError(f"rows are asked for by a slice or a 1-d array of row numbers below {n}")
        if rows.size == 0:
            return np.empty((0, dim), dtype=self.dtype)
        width = 4 * dim
        passage = np.searchsorted(self._offsets, rows, side="right") - 1
        rank = self._ranks[passage]
        where = self._starts[rank] + width * (rows - self._offsets[passage])  # each row's file offset
        # a run goes on while the next row asked for is later in the same record or in the next one
        step = np.diff(rank)
        new_run = np.r_[True, (step < 0) | (step > 1) | (np.diff(where) <= 0)]
        heads = np.flatnonzero(new_run)
        lo, hi = where[heads], where[np.r_[heads[1:] - 1, rows.size - 1]] + width
        base = np.cumsum(hi - lo) - (hi - lo)  # each run's place in buf
        buf = np.empty(int(base[-1] + hi[-1] - lo[-1]), dtype=np.uint8)
        view = memoryview(buf)
        with open(self.path, "rb") as fh:
            if _file_stamp(fh) != self._stamp:
                raise FormatError(
                    f"{self.path} changed after its headers were read; the rows of record "
                    f"{self._ids[rank[0]]!r} cannot be read"
                )
            for head, a, b, at in zip(heads.tolist(), lo.tolist(), hi.tolist(), base.tolist()):
                fh.seek(a)
                got = fh.readinto(view[at : at + b - a])
                if got != b - a:
                    cut = head + int(np.argmax(where[head:] + width > a + got))
                    raise FormatError(f"{self.path} is truncated in the rows of record {self._ids[rank[cut]]!r}")
        # one row-wide item starting at every byte of buf, so one index gathers whole rows
        windows = np.ndarray((buf.size - width + 1,), dtype=(np.void, width), buffer=buf, strides=(1,))
        return windows[where + (base - lo)[np.cumsum(new_run) - 1]].view(self.dtype).reshape(rows.size, dim)


class BlockRecords(Sequence):
    """An embedding block's records in file order, each made when it is
    read, with its rows read from the file by ``table``, which holds the
    same passages in id order."""

    def __init__(self, table: TermTable, positions: list):
        self.table = table
        self._positions = positions  # each record's passage index in the table, in file order

    def __len__(self):
        return len(self._positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        pid = self.table.ids[self._positions[i]]
        return CorpusRecord(id=pid, embeddings=self.table[pid])


def read_embedding_block(path) -> BlockRecords:
    """The records of a binary embedding block, in file order, over one
    float32 ``TermTable`` of their rows in id order.

    The file is read once here, for its record headers; the rows are
    skipped, and every size is checked against the file's size: a truncated
    block, a row count that runs past the end, trailing bytes and a repeated
    id are FormatError. The table's rows are a ``BlockRows``, which reads
    rows from the file on demand, so no corpus-sized buffer is allocated:
    ``build_index`` reads the sampled passages once and every row twice
    more, and a record's rows are read when the record is.
    """
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        if fh.read(4) != _MAGIC:
            raise FormatError(f"{path} is not an embedding block (bad magic)")
        stamp = _file_stamp(fh)
        reader = FileReader(fh, path)
        version, dim, count = reader.unpack("<III")
        if version != 1:
            raise FormatError(f"unsupported embedding block version {version}")
        if dim == 0:
            raise FormatError(f"{path} has dim 0")
        ids, counts, starts = [], [], []
        seen = set()
        for _ in range(count):
            (id_len,) = reader.unpack("<H")
            rid = reader.text(id_len)
            (rows,) = reader.unpack("<I")
            if rid in seen:
                raise FormatError(f"duplicate record id {rid!r} in embedding block")
            seen.add(rid)
            ids.append(rid)
            counts.append(rows)
            starts.append(reader.offset)
            reader.skip(4 * rows * dim)
        reader.finish()

    order = sorted(range(count), key=ids.__getitem__)
    offsets = np.concatenate(([0], np.cumsum([counts[i] for i in order], dtype=np.int64)))
    positions = [0] * count
    for p, i in enumerate(order):
        positions[i] = p
    block_rows = BlockRows(path, stamp, dim, offsets, np.array(order, dtype=np.int64), ids, starts)
    return BlockRecords(TermTable([ids[i] for i in order], block_rows, offsets), positions)


def read_records(path) -> Sequence[CorpusRecord]:
    """Dispatch on the file magic: binary embedding block or JSONL."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return read_embedding_block(path)
    return read_jsonl_records(path)


def read_triples(path) -> list[tuple[str, str, str]]:
    """Whitespace-separated ``qid positive_pid negative_pid`` lines."""
    return [tuple(fields) for _, fields in text_fields(path, "qid pos_pid neg_pid")]
