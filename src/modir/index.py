"""Centroid/residual-quantized inverted-file index with two-stage search.

Every term embedding is stored as the id of its nearest centroid plus a
2-bit-per-dimension quantized residual, so one vector costs 2*dim +
ceil(log2 |C|) bits. "Nearest" is the smallest ``|c|^2 - 2 x.c``
(``_centroid_scores``: Euclidean up to rounding, ties to the lowest id), for
the build's assignment and the query probe alike. Construction keeps the
stored facts and derives only the external-id map, the float64 centroids and
each list's size; the first search derives, in one step
(``CompressedIndex.search_state``), everything both search stages read: the
inverted lists, the probe table and one float32 table of unit-norm
decompressed rows in inverted-list order. For each query term the lists of
the n_probe centroids nearest by that score are scored by cosine, in float32.
Per-term maxima go into a compact table with one row per passage that the
probed lists hold, and each row is summed across query terms in float64, less
a proven float32 rounding bound (an unfetched passage/term pair adds 0: a
lower bound of decompressed MaxSim for nonnegative maxima). Re-ranking reads
the top candidate_k passages' float32 rows, scores those passages in blocks
of rows (one matmul per block), decodes the rows of the few whose blocked
score is within rounding distance of the final_k-th best again in float64,
and scores those with the oracle's exact MaxSim kernel, which gives the
scores it reports.
Both stages, like the oracle, accept a query that ``scoring.check_query``
accepts at the index's width: a finite float (terms, dim) matrix with rows.

In memory the residual codes stay packed four per byte, (n, ceil(dim/4))
uint8 with the first dimension in a byte's top two bits (``pack_residuals``),
the bit order of codes.bin's residual field, through build, save, load and
search: the build packs each block as it encodes it, save and load convert
each chunk between the two with one bit unpack or pack, and decompression
reads a byte's four representatives from a 256-entry table per byte column.

On-disk layout (directory; all integers little-endian; varint = unsigned
LEB128, written by ``data.encode_varints`` and read by
``data.ByteReader.varints`` and ``.texts``). centroids.f32, codec.f32,
codes.bin and passages.bin hold the stored facts; ``load_index`` parses them
through ``data.ByteReader``, the reader that also parses the embedding block
and the encoder checkpoint. meta.json and invlists.bin are derived, each
with one writer (``_meta_bytes``, ``_invlists_bytes``): ``load_index``
rebuilds both with those writers from what it loaded, and refuses any other
bytes:

    meta.json       format_version, dim, centroid_count, embedding_count,
                    passage_count, id_bits, bits_per_embedding, seed; one
                    line of sorted compact JSON
    centroids.f32   centroid_count x dim float32, row-major
    codec.f32       cut points (3 x dim) then representatives (4 x dim), float32
    codes.bin       per embedding, MSB-first: centroid id (id_bits bits) then
                    2 bits per dimension; one contiguous bitstream, padded
                    with zero bits to a byte at the end, and a nonzero padding
                    bit is refused. Size = ceil(n * bits_per_embedding / 8).
    invlists.bin    u32 count of nonempty lists; per list (ascending centroid
                    id): varint centroid-id gap, varint length. Memberships
                    are not duplicated on disk: every embedding id belongs to
                    exactly the list named by its centroid-id field in
                    codes.bin, so the file is the lists' sizes, and the first
                    search derives the lists (ascending ids) from the codes.
    passages.bin    u32 passage count, varint embeddings-per-passage, u8 id
                    mode (0 = ids are decimal positions, 1 = explicit), then
                    per passage varint byte length + UTF-8 id when explicit
"""

import json
import math
import os
import shutil
import struct
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import scoring
from .data import ByteReader, TermTable, check_seed, encode_varints
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    FormatError,
    InvalidConfigError,
    UnknownPassageError,
)
from .evaluation import UnitCorpus

FORMAT_VERSION = 1
INDEX_FILES = ("meta.json", "centroids.f32", "codec.f32", "codes.bin", "invlists.bin", "passages.bin")
_UNIT_BLOCK = 2048  # rows per block of unit rows and of the build's checks and encoding; bounds temporaries
_PACK_ROWS = 8192  # embeddings per codes.bin chunk packed or unpacked; a multiple of 8, so each ends on a byte
_SAMPLE_PASSAGES = 256  # passages sampled to fit the centroids and the codec
_FLOAT32_LIMIT = 2.0**128 - 2.0**103  # half an ulp past float32's largest value: float64 from here rounds to inf
_LLOYD_ITERATIONS = 25  # at most this many Lloyd iterations after k-means++
_LLOYD_TOL = 1e-6  # Lloyd stops once no centroid moves farther than this
_DISTANCE_FLOATS = 1_000_000  # float64s in one (rows x centroids) distance block of a build: 8 MB


class DuplicateCentroidWarning(UserWarning):
    """Requested more centroids than distinct sample vectors."""


# ---------------------------------------------------------------------------
# Centroid selection


def centroid_count_for(total_estimate: int) -> int:
    """Power of two >= sqrt(total_estimate): 2 ** ceil(log2 sqrt n)."""
    if total_estimate < 1:
        raise InvalidConfigError(f"total_estimate must be >= 1, got {total_estimate}")
    return 1 << math.ceil(math.log2(math.sqrt(total_estimate))) if total_estimate > 1 else 1


def _centroid_scores(rows: np.ndarray, scaled: np.ndarray, cc: np.ndarray, out=None) -> np.ndarray:
    """The one centroid score of the index, ``|c|^2 - 2 x.c`` for each row x
    and centroid c: one product with ``scaled``, the centroid table times -2
    (exact), and one add of ``cc``, its squared norms ``(c * c).sum(axis=1)``;
    written into ``out`` when given.

    It is a row's squared distance less ``|x|^2``, a term the same for every
    centroid of the row, so build and search rank a row's centroids by it
    alike: assignment (``nearest_centroid_ids``) and the query probe
    (``approximate_candidates``) take its smallest. k-means++ adds ``|x|^2``
    and clips at zero, for the true squared distances it draws from.
    """
    score = np.matmul(rows, scaled.T, out=out)
    score += cc
    return score


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator, xx: np.ndarray, inverse: np.ndarray):
    """k-means++ seeding. ``xx`` holds the points' squared norms and
    ``inverse`` each point's distinct-row id (``np.unique(..., axis=0)``).

    Each pick costs one matvec: the chosen point's ``_centroid_scores`` plus
    ``|x|^2``, clipped at zero (norm expansion), instead of a pass over a
    difference matrix. Copies of a chosen point get exactly 0, as a direct
    ``((p - c) ** 2).sum()`` gives them: the expansion can leave a few ulps
    there, and once every distinct point is chosen the ``total == 0`` branch
    must be taken, not a draw over rounding noise.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    d2 = np.full(n, np.inf)
    col = np.empty((n, 1))
    idx = int(rng.integers(n))
    for j in range(k):
        if j:
            total = d2.sum()
            idx = int(rng.choice(n, p=d2 / total)) if total > 0.0 else int(rng.integers(n))
        centers[j] = points[idx]
        _centroid_scores(points, -2.0 * centers[j : j + 1], xx[idx : idx + 1], out=col)
        col += xx[:, None]
        np.maximum(col, 0.0, out=col)
        col[inverse == inverse[idx]] = 0.0
        np.minimum(d2, col[:, 0], out=d2)
    return centers


def select_centroids(sample, k: int, seed) -> np.ndarray:
    """Seeded k-means++ plus Lloyd iterations: ``k`` centroids of the sampled
    term embeddings.

    ``sample`` is one (rows, dim) matrix with at least one row. When there
    are fewer distinct sample vectors than centroids, the sample is cycled
    and duplicate centroids are kept with a warning.

    Each Lloyd iteration assigns the sample with ``nearest_centroid_ids``,
    the one assignment routine of a build, so ties go to the lowest id among
    the distinct centroids here as everywhere else. The result is
    bit-identical to seeding with direct squared differences, assigning by
    full squared distances and taking each Lloyd mean as
    ``points[assign == j].mean(axis=0)``, on all but measure-zero inputs:
    k-means++ draws from distances by norm expansion (``_centroid_scores``
    plus ``|x|^2``, clipped), which move only in the last bits (and are
    exactly 0 for copies of a chosen point, as the direct form gives); an
    assignment by ``_centroid_scores`` parts from one by full distances only
    at ties within rounding; and the means are one ``np.add.at`` sum, which
    adds each cluster's rows in the same order as that ``mean``
    (``np.add.reduceat`` does not). A one-column sample is
    the exception: numpy sums a contiguous column pairwise, so its clusters
    are summed one at a time. Empty clusters keep their previous centroid.
    A sample that is not 2-d is InvalidConfigError, before any work or
    warning.
    """
    points = np.asarray(sample, dtype=np.float64)
    if points.ndim != 2:
        raise InvalidConfigError(f"centroid selection needs a 2-d sample, got {points.ndim}-d")
    if points.shape[0] == 0:
        raise EmptyInputError("centroid selection needs at least one sample vector")
    if k < 1:
        raise InvalidConfigError(f"centroid count must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    distinct, inverse = np.unique(points, axis=0, return_inverse=True)
    if distinct.shape[0] < k:
        warnings.warn(
            f"requested {k} centroids from {distinct.shape[0]} distinct vectors; duplicates kept",
            DuplicateCentroidWarning,
            stacklevel=2,
        )
    if k >= n:
        reps = -(-k // n)  # ceil
        return np.tile(points, (reps, 1))[:k]
    centroids = _kmeans_pp_init(points, k, rng, (points * points).sum(axis=1), inverse.reshape(-1))
    sums = np.empty_like(centroids)
    columns = np.arange(points.shape[1])
    for _ in range(_LLOYD_ITERATIONS):
        assign = nearest_centroid_ids(points, centroids)
        sums[:] = 0.0
        if points.shape[1] == 1:  # a one-column mean is a contiguous reduction, which sums pairwise
            for j in np.unique(assign):
                sums[j] = points[assign == j].sum(axis=0)
        else:  # flat indices take ufunc.at's 1-d fast path; each sum still adds its rows in order
            np.add.at(sums.reshape(-1), (assign[:, None] * points.shape[1] + columns).reshape(-1), points.reshape(-1))
        counts = np.bincount(assign, minlength=k)[:, None]
        new = np.where(counts > 0, sums / np.maximum(counts, 1), centroids)
        shift = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if shift <= _LLOYD_TOL:
            break
    return centroids


def _row_blocks(rows: int, centroids: int) -> list:
    """Slices that cover ``rows`` rows in blocks of at most ``_DISTANCE_FLOATS
    // centroids`` rows (at least one), as few as that allows, of heights
    that differ by at most one row, the first the tallest: no block is a
    short remainder. With several blocks each is at least half that cap,
    so 32 rows or more up to 15,625 centroids. ``nearest_centroid_ids``,
    which takes every (rows x centroids) score matrix of a build, reads its
    rows in these blocks: a row of a product has the same bits in any
    product of 32 rows or more, but can differ in a shorter one (BLAS picks
    its kernels by shape)."""
    count = max(1, -(-rows // max(1, _DISTANCE_FLOATS // centroids)))
    return [slice(-(-i * rows // count), -(-(i + 1) * rows // count)) for i in range(count)]  # ceil(i rows / count)


def nearest_centroid_ids(vectors, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per vector; any tie resolves to the lowest centroid id.

    The one assignment routine of a build: each Lloyd iteration of
    ``select_centroids`` and the corpus pass of ``build_index`` call it.
    Duplicate centroid rows are collapsed before scoring and mapped back to
    the lowest original id, so ties are exact, not float-luck.

    Each row takes the argmin of ``_centroid_scores`` over the distinct
    centroids, the score by which the query probe ranks centroids too, so a
    query row equal to an indexed row probes that row's list first. The
    score leaves out ``|x|^2`` and a clip at zero, which an argmin does not
    need: its argmin can differ from that of the full clipped squared
    distance only where two centroids tie within the rounding that adding
    ``|x|^2`` makes, or where the clip made a tie.

    Scores are taken in ``_row_blocks`` blocks (distinct centroids wide),
    into one reused buffer. A row's scores have the same bits in a block of
    32 rows or more as in the whole product, so the block height moves no
    assignment, and no index byte. ``vectors`` is a 2-d array or a row
    source such as ``data.BlockRows``: only its ``shape`` and one block
    slice at a time are read, so an embedding block's rows are read from its
    file on demand, once here and once more by ``build_index``'s residual
    pass. Float32 vectors are widened to float64 one block at a time, which
    is exact. Vectors or centroids that are not 2-d are InvalidConfigError,
    and no centroids EmptyInputError, before any work.
    """
    cents = np.asarray(centroids, dtype=np.float64)
    if len(vectors.shape) != 2 or cents.ndim != 2:
        raise InvalidConfigError(
            f"assignment needs 2-d vectors and centroids, got {len(vectors.shape)}-d and {cents.ndim}-d"
        )
    if cents.shape[0] == 0:
        raise EmptyInputError("assignment needs at least one centroid")
    if vectors.shape[1] != cents.shape[1]:
        raise DimensionMismatchError(f"vector dim {vectors.shape[1]} != centroid dim {cents.shape[1]}")
    uniq, first = np.unique(cents, axis=0, return_index=True)
    order = np.argsort(first, kind="stable")
    uniq = uniq[order]  # unique rows, ordered by first appearance (= lowest id)
    lowest = first[order]
    cc = (uniq * uniq).sum(axis=1)
    uniq *= -2.0  # exact, and uniq is a private copy: the product below is -2 x.c
    out = np.empty(vectors.shape[0], dtype=np.int64)
    blocks = _row_blocks(vectors.shape[0], uniq.shape[0])
    buf = np.empty((blocks[0].stop, uniq.shape[0]))
    for rows in blocks:
        block = np.asarray(vectors[rows], dtype=np.float64)
        score = _centroid_scores(block, uniq, cc, out=buf[: block.shape[0]])
        # argmin takes the first minimum; rows are in lowest-original-id order
        out[rows] = lowest[np.argmin(score, axis=1)]
    return out


# ---------------------------------------------------------------------------
# Residual codec


@dataclass
class ResidualCodec:
    """Per-dimension 2-bit quantizer: three cut points and four representatives."""

    cuts: np.ndarray  # (3, dim)
    reps: np.ndarray  # (4, dim)

    @property
    def dim(self) -> int:
        return self.cuts.shape[1]

    def encode(self, residuals: np.ndarray) -> np.ndarray:
        """Bucket index 0..3 per dimension: the count of cut points <= value."""
        r = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
        if r.shape[1] != self.dim:
            raise DimensionMismatchError(f"residual dim {r.shape[1]} != codec dim {self.dim}")
        cuts = self.cuts.astype(np.float64)
        codes = (r >= cuts[0]).astype(np.uint8)
        codes += r >= cuts[1]
        codes += r >= cuts[2]
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Representative ``reps[codes[i, j], j]`` per element, as float64:
        one ``np.take`` from the flat table ``reps.T``, at ``4 j + code``."""
        codes = np.atleast_2d(np.asarray(codes))
        if codes.shape[1] != self.dim:
            raise DimensionMismatchError(f"code dim {codes.shape[1]} != codec dim {self.dim}")
        return np.take(self.reps.astype(np.float64).T.ravel(), codes + 4 * np.arange(self.dim))


def fit_codec(residual_sample) -> ResidualCodec:
    """Quantile codec: cuts at the 25/50/75th percentiles per dimension,
    representatives are in-bucket means. The codec is as wide as the sample.

    Empty inner buckets fall back to the midpoint of their cut interval;
    empty outer buckets collapse onto the adjacent cut point.

    A bucket's sums skip the rows outside it (``where=``) instead of adding
    a 0.0 for each from a sample-sized masked copy. With two or more columns
    the rows add in order from a +0.0 start, so a partial sum is never -0.0
    and the skipped +0.0 terms never changed a bit, signed zeros included.
    One column is the exception: numpy sums it pairwise, which the zeros'
    places change, so it keeps its masked copy, one float per row.
    """
    r = np.atleast_2d(np.asarray(residual_sample, dtype=np.float64))
    if r.shape[0] == 0:
        raise EmptyInputError("codec fitting needs at least one residual vector")
    cuts = np.percentile(r, [25.0, 50.0, 75.0], axis=0)
    codec = ResidualCodec(cuts=cuts, reps=np.empty((4, r.shape[1])))
    codes = codec.encode(r)
    fallback = np.stack([cuts[0], 0.5 * (cuts[0] + cuts[1]), 0.5 * (cuts[1] + cuts[2]), cuts[2]])
    for bucket in range(4):
        mask = codes == bucket
        counts = mask.sum(axis=0)
        if r.shape[1] == 1:
            sums = np.where(mask, r, 0.0).sum(axis=0)
        else:
            sums = np.add.reduce(r, axis=0, where=mask)
        codec.reps[bucket] = np.where(counts > 0, sums / np.maximum(counts, 1), fallback[bucket])
    return codec


# ---------------------------------------------------------------------------
# Bit packing


def bits_per_embedding(dim: int, centroid_count: int) -> int:
    return 2 * dim + id_bit_width(centroid_count)


def id_bit_width(centroid_count: int) -> int:
    if centroid_count < 1:
        raise InvalidConfigError("centroid count must be >= 1")
    return math.ceil(math.log2(centroid_count)) if centroid_count > 1 else 0


_CODE_SHIFTS = np.array([6, 4, 2, 0], dtype=np.uint8)  # bit offsets of a byte's four codes, first dimension on top


def pack_residuals(codes: np.ndarray) -> np.ndarray:
    """(rows, dim) residual codes 0..3 -> (rows, ceil(dim / 4)) uint8, the
    index's in-memory layout: four codes per byte, dimension 4j + i in bits
    7 - 2i and 6 - 2i of byte j (the first in the top two bits, as in
    codes.bin's residual field), the last byte of a row zero-padded."""
    rows, dim = codes.shape
    width = -(-dim // 4)
    quads = np.zeros((rows, width, 4), dtype=np.uint8)
    quads.reshape(rows, 4 * width)[:, :dim] = codes
    return (quads[..., 0] << 6) | (quads[..., 1] << 4) | (quads[..., 2] << 2) | quads[..., 3]


def pack_codes(centroid_ids: np.ndarray, residual_codes: np.ndarray, dim: int, id_bits: int) -> bytes:
    """One MSB-first bitstream: per embedding the centroid id then 2 bits/dim,
    zero-padded to a byte at the end. ``residual_codes`` is packed
    (``pack_residuals``): its first ``2 * dim`` bits per row are the field,
    in the stream's bit order.

    The embeddings are unpacked into one bit per byte, so a caller bounds
    that temporary by the rows it passes. ``save_index`` passes
    ``_PACK_ROWS`` at a time, a multiple of 8: every chunk but the last ends
    on a byte boundary, so the chunks' bytes join into the stream of one call
    over all embeddings.
    """
    shifts = np.arange(id_bits - 1, -1, -1, dtype=np.uint64)
    bits = np.empty((residual_codes.shape[0], id_bits + 2 * dim), dtype=np.uint8)
    bits[:, :id_bits] = (centroid_ids.astype(np.uint64)[:, None] >> shifts) & 1
    bits[:, id_bits:] = np.unpackbits(residual_codes, axis=1, count=2 * dim)
    return np.packbits(bits).tobytes()


def unpack_codes(blob: bytes, count: int, dim: int, id_bits: int):
    """The inverse of ``pack_codes``, ``_PACK_ROWS`` embeddings at a time
    into preallocated arrays (every chunk starts on a byte): the centroid
    ids, and the residual codes packed, one ``np.packbits`` of each chunk's
    residual bit columns."""
    width = id_bits + 2 * dim
    raw = np.frombuffer(blob, dtype=np.uint8)
    weights = 1 << np.arange(id_bits - 1, -1, -1, dtype=np.int64)  # most significant bit first
    centroid_ids = np.empty(count, dtype=np.int64)
    residual_codes = np.empty((count, -(-dim // 4)), dtype=np.uint8)
    for lo in range(0, count, _PACK_ROWS):
        rows = min(_PACK_ROWS, count - lo)
        bits = np.unpackbits(raw[lo * width // 8 :], count=rows * width).reshape(rows, width)
        centroid_ids[lo : lo + rows] = bits[:, :id_bits] @ weights
        residual_codes[lo : lo + rows] = np.packbits(bits[:, id_bits:], axis=1)
    return centroid_ids, residual_codes


# ---------------------------------------------------------------------------
# The index


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the two-stage search: each an integer of at least 1
    (``scoring.check_count``), and candidate_k at least final_k."""

    n_probe: int
    candidate_k: int = 1000
    final_k: int = 10

    def __post_init__(self):
        for name in ("n_probe", "candidate_k", "final_k"):
            scoring.check_count(getattr(self, name), name)
        if self.candidate_k < self.final_k:
            raise InvalidConfigError(
                f"need candidate_k >= final_k, got candidate_k={self.candidate_k} final_k={self.final_k}"
            )


# What the search stages read (``CompressedIndex.search_state``)
SearchState = namedtuple("SearchState", "list_offsets member_passages positions probe unit_rows")


@dataclass
class CompressedIndex:
    """Compressed corpus: centroid table, codec, per-embedding codes and the
    passage map. These stored facts are the constructor's only arguments.

    Construction derives only what is per passage or per centroid: the
    external-id map, the float64 centroids and ``list_sizes``, each
    centroid's list size (the counts invlists.bin stores). Everything the
    two search stages read, the inverted lists included, is ``search_state``,
    derived in one step by the first search, so building, saving and
    loading an index, and the oracle's ``unit_corpus``, hold no per-embedding
    array besides ``centroid_ids`` and ``residual_codes``. The residual
    codes are held packed, four per byte, and never unpacked whole:
    decompression decodes the bytes it reads through ``_decode_table``.
    """

    centroids: np.ndarray  # (C, dim) float32
    codec: ResidualCodec  # float32 cuts / reps
    centroid_ids: np.ndarray  # (n,) int64, per embedding
    residual_codes: np.ndarray  # (n, ceil(dim / 4)) uint8, four 2-bit codes per byte (``pack_residuals``)
    passage_ids: list  # external ids (strings), internal order
    passage_offsets: np.ndarray  # (P+1,) int64
    seed: int = 0

    def __post_init__(self):
        if self.residual_codes.shape != (self.embedding_count, -(-self.dim // 4)):
            raise InvalidConfigError(
                f"residual codes of shape {self.residual_codes.shape} are not {self.embedding_count} rows "
                f"of {-(-self.dim // 4)} packed bytes"
            )
        self._by_external = {pid: i for i, pid in enumerate(self.passage_ids)}
        self._centroids64 = self.centroids.astype(np.float64)
        self.list_sizes = np.bincount(self.centroid_ids, minlength=self.centroid_count)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def centroid_count(self) -> int:
        return self.centroids.shape[0]

    @property
    def embedding_count(self) -> int:
        return self.centroid_ids.shape[0]

    @property
    def passage_count(self) -> int:
        return len(self.passage_ids)

    @property
    def bits_per_embedding(self) -> int:
        return bits_per_embedding(self.dim, self.centroid_count)

    def internal_passage(self, external_id) -> int:
        key = external_id if isinstance(external_id, str) else str(external_id)
        if key not in self._by_external:
            raise UnknownPassageError(f"unknown passage id {external_id!r}")
        return self._by_external[key]

    @cached_property
    def _decode_table(self) -> np.ndarray:
        """(ceil(dim / 4) * 256, 4) float64: row ``256 j + b`` holds the four
        representatives that byte value b stands for in byte j of a packed
        row, from ``codec.decode``, so the one for dimension d is
        ``reps[code, d]`` exactly (padding dimensions hold 0). Built at the
        first decompression."""
        width = self.residual_codes.shape[1]
        codes = np.tile((np.arange(256, dtype=np.uint8)[:, None] >> _CODE_SHIFTS) & 3, width)  # (256, 4 width)
        table = np.zeros((256, 4 * width))
        table[:, : self.dim] = self.codec.decode(codes[:, : self.dim])
        return np.ascontiguousarray(table.reshape(256, width, 4).transpose(1, 0, 2)).reshape(-1, 4)

    def decompress_embeddings(self, emb_ids: np.ndarray) -> np.ndarray:
        """Centroid plus the codec's representative per dimension: the one
        decompression path of the index. The representatives come four at a
        time from ``_decode_table``, one row per packed byte."""
        packed = self.residual_codes[emb_ids]
        width = packed.shape[1]
        residuals = np.take(self._decode_table, packed + 256 * np.arange(width), axis=0)
        return self._centroids64[self.centroid_ids[emb_ids]] + residuals.reshape(-1, 4 * width)[:, : self.dim]

    def decompress_passage(self, internal: int) -> np.ndarray:
        lo, hi = self.passage_offsets[internal], self.passage_offsets[internal + 1]
        return self.decompress_embeddings(np.arange(lo, hi, dtype=np.int64))

    def decompressed_corpus(self) -> dict:
        """External id -> decompressed term matrix, for oracle comparisons."""
        return {pid: self.decompress_passage(i) for i, pid in enumerate(self.passage_ids)}

    def _normalized_rows(self, ids: np.ndarray, dtype=np.float64) -> np.ndarray:
        """``normalize_rows(decompress_embeddings(ids))``, ``_UNIT_BLOCK`` rows
        at a time, as ``dtype``; all three work row by row (float32 rounds
        each float64 value to nearest), so blocking keeps every bit."""
        rows = np.empty((ids.shape[0], self.dim), dtype=dtype)
        for lo in range(0, ids.shape[0], _UNIT_BLOCK):
            rows[lo : lo + _UNIT_BLOCK] = scoring.normalize_rows(self.decompress_embeddings(ids[lo : lo + _UNIT_BLOCK]))
        return rows

    def unit_corpus(self) -> UnitCorpus:
        """The oracle's corpus: the unit-norm decompressed rows in stored
        order, split at the passage offsets, each float64 row of
        ``normalize_rows`` of its ``decompress_passage`` rounded to float32
        and built a block at a time, so no corpus-sized float64 array
        exists. The oracle only selects from that table; its
        ``exact_rows``, like ``unit[pid]``, decodes the passages asked for
        again in float64 (``_passage_unit_rows``)."""
        rows = self._normalized_rows(np.arange(self.embedding_count), np.float32)
        return UnitCorpus(self.passage_ids, rows, self.passage_offsets, self._passage_unit_rows)

    def _passage_unit_rows(self, passages: np.ndarray) -> np.ndarray:
        """The float64 unit rows of these internal passages, passage after
        passage: what re-rank and the oracle score exactly."""
        return self._normalized_rows(_passage_rows(self.passage_offsets, passages)[0])

    @cached_property
    def search_state(self) -> SearchState:
        """What both search stages read, derived in one step from the stored
        facts by the first search that reads it (``approximate_candidates``
        or ``exact_rerank``).

        One stable argsort of ``centroid_ids`` puts the embeddings in
        inverted-list order, CSR (compressed sparse row) form: list c is
        list rows ``list_offsets[c]`` to ``list_offsets[c + 1]``, its
        members' embedding ids ascending. ``member_passages`` holds each
        list row's internal passage, ``positions`` each embedding's list
        row, ``probe`` the centroid table times -2 and its squared norms
        (the query probe's ``_centroid_scores``), and ``unit_rows`` each list
        row's unit-norm decompressed row, the float64 row rounded to float32,
        built a block at a time, so no corpus-sized float64 array exists.
        Both stages only select from it; re-rank decodes its survivors' rows
        again in float64 for the scores it reports. ``member_passages`` and
        ``positions`` are int32 when every embedding and passage number fits.
        The argsort itself is not kept: no search step reads it.
        """
        numbers = _number_type(max(self.embedding_count, self.passage_count))
        members = np.argsort(self.centroid_ids, kind="stable")
        positions = np.empty(self.embedding_count, dtype=numbers)
        positions[members] = np.arange(self.embedding_count, dtype=numbers)
        offsets = np.concatenate(([0], np.cumsum(self.list_sizes)))
        passages = np.repeat(np.arange(self.passage_count, dtype=numbers), np.diff(self.passage_offsets))[members]
        probe = (-2.0 * self._centroids64, (self._centroids64 * self._centroids64).sum(axis=1))
        return SearchState(offsets, passages, positions, probe, self._normalized_rows(members, np.float32))


def _number_type(count: int):
    """The integer type for numbers 0 to ``count`` - 1: int32 below 2**31."""
    return np.int32 if count < 2**31 else np.int64


def _passage_rows(offsets: np.ndarray, passages: np.ndarray):
    """The row numbers of these passages under ``offsets``, passage after
    passage in stored row order, and each passage's offsets into them."""
    lo = offsets[passages]
    counts = offsets[passages + 1] - lo
    starts = np.concatenate(([0], np.cumsum(counts)))
    return np.repeat(lo - starts[:-1], counts) + np.arange(starts[-1]), starts


def _fits_float32(values: np.ndarray) -> bool:
    """Whether float32 holds every one of ``values`` as a finite number: no
    NaN or infinity, and no finite value so large that it rounds to an
    infinity (``_FLOAT32_LIMIT``). Two reductions, no copy."""
    return -_FLOAT32_LIMIT < float(values.min()) and float(values.max()) < _FLOAT32_LIMIT


def _stored_float32(values: np.ndarray, what: str) -> np.ndarray:
    """A fitted float64 table as the float32 the index stores, checked
    first: InvalidConfigError naming ``what`` when a value does not fit,
    since ``load_index`` refuses a non-finite float."""
    if not _fits_float32(values):
        raise InvalidConfigError(f"the fitted {what} holds a value beyond float32's range: corpus values too large")
    return values.astype(np.float32)


def _check_finite(table: TermTable, lo: int, rows: np.ndarray):
    """InvalidConfigError naming the first passage among ``rows``, the
    table's rows from ``lo`` on, that holds a value float32 cannot store
    (``_fits_float32``): NaN, an infinity, or a finite value beyond
    float32's range, the rule of ``write_embedding_block``."""
    if not _fits_float32(rows):
        bad = [_fits_float32(row) for row in rows].index(False)
        first = table.ids[int(np.searchsorted(table.offsets, lo + bad, side="right")) - 1]
        what = "non-finite values" if not np.isfinite(rows[bad]).all() else "a finite value beyond float32's range"
        raise InvalidConfigError(f"passage {first!r} contains {what}")


class _FiniteRows:
    """A table's rows as ``nearest_centroid_ids`` reads them, one block at a
    time, each block checked by ``_check_finite`` on the way. Blocks come in
    row order, so the error names the first bad passage in id order."""

    def __init__(self, table: TermTable):
        self.table = table
        self.shape = table.rows.shape

    def __len__(self):  # the row count, as len() of an array gives it; perfbench's trace counts rows so
        return self.shape[0]

    def __getitem__(self, block: slice) -> np.ndarray:
        rows = self.table.rows[block]
        _check_finite(self.table, block.indices(self.shape[0])[0], rows)
        return rows


def build_index(
    corpus,
    seed: int = 0,
    *,
    centroid_count: int | None = None,
) -> CompressedIndex:
    """Compress a corpus of per-passage term matrices into an inverted-file index.

    ``corpus`` is a ``TermTable``, such as an embedding block's float32 table,
    or a mapping of id -> matrix, which is stacked once into a float64
    ``TermTable``. Passages are ingested in the order of their ``str`` ids,
    the ids the index stores and the order in which the brute-force oracle
    breaks ties, so a rebuild from the same corpus and seed is
    byte-identical. The centroid count is decided once, before the sample is
    drawn: ``centroid_count`` if given, else ``centroid_count_for`` of the
    embedding count. Centroids and the codec are fitted on a seeded sample
    of at most ``_SAMPLE_PASSAGES`` passages, stored as float32, and all
    assignments/codes are computed against the stored float32 values, by
    ``nearest_centroid_ids`` (the argmin of ``_centroid_scores``) as in each
    Lloyd iteration.

    The table is never read whole. Its rows are asked for, and widened to
    float64, one block at a time: the sample, each assignment block of
    ``nearest_centroid_ids`` and each ``_UNIT_BLOCK``-row block of residuals,
    whose codes are packed (``pack_residuals``) as the block is encoded, so
    no (n, dim) code array is ever allocated. An embedding block's
    ``BlockRows`` reads each block from the file, so a build reads the
    sampled passages once and every row twice. Widening
    float32 is exact and encoding is element-wise, so together with the
    assignment blocks, which depend only on the row and centroid counts, the
    index files are byte-identical to those of a build over a float64 copy
    of the whole table. Each assignment block is checked
    for values that float32 cannot store (``_check_finite``) as it is read,
    and the sample before it is fitted (a sample holding one has every row
    checked first); the error names the first passage, in id order, that
    holds one. A fitted centroid or codec value beyond float32's range is
    InvalidConfigError too, so ``load_index`` accepts every index returned.
    """
    check_seed(seed)
    table = corpus if isinstance(corpus, TermTable) else TermTable.stack(corpus)
    if not table:
        raise EmptyInputError("cannot index an empty corpus")
    rows, offsets, ids = table.rows, table.offsets, table.ids
    empty = np.flatnonzero(np.diff(offsets) == 0)
    if empty.size:
        raise InvalidConfigError(f"passage {ids[empty[0]]!r} must be a nonempty 2-d matrix")
    total, dim = rows.shape
    if dim == 0:
        raise InvalidConfigError("term embeddings must have at least one column")

    k = centroid_count if centroid_count is not None else centroid_count_for(total)
    sample_rng = np.random.default_rng((seed, 0))
    n_sample = min(len(ids), _SAMPLE_PASSAGES)
    sample_rows, _ = _passage_rows(offsets, np.sort(sample_rng.choice(len(ids), size=n_sample, replace=False)))
    sample = np.asarray(rows[sample_rows], dtype=np.float64)
    if not _fits_float32(sample):  # an unsampled passage before the sample's may hold one too
        for lo in range(0, total, _UNIT_BLOCK):
            _check_finite(table, lo, rows[lo : lo + _UNIT_BLOCK])

    centroids = _stored_float32(select_centroids(sample, k, (seed, 1)), "centroid table")

    assignments = nearest_centroid_ids(_FiniteRows(table), centroids)
    cents64 = centroids.astype(np.float64)
    sample -= cents64[assignments[sample_rows]]  # in place: the sample is a private copy, now its residuals
    codec64 = fit_codec(sample)
    del sample
    codec = ResidualCodec(cuts=_stored_float32(codec64.cuts, "codec"), reps=_stored_float32(codec64.reps, "codec"))
    residual_codes = np.empty((total, -(-dim // 4)), dtype=np.uint8)
    for lo in range(0, total, _UNIT_BLOCK):  # element-wise, so chunking keeps every bit
        residuals = cents64[assignments[lo : lo + _UNIT_BLOCK]]
        np.subtract(rows[lo : lo + _UNIT_BLOCK], residuals, out=residuals)  # float32 rows are widened exactly
        residual_codes[lo : lo + _UNIT_BLOCK] = pack_residuals(codec.encode(residuals))
    return CompressedIndex(
        centroids=centroids,
        codec=codec,
        centroid_ids=assignments,
        residual_codes=residual_codes,
        passage_ids=ids,
        passage_offsets=offsets,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Search


def check_n_probe(params: SearchParams, index: CompressedIndex):
    """InvalidConfigError unless the index has at least n_probe centroids."""
    if params.n_probe > index.centroid_count:
        raise InvalidConfigError(f"n_probe {params.n_probe} exceeds centroid count {index.centroid_count}")


class Candidates(list):
    """``approximate_candidates``' result: (external passage id, approximate
    score) pairs, best first, that also hold ``passages``, the same
    passages' internal numbers in the same order. ``exact_rerank`` reads
    those numbers instead of looking each id up, which is how ``search``
    hands the first stage's passages to re-rank."""

    def __init__(self, pairs, passages: np.ndarray):
        super().__init__(pairs)
        self.passages = passages


def approximate_candidates(query, index: CompressedIndex, params: SearchParams) -> Candidates:
    """First-stage scores: per term, max cosine over embeddings fetched from the
    probed centroids, summed across terms; unfetched passage/term pairs add 0.

    Each term probes the lists of its n_probe smallest ``_centroid_scores``,
    ties to the lower centroid id: the score by which ``nearest_centroid_ids``
    filed the rows, so with n_probe 1 and distinct centroids a term reads
    exactly the list its own row would be filed under. The probe table, the
    lists and their float32 unit rows come from ``index.search_state``.

    The query's unit rows are rounded to float32 and each probed list is
    multiplied in float32. Only passages with a row in a probed list get a
    row of the per-term maxima table, which is passage-major (hit passages x
    query terms) and float32, like the products, so ``np.maximum.at`` takes
    its fast same-type path. Each passage's row is summed in float64, along
    the contiguous row, the same pairwise order as a column of a term-major
    table, so the sums do not depend on the table's layout.

    The passages are ranked by those sums, and each score reported is its
    sum less ``scoring.maxsim_rounding_gap(terms, dim, np.float32)``, the
    most a float32 evaluation can differ from the float64 one. So a reported
    score is never above the float64 MaxSim over the same fetched rows, nor
    more than twice that gap below it; one uniform subtraction, after the
    ranking, moves no candidate.

    Returns at most candidate_k (external passage id, approximate score) pairs,
    best first, sum ties broken toward the lower passage id, as ``Candidates``.
    """
    q = scoring.check_query(query, index.dim)
    check_n_probe(params, index)
    q32 = scoring.normalize_rows(q).astype(np.float32)
    n_terms = q.shape[0]
    state = index.search_state
    # each term's n_probe nearest centroids, grouped by centroid with terms ascending
    probes = scoring.rank(-_centroid_scores(q, *state.probe), params.n_probe).ravel()
    by_list = np.argsort(probes, kind="stable")
    cids, starts = np.unique(probes[by_list], return_index=True)

    spans = [slice(state.list_offsets[cid], state.list_offsets[cid + 1]) for cid in cids]
    hit = np.zeros(index.passage_count, dtype=bool)
    for s in spans:
        hit[state.member_passages[s]] = True
    passages = np.flatnonzero(hit)
    if passages.size == 0:
        return Candidates([], passages)
    row_of = np.empty(index.passage_count, dtype=np.int64)  # passage -> its row in best
    row_of[passages] = np.arange(passages.size)
    best = np.full((passages.size, n_terms), -np.inf, dtype=np.float32)
    flat_best = best.reshape(-1)
    for s, term_rows in zip(spans, np.split(by_list // params.n_probe, starts[1:])):
        sims = q32[term_rows] @ state.unit_rows[s].T
        flat_idx = (row_of[state.member_passages[s]][None, :] * n_terms + term_rows[:, None]).reshape(-1)
        np.maximum.at(flat_best, flat_idx, sims.reshape(-1))
    best[best == -np.inf] = 0.0
    sums = best.sum(axis=1, dtype=np.float64)
    order = scoring.rank(sums, params.candidate_k)
    ranked = passages[order]
    scores = (sums[order] - scoring.maxsim_rounding_gap(n_terms, index.dim, np.float32)).tolist()
    return Candidates(zip(map(index.passage_ids.__getitem__, ranked.tolist()), scores), ranked)


def exact_rerank(query, candidates, index: CompressedIndex, k: int | None = None):
    """Exact MaxSim of each candidate over its full set of unit-norm rows:
    the k best (all when k is None), descending with ties toward the lower
    passage id. A passage listed more than once is ranked once.

    ``candidates`` are external passage ids, or ``approximate_candidates``'
    result, whose internal passage numbers are read as they are.

    The candidates' rows, passage after passage in stored row order, are
    read from ``index.search_state``'s float32 unit rows at their list rows,
    in blocks of whole passages (``scoring.maxsim_top_k``). Those blocked
    scores only choose which passages to score: with k set, only the
    passages whose blocked score is within float32 rounding distance of the
    k-th best survive, and only their rows are decoded again, in float64,
    by ``_passage_unit_rows``, for ``scoring.maxsim_exact``, the oracle's
    exact kernel. Every score therefore has the oracle's bits, and the
    result is the first k of the k=None ranking, bit for bit.
    """
    q_unit = scoring.normalize_rows(scoring.check_query(query, index.dim))
    if isinstance(candidates, Candidates):
        internal = np.sort(candidates.passages)
    else:
        internal = np.unique(np.array([index.internal_passage(pid) for pid in candidates], dtype=np.int64))
    state = index.search_state
    emb_ids, offsets = _passage_rows(index.passage_offsets, internal)

    def exact_rows(survivors):
        return index._passage_unit_rows(internal[survivors])

    order, scores = scoring.maxsim_top_k(q_unit, state.unit_rows, state.positions[emb_ids], offsets, k, exact_rows)
    return [(index.passage_ids[internal[i]], float(s)) for i, s in zip(order, scores)]


def search(query, index: CompressedIndex, params: SearchParams):
    """Approximate candidate generation followed by exact re-ranking of the
    final_k best; the candidates go to re-rank as internal numbers."""
    return exact_rerank(query, approximate_candidates(query, index, params), index, k=params.final_k)


# ---------------------------------------------------------------------------
# Serialization


def save_index(index: CompressedIndex, directory):
    """Write the index files into a temporary directory beside ``directory``,
    then rename it into place. An existing ``directory`` is renamed aside
    first and removed once the new one is in place; it must be empty or hold
    only index files, or nothing is written. A failed write leaves any
    earlier index where it was and no temporary directory behind.

    The index holds its codes, not the corpus, so saving reads no rows;
    codes.bin is packed and written ``_PACK_ROWS`` embeddings at a time."""
    directory = Path(os.path.abspath(directory))
    if directory.exists() and not (directory.is_dir() and {p.name for p in directory.iterdir()} <= set(INDEX_FILES)):
        raise InvalidConfigError(f"{directory} exists and is not an index directory; not replacing it")
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp, aside = (directory.with_name(f".{directory.name}.{os.getpid()}.{tag}") for tag in ("tmp", "old"))
    for stale in (tmp, aside):
        shutil.rmtree(stale, ignore_errors=True)
    try:
        tmp.mkdir()
        _write_index_files(index, tmp)
        if directory.exists():
            directory.rename(aside)
        tmp.rename(directory)
    except BaseException:
        if aside.exists() and not directory.exists():
            aside.rename(directory)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)


def _meta_bytes(dim: int, centroid_count: int, embedding_count: int, passage_count: int, seed: int) -> bytes:
    """meta.json: the five counts and the seed, with the format version and
    the bit widths they give, as one sorted JSON line."""
    meta = {
        "format_version": FORMAT_VERSION,
        "dim": dim,
        "centroid_count": centroid_count,
        "embedding_count": embedding_count,
        "passage_count": passage_count,
        "id_bits": id_bit_width(centroid_count),
        "bits_per_embedding": bits_per_embedding(dim, centroid_count),
        "seed": seed,
    }
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _invlists_bytes(list_sizes: np.ndarray) -> bytes:
    """invlists.bin for these per-centroid list sizes: the count of nonempty
    lists, then each one's centroid-id gap and size."""
    nonempty = np.flatnonzero(list_sizes)
    heads = np.column_stack((np.diff(nonempty, prepend=0), list_sizes[nonempty])).ravel()
    return struct.pack("<I", nonempty.size) + encode_varints(heads)


def _write_index_files(index: CompressedIndex, directory: Path):
    (directory / "meta.json").write_bytes(
        _meta_bytes(index.dim, index.centroid_count, index.embedding_count, index.passage_count, index.seed)
    )
    (directory / "centroids.f32").write_bytes(
        np.ascontiguousarray(index.centroids, dtype="<f4").tobytes()
    )
    (directory / "codec.f32").write_bytes(
        np.ascontiguousarray(index.codec.cuts, dtype="<f4").tobytes()
        + np.ascontiguousarray(index.codec.reps, dtype="<f4").tobytes()
    )
    id_bits = id_bit_width(index.centroid_count)
    with open(directory / "codes.bin", "wb") as fh:  # a chunk at a time: the stream is never held whole
        for lo in range(0, index.embedding_count, _PACK_ROWS):
            chunk = slice(lo, lo + _PACK_ROWS)
            fh.write(pack_codes(index.centroid_ids[chunk], index.residual_codes[chunk], index.dim, id_bits))
    (directory / "invlists.bin").write_bytes(_invlists_bytes(index.list_sizes))

    passages = bytearray()
    passages += struct.pack("<I", index.passage_count)
    passages += encode_varints(np.diff(index.passage_offsets))
    implicit = index.passage_ids == [str(i) for i in range(index.passage_count)]
    passages.append(0 if implicit else 1)
    if not implicit:
        for pid in index.passage_ids:
            raw = pid.encode("utf-8")
            passages += encode_varints([len(raw)])
            passages += raw
    (directory / "passages.bin").write_bytes(bytes(passages))


def _check_derived(path: Path, raw: bytes, expected: bytes):
    """FormatError naming ``path`` unless it holds exactly ``expected``, the
    bytes ``save_index`` writes there for the index as loaded."""
    if raw != expected:
        raise FormatError(f"{path} differs from the file that save_index writes for this index")


def load_index(directory) -> CompressedIndex:
    """Read an index directory. Each stored-fact file is parsed through one
    ``ByteReader`` with the sizes meta.json names, and must end where its last
    field does. meta.json and invlists.bin are derived files: each must equal
    the bytes ``save_index`` writes for what was loaded (``_meta_bytes`` of
    meta.json's counts and seed, ``_invlists_bytes`` of the list sizes that
    codes.bin's centroid ids give). Any disagreement, a meta.json that does
    not end in its newline, a non-finite centroid or codec float, a nonzero
    padding bit in codes.bin, a passage without embeddings, or passage ids
    that are not strictly ascending, raises FormatError naming the file."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        raw = meta_path.read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{directory} does not contain an index (missing meta.json)") from None
    if not raw.endswith(b"\n"):  # save_index ends it with one; without it the file may be cut short
        raise FormatError(f"{meta_path} does not end in a newline")
    try:
        meta = json.loads(raw)
    except ValueError as exc:
        raise FormatError(f"{meta_path} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
        version = meta.get("format_version") if isinstance(meta, dict) else None
        raise FormatError(f"unsupported index format version {version}")
    keys = ("dim", "centroid_count", "embedding_count", "passage_count", "seed")
    if not all(type(meta.get(k)) is int and meta[k] >= 0 for k in keys):
        raise FormatError(f"{meta_path} needs nonnegative integers {', '.join(keys)}")
    dim, c_count, n, p_count, seed = (meta[k] for k in keys)
    if dim < 1 or c_count < 1:
        raise FormatError(f"{meta_path} has dim {dim} and centroid_count {c_count}; both must be >= 1")
    _check_derived(meta_path, raw, _meta_bytes(dim, c_count, n, p_count, seed))

    def reader(name: str) -> ByteReader:
        path = directory / name
        return ByteReader(path.read_bytes(), path)

    def read_whole(name: str, size: int) -> memoryview:
        file = reader(name)
        raw = file.take(size)
        file.finish()
        return raw

    centroids = np.frombuffer(read_whole("centroids.f32", 4 * c_count * dim), dtype="<f4")
    codec_raw = np.frombuffer(read_whole("codec.f32", 4 * 7 * dim), dtype="<f4")
    for name, values in (("centroids.f32", centroids), ("codec.f32", codec_raw)):
        if not np.isfinite(values).all():
            raise FormatError(f"{directory / name} holds a non-finite float")
    codec = ResidualCodec(
        cuts=codec_raw[: 3 * dim].reshape(3, dim).copy(),
        reps=codec_raw[3 * dim :].reshape(4, dim).copy(),
    )
    codes_path = directory / "codes.bin"
    stream_bits = n * bits_per_embedding(dim, c_count)
    blob = read_whole(codes_path.name, -(-stream_bits // 8))
    padding = -stream_bits % 8
    if padding and blob[-1] & ((1 << padding) - 1):
        raise FormatError(f"{codes_path} has a nonzero padding bit")
    centroid_ids, residual_codes = unpack_codes(blob, n, dim, id_bit_width(c_count))
    if n and centroid_ids.max() >= c_count:
        raise FormatError(f"{codes_path} names a centroid id >= centroid_count {c_count}")
    lists_path = directory / "invlists.bin"
    _check_derived(lists_path, lists_path.read_bytes(), _invlists_bytes(np.bincount(centroid_ids, minlength=c_count)))

    passages = reader("passages.bin")
    if passages.unpack("<I")[0] != p_count:
        raise FormatError(f"{passages.path} disagrees with meta.json on the passage count")
    counts = passages.varints(p_count)
    if counts.sum() != n:
        raise FormatError(f"{passages.path} lists {counts.sum()} embeddings, meta.json {n}")
    if np.any(counts < 1):
        raise FormatError(f"{passages.path} lists a passage with no embeddings")
    (explicit,) = passages.unpack("<B")
    if explicit > 1:
        raise FormatError(f"{passages.path} has an unknown id mode {explicit}")
    if explicit:
        ids = passages.texts(p_count)
    else:
        ids = [str(i) for i in range(p_count)]
    if any(a >= b for a, b in zip(ids, ids[1:])):  # build_index writes them ascending
        raise FormatError(f"{passages.path} names a passage id twice or out of ascending order")
    passages.finish()

    return CompressedIndex(
        centroids=centroids.reshape(c_count, dim).copy(),
        codec=codec,
        centroid_ids=centroid_ids,
        residual_codes=residual_codes,
        passage_ids=ids,
        passage_offsets=np.concatenate(([0], np.cumsum(counts))),
        seed=seed,
    )
