"""Centroid/residual-quantized inverted-file index with two-stage search.

Every term embedding is stored as the id of its nearest centroid (Euclidean,
ties to the lowest id) plus a 2-bit-per-dimension quantized residual, so one
vector costs 2*dim + ceil(log2 |C|) bits. Both search stages read one lazily
filled table of unit-norm decompressed rows, in inverted-list order. For each
query term the n_probe nearest centroids' lists are filled and scored by
cosine. Per-term maxima go into a compact table with one row per passage that
the probed lists hold, and each row is summed across query terms (an unfetched
passage/term pair adds 0: a lower bound of decompressed MaxSim for nonnegative
maxima). Re-ranking fills the lists holding the top candidate_k passages' rows,
scores those passages in blocks of rows (one matmul per block), and scores the
few whose blocked score is within rounding distance of the final_k-th best
again with the oracle's exact MaxSim kernel, which gives the scores it reports.

On-disk layout (directory; all integers little-endian; varint = unsigned
LEB128):

    meta.json       format_version, dim, centroid_count, embedding_count,
                    passage_count, id_bits, bits_per_embedding, seed
    centroids.f32   centroid_count x dim float32, row-major
    codec.f32       cut points (3 x dim) then representatives (4 x dim), float32
    codes.bin       per embedding, MSB-first: centroid id (id_bits bits) then
                    2 bits per dimension; one contiguous bitstream, zero-padded
                    to a byte at the end. Size = ceil(n * bits_per_embedding / 8).
    invlists.bin    u32 count of nonempty lists; per list (ascending centroid
                    id): varint centroid-id gap, varint length. Memberships
                    are not duplicated on disk: every embedding id belongs to
                    exactly the list named by its centroid-id field in
                    codes.bin, so the loader derives the lists (ascending ids)
                    from the codes and rejects a directory whose lengths
                    disagree with them, including one that leaves out a
                    nonempty list.
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import scoring
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
_UNIT_BLOCK = 16384  # rows per block in unit_corpus; bounds its temporaries to a few MB


class DuplicateCentroidWarning(UserWarning):
    """Requested more centroids than distinct sample vectors."""


# ---------------------------------------------------------------------------
# Centroid selection


def centroid_count_for(total_estimate: int) -> int:
    """Power of two >= sqrt(total_estimate): 2 ** ceil(log2 sqrt n)."""
    if total_estimate < 1:
        raise InvalidConfigError(f"total_estimate must be >= 1, got {total_estimate}")
    return 1 << math.ceil(math.log2(math.sqrt(total_estimate))) if total_estimate > 1 else 1


def _stack_sample(sample) -> np.ndarray:
    mats = [np.asarray(m, dtype=np.float64) for m in sample]
    if not mats or sum(m.shape[0] for m in mats) == 0:
        raise EmptyInputError("centroid selection needs at least one sample vector")
    return np.vstack(mats)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1), out=d2)
    return centers


def select_centroids(
    sample,
    total_estimate: int,
    seed,
    *,
    centroid_count: int | None = None,
    max_iter: int = 25,
    tol: float = 1e-6,
) -> np.ndarray:
    """Seeded k-means++ plus Lloyd iterations over the sampled term embeddings.

    ``sample`` is an iterable of (rows, dim) matrices. The centroid count is
    the power of two at or above sqrt(total_estimate) unless overridden. When
    there are fewer distinct sample vectors than centroids, the sample is
    cycled and duplicate centroids are kept with a warning.
    """
    points = _stack_sample(sample)
    k = centroid_count if centroid_count is not None else centroid_count_for(total_estimate)
    if k < 1:
        raise InvalidConfigError(f"centroid count must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    distinct = np.unique(points, axis=0).shape[0]
    if distinct < k:
        warnings.warn(
            f"requested {k} centroids from {distinct} distinct vectors; duplicates kept",
            DuplicateCentroidWarning,
            stacklevel=2,
        )
    if k >= n:
        reps = -(-k // n)  # ceil
        return np.tile(points, (reps, 1))[:k]
    centroids = _kmeans_pp_init(points, k, rng)
    for _ in range(max_iter):
        d2 = _squared_distances(points, centroids)
        assign = np.argmin(d2, axis=1)
        new = centroids.copy()  # empty clusters keep their previous centroid
        for j in np.unique(assign):
            new[j] = points[assign == j].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if shift <= tol:
            break
    return centroids


def _squared_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(len(x), len(c)) squared Euclidean distances, clipped at zero."""
    d2 = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def nearest_centroid_ids(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per vector; any tie resolves to the lowest centroid id.

    Duplicate centroid rows are collapsed before the distance computation and
    mapped back to the lowest original id, so ties are exact, not float-luck.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    if vectors.shape[1] != cents.shape[1]:
        raise DimensionMismatchError(f"vector dim {vectors.shape[1]} != centroid dim {cents.shape[1]}")
    uniq, first = np.unique(cents, axis=0, return_index=True)
    order = np.argsort(first, kind="stable")
    uniq = uniq[order]  # unique rows, ordered by first appearance (= lowest id)
    lowest = first[order]
    out = np.empty(vectors.shape[0], dtype=np.int64)
    chunk = max(1, int(4_000_000 // max(1, uniq.shape[0])))
    for start in range(0, vectors.shape[0], chunk):
        block = vectors[start : start + chunk]
        d2 = _squared_distances(block, uniq)
        # argmin takes the first minimum; rows are in lowest-original-id order
        out[start : start + chunk] = lowest[np.argmin(d2, axis=1)]
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
        codes = np.atleast_2d(np.asarray(codes))
        if codes.shape[1] != self.dim:
            raise DimensionMismatchError(f"code dim {codes.shape[1]} != codec dim {self.dim}")
        return self.reps.astype(np.float64)[codes, np.arange(self.dim)[None, :]]


def fit_codec(residual_sample, dim: int | None = None) -> ResidualCodec:
    """Quantile codec: cuts at the 25/50/75th percentiles per dimension,
    representatives are in-bucket means.

    Empty inner buckets fall back to the midpoint of their cut interval;
    empty outer buckets collapse onto the adjacent cut point.
    """
    r = np.atleast_2d(np.asarray(residual_sample, dtype=np.float64))
    if r.shape[0] == 0:
        raise EmptyInputError("codec fitting needs at least one residual vector")
    if dim is not None and r.shape[1] != dim:
        raise DimensionMismatchError(f"residual dim {r.shape[1]} != expected {dim}")
    cuts = np.percentile(r, [25.0, 50.0, 75.0], axis=0)
    codec = ResidualCodec(cuts=cuts, reps=np.empty((4, r.shape[1])))
    codes = codec.encode(r)
    fallback = np.stack([cuts[0], 0.5 * (cuts[0] + cuts[1]), 0.5 * (cuts[1] + cuts[2]), cuts[2]])
    for bucket in range(4):
        mask = codes == bucket
        counts = mask.sum(axis=0)
        sums = np.where(mask, r, 0.0).sum(axis=0)
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


def pack_codes(centroid_ids: np.ndarray, residual_codes: np.ndarray, id_bits: int) -> bytes:
    """One MSB-first bitstream: per embedding the centroid id then 2 bits/dim."""
    n, d = residual_codes.shape
    cols = []
    if id_bits:
        shifts = np.arange(id_bits - 1, -1, -1, dtype=np.uint64)
        cols.append(((centroid_ids.astype(np.uint64)[:, None] >> shifts) & 1).astype(np.uint8))
    res_bits = np.empty((n, 2 * d), dtype=np.uint8)
    res_bits[:, 0::2] = (residual_codes >> 1) & 1
    res_bits[:, 1::2] = residual_codes & 1
    cols.append(res_bits)
    return np.packbits(np.concatenate(cols, axis=1).ravel()).tobytes()


def unpack_codes(blob: bytes, count: int, dim: int, id_bits: int):
    width = id_bits + 2 * dim
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count * width).reshape(count, width)
    if id_bits:
        weights = (1 << np.arange(id_bits - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)
        centroid_ids = (bits[:, :id_bits].astype(np.uint64) * weights).sum(axis=1).astype(np.int64)
    else:
        centroid_ids = np.zeros(count, dtype=np.int64)
    res = bits[:, id_bits:]
    residual_codes = ((res[:, 0::2] << 1) | res[:, 1::2]).astype(np.uint8)
    return centroid_ids, residual_codes


def _encode_uvarint(values) -> bytes:
    out = bytearray()
    for value in values:
        v = int(value)
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _decode_uvarint(buf: bytes, offset: int, count: int, path):
    """``count`` varints from ``buf[offset:]``; FormatError naming ``path`` when
    the buffer ends inside a value or a value overflows int64."""
    if count > len(buf) - offset:  # every varint takes at least one byte
        raise FormatError(f"{path}: truncated or overlong varint")
    values = np.empty(count, dtype=np.int64)
    for i in range(count):
        shift = 0
        acc = 0
        while True:
            if offset >= len(buf) or shift > 56:
                raise FormatError(f"{path}: truncated or overlong varint")
            byte = buf[offset]
            offset += 1
            acc |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        values[i] = acc
    return values, offset


# ---------------------------------------------------------------------------
# The index


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the two-stage search."""

    n_probe: int
    candidate_k: int = 1000
    final_k: int = 10

    def __post_init__(self):
        if self.n_probe < 1:
            raise InvalidConfigError(f"n_probe must be >= 1, got {self.n_probe}")
        if self.final_k < 1 or self.candidate_k < self.final_k:
            raise InvalidConfigError(
                f"need candidate_k >= final_k >= 1, got candidate_k={self.candidate_k} final_k={self.final_k}"
            )


@dataclass
class CompressedIndex:
    """Compressed corpus: centroid table, codec, per-embedding codes and the
    passage map. These stored facts are the constructor's only arguments.

    The inverted file is derived from ``centroid_ids`` once, in CSR
    (compressed sparse row) form: the members of centroid c's list are
    ``list_members[list_offsets[c] : list_offsets[c + 1]]``, ascending
    embedding ids, and ``member_passages`` holds each member's internal
    passage in the same order. Both search stages read unit-norm rows from
    one CSR-ordered float64 table: a list is filled (``fill_lists``) the first
    time a query probes it or re-ranks a passage with a row in it. Filled rows
    depend only on the stored facts, so a concurrent refill writes the same
    bytes.
    """

    centroids: np.ndarray  # (C, dim) float32
    codec: ResidualCodec  # float32 cuts / reps
    centroid_ids: np.ndarray  # (n,) int64, per embedding
    residual_codes: np.ndarray  # (n, dim) uint8 in 0..3
    passage_ids: list  # external ids (strings), internal order
    passage_offsets: np.ndarray  # (P+1,) int64
    seed: int = 0

    def __post_init__(self):
        self._by_external = {pid: i for i, pid in enumerate(self.passage_ids)}
        self._centroids64 = self.centroids.astype(np.float64)
        sizes = np.bincount(self.centroid_ids, minlength=self.centroid_count)
        self.list_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.list_members = np.argsort(self.centroid_ids, kind="stable")
        emb_passage = np.repeat(np.arange(self.passage_count, dtype=np.int64), np.diff(self.passage_offsets))
        self.member_passages = emb_passage[self.list_members]
        self._csr_position = np.empty_like(self.list_members)  # inverse of list_members
        self._csr_position[self.list_members] = np.arange(self.embedding_count)
        self._unit_rows = np.empty((self.embedding_count, self.dim))  # pages are touched as lists fill
        self._filled = np.zeros(self.centroid_count, dtype=bool)

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

    def decompress_embeddings(self, emb_ids: np.ndarray) -> np.ndarray:
        """Centroid plus the codec's representative per dimension: the one
        decompression path of the index."""
        return self._centroids64[self.centroid_ids[emb_ids]] + self.codec.decode(self.residual_codes[emb_ids])

    def decompress_passage(self, internal: int) -> np.ndarray:
        lo, hi = self.passage_offsets[internal], self.passage_offsets[internal + 1]
        return self.decompress_embeddings(np.arange(lo, hi, dtype=np.int64))

    def decompressed_corpus(self) -> dict:
        """External id -> decompressed term matrix, for oracle comparisons."""
        return {pid: self.decompress_passage(i) for i, pid in enumerate(self.passage_ids)}

    def unit_corpus(self) -> UnitCorpus:
        """External id -> unit-norm decompressed term matrix, for the oracle.

        Rows are decompressed and normalized in blocks, in stored order, then
        split at the passage offsets; a row's bits do not depend on the block
        it is computed in, so each passage equals ``normalize_rows`` of its
        ``decompress_passage``.
        """
        n = self.embedding_count
        rows = np.empty((n, self.dim))
        for lo in range(0, n, _UNIT_BLOCK):
            hi = min(lo + _UNIT_BLOCK, n)
            rows[lo:hi] = scoring.normalize_rows(self.decompress_embeddings(np.arange(lo, hi)))
        return UnitCorpus(self.passage_ids, rows, self.passage_offsets)

    def fill_lists(self, cids: np.ndarray):
        """Fill the unit-row table for each not yet filled list in ``cids`` (distinct ids)."""
        for cid in cids[~self._filled[cids]]:
            lo, hi = self.list_offsets[cid], self.list_offsets[cid + 1]
            self._unit_rows[lo:hi] = scoring.normalize_rows(self.decompress_embeddings(self.list_members[lo:hi]))
            self._filled[cid] = True

    def unit_row_positions(self, internals: np.ndarray):
        """Fill the lists that hold these passages' rows. Return the rows'
        positions in the unit-row table, passage after passage in stored row
        order, and each passage's offsets into those positions."""
        lo = self.passage_offsets[internals]
        counts = self.passage_offsets[internals + 1] - lo
        offsets = np.concatenate(([0], np.cumsum(counts)))
        emb_ids = np.repeat(lo - offsets[:-1], counts) + np.arange(offsets[-1])
        self.fill_lists(np.unique(self.centroid_ids[emb_ids]))
        return self._csr_position[emb_ids], offsets


def build_index(
    corpus: dict,
    seed: int = 0,
    *,
    centroid_count: int | None = None,
    sample_passages: int = 256,
) -> CompressedIndex:
    """Compress a corpus of per-passage term matrices into an inverted-file index.

    Passages are ingested in the order of their ``str`` ids, the ids the index
    stores and the order in which the brute-force oracle breaks ties, so a
    rebuild from the same corpus and seed is byte-identical. Centroids and the
    codec are fitted on a seeded sample of at most ``sample_passages``
    passages, stored as float32, and all assignments/codes are computed
    against the stored float32 values.
    """
    if not corpus:
        raise EmptyInputError("cannot index an empty corpus")
    keys = sorted(corpus, key=str)
    ids = [str(k) for k in keys]
    if len(set(ids)) != len(ids):
        raise InvalidConfigError("two passage ids have the same string form")
    matrices = []
    dim = None
    for key in keys:
        mat = np.asarray(corpus[key], dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] == 0:
            raise InvalidConfigError(f"passage {key!r} must be a nonempty 2-d matrix")
        if dim is None:
            dim = mat.shape[1]
        elif mat.shape[1] != dim:
            raise DimensionMismatchError(f"passage {key!r} dim {mat.shape[1]} != {dim}")
        if not np.all(np.isfinite(mat)):
            raise InvalidConfigError(f"passage {key!r} contains non-finite values")
        matrices.append(mat)

    counts = np.array([m.shape[0] for m in matrices], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    all_emb = np.vstack(matrices)
    total = int(offsets[-1])

    sample_rng = np.random.default_rng((seed, 0))
    n_sample = min(len(keys), sample_passages)
    sample_idx = np.sort(sample_rng.choice(len(keys), size=n_sample, replace=False))
    sample_rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in sample_idx])

    centroids = select_centroids(
        [all_emb[sample_rows]], total, (seed, 1), centroid_count=centroid_count
    ).astype(np.float32)

    assignments = nearest_centroid_ids(all_emb, centroids)
    sample_residuals = all_emb[sample_rows] - centroids.astype(np.float64)[assignments[sample_rows]]
    codec64 = fit_codec(sample_residuals, dim)
    codec = ResidualCodec(cuts=codec64.cuts.astype(np.float32), reps=codec64.reps.astype(np.float32))
    residual_codes = codec.encode(all_emb - centroids.astype(np.float64)[assignments])
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


def _check_query(query, index: CompressedIndex) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 2:
        raise DimensionMismatchError("query must be a (terms, dim) matrix")
    if q.shape[1] != index.dim:
        raise DimensionMismatchError(f"query dim {q.shape[1]} != index dim {index.dim}")
    return q


def approximate_candidates(query, index: CompressedIndex, params: SearchParams):
    """First-stage scores: per term, max cosine over embeddings fetched from the
    probed centroids, summed across terms; unfetched passage/term pairs add 0.

    Only passages with a row in a probed list get a row of the per-term maxima
    table, which is passage-major (hit passages x query terms). Each passage's
    sum runs along its contiguous row, the same pairwise order as a column of
    a term-major table, so the scores do not depend on the table's layout.

    Returns at most candidate_k (external passage id, approximate score) pairs,
    best first, score ties broken toward the lower passage id.
    """
    q = _check_query(query, index)
    if params.n_probe > index.centroid_count:
        raise InvalidConfigError(f"n_probe {params.n_probe} exceeds centroid count {index.centroid_count}")
    qn = scoring.normalize_rows(q)
    n_terms = q.shape[0]
    # each term's n_probe nearest centroids, grouped by centroid with terms ascending
    probes = scoring.rank(-_squared_distances(q, index._centroids64), params.n_probe).ravel()
    by_list = np.argsort(probes, kind="stable")
    cids, starts = np.unique(probes[by_list], return_index=True)
    index.fill_lists(cids)

    spans = [slice(index.list_offsets[cid], index.list_offsets[cid + 1]) for cid in cids]
    hit = np.zeros(index.passage_count, dtype=bool)
    for s in spans:
        hit[index.member_passages[s]] = True
    passages = np.flatnonzero(hit)
    if passages.size == 0:
        return []
    row_of = np.empty(index.passage_count, dtype=np.int64)  # passage -> its row in best
    row_of[passages] = np.arange(passages.size)
    best = np.full((passages.size, n_terms), -np.inf)
    flat_best = best.reshape(-1)
    for s, term_rows in zip(spans, np.split(by_list // params.n_probe, starts[1:])):
        sims = qn[term_rows] @ index._unit_rows[s].T
        flat_idx = (row_of[index.member_passages[s]][None, :] * n_terms + term_rows[:, None]).reshape(-1)
        np.maximum.at(flat_best, flat_idx, sims.reshape(-1))
    approx = np.where(best > -np.inf, best, 0.0).sum(axis=1)
    return [(index.passage_ids[passages[i]], float(approx[i])) for i in scoring.rank(approx, params.candidate_k)]


def exact_rerank(query, candidates, index: CompressedIndex, k: int | None = None):
    """Exact MaxSim of each candidate over its full set of unit-norm rows:
    the k best (all when k is None), descending with ties toward the lower
    passage id.

    The candidates' rows are read from the unit-row table by position, in
    blocks of whole passages (``scoring.maxsim_top_k``). With k set, only the
    passages whose blocked score is within rounding distance of the k-th best
    are scored again with ``maxsim_unit``, so the result is the first k of
    the k=None ranking, bit for bit.
    """
    q_unit = scoring.normalize_rows(_check_query(query, index))
    internal = np.sort(np.array([index.internal_passage(pid) for pid in candidates], dtype=np.int64))
    positions, offsets = index.unit_row_positions(internal)
    order, scores = scoring.maxsim_top_k(q_unit, index._unit_rows, offsets, k, rows=positions)
    return [(index.passage_ids[internal[i]], float(s)) for i, s in zip(order, scores)]


def search(query, index: CompressedIndex, params: SearchParams):
    """Approximate candidate generation followed by exact re-ranking of the
    final_k best."""
    candidates = approximate_candidates(query, index, params)
    return exact_rerank(query, [pid for pid, _ in candidates], index, k=params.final_k)


# ---------------------------------------------------------------------------
# Serialization


def save_index(index: CompressedIndex, directory):
    """Write the index files into a temporary directory beside ``directory``,
    then rename it into place. An existing ``directory`` is renamed aside
    first and removed once the new one is in place; it must be empty or hold
    only index files, or nothing is written. A failed write leaves any
    earlier index where it was and no temporary directory behind."""
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


def _write_index_files(index: CompressedIndex, directory: Path):
    id_bits = id_bit_width(index.centroid_count)
    meta = {
        "format_version": FORMAT_VERSION,
        "dim": index.dim,
        "centroid_count": index.centroid_count,
        "embedding_count": index.embedding_count,
        "passage_count": index.passage_count,
        "id_bits": id_bits,
        "bits_per_embedding": index.bits_per_embedding,
        "seed": index.seed,
    }
    (directory / "meta.json").write_bytes(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    )
    (directory / "centroids.f32").write_bytes(
        np.ascontiguousarray(index.centroids, dtype="<f4").tobytes()
    )
    (directory / "codec.f32").write_bytes(
        np.ascontiguousarray(index.codec.cuts, dtype="<f4").tobytes()
        + np.ascontiguousarray(index.codec.reps, dtype="<f4").tobytes()
    )
    (directory / "codes.bin").write_bytes(pack_codes(index.centroid_ids, index.residual_codes, id_bits))

    sizes = np.diff(index.list_offsets)
    nonempty = np.flatnonzero(sizes)
    heads = np.column_stack((np.diff(nonempty, prepend=0), sizes[nonempty])).ravel()
    (directory / "invlists.bin").write_bytes(struct.pack("<I", nonempty.size) + _encode_uvarint(heads))

    passages = bytearray()
    passages += struct.pack("<I", index.passage_count)
    passages += _encode_uvarint(np.diff(index.passage_offsets))
    implicit = index.passage_ids == [str(i) for i in range(index.passage_count)]
    passages.append(0 if implicit else 1)
    if not implicit:
        for pid in index.passage_ids:
            raw = pid.encode("utf-8")
            passages += _encode_uvarint([len(raw)])
            passages += raw
    (directory / "passages.bin").write_bytes(bytes(passages))


def _read_sized(path: Path, size: int) -> bytes:
    raw = path.read_bytes()
    if len(raw) != size:
        raise FormatError(f"{path} holds {len(raw)} bytes, expected {size}")
    return raw


def load_index(directory) -> CompressedIndex:
    """Read an index directory. Every section's size is checked against
    meta.json before it is reshaped or unpacked, and the inverted-list
    directory against the centroid ids in codes.bin; any disagreement, a
    non-finite centroid or codec float, a passage without embeddings, or
    passage ids that are not strictly ascending, raises FormatError naming
    the file."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise FormatError(f"{directory} does not contain an index (missing meta.json)") from None
    except ValueError as exc:
        raise FormatError(f"{meta_path} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format_version") != FORMAT_VERSION:
        version = meta.get("format_version") if isinstance(meta, dict) else None
        raise FormatError(f"unsupported index format version {version}")
    keys = ("dim", "centroid_count", "embedding_count", "passage_count", "id_bits", "seed")
    if not all(type(meta.get(k)) is int and meta[k] >= 0 for k in keys):
        raise FormatError(f"{meta_path} needs nonnegative integers {', '.join(keys)}")
    dim, c_count, n, p_count, id_bits = (meta[k] for k in keys[:5])
    if dim < 1 or c_count < 1 or id_bits != id_bit_width(c_count):
        raise FormatError(f"{meta_path} has dim {dim}, centroid_count {c_count}, id_bits {id_bits}")

    centroids = np.frombuffer(_read_sized(directory / "centroids.f32", 4 * c_count * dim), dtype="<f4")
    codec_raw = np.frombuffer(_read_sized(directory / "codec.f32", 4 * 7 * dim), dtype="<f4")
    for name, values in (("centroids.f32", centroids), ("codec.f32", codec_raw)):
        if not np.isfinite(values).all():
            raise FormatError(f"{directory / name} holds a non-finite float")
    codec = ResidualCodec(
        cuts=codec_raw[: 3 * dim].reshape(3, dim).copy(),
        reps=codec_raw[3 * dim :].reshape(4, dim).copy(),
    )
    codes_path = directory / "codes.bin"
    blob = _read_sized(codes_path, -(-n * bits_per_embedding(dim, c_count) // 8))
    centroid_ids, residual_codes = unpack_codes(blob, n, dim, id_bits)
    if n and centroid_ids.max() >= c_count:
        raise FormatError(f"{codes_path} names a centroid id >= centroid_count {c_count}")

    lists_path = directory / "invlists.bin"
    buf = lists_path.read_bytes()
    if len(buf) < 4:
        raise FormatError(f"{lists_path} is truncated")
    (n_lists,) = struct.unpack_from("<I", buf)
    heads, end = _decode_uvarint(buf, 4, 2 * n_lists, lists_path)
    gaps, lengths = heads[0::2], heads[1::2]
    cids = np.cumsum(gaps)
    if end != len(buf) or np.any(gaps[1:] < 1) or np.any(gaps >= c_count) or np.any(cids >= c_count):
        raise FormatError(f"{lists_path} is not an ascending list of centroid ids below {c_count}")
    stored = np.zeros(c_count, dtype=np.int64)
    stored[cids] = lengths
    if np.any(lengths < 1) or not np.array_equal(stored, np.bincount(centroid_ids, minlength=c_count)):
        raise FormatError(f"{lists_path} disagrees with the centroid ids in {codes_path.name}")

    passages_path = directory / "passages.bin"
    buf = passages_path.read_bytes()
    if len(buf) < 4 or struct.unpack_from("<I", buf)[0] != p_count:
        raise FormatError(f"{passages_path} disagrees with meta.json on the passage count")
    counts, offset = _decode_uvarint(buf, 4, p_count, passages_path)
    if counts.sum() != n:
        raise FormatError(f"{passages_path} lists {counts.sum()} embeddings, meta.json {n}")
    if np.any(counts < 1):
        raise FormatError(f"{passages_path} lists a passage with no embeddings")
    if offset >= len(buf) or buf[offset] > 1:
        raise FormatError(f"{passages_path} has a missing or unknown id mode")
    explicit = buf[offset]
    offset += 1
    if explicit:
        ids = []
        for _ in range(p_count):
            (length,), offset = _decode_uvarint(buf, offset, 1, passages_path)
            raw = buf[offset : offset + length]
            offset += length
            if len(raw) != length:
                raise FormatError(f"{passages_path}: passage id cut short")
            try:
                ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"{passages_path}: passage id is not UTF-8") from None
    else:
        ids = [str(i) for i in range(p_count)]
    if any(a >= b for a, b in zip(ids, ids[1:])):  # build_index writes them ascending
        raise FormatError(f"{passages_path} names a passage id twice or out of ascending order")
    if offset != len(buf):
        raise FormatError(f"{passages_path} has {len(buf) - offset} bytes after the passage ids")

    return CompressedIndex(
        centroids=centroids.reshape(c_count, dim).copy(),
        codec=codec,
        centroid_ids=centroid_ids,
        residual_codes=residual_codes,
        passage_ids=ids,
        passage_offsets=np.concatenate(([0], np.cumsum(counts))),
        seed=meta["seed"],
    )
